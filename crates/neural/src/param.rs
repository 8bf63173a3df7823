//! Trainable parameters: value + gradient + Adam moments in one bundle.

use crate::matrix::Matrix;

/// A trainable tensor. Layers accumulate into `grad` during backward;
/// [`crate::optim::Adam`] consumes `grad` (and maintains `m`/`v`) during
/// `step`, then the trainer calls [`Param::zero_grad`].
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

impl Param {
    /// Wrap an initial value with zeroed gradient and moments.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param {
            grad: grad.clone(),
            m: grad.clone(),
            v: grad,
            value,
        }
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.as_slice().len()
    }

    /// Whether the parameter is empty (zero-sized).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_moments() {
        let p = Param::new(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(p.grad.as_slice(), &[0.0; 4]);
        assert_eq!(p.m.as_slice(), &[0.0; 4]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.grad.axpy(1.0, &Matrix::from_vec(1, 2, vec![5.0, 6.0]));
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
