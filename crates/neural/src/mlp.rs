//! Multi-layer perceptron: `Linear → ReLU → … → Linear`.

use crate::layers::Linear;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;
use rand::Rng;

/// An MLP with ReLU between hidden layers and a linear output layer —
/// the shape of both the actor and critic heads in Fig. 6 (hidden sizes
/// from Table 2: 64×64 … 512×512).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    ws: Scratch<MlpScratch>,
}

#[derive(Debug, Default)]
struct MlpScratch {
    /// `acts[0]` is a copy of the input, `acts[i + 1]` the output of
    /// layer `i` (post-ReLU for hidden layers, so it doubles as the next
    /// layer's input and as the gate of the backward pass).
    acts: Vec<Matrix>,
    /// Gradient flowing backward, and the buffer the next layer writes.
    grad: Matrix,
    grad_next: Matrix,
}

impl Mlp {
    /// Build with the given layer widths, e.g. `[in, 64, 64, out]`.
    pub fn new(widths: &[usize], rng: &mut impl Rng) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        Mlp {
            layers: widths
                .windows(2)
                .map(|w| Linear::new(w[0], w[1], rng))
                .collect(),
            ws: Scratch::default(),
        }
    }

    /// Forward pass; the result is [`Mlp::output`].
    pub fn forward(&mut self, x: &Matrix) {
        let acts = &mut self.ws.0.acts;
        acts.resize_with(self.layers.len() + 1, Matrix::default);
        acts[0].copy_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = acts.split_at_mut(i + 1);
            layer.forward_into(&inputs[i], &mut outputs[0]);
            if i + 1 < self.layers.len() {
                outputs[0].relu_in_place();
            }
        }
    }

    /// Output of the last forward pass.
    pub fn output(&self) -> &Matrix {
        self.ws.0.acts.last().expect("forward before output")
    }

    /// Backward pass; leaves `∂L/∂input` in [`Mlp::input_grad`].
    pub fn backward(&mut self, grad_out: &Matrix) {
        let ws = &mut self.ws.0;
        assert_eq!(
            ws.acts.len(),
            self.layers.len() + 1,
            "forward before backward"
        );
        ws.grad.copy_from(grad_out);
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.backward(&ws.acts[i], &ws.grad, &mut ws.grad_next);
            if i > 0 {
                ws.grad_next.relu_gate(&ws.acts[i]);
            }
            std::mem::swap(&mut ws.grad, &mut ws.grad_next);
        }
    }

    /// `∂L/∂input` of the last backward pass.
    pub fn input_grad(&self) -> &Matrix {
        &self.ws.0.grad
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn widths_define_architecture() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[8, 64, 64, 3], &mut rng);
        assert_eq!(mlp.num_params(), 8 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3);
    }

    #[test]
    fn single_layer_mlp_is_linear() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 1], &mut rng);
        mlp.layers[0].w.value = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        mlp.layers[0].b.value = Matrix::from_vec(1, 1, vec![0.5]);
        mlp.forward(&Matrix::from_vec(1, 2, vec![3.0, 1.0]));
        assert_eq!(mlp.output().as_slice(), &[5.5]);
    }

    #[test]
    fn deep_mlp_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::kaiming(3, 4, &mut rng);
        let mut mlp = Mlp::new(&[4, 8, 8, 2], &mut rng);
        check_param_gradients(
            &mut |m: &mut Mlp| {
                m.forward(&x);
                m.output().as_slice().iter().sum::<f64>()
            },
            &mut |m: &mut Mlp| {
                m.forward(&x);
                m.backward(&Matrix::from_vec(3, 2, vec![1.0; 6]));
            },
            &mut mlp,
            |m| m.params_mut(),
            1e-5,
            1e-4,
        );
    }

    #[test]
    fn backward_returns_input_gradient_of_right_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[5, 16, 2], &mut rng);
        let x = Matrix::kaiming(7, 5, &mut rng);
        mlp.forward(&x);
        mlp.backward(&Matrix::zeros(7, 2));
        let g = mlp.input_grad();
        assert_eq!((g.rows(), g.cols()), (7, 5));
    }
}
