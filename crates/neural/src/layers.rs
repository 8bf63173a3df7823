//! Layers with hand-derived forward/backward passes.
//!
//! `backward` takes `∂L/∂output`, **accumulates** parameter gradients and
//! produces `∂L/∂input`. The convention matches a single sample that is a
//! whole node-feature matrix (`n_nodes × features`), which is how the
//! agent consumes graphs.
//!
//! Nothing here allocates after the first call: every product goes
//! through the `_into` kernels of [`crate::matrix`] into buffers the
//! layer (or the [`crate::Mlp`] around it) keeps in a [`Scratch`], and
//! the ReLU gate is read off the stored post-activation. A parameter
//! gradient is still formed per call, from zero, and then added to the
//! accumulated one — summing straight into the accumulator would change
//! the rounding (DESIGN.md "neural kernel contract").

use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;
use crate::sparse::Csr;
use rand::Rng;

/// `Wᵀ` kept beside a weight so `g · Wᵀ` can run through the axpy kernel.
/// Weights only change through `params_mut` (optimizer step, state
/// import), which invalidates the copy; across the hundreds of backward
/// calls of one update it is built once.
#[derive(Debug, Default)]
pub(crate) struct Transposed {
    t: Matrix,
    fresh: bool,
}

impl Transposed {
    pub(crate) fn of(&mut self, w: &Matrix) -> &Matrix {
        if !self.fresh {
            w.transpose_into(&mut self.t);
            self.fresh = true;
        }
        &self.t
    }

    pub(crate) fn invalidate(&mut self) {
        self.fresh = false;
    }
}

/// Fully-connected layer `y = xW + b`. It keeps no activations: the
/// caller owns them and hands the forward input back to `backward`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight, `in × out`.
    pub(crate) w: Param,
    /// Bias, `1 × out`.
    pub(crate) b: Param,
    ws: Scratch<LinearScratch>,
}

#[derive(Debug, Default)]
struct LinearScratch {
    wt: Transposed,
    /// This call's `xᵀg` and `Σ_rows g`.
    w_step: Matrix,
    b_step: Matrix,
}

impl Linear {
    /// Kaiming-initialized layer.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        Linear {
            w: Param::new(Matrix::kaiming(fan_in, fan_out, rng)),
            b: Param::new(Matrix::zeros(1, fan_out)),
            ws: Scratch::default(),
        }
    }

    /// `y = xW + b`.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        x.matmul_into(&self.w.value, y);
        y.add_row_broadcast(&self.b.value);
    }

    /// Backward pass for the forward input `x`: accumulates
    /// `∂L/∂W = xᵀg`, `∂L/∂b = Σ_rows g`, writes `∂L/∂x = g Wᵀ`.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        let ws = &mut self.ws.0;
        x.t_matmul_into(grad_out, &mut ws.w_step);
        self.w.grad.add_assign(&ws.w_step);
        grad_out.sum_rows_into(&mut ws.b_step);
        self.b.grad.add_assign(&ws.b_step);
        grad_out.matmul_into(ws.wt.of(&self.w.value), grad_in);
    }

    /// Mutable access to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.ws.0.wt.invalidate();
        vec![&mut self.w, &mut self.b]
    }
}

/// Graph-convolution layer (paper Eq. 7):
/// `H' = ReLU(Â H W)` with `Â = D^{-1/2}(A + I)D^{-1/2}` fixed.
///
/// `Â` is symmetric, so the backward pass can propagate with `Â` itself
/// instead of its transpose:
/// `∂L/∂W = (ÂH)ᵀ · g`, `∂L/∂H = Â · g · Wᵀ` (with `g` already gated by
/// the ReLU).
#[derive(Clone, Debug)]
pub struct Gcn {
    /// Weight, `in × out`.
    pub(crate) w: Param,
    adj: Csr,
    ws: Scratch<GcnScratch>,
}

#[derive(Debug, Default)]
struct GcnScratch {
    /// `ÂH` and `ReLU(ÂHW)` of the last forward.
    ah: Matrix,
    out: Matrix,
    /// The ReLU-gated output gradient of the last backward.
    gated: Matrix,
    w_step: Matrix,
    wt: Transposed,
    gw: Matrix,
    grad_in: Matrix,
}

impl Gcn {
    /// New layer over a fixed normalized adjacency.
    pub fn new(adj: Csr, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        debug_assert!(adj.is_symmetric(1e-9), "GCN requires a symmetric operator");
        Gcn {
            w: Param::new(Matrix::kaiming(fan_in, fan_out, rng)),
            adj,
            ws: Scratch::default(),
        }
    }

    /// The propagation operator this layer uses.
    pub fn adjacency(&self) -> &Csr {
        &self.adj
    }

    /// Forward pass; the result is [`Gcn::output`].
    pub fn forward(&mut self, h: &Matrix) {
        let ws = &mut self.ws.0;
        self.adj.matmul_dense_into(h, &mut ws.ah);
        ws.ah.matmul_into(&self.w.value, &mut ws.out);
        ws.out.relu_in_place();
    }

    /// `H'` of the last forward pass.
    pub fn output(&self) -> &Matrix {
        &self.ws.0.out
    }

    /// The parameter half of [`Gcn::backward`]: accumulates into `w.grad`
    /// only. The first layer of a stack stops here — nothing consumes
    /// the gradient of the input features.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        let ws = &mut self.ws.0;
        ws.gated.copy_from(grad_out);
        ws.gated.relu_gate(&ws.out);
        ws.ah.t_matmul_into(&ws.gated, &mut ws.w_step);
        self.w.grad.add_assign(&ws.w_step);
    }

    /// Backward pass; accumulates into `w.grad`, leaves `∂L/∂H` in
    /// [`Gcn::input_grad`].
    pub fn backward(&mut self, grad_out: &Matrix) {
        self.backward_params(grad_out);
        let ws = &mut self.ws.0;
        ws.gated.matmul_into(ws.wt.of(&self.w.value), &mut ws.gw);
        self.adj.matmul_dense_into(&ws.gw, &mut ws.grad_in);
    }

    /// `∂L/∂H` of the last [`Gcn::backward`].
    pub fn input_grad(&self) -> &Matrix {
        &self.ws.0.grad_in
    }

    /// Mutable access to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.ws.0.wt.invalidate();
        vec![&mut self.w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_hand_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w.value = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b.value = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let mut y = Matrix::zeros(0, 0);
        l.forward_into(&Matrix::from_vec(1, 2, vec![1.0, 1.0]), &mut y);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    fn linear_sum(l: &Linear, x: &Matrix) -> f64 {
        let mut y = Matrix::zeros(0, 0);
        l.forward_into(x, &mut y);
        y.as_slice().iter().sum()
    }

    fn gcn_sum(l: &mut Gcn, x: &Matrix) -> f64 {
        l.forward(x);
        l.output().as_slice().iter().sum()
    }

    fn ones_like(m: &Matrix) -> Matrix {
        Matrix::from_vec(m.rows(), m.cols(), vec![1.0; m.as_slice().len()])
    }

    #[test]
    fn linear_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::kaiming(4, 3, &mut rng);
        let mut layer = Linear::new(3, 2, &mut rng);
        // Loss = sum of outputs; dL/dy = ones.
        check_param_gradients(
            &mut |l: &mut Linear| linear_sum(l, &x),
            &mut |l: &mut Linear| {
                l.backward(
                    &x,
                    &Matrix::from_vec(4, 2, vec![1.0; 8]),
                    &mut Matrix::zeros(0, 0),
                );
            },
            &mut layer,
            |l| l.params_mut(),
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn linear_input_gradient_passes_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::kaiming(2, 3, &mut rng);
        let mut gx = Matrix::zeros(0, 0);
        layer.backward(&x, &Matrix::from_vec(2, 2, vec![1.0; 4]), &mut gx);
        let eps = 1e-6;
        for i in 0..x.as_slice().len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fp = linear_sum(&layer, &xp);
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fm = linear_sum(&layer, &xm);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gx.as_slice()[i] - fd).abs() < 1e-5, "input grad {i}");
        }
    }

    fn path_adjacency() -> Csr {
        // 3-node path graph normalized adjacency with self-loops.
        let d = [2.0f64, 3.0, 2.0];
        let mut t = vec![];
        for (i, &di) in d.iter().enumerate() {
            t.push((i, i, 1.0 / di));
        }
        for &(a, b) in &[(0usize, 1usize), (1, 2)] {
            let w = 1.0 / (d[a] * d[b]).sqrt();
            t.push((a, b, w));
            t.push((b, a, w));
        }
        Csr::from_triples(3, &t)
    }

    #[test]
    fn gcn_propagates_between_neighbors_only() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gcn = Gcn::new(path_adjacency(), 1, 1, &mut rng);
        gcn.w.value = Matrix::from_vec(1, 1, vec![1.0]);
        // Only node 0 has a feature; after one layer nodes 0 and 1 see it,
        // node 2 (two hops away) does not.
        let h = Matrix::from_vec(3, 1, vec![1.0, 0.0, 0.0]);
        gcn.forward(&h);
        let y = gcn.output();
        assert!(y.get(0, 0) > 0.0);
        assert!(y.get(1, 0) > 0.0);
        assert_eq!(y.get(2, 0), 0.0);
    }

    #[test]
    fn gcn_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.3); // keep ReLU mostly active
        let mut layer = Gcn::new(path_adjacency(), 2, 2, &mut rng);
        check_param_gradients(
            &mut |l: &mut Gcn| gcn_sum(l, &x),
            &mut |l: &mut Gcn| {
                l.forward(&x);
                l.backward(&ones_like(l.output()));
            },
            &mut layer,
            |l| l.params_mut(),
            1e-5,
            1e-4,
        );
    }

    #[test]
    fn gcn_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Gcn::new(path_adjacency(), 2, 3, &mut rng);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.5);
        layer.forward(&x);
        layer.backward(&ones_like(layer.output()));
        let gx = layer.input_grad().clone();
        let eps = 1e-6;
        for i in 0..x.as_slice().len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fp = gcn_sum(&mut layer, &xp);
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fm = gcn_sum(&mut layer, &xm);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gx.as_slice()[i] - fd).abs() < 1e-4, "input grad {i}");
        }
    }

    #[test]
    fn params_only_backward_accumulates_the_same_weight_gradient() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Matrix::kaiming(3, 2, &mut rng);
        let g = Matrix::kaiming(3, 3, &mut rng);
        let mut full = Gcn::new(path_adjacency(), 2, 3, &mut rng);
        let mut params_only = full.clone();
        full.forward(&x);
        full.backward(&g);
        params_only.forward(&x);
        params_only.backward_params(&g);
        assert_eq!(full.w.grad, params_only.w.grad);
    }

    #[test]
    fn a_stepped_weight_refreshes_the_transposed_copy() {
        // `params_mut` is the only way to the weights; it must invalidate
        // the cached `Wᵀ` or the next input gradient uses stale weights.
        let mut rng = StdRng::seed_from_u64(8);
        let x = Matrix::kaiming(3, 2, &mut rng);
        let mut layer = Gcn::new(path_adjacency(), 2, 3, &mut rng);
        layer.forward(&x);
        layer.backward(&ones_like(layer.output()));
        for v in layer.params_mut()[0].value.as_mut_slice() {
            *v = -*v + 0.25;
        }
        let mut fresh = layer.clone();
        for l in [&mut layer, &mut fresh] {
            l.forward(&x);
            l.backward(&ones_like(l.output()));
        }
        assert_eq!(layer.input_grad(), fresh.input_grad());
    }

    #[test]
    fn cloning_a_layer_leaves_its_scratch_behind() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Gcn::new(path_adjacency(), 2, 3, &mut rng);
        layer.forward(&Matrix::kaiming(3, 2, &mut rng));
        assert_eq!(layer.output().rows(), 3);
        assert_eq!(layer.clone().output().rows(), 0, "buffers are not state");
    }
}
