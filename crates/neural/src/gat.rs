//! Graph attention layer (Veličković et al.), single-head.
//!
//! §4.2 of the paper: "We have also experimented NeuroPlan with a Graph
//! Attention Network (GAT). GATs introduce an attention mechanism as a
//! substitute for the statically normalized convolution operation in
//! GCNs. GATs did not perform as well as GCNs for our problem." This
//! module provides that alternative encoder so the comparison is
//! reproducible.
//!
//! For node `i` with neighbourhood `N(i) ∪ {i}`:
//!
//! ```text
//!   z        = H W
//!   e_ij     = LeakyReLU(a₁·z_i + a₂·z_j)
//!   α_i·     = softmax_j(e_ij)
//!   out_i    = ReLU(Σ_j α_ij z_j)
//! ```
//!
//! All gradients are hand-derived and checked against finite differences
//! in the tests.

// Per-node loops index several parallel arrays (scores, attention rows,
// gradients) at once; enumerate over any single one hides the coupling.
#![allow(clippy::needless_range_loop)]

use crate::layers::Transposed;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;
use rand::Rng;

/// Negative slope of the attention LeakyReLU (the GAT paper's 0.2).
const LEAKY_SLOPE: f64 = 0.2;

/// Single-head graph attention layer over a fixed neighbour structure.
#[derive(Clone, Debug)]
pub struct Gat {
    /// Feature transform, `in × out`.
    pub(crate) w: Param,
    /// Attention vector for the *source* part, `1 × out`.
    pub(crate) a_src: Param,
    /// Attention vector for the *neighbour* part, `1 × out`.
    pub(crate) a_dst: Param,
    /// Neighbour lists including the self-loop, fixed per problem.
    neighbors: Vec<Vec<usize>>,
    ws: Scratch<GatScratch>,
}

#[derive(Debug, Default)]
struct GatScratch {
    input: Matrix,
    z: Matrix,
    s_src: Vec<f64>,
    s_dst: Vec<f64>,
    /// Attention weights α, aligned with `neighbors`.
    alpha: Vec<Vec<f64>>,
    /// Pre-LeakyReLU attention logits.
    raw: Vec<Vec<f64>>,
    /// `ReLU` of the aggregated output.
    out: Matrix,
    /// Backward: gated output gradient, `∂L/∂z`, per-node scalars.
    gated: Matrix,
    dz: Matrix,
    dalpha: Vec<f64>,
    ds_src: Vec<f64>,
    ds_dst: Vec<f64>,
    w_step: Matrix,
    wt: Transposed,
    grad_in: Matrix,
}

impl Gat {
    /// Build over neighbour lists (self-loops are added automatically).
    pub fn new(
        mut neighbors: Vec<Vec<usize>>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        for (i, list) in neighbors.iter_mut().enumerate() {
            if !list.contains(&i) {
                list.push(i);
            }
            list.sort_unstable();
        }
        Gat {
            w: Param::new(Matrix::kaiming(fan_in, fan_out, rng)),
            a_src: Param::new(Matrix::kaiming(1, fan_out, rng)),
            a_dst: Param::new(Matrix::kaiming(1, fan_out, rng)),
            neighbors,
            ws: Scratch::default(),
        }
    }

    /// Number of nodes this layer is built for.
    pub fn num_nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Forward pass; the result is [`Gat::output`].
    pub fn forward(&mut self, h: &Matrix) {
        let n = self.neighbors.len();
        assert_eq!(h.rows(), n, "node count mismatch");
        let ws = &mut self.ws.0;
        ws.input.copy_from(h);
        h.matmul_into(&self.w.value, &mut ws.z);
        let z = &ws.z;
        let d = z.cols();
        // Scalar attention terms.
        let dot = |row: &[f64], a: &Param| -> f64 {
            row.iter().zip(a.value.as_slice()).map(|(x, y)| x * y).sum()
        };
        ws.s_src.clear();
        ws.s_src.extend((0..n).map(|i| dot(z.row(i), &self.a_src)));
        ws.s_dst.clear();
        ws.s_dst.extend((0..n).map(|j| dot(z.row(j), &self.a_dst)));
        ws.alpha.resize_with(n, Vec::new);
        ws.raw.resize_with(n, Vec::new);
        ws.out.resize(n, d);
        ws.out.fill(0.0);
        for i in 0..n {
            let js = &self.neighbors[i];
            let (raw_i, alpha_i) = (&mut ws.raw[i], &mut ws.alpha[i]);
            raw_i.clear();
            raw_i.extend(js.iter().map(|&j| ws.s_src[i] + ws.s_dst[j]));
            // LeakyReLU, then a max-shifted softmax over the neighbourhood.
            alpha_i.clear();
            alpha_i.extend(
                raw_i
                    .iter()
                    .map(|&e| if e > 0.0 { e } else { LEAKY_SLOPE * e }),
            );
            let max = alpha_i.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            for e in alpha_i.iter_mut() {
                *e = (*e - max).exp();
            }
            let sum: f64 = alpha_i.iter().sum();
            for e in alpha_i.iter_mut() {
                *e /= sum;
            }
            for (&j, &a) in js.iter().zip(alpha_i.iter()) {
                let zrow = z.row(j);
                for c in 0..d {
                    let v = ws.out.get(i, c) + a * zrow[c];
                    ws.out.set(i, c, v);
                }
            }
        }
        ws.out.relu_in_place();
    }

    /// Output of the last forward pass.
    pub fn output(&self) -> &Matrix {
        &self.ws.0.out
    }

    /// Backward pass; accumulates parameter gradients and leaves
    /// `∂L/∂H` in [`Gat::input_grad`].
    pub fn backward(&mut self, grad_out: &Matrix) {
        let ws = &mut self.ws.0;
        let n = self.neighbors.len();
        let d = ws.z.cols();
        // Gate through the output ReLU.
        ws.gated.copy_from(grad_out);
        ws.gated.relu_gate(&ws.out);
        let (r, z) = (&ws.gated, &ws.z);
        ws.dz.resize(n, d);
        ws.dz.fill(0.0);
        let dz = &mut ws.dz;
        for ds in [&mut ws.ds_src, &mut ws.ds_dst] {
            ds.clear();
            ds.resize(n, 0.0);
        }
        for i in 0..n {
            let js = &self.neighbors[i];
            let alpha_i = &ws.alpha[i];
            // dα_ij = r_i · z_j
            ws.dalpha.clear();
            ws.dalpha.extend(js.iter().map(|&j| {
                let mut s = 0.0;
                for c in 0..d {
                    s += r.get(i, c) * z.get(j, c);
                }
                s
            }));
            let dalpha = &ws.dalpha;
            // Softmax backward: de = α ∘ (dα − Σ α dα).
            let inner: f64 = alpha_i.iter().zip(dalpha).map(|(a, g)| a * g).sum();
            for (k, &j) in js.iter().enumerate() {
                // Aggregation path: dz_j += α_ij r_i.
                for c in 0..d {
                    let v = dz.get(j, c) + alpha_i[k] * r.get(i, c);
                    dz.set(j, c, v);
                }
                let de = alpha_i[k] * (dalpha[k] - inner);
                let slope = if ws.raw[i][k] > 0.0 { 1.0 } else { LEAKY_SLOPE };
                let dr = de * slope;
                ws.ds_src[i] += dr;
                ws.ds_dst[j] += dr;
            }
        }
        // s_src_i = z_i · a_src; s_dst_j = z_j · a_dst.
        for i in 0..n {
            for c in 0..d {
                let za = z.get(i, c);
                self.a_src.grad.as_mut_slice()[c] += ws.ds_src[i] * za;
                self.a_dst.grad.as_mut_slice()[c] += ws.ds_dst[i] * za;
                let v = dz.get(i, c)
                    + ws.ds_src[i] * self.a_src.value.as_slice()[c]
                    + ws.ds_dst[i] * self.a_dst.value.as_slice()[c];
                dz.set(i, c, v);
            }
        }
        // z = h W.
        ws.input.t_matmul_into(dz, &mut ws.w_step);
        self.w.grad.add_assign(&ws.w_step);
        dz.matmul_into(ws.wt.of(&self.w.value), &mut ws.grad_in);
    }

    /// `∂L/∂H` of the last backward pass.
    pub fn input_grad(&self) -> &Matrix {
        &self.ws.0.grad_in
    }

    /// Mutable access to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.ws.0.wt.invalidate();
        vec![&mut self.w, &mut self.a_src, &mut self.a_dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gat_sum(l: &mut Gat, x: &Matrix) -> f64 {
        l.forward(x);
        l.output().as_slice().iter().sum()
    }

    fn path_neighbors(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gat = Gat::new(path_neighbors(4), 3, 5, &mut rng);
        let h = Matrix::kaiming(4, 3, &mut rng);
        gat.forward(&h);
        for (i, alpha) in gat.ws.0.alpha.iter().enumerate() {
            let sum: f64 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn information_stays_within_one_hop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gat = Gat::new(path_neighbors(4), 1, 1, &mut rng);
        // Two inputs differing only at node 3: outputs at node 0 (two hops
        // away) must agree.
        let h1 = Matrix::from_vec(4, 1, vec![0.5, 0.5, 0.5, 0.5]);
        let h2 = Matrix::from_vec(4, 1, vec![0.5, 0.5, 0.5, 9.0]);
        gat.forward(&h1);
        let o1 = gat.output().clone();
        gat.forward(&h2);
        let o2 = gat.output().clone();
        assert!((o1.get(0, 0) - o2.get(0, 0)).abs() < 1e-12);
        assert!((o1.get(2, 0) - o2.get(2, 0)).abs() > 0.0 || o1.get(2, 0) == 0.0);
    }

    #[test]
    fn gat_parameter_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::kaiming(4, 3, &mut rng).map(|v| v + 0.2);
        let mut layer = Gat::new(path_neighbors(4), 3, 4, &mut rng);
        check_param_gradients(
            &mut |l: &mut Gat| gat_sum(l, &x),
            &mut |l: &mut Gat| {
                l.forward(&x);
                l.backward(&Matrix::from_vec(4, 4, vec![1.0; 16]));
            },
            &mut layer,
            |l| l.params_mut(),
            1e-6,
            2e-4,
        );
    }

    #[test]
    fn gat_input_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Gat::new(path_neighbors(3), 2, 3, &mut rng);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.3);
        layer.forward(&x);
        layer.backward(&Matrix::from_vec(3, 3, vec![1.0; 9]));
        let gx = layer.input_grad().clone();
        let eps = 1e-6;
        for i in 0..x.as_slice().len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fp = gat_sum(&mut layer, &xp);
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fm = gat_sum(&mut layer, &xm);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (gx.as_slice()[i] - fd).abs() < 2e-4 * (1.0 + fd.abs()),
                "input grad {i}: {} vs {fd}",
                gx.as_slice()[i]
            );
        }
    }

    #[test]
    fn self_loops_are_always_included() {
        let mut rng = StdRng::seed_from_u64(5);
        let gat = Gat::new(vec![vec![], vec![]], 1, 1, &mut rng);
        assert_eq!(gat.neighbors, vec![vec![0], vec![1]]);
        assert_eq!(gat.num_nodes(), 2);
    }
}
