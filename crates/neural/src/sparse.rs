//! CSR sparse matrices for the GCN propagation operator `Â`.

use crate::matrix::{add_scaled_rows, widest, Matrix};

/// A square sparse matrix in compressed-sparse-row form.
///
/// Built once per planning problem from
/// `np_topology::TransformedGraph::normalized_adjacency` and reused for
/// every GCN forward/backward of every trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from `(row, col, value)` triples (duplicates summed).
    pub fn from_triples(n: usize, triples: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triples.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last_rc: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            assert!(r < n && c < n, "triple out of range");
            if last_rc == Some((r, c)) {
                *values.last_mut().expect("entry exists") += v;
                continue;
            }
            last_rc = Some((r, c));
            // row_ptr[r+1] counts entries in row r until the prefix-sum below.
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        Csr {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The identity matrix (a GCN with "0 layers" degenerates to this).
    pub fn identity(n: usize) -> Self {
        Csr {
            n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `out = self · dense` — the `ÂH` product of Eq. 7. Each output
    /// element adds its row's stored entries in storage order (none
    /// skipped), through the same register strips as the dense kernel.
    pub fn matmul_dense_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(self.n, dense.rows(), "spmm shape mismatch");
        let m = dense.cols();
        out.resize(self.n, m);
        widest(
            #[inline(always)]
            |strip| self.spmm_body(strip, dense.as_slice(), m, out.as_mut_slice()),
        );
    }

    /// `out = self · dense` for a row-major `dense` of width `m`.
    #[inline(always)]
    fn spmm_body(&self, strip: usize, dense: &[f64], m: usize, out: &mut [f64]) {
        out.fill(0.0);
        if m == 0 {
            return;
        }
        for (r, orow) in out.chunks_exact_mut(m).enumerate() {
            let entries = self.row_ptr[r]..self.row_ptr[r + 1];
            add_scaled_rows(
                strip,
                &self.col_idx[entries.clone()],
                &self.values[entries],
                dense,
                orow,
            );
        }
    }

    /// Whether the matrix is symmetric (the normalized adjacency must be,
    /// which lets the GCN backward pass reuse `Â` instead of `Âᵀ`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let v = self.values[k];
                let mirror = self.get(c, r);
                if (v - mirror).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Entry accessor (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let row = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
        match row.binary_search(&c) {
            Ok(k) => self.values[self.row_ptr[r] + k],
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{bits, builds, in_build, random_matrix, random_shape};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn from_triples_and_get() {
        let a = Csr::from_triples(3, &[(0, 1, 2.0), (1, 0, 2.0), (2, 2, 1.0)]);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn duplicate_triples_sum() {
        let a = Csr::from_triples(2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = Csr::from_triples(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        let h = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_dense_into(&h, &mut out);
        assert_eq!(out.as_slice(), &[1.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn identity_is_a_no_op() {
        let h = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::zeros(0, 0);
        Csr::identity(3).matmul_dense_into(&h, &mut out);
        assert_eq!(out, h);
    }

    #[test]
    fn every_build_of_the_sparse_product_is_the_naive_loop_bit_for_bit() {
        let builds = builds("sparse product");
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, _, m) = random_shape(&mut rng);
            let n = rng.gen_range(1..20);
            let mut triples = Vec::new();
            for r in 0..n {
                for c in 0..n {
                    if rng.gen_range(0..3) == 0 {
                        // Stored zeros are *not* skipped by the sparse product.
                        let v = if rng.gen_range(0..8) == 0 {
                            0.0
                        } else {
                            rng.gen_range(-1.0..1.0)
                        };
                        triples.push((r, c, v));
                    }
                }
            }
            let adj = Csr::from_triples(n, &triples);
            let h = random_matrix(n, m, &mut rng);
            let mut want = vec![0.0; n * m];
            for r in 0..n {
                for k in adj.row_ptr[r]..adj.row_ptr[r + 1] {
                    for j in 0..m {
                        want[r * m + j] += adj.values[k] * h.get(adj.col_idx[k], j);
                    }
                }
            }
            for build in &builds {
                let mut out = vec![f64::NAN; n * m];
                in_build(
                    build,
                    #[inline(always)]
                    |strip| adj.spmm_body(strip, h.as_slice(), m, &mut out),
                );
                assert_eq!(bits(&out), bits(&want), "{build}, seed {seed}");
            }
        }
    }

    #[test]
    fn no_build_of_the_sparse_product_fuses_a_multiply_with_its_add() {
        // See the dense kernel's sentinel: +0.0 unfused, 2⁻⁶⁰ fused.
        let (x, y) = (1.0 + 2f64.powi(-30), -(1.0 + 2f64.powi(-29)));
        let a = Csr::from_triples(2, &[(0, 0, 1.0), (0, 1, x)]);
        for build in builds("sparse fma sentinel") {
            for m in (1..=40).chain([63, 64, 65]) {
                let h: Vec<f64> = [y, x].iter().flat_map(|&v| vec![v; m]).collect();
                let mut out = vec![f64::NAN; 2 * m];
                in_build(
                    build,
                    #[inline(always)]
                    |strip| a.spmm_body(strip, &h, m, &mut out),
                );
                assert_eq!(bits(&out), vec![0; 2 * m], "{build}, width {m}");
            }
        }
    }

    #[test]
    fn symmetry_detection() {
        let sym = Csr::from_triples(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-12));
        let asym = Csr::from_triples(2, &[(0, 1, 1.0)]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn transformed_graph_adjacency_roundtrips() {
        // Normalized adjacency entries from np-topology form a valid
        // symmetric CSR.
        use np_topology::{generator::preset_network, transform, TopologyPreset};
        let net = preset_network(TopologyPreset::A);
        let g = transform(&net);
        let adj = Csr::from_triples(g.num_nodes(), &g.normalized_adjacency());
        assert!(adj.is_symmetric(1e-12));
        assert_eq!(adj.n(), net.links().len());
    }
}
