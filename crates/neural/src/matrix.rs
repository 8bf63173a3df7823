//! Dense row-major matrices with exactly the kernels the model needs.

use rand::Rng;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Kaiming-style init: `N(0, sqrt(2/fan_in))`, the standard choice for
    /// ReLU networks (what PyTorch does for our layers).
    pub fn kaiming(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        let data = (0..rows * cols).map(|_| gauss(rng) * std).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place, reusing the allocation; contents are unspecified
    /// until the caller (a kernel writing into this buffer) fills them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Set every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `out = self · other` (see [`accumulate`] for the kernel contract).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.resize(self.rows, other.cols);
        let lhs = Lhs {
            data: &self.data,
            row_stride: self.cols,
            depth_stride: 1,
        };
        accumulate(lhs, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// `out = selfᵀ · other` without materializing the transpose.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.resize(self.cols, other.cols);
        let lhs = Lhs {
            data: &self.data,
            row_stride: 1,
            depth_stride: self.cols,
        };
        accumulate(lhs, self.rows, &other.data, other.cols, &mut out.data);
    }

    /// `out = selfᵀ`. `A · Bᵀ` is `A.matmul_into(&Bᵀ, ..)` over a copy
    /// the layers refresh only when `B` (a weight) may have changed.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// `self · other` into a fresh matrix (setup and tests; the hot path
    /// uses [`Matrix::matmul_into`]).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise in-place scaled addition `self += alpha · other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Add a `1 × cols` bias row to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, &b) in dst.iter_mut().zip(&bias.data) {
                *d += b;
            }
        }
    }

    /// `out` = column sums as a `1 × cols` row (the bias gradient), rows
    /// added in ascending order.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        out.fill(0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// `out` = mean over rows as a `1 × cols` row (the critic's pooling).
    pub fn mean_rows_into(&self, out: &mut Matrix) {
        self.sum_rows_into(out);
        let n = self.rows.max(1) as f64;
        for v in &mut out.data {
            *v /= n;
        }
    }

    /// `max(0, x)` elementwise, in place.
    pub fn relu_in_place(&mut self) {
        for v in &mut self.data {
            *v = v.max(0.0);
        }
    }

    /// ReLU backward, in place on the gradient: zero it wherever the
    /// stored post-activation `post` is not positive (`post > 0` exactly
    /// when the pre-activation was).
    pub fn relu_gate(&mut self, post: &Matrix) {
        assert_eq!((self.rows, self.cols), (post.rows, post.cols));
        for (g, &y) in self.data.iter_mut().zip(&post.data) {
            if y <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scale all entries in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Depth entries whose non-zero multipliers are gathered (on the stack)
/// before the output strips sweep over them.
const DEPTH_CHUNK: usize = 128;

/// The left operand of [`accumulate`]: element `(i, p)` lives at
/// `data[i * row_stride + p * depth_stride]`, which covers both `A` and
/// `Aᵀ` without copying.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f64],
    row_stride: usize,
    depth_stride: usize,
}

/// `out[i, j] = Σ_p lhs(i, p) · b[p, j]` over `depth` values of `p`, the
/// one dense kernel (DESIGN.md "neural kernel contract"): every output
/// element starts at `+0.0` and adds its terms in ascending `p`, one
/// rounding per term, skipping terms whose left factor is exactly zero —
/// the arithmetic of the naive `ikj` loop, bit for bit. The non-zero
/// factors of a row are gathered first, so the sweep over them is
/// branch-free however the zeros (ReLU outputs, masked gradients) fall.
fn accumulate(lhs: Lhs<'_>, depth: usize, b: &[f64], m: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 {
        return;
    }
    let mut nz_p = [0usize; DEPTH_CHUNK];
    let mut nz_a = [0.0f64; DEPTH_CHUNK];
    for (i, orow) in out.chunks_exact_mut(m).enumerate() {
        for p0 in (0..depth).step_by(DEPTH_CHUNK) {
            let mut cnt = 0;
            for p in p0..(p0 + DEPTH_CHUNK).min(depth) {
                let a = lhs.data[i * lhs.row_stride + p * lhs.depth_stride];
                nz_p[cnt] = p;
                nz_a[cnt] = a;
                cnt += usize::from(a != 0.0);
            }
            add_scaled_rows(&nz_p[..cnt], &nz_a[..cnt], b, orow);
        }
    }
}

/// `dst[j] += Σ_t scales[t] · b[rows[t], j]` with `b` of `dst`'s width:
/// each element of `dst` adds its terms in slice order, one rounding
/// each. Shared by the dense and the CSR product. A strip of `dst` sits
/// in registers while the terms stream past — 16 `f64` (eight SSE2
/// registers on the baseline x86-64 target) at a time, then 8/4/2/1 for
/// what is left of a narrow or ragged row.
pub(crate) fn add_scaled_rows(rows: &[usize], scales: &[f64], b: &[f64], dst: &mut [f64]) {
    let j = add_strips::<16>(rows, scales, b, dst, 0);
    let j = add_strips::<8>(rows, scales, b, dst, j);
    let j = add_strips::<4>(rows, scales, b, dst, j);
    let j = add_strips::<2>(rows, scales, b, dst, j);
    add_strips::<1>(rows, scales, b, dst, j);
}

/// The `W`-wide strips of `dst[j0..]`; returns where they end.
fn add_strips<const W: usize>(
    rows: &[usize],
    scales: &[f64],
    b: &[f64],
    dst: &mut [f64],
    mut j0: usize,
) -> usize {
    let m = dst.len();
    while m - j0 >= W {
        let mut acc = [0.0f64; W];
        acc.copy_from_slice(&dst[j0..j0 + W]);
        for (&r, &a) in rows.iter().zip(scales) {
            let brow = &b[r * m + j0..r * m + j0 + W];
            for (s, &o) in acc.iter_mut().zip(brow) {
                *s += a * o;
            }
        }
        dst[j0..j0 + W].copy_from_slice(&acc);
        j0 += W;
    }
    j0
}

/// Standard normal sample via Box-Muller (keeps us off rand_distr).
pub fn gauss(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m23();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = m23(); // 2×3
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut direct = Matrix::zeros(0, 0);
        a.t_matmul_into(&b, &mut direct); // 3×2
        let mut at = Matrix::zeros(0, 0);
        a.transpose_into(&mut at);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(direct, at.matmul(&b));
    }

    #[test]
    fn into_kernels_reshape_and_overwrite_a_reused_buffer() {
        let mut out = Matrix::from_vec(1, 3, vec![9.0; 3]);
        m23().matmul_into(&Matrix::from_vec(3, 1, vec![1.0; 3]), &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 1));
        assert_eq!(out.as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn broadcast_and_reductions() {
        let mut a = m23();
        a.add_row_broadcast(&Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]));
        assert_eq!(a.row(0), &[11.0, 22.0, 33.0]);
        let mut row = Matrix::zeros(0, 0);
        a.sum_rows_into(&mut row);
        assert_eq!(row.as_slice(), &[25.0, 47.0, 69.0]);
        m23().mean_rows_into(&mut row);
        assert_eq!(row.as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::zeros(1, 2);
        a.axpy(2.0, &Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        assert_eq!(a.as_slice(), &[6.0, 8.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn kaiming_init_has_sane_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Matrix::kaiming(256, 64, &mut rng);
        let mean: f64 = w.as_slice().iter().sum::<f64>() / w.as_slice().len() as f64;
        let var: f64 = w
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / w.as_slice().len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let expect = 2.0 / 256.0;
        assert!((var - expect).abs() < expect * 0.3, "var {var} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        m23().matmul(&m23());
    }

    #[test]
    fn relu_gate_reads_the_post_activation() {
        let mut y = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, f64::NAN]);
        y.relu_in_place();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        g.relu_gate(&y);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn map_and_norm() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.map(|v| v * v).as_slice(), &[9.0, 16.0]);
    }
}
