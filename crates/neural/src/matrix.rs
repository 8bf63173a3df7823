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
        let lhs = Lhs::Rows(&self.data);
        accumulate(
            Product {
                lhs,
                n: self.rows,
                b: other,
            },
            &mut out.data,
        );
    }

    /// `out = selfᵀ · other` without materializing the transpose.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.resize(self.cols, other.cols);
        let lhs = Lhs::Cols(&self.data);
        accumulate(
            Product {
                lhs,
                n: self.cols,
                b: other,
            },
            &mut out.data,
        );
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
        widest(
            #[inline(always)]
            |_| add(&mut self.data, &other.data),
        );
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
        widest(
            #[inline(always)]
            |_| add_row(&mut self.data, &bias.data),
        );
    }

    /// `out` = column sums as a `1 × cols` row (the bias gradient), rows
    /// added in ascending order.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        widest(
            #[inline(always)]
            |_| sum_rows(&self.data, &mut out.data),
        );
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
        widest(
            #[inline(always)]
            |_| relu(&mut self.data),
        );
    }

    /// ReLU backward, in place on the gradient: zero it wherever the
    /// stored post-activation `post` is not positive (`post > 0` exactly
    /// when the pre-activation was).
    pub fn relu_gate(&mut self, post: &Matrix) {
        assert_eq!((self.rows, self.cols), (post.rows, post.cols));
        widest(
            #[inline(always)]
            |_| gate(&mut self.data, &post.data),
        );
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

/// Runs `kernel` in the widest build this CPU can execute: compiled with
/// AVX2 where `std` detects it (the answer is cached), as the crate is
/// compiled everywhere else. `kernel` receives that build's strip width,
/// the `f64`s eight of its vector registers hold: the widest strip of
/// [`add_scaled_rows`] and the most outputs of a dense tile ([`tiles`]).
/// It must be an `#[inline(always)]` closure over
/// `#[inline(always)]` code: only code inlined into a build takes its
/// instruction set. Every build performs the same IEEE operations in the
/// same order (DESIGN.md "neural kernel contract"); FMA is never enabled.
#[inline(always)]
pub(crate) fn widest<R>(kernel: impl FnOnce(usize) -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this has AVX2, checked on the line above.
        return unsafe { avx2(kernel) };
    }
    baseline(kernel)
}

/// `kernel` as the crate is compiled: a 16-column strip is eight SSE2
/// registers on baseline x86-64.
#[inline(always)]
fn baseline<R>(kernel: impl FnOnce(usize) -> R) -> R {
    kernel(16)
}

/// `kernel` compiled with AVX2, whose sixteen 4-lane registers hold a
/// 32-column strip in eight.
///
/// # Safety
///
/// The CPU running this must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<R>(kernel: impl FnOnce(usize) -> R) -> R {
    kernel(32)
}

/// One product `lhs · b` of [`accumulate`], `lhs` being `n × b.rows`.
#[derive(Clone, Copy)]
struct Product<'a> {
    lhs: Lhs<'a>,
    n: usize,
    b: &'a Matrix,
}

/// The left operand of a [`Product`], read in place: `Rows(a)` is `a`
/// itself (element `(i, p)` at `i * depth + p`), `Cols(a)` the transpose
/// of a stored `depth × n` matrix (at `p * n + i`).
#[derive(Clone, Copy)]
enum Lhs<'a> {
    Rows(&'a [f64]),
    Cols(&'a [f64]),
}

/// `out[i, j] = Σ_p lhs(i, p) · b[p, j]`, the one dense kernel (DESIGN.md
/// "neural kernel contract"): every output element starts at `+0.0` and
/// adds its terms in ascending `p`, one rounding per term, skipping terms
/// whose left factor is exactly zero — the arithmetic of the naive `ikj`
/// loop, bit for bit. Outputs are computed in register tiles ([`tiles`]).
fn accumulate(p: Product<'_>, out: &mut [f64]) {
    widest(
        #[inline(always)]
        |strip| tiles(strip, p, out),
    );
}

/// Covers `out` with tiles of `R` rows × `C` columns, `R · C` at most
/// `strip` (32 under AVX2, eight 4-lane registers; 16 on the baseline,
/// eight 2-lane ones): row blocks of 4 (of 8 where the width is below 8
/// under AVX2, as for the actor's 4-wide head), then 2 and 1 for the
/// rows left over; in each block, the widest columns that fit, then
/// narrower ones down to 1.
#[inline(always)]
fn tiles(strip: usize, p: Product<'_>, out: &mut [f64]) {
    let mut i = 0;
    if strip == 32 && p.b.cols < 8 {
        while p.n - i >= 8 {
            row_block::<8>(strip, p, out, i);
            i += 8;
        }
    }
    while p.n - i >= 4 {
        row_block::<4>(strip, p, out, i);
        i += 4;
    }
    if p.n - i >= 2 {
        row_block::<2>(strip, p, out, i);
        i += 2;
    }
    if p.n - i >= 1 {
        row_block::<1>(strip, p, out, i);
    }
}

/// Rows `i..i + R` of `out`: tiles as wide as `strip / R` allows, then
/// narrower down to 1 column.
#[inline(always)]
fn row_block<const R: usize>(strip: usize, p: Product<'_>, out: &mut [f64], i: usize) {
    let mut j = 0;
    if R * 32 <= strip {
        j = columns::<R, 32>(p, out, i, j);
    }
    if R * 16 <= strip {
        j = columns::<R, 16>(p, out, i, j);
    }
    if R * 8 <= strip {
        j = columns::<R, 8>(p, out, i, j);
    }
    let j = columns::<R, 4>(p, out, i, j);
    let j = columns::<R, 2>(p, out, i, j);
    columns::<R, 1>(p, out, i, j);
}

/// The `R × C` tiles of rows `i..i + R` from column `j` on; returns
/// where they end.
#[inline(always)]
fn columns<const R: usize, const C: usize>(
    p: Product<'_>,
    out: &mut [f64],
    i: usize,
    mut j: usize,
) -> usize {
    let m = p.b.cols;
    while m - j >= C {
        let mut acc = sums::<R, C, false>(p, i, j);
        // A finite sum added only finite terms, so each zero left factor
        // met a finite `b` and its `±0.0` term changed nothing: the sum is
        // the one that skips it. Otherwise the tile is summed again with
        // those terms masked.
        if !acc.iter().flatten().fold(true, |ok, v| ok & v.is_finite()) {
            acc = sums::<R, C, true>(p, i, j);
        }
        for (r, acc) in acc.iter().enumerate() {
            out[(i + r) * m + j..][..C].copy_from_slice(acc);
        }
        j += C;
    }
    j
}

/// The `R × C` outputs at `(i, j)`, each in its own register accumulator
/// that runs its element's whole `p` loop in ascending order.
#[inline(always)]
fn sums<const R: usize, const C: usize, const MASK: bool>(
    p: Product<'_>,
    i: usize,
    j: usize,
) -> [[f64; C]; R] {
    let mut acc = [[0.0f64; C]; R];
    let (depth, m) = (p.b.rows, p.b.cols);
    let brows = p.b.data.chunks_exact(m).map(|brow| &brow[j..][..C]);
    match p.lhs {
        Lhs::Rows(a) => {
            let rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * depth..][..depth]);
            for (k, brow) in (0..depth).zip(brows) {
                add_terms::<R, C, MASK>(&mut acc, std::array::from_fn(|r| rows[r][k]), brow);
            }
        }
        Lhs::Cols(a) => {
            for (col, brow) in a.chunks_exact(p.n).zip(brows) {
                add_terms::<R, C, MASK>(&mut acc, col[i..][..R].try_into().unwrap(), brow);
            }
        }
    }
    acc
}

/// One `p` of a tile: `acc[r][c] += a[r] · brow[c]`. With `MASK`, a term
/// whose left factor is `±0.0` is added as `+0.0`.
#[inline(always)]
fn add_terms<const R: usize, const C: usize, const MASK: bool>(
    acc: &mut [[f64; C]; R],
    a: [f64; R],
    brow: &[f64],
) {
    let brow: &[f64; C] = brow.try_into().unwrap();
    for (acc, a) in acc.iter_mut().zip(a) {
        for (s, &o) in acc.iter_mut().zip(brow) {
            let t = a * o;
            *s += if MASK && a == 0.0 { 0.0 } else { t };
        }
    }
}

/// `dst[j] += Σ_t scales[t] · b[rows[t], j]` with `b` of `dst`'s width:
/// each element of `dst` adds its terms in slice order, one rounding
/// each: the CSR product's row kernel. A strip of `dst` sits
/// in registers while the terms stream past — `strip` (16 or 32) `f64`
/// at a time, then 16/8/4/2/1 for what is left of a narrow or ragged row.
#[inline(always)]
pub(crate) fn add_scaled_rows(
    strip: usize,
    rows: &[usize],
    scales: &[f64],
    b: &[f64],
    dst: &mut [f64],
) {
    let mut j = 0;
    if strip == 32 {
        j = add_strips::<32>(rows, scales, b, dst, j);
    }
    let j = add_strips::<16>(rows, scales, b, dst, j);
    let j = add_strips::<8>(rows, scales, b, dst, j);
    let j = add_strips::<4>(rows, scales, b, dst, j);
    let j = add_strips::<2>(rows, scales, b, dst, j);
    add_strips::<1>(rows, scales, b, dst, j);
}

/// The `W`-wide strips of `dst[j0..]`; returns where they end.
#[inline(always)]
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

/// `dst += src`, elementwise.
#[inline(always)]
fn add(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `row` added to every row of `dst` (row-major, `row.len()` wide).
#[inline(always)]
fn add_row(dst: &mut [f64], row: &[f64]) {
    for d in dst.chunks_exact_mut(row.len().max(1)) {
        add(d, row);
    }
}

/// Column sums of `src` (row-major, `out.len()` wide), rows in order.
#[inline(always)]
fn sum_rows(src: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for row in src.chunks_exact(out.len().max(1)) {
        add(out, row);
    }
}

#[inline(always)]
fn relu(v: &mut [f64]) {
    for x in v {
        *x = x.max(0.0);
    }
}

/// Zero `g` where `post` is not positive. A select, not a branch: the
/// store is unconditional, so the loop vectorizes at any width instead of
/// mispredicting on the ReLU pattern.
#[inline(always)]
fn gate(g: &mut [f64], post: &[f64]) {
    for (g, &y) in g.iter_mut().zip(post) {
        *g = if y <= 0.0 { 0.0 } else { *g };
    }
}

/// Standard normal sample via Box-Muller (keeps us off rand_distr).
pub fn gauss(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The builds of the kernels this CPU can run: the baseline body, then
    /// each wrapper the CPU supports. Says which run and which are skipped.
    pub(crate) fn builds(test: &str) -> Vec<&'static str> {
        let mut run = vec!["baseline"];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            run.push("avx2");
        } else {
            println!("{test}: avx2 skipped, the CPU lacks it");
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("{test}: avx2 skipped, not an x86-64 target");
        println!("{test}: ran {run:?}");
        run
    }

    /// `kernel` in the named build of [`builds`]; like every caller of
    /// [`widest`], it must be an `#[inline(always)]` closure.
    pub(crate) fn in_build<R>(build: &str, kernel: impl FnOnce(usize) -> R) -> R {
        match build {
            "baseline" => baseline(kernel),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `builds` names avx2 only when the CPU has it.
            "avx2" => unsafe { avx2(kernel) },
            _ => unreachable!("no build {build}"),
        }
    }

    /// The value generator of `tests/kernel_bits.rs`: ReLU-like zeros
    /// (whole rows of them), `-0.0` and the odd huge magnitude.
    pub(crate) fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let zero_row = rng.gen_range(0..6) == 0;
            for c in 0..cols {
                let v = match rng.gen_range(0..10) {
                    _ if zero_row => 0.0,
                    0..=2 => 0.0,
                    3 => -0.0,
                    4 => rng.gen_range(-1.0..1.0) * 1e100,
                    _ => rng.gen_range(-2.0..2.0),
                };
                m.set(r, c, v);
            }
        }
        m
    }

    /// The shape generator of `tests/kernel_bits.rs` (`n × k` by `k × m`):
    /// widths below, at and off every strip width, depths beyond one
    /// gather chunk.
    pub(crate) fn random_shape(rng: &mut StdRng) -> (usize, usize, usize) {
        let widths = [1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 48, 64, 70];
        let depths = [1, 2, 5, 32, 64, 127, 128, 129, 300];
        (
            rng.gen_range(1..12),
            depths[rng.gen_range(0..depths.len())],
            widths[rng.gen_range(0..widths.len())],
        )
    }

    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `m` with about one entry in `1/rate` replaced by `+inf`, `-inf` or
    /// NaN: against a non-finite right factor a zero left factor's term
    /// is NaN, so only these values show whether a kernel skips it.
    pub(crate) fn strew_non_finite(m: &mut Matrix, rate: u32, rng: &mut StdRng) {
        for v in m.as_mut_slice() {
            if rng.gen_range(0..rate) == 0 {
                *v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
            }
        }
    }

    /// [`bits`] with every NaN as `f64::NAN`. Which operand's NaN an add
    /// of two NaNs returns is the instruction's, and the compiler may
    /// commute an add, so a NaN's payload is no part of the contract;
    /// which entries are NaN is.
    fn bits_but_nan_payloads(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Naive `ikj`: ascending `p`, exact-zero left factors skipped.
    fn naive(a: &Matrix, b: &Matrix) -> Vec<f64> {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mut want = vec![0.0; n * m];
        for i in 0..n {
            for p in (0..k).filter(|&p| a.get(i, p) != 0.0) {
                for j in 0..m {
                    want[i * m + j] += a.get(i, p) * b.get(p, j);
                }
            }
        }
        want
    }

    /// `a · b` through [`tiles`] in `build`, with `a` read both
    /// as itself and as the transpose of a transposed copy.
    fn both_layouts(build: &str, a: &Matrix, b: &Matrix) -> [Vec<f64>; 2] {
        let mut at = Matrix::zeros(0, 0);
        a.transpose_into(&mut at);
        let n = a.rows();
        [Lhs::Rows(a.as_slice()), Lhs::Cols(at.as_slice())].map(|lhs| {
            let mut out = vec![f64::NAN; n * b.cols()];
            let p = Product { lhs, n, b };
            in_build(
                build,
                #[inline(always)]
                |strip| tiles(strip, p, &mut out),
            );
            out
        })
    }

    #[test]
    fn every_build_of_the_dense_kernel_is_the_naive_loop_bit_for_bit() {
        let builds = builds("dense kernel");
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, k, m) = random_shape(&mut rng);
            let a = random_matrix(n, k, &mut rng);
            let b = random_matrix(k, m, &mut rng);
            let want = naive(&a, &b);
            for build in &builds {
                for out in both_layouts(build, &a, &b) {
                    assert_eq!(bits(&out), bits(&want), "{build}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn every_build_skips_zero_left_factors_of_non_finite_right_operands() {
        // Every row count to 20 at every width class of the tiles: below,
        // at and off 4 and 8, the 4-wide head, multiples of 8 and ragged.
        let widths = [1, 3, 4, 5, 7, 8, 9, 12, 16, 24, 31, 32, 33, 64, 70];
        let builds = builds("non-finite operands");
        let mut rng = StdRng::seed_from_u64(48);
        for n in 1..=20 {
            for m in widths {
                let k = [1, 2, 5, 31, 32, 129][rng.gen_range(0..6usize)];
                let mut a = random_matrix(n, k, &mut rng);
                let mut b = random_matrix(k, m, &mut rng);
                strew_non_finite(&mut a, 40, &mut rng);
                strew_non_finite(&mut b, [4, 30, 1000][rng.gen_range(0..3usize)], &mut rng);
                let want = bits_but_nan_payloads(&naive(&a, &b));
                for build in &builds {
                    for out in both_layouts(build, &a, &b) {
                        let got = bits_but_nan_payloads(&out);
                        assert_eq!(got, want, "{build}, {n}x{k}x{m}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_build_fuses_a_multiply_with_its_add() {
        // (1 + 2⁻³⁰)² rounds to 1 + 2⁻²⁹, which cancels the first term to
        // +0.0; a fused multiply-add keeps the 2⁻⁶⁰ the rounding drops.
        // Every row count to 17, so every tile shape meets the pair.
        let (x, y) = (1.0 + 2f64.powi(-30), -(1.0 + 2f64.powi(-29)));
        for build in builds("fma sentinel") {
            for n in 1..=17 {
                let a = Matrix::from_vec(n, 2, [1.0, x].repeat(n));
                for m in (1..=40).chain([63, 64, 65]) {
                    let b = Matrix::from_vec(2, m, [vec![y; m], vec![x; m]].concat());
                    for out in both_layouts(build, &a, &b) {
                        assert_eq!(bits(&out), vec![0; n * m], "{build}, {n}x2x{m}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_build_of_the_elementwise_passes_is_the_naive_loop_bit_for_bit() {
        let builds = builds("elementwise passes");
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, _, m) = random_shape(&mut rng);
            let mut x = random_matrix(n, m, &mut rng);
            let y = random_matrix(n, m, &mut rng);
            for v in x.as_mut_slice() {
                match rng.gen_range(0..40) {
                    0 => *v = f64::NAN,
                    1 => *v = f64::NEG_INFINITY,
                    _ => {}
                }
            }
            let (x, y) = (x.as_slice(), y.as_slice());
            let row = &y[..m];
            // The loops as written before any of them was dispatched.
            let mut sum = x.to_vec();
            for (a, &b) in sum.iter_mut().zip(y) {
                *a += b;
            }
            let mut broadcast = x.to_vec();
            for r in 0..n {
                for (d, &b) in broadcast[r * m..(r + 1) * m].iter_mut().zip(row) {
                    *d += b;
                }
            }
            let mut col_sums = vec![0.0; m];
            for r in x.chunks_exact(m) {
                for (o, &v) in col_sums.iter_mut().zip(r) {
                    *o += v;
                }
            }
            let relu_want: Vec<f64> = x.iter().map(|v| v.max(0.0)).collect();
            let mut gated = y.to_vec();
            for (g, &p) in gated.iter_mut().zip(x) {
                if p <= 0.0 {
                    *g = 0.0;
                }
            }
            for build in &builds {
                let at = |what: &str| format!("{what}: {build}, seed {seed}");
                let mut out = x.to_vec();
                in_build(
                    build,
                    #[inline(always)]
                    |_| add(&mut out, y),
                );
                assert_eq!(bits(&out), bits(&sum), "{}", at("add"));
                let mut out = x.to_vec();
                in_build(
                    build,
                    #[inline(always)]
                    |_| add_row(&mut out, row),
                );
                assert_eq!(bits(&out), bits(&broadcast), "{}", at("add_row"));
                let mut out = vec![f64::NAN; m];
                in_build(
                    build,
                    #[inline(always)]
                    |_| sum_rows(x, &mut out),
                );
                assert_eq!(bits(&out), bits(&col_sums), "{}", at("sum_rows"));
                let mut out = x.to_vec();
                in_build(
                    build,
                    #[inline(always)]
                    |_| relu(&mut out),
                );
                assert_eq!(bits(&out), bits(&relu_want), "{}", at("relu"));
                let mut out = y.to_vec();
                in_build(
                    build,
                    #[inline(always)]
                    |_| gate(&mut out, x),
                );
                assert_eq!(bits(&out), bits(&gated), "{}", at("gate"));
            }
        }
    }

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
