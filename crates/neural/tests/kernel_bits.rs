//! The tiled `_into` kernels against the naive loops they replaced:
//! equality is on `f64::to_bits`, not within a tolerance (DESIGN.md
//! "neural kernel contract"). Shapes cover widths below, at and off a
//! tile multiple, row counts past two tiles and long depths; values
//! include exact zeros (whole rows of them), `-0.0`, the odd huge
//! magnitude and, in one case, `±inf` and NaN in both operands.

use np_neural::{Csr, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let zero_row = rng.gen_range(0..6) == 0;
        for c in 0..cols {
            let v = match rng.gen_range(0..10) {
                _ if zero_row => 0.0,
                0..=2 => 0.0, // ReLU-like sparsity
                3 => -0.0,
                4 => rng.gen_range(-1.0..1.0) * 1e100,
                _ => rng.gen_range(-2.0..2.0),
            };
            m.set(r, c, v);
        }
    }
    m
}

fn random_shape(rng: &mut StdRng) -> (usize, usize, usize) {
    let widths = [1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 48, 64, 70];
    let depths = [1, 2, 5, 32, 64, 127, 128, 129, 300];
    (
        rng.gen_range(1..12),
        depths[rng.gen_range(0..depths.len())],
        widths[rng.gen_range(0..widths.len())],
    )
}

/// Naive `ikj` product: every output element adds `a[i,p]·b[p,j]` in
/// ascending `p`, skipping exact-zero `a[i,p]`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for p in 0..a.cols() {
            let av = a.get(i, p);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(p, j));
            }
        }
    }
    out
}

/// About one entry in `1/rate` of `m` becomes `+inf`, `-inf` or NaN.
/// Against a non-finite right factor a zero left factor's term is NaN, so
/// only such operands show whether a kernel skips that term.
fn strew_non_finite(m: &mut Matrix, rate: u32, rng: &mut StdRng) {
    for v in m.as_mut_slice() {
        if rng.gen_range(0..rate) == 0 {
            *v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
        }
    }
}

/// Row counts past two tiles of eight; widths below, at and off 4 and 8.
fn tile_shape(rng: &mut StdRng) -> (usize, usize, usize) {
    let widths = [1, 3, 4, 5, 7, 8, 9, 12, 16, 24, 31, 32, 33, 64, 70];
    let depths = [1, 2, 5, 31, 32, 64, 129];
    (
        rng.gen_range(1..=20),
        depths[rng.gen_range(0..depths.len())],
        widths[rng.gen_range(0..widths.len())],
    )
}

/// [`bits`] with every NaN as `f64::NAN`: which operand's NaN an add of
/// two NaNs returns is the instruction's, and the compiler may commute an
/// add, so a NaN's payload is no part of the contract; which entries are
/// NaN is.
fn bits_but_nan_payloads(m: &Matrix) -> Vec<u64> {
    m.as_slice()
        .iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

fn naive_transpose(a: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            t.set(c, r, a.get(r, c));
        }
    }
    t
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dense_kernels_match_the_naive_loops_bit_for_bit(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, k, m) = random_shape(&mut rng);
        let a = random_matrix(n, k, &mut rng);
        let b = random_matrix(k, m, &mut rng);
        // A stale, wrongly-shaped buffer: the kernels must not read it.
        let mut out = Matrix::from_vec(1, 2, vec![f64::NAN; 2]);
        a.matmul_into(&b, &mut out);
        let want = naive_matmul(&a, &b);
        prop_assert_eq!((out.rows(), out.cols()), (n, m));
        prop_assert_eq!(bits(&out), bits(&want));

        let at = naive_transpose(&a); // k × n, so atᵀ·b is the same product
        at.t_matmul_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&want));

        let mut t = Matrix::zeros(0, 0);
        a.transpose_into(&mut t);
        prop_assert_eq!(bits(&t), bits(&at));
    }

    #[test]
    fn dense_kernels_skip_zero_left_factors_of_non_finite_right_operands(
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, k, m) = tile_shape(&mut rng);
        let mut a = random_matrix(n, k, &mut rng);
        let mut b = random_matrix(k, m, &mut rng);
        strew_non_finite(&mut a, 40, &mut rng);
        strew_non_finite(&mut b, [4, 30, 1000][rng.gen_range(0..3usize)], &mut rng);
        let want = bits_but_nan_payloads(&naive_matmul(&a, &b));
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits_but_nan_payloads(&out), want.clone());
        naive_transpose(&a).t_matmul_into(&b, &mut out);
        prop_assert_eq!(bits_but_nan_payloads(&out), want);
    }

    #[test]
    fn sparse_dense_product_matches_the_naive_loop(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, _, m) = random_shape(&mut rng);
        let n = rng.gen_range(1..20);
        let mut triples = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if rng.gen_range(0..3) == 0 {
                    // Stored zeros are *not* skipped by the sparse product.
                    let v = if rng.gen_range(0..8) == 0 { 0.0 } else { rng.gen_range(-1.0..1.0) };
                    triples.push((r, c, v));
                }
            }
        }
        let adj = Csr::from_triples(n, &triples);
        let h = random_matrix(n, m, &mut rng);
        let mut want = Matrix::zeros(n, m);
        for r in 0..n {
            for c in 0..n {
                if triples.iter().any(|&(tr, tc, _)| (tr, tc) == (r, c)) {
                    for j in 0..m {
                        want.set(r, j, want.get(r, j) + adj.get(r, c) * h.get(c, j));
                    }
                }
            }
        }
        let mut out = Matrix::from_vec(1, 1, vec![f64::NAN]);
        adj.matmul_dense_into(&h, &mut out);
        prop_assert_eq!(bits(&out), bits(&want));
    }
}
