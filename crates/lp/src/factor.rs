//! LU-factorized basis for the sparse revised simplex.
//!
//! The basis matrix `B` (the basic columns of the CSC constraint matrix)
//! is factorized as `P·B·Q = L·U` by a left-looking sparse LU with
//! partial pivoting and a Markowitz-style static column pre-ordering
//! (sparsest basis columns eliminated first, which is what keeps the
//! factors from filling in on the master's wide cut rows). Between
//! refactorizations, pivots append product-form eta vectors (the
//! Forrest–Tomlin-style cheap update: reuse the FTRAN'd entering column
//! as the elementary transform) instead of reworking the factors;
//! FTRAN/BTRAN apply the LU solve followed by the eta file.
//!
//! The eta file is cleared on every refactorization. The driver decides
//! *when* to refactorize from this engine's own accounting
//! ([`SparseBasis::should_refactor`]): the trigger fires on eta-file
//! growth (length reaching `REFACTOR_EVERY`) or fill-in (accumulated
//! eta nonzeros outweighing the LU factors themselves), never on a
//! pivot-count schedule — a warm-started solve that performs two pivots
//! must not pay a cold factorization price.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sparse::CscMatrix;

/// Error: the basis matrix is numerically singular (no acceptable pivot
/// in some elimination column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularBasis;

impl std::fmt::Display for SingularBasis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("numerically singular basis")
    }
}

impl std::error::Error for SingularBasis {}

/// One product-form eta transform, recorded at a pivot on row `r` with
/// the FTRAN'd entering column `t` (`col` holds the off-pivot nonzeros).
#[derive(Clone, Debug)]
struct Eta {
    r: usize,
    pivot: f64,
    col: Vec<(usize, f64)>,
}

/// Sparse LU factors of the basis, `P·B·Q = L·U`.
///
/// `L` is unit-lower-triangular with columns indexed by elimination
/// position but entries stored by *original* row index; `U` is
/// upper-triangular in position space with its diagonal split out.
/// `colp` is the Markowitz column pre-ordering: elimination position
/// `k` factorized basis column `colp[k]`, so solve results are mapped
/// back through it to basis-position space.
#[derive(Clone, Debug, Default)]
struct Lu {
    /// Permutation: elimination position → original row.
    rowp: Vec<usize>,
    /// Inverse permutation: original row → elimination position.
    rowp_inv: Vec<usize>,
    /// Column permutation: elimination position → basis position.
    colp: Vec<usize>,
    /// Column `j` of `L` below the diagonal: `(orig_row, value)`.
    lcols: Vec<Vec<(usize, f64)>>,
    /// Column `k` of `U` above the diagonal: `(position, value)`.
    ucols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` by position.
    udiag: Vec<f64>,
}

/// Numerical-drift bound on incremental basis updates: the simplex
/// drivers refactorize when the eta file reaches this many transforms
/// (or its fill-in outweighs the LU factors).
pub(crate) const REFACTOR_EVERY: usize = 64;

/// The factorized-basis engine: LU factors plus the eta file, with the
/// telemetry counters the solver reports (`lp.refactorizations`,
/// `lp.eta_len`).
#[derive(Clone, Debug)]
pub struct SparseBasis {
    m: usize,
    lu: Lu,
    etas: Vec<Eta>,
    /// Nonzeros currently stored in the LU factors (L + U + diagonal).
    lu_nnz: usize,
    /// Accumulated off-pivot nonzeros in the eta file.
    eta_nnz: usize,
    /// Number of factorizations performed over the engine's lifetime.
    pub refactorizations: u64,
    /// Longest eta file seen between refactorizations.
    pub peak_eta_len: u64,
    /// FTRAN's dense intermediate (position space), reused so the
    /// thousands of solves per LP do not each pay a malloc.
    scratch: RefCell<Vec<f64>>,
}

impl SparseBasis {
    /// An engine for an `m`-row tableau (not yet factorized).
    pub fn new(m: usize) -> SparseBasis {
        SparseBasis {
            m,
            lu: Lu::default(),
            etas: Vec::new(),
            lu_nnz: 0,
            eta_nnz: 0,
            refactorizations: 0,
            peak_eta_len: 0,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Current eta-file length.
    pub fn eta_len(&self) -> usize {
        self.etas.len()
    }

    /// Install the factors of a signed-diagonal basis (the all-artificial
    /// phase-1 start, where column `r` is `±e_r`) directly — no
    /// elimination, no refactorization counted: there is no work a
    /// counter should bill for.
    pub fn factor_signed_identity(&mut self, signs: &[f64]) {
        let m = self.m;
        debug_assert_eq!(signs.len(), m);
        self.etas.clear();
        self.eta_nnz = 0;
        self.lu = Lu {
            rowp: (0..m).collect(),
            rowp_inv: (0..m).collect(),
            colp: (0..m).collect(),
            lcols: vec![Vec::new(); m],
            ucols: vec![Vec::new(); m],
            udiag: signs.to_vec(),
        };
        self.lu_nnz = m;
    }

    /// Should the driver refactorize now? Fires on eta-file *growth*
    /// (`refactor_every` transforms accumulated — the numerical-drift
    /// bound; the drivers pass `REFACTOR_EVERY`) or on *fill-in* (the eta
    /// file carrying more nonzeros than the LU factors themselves, at which
    /// point every FTRAN pays more for the updates than for a fresh
    /// factorization's solve). A pivot-count schedule would charge
    /// warm-started two-pivot solves a cold factorization price — the
    /// 109-vs-99 refactorization bug this replaced.
    pub fn should_refactor(&self, refactor_every: usize) -> bool {
        self.etas.len() >= refactor_every.max(1)
            || self.eta_nnz > self.lu_nnz.max(8 * self.m.max(1))
    }

    /// Factorize the basis given by `basis[r]` = column of row `r`,
    /// clearing the eta file. Fails on a (numerically) singular basis.
    pub fn refactorize(&mut self, cols: &CscMatrix, basis: &[usize]) -> Result<(), SingularBasis> {
        let m = self.m;
        debug_assert_eq!(basis.len(), m);
        self.etas.clear();
        self.eta_nnz = 0;
        self.refactorizations += 1;
        let scale = cols.scale_of(basis);
        let singular_tol = 1e-13 * scale;

        // Markowitz-style static pre-ordering: eliminate the sparsest
        // basis columns first (stable on ties), which empirically keeps
        // fill-in low on the master's mix of unit logical columns and
        // wide cut rows without the bookkeeping of a dynamic ordering.
        let mut colp: Vec<usize> = (0..m).collect();
        colp.sort_by_key(|&c| (cols.col_nnz(basis[c]), c));

        // Left-looking elimination with a dense work column. `pos_of[i]`
        // is the elimination position an original row was pivoted to, or
        // usize::MAX while still unpivoted.
        let mut pos_of = vec![usize::MAX; m];
        let mut rowp = Vec::with_capacity(m);
        let mut lcols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut ucols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut udiag = Vec::with_capacity(m);
        let mut work = vec![0.0f64; m]; // indexed by original row
        let mut in_col = vec![false; m]; // membership marker for `touched`
        let mut touched: Vec<usize> = Vec::with_capacity(m);
        // Pivoted positions present in the work column, visited in
        // ascending elimination order through a min-heap: fill-in from
        // an elimination at position j can only touch positions > j, so
        // the heap walks exactly the symbolic pattern instead of probing
        // all 0..k positions per column.
        let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(m);
        let mut queued = vec![false; m];
        let mut lu_nnz = m; // the diagonal

        for (k, &c) in colp.iter().enumerate() {
            // Scatter column colp[k] of B.
            for (i, v) in cols.col(basis[c]) {
                if v != 0.0 && !in_col[i] {
                    in_col[i] = true;
                    touched.push(i);
                    let p = pos_of[i];
                    if p != usize::MAX && !queued[p] {
                        queued[p] = true;
                        heap.push(Reverse(p));
                    }
                }
                work[i] += v;
            }
            // Apply the existing L columns in ascending elimination order.
            let mut urow: Vec<(usize, f64)> = Vec::new();
            while let Some(Reverse(j)) = heap.pop() {
                queued[j] = false;
                let piv_row = rowp[j];
                let zj = work[piv_row];
                if zj == 0.0 {
                    continue;
                }
                urow.push((j, zj));
                work[piv_row] = 0.0;
                for &(i, lv) in &lcols[j] {
                    if !in_col[i] {
                        in_col[i] = true;
                        touched.push(i);
                        let p = pos_of[i];
                        if p != usize::MAX && !queued[p] {
                            queued[p] = true;
                            heap.push(Reverse(p));
                        }
                    }
                    work[i] -= lv * zj;
                }
            }
            // Partial pivoting over the unpivoted rows.
            let mut best_row = usize::MAX;
            let mut best = 0.0f64;
            for &i in &touched {
                if pos_of[i] == usize::MAX && work[i].abs() > best {
                    best = work[i].abs();
                    best_row = i;
                }
            }
            if best_row == usize::MAX || best < singular_tol {
                return Err(SingularBasis);
            }
            let pivot = work[best_row];
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            for &i in &touched {
                if pos_of[i] == usize::MAX && i != best_row && work[i] != 0.0 {
                    lcol.push((i, work[i] / pivot));
                }
            }
            lcol.sort_unstable_by_key(|&(i, _)| i);
            lu_nnz += lcol.len() + urow.len();
            pos_of[best_row] = k;
            rowp.push(best_row);
            lcols.push(lcol);
            ucols.push(urow);
            udiag.push(pivot);
            // Reset the work vector for the next column.
            for &i in &touched {
                work[i] = 0.0;
                in_col[i] = false;
            }
            touched.clear();
        }

        let mut rowp_inv = vec![0usize; m];
        for (k, &i) in rowp.iter().enumerate() {
            rowp_inv[i] = k;
        }
        self.lu = Lu {
            rowp,
            rowp_inv,
            colp,
            lcols,
            ucols,
            udiag,
        };
        self.lu_nnz = lu_nnz;
        Ok(())
    }

    /// Solve `B·x = a` where `a` is given by sparse `(row, value)`
    /// entries; the result is dense, indexed by basis *position*.
    pub fn ftran_sparse(&self, entries: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
        let mut w = vec![0.0f64; self.m];
        for (i, v) in entries {
            w[i] += v;
        }
        self.ftran_in_place(&mut w);
        w
    }

    /// Solve `B·x = a` for dense `a` (indexed by original row); the
    /// result is dense, indexed by basis position.
    pub fn ftran_dense(&self, a: &[f64]) -> Vec<f64> {
        let mut w = a.to_vec();
        self.ftran_in_place(&mut w);
        w
    }

    /// In-place FTRAN: `w` enters indexed by original row, leaves indexed
    /// by basis position.
    fn ftran_in_place(&self, w: &mut [f64]) {
        let m = self.m;
        let lu = &self.lu;
        let mut z = self.scratch.borrow_mut();
        z.resize(m, 0.0);
        // Forward solve L·z = P·a, z in position space. z_j is read from
        // the pivot row of position j after earlier eliminations applied;
        // every z_j is written here before the backward solve reads it.
        for j in 0..m {
            let zj = w[lu.rowp[j]];
            z[j] = zj;
            if zj != 0.0 {
                for &(i, lv) in &lu.lcols[j] {
                    w[i] -= lv * zj;
                }
            }
        }
        // Backward solve U·x = z, mapped to basis-position space through
        // the column ordering: elimination position k is basis position
        // colp[k].
        for k in (0..m).rev() {
            let xk = z[k] / lu.udiag[k];
            w[lu.colp[k]] = xk;
            if xk != 0.0 {
                for &(j, uv) in &lu.ucols[k] {
                    z[j] -= uv * xk;
                }
            }
        }
        // Eta file, oldest first (entirely in basis-position space).
        for eta in &self.etas {
            let vr = w[eta.r] / eta.pivot;
            if vr != 0.0 {
                for &(i, t) in &eta.col {
                    w[i] -= t * vr;
                }
            }
            w[eta.r] = vr;
        }
    }

    /// Solve `Bᵀ·y = c` where `c` is indexed by basis position; the
    /// result is dense, indexed by original row.
    pub fn btran(&self, c: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut z = c.to_vec();
        // Eta file transposed, newest first (basis-position space).
        for eta in self.etas.iter().rev() {
            let mut acc = z[eta.r];
            for &(i, t) in &eta.col {
                acc -= t * z[i];
            }
            z[eta.r] = acc / eta.pivot;
        }
        let lu = &self.lu;
        // Map basis-position space to elimination-position space.
        let mut zp = vec![0.0f64; m];
        for k in 0..m {
            zp[k] = z[lu.colp[k]];
        }
        // Forward solve Uᵀ·v = zp in position space.
        for k in 0..m {
            let mut acc = zp[k];
            for &(j, uv) in &lu.ucols[k] {
                acc -= uv * zp[j];
            }
            zp[k] = acc / lu.udiag[k];
        }
        // Backward solve Lᵀ, then undo the permutation: y[rowp[j]] = v_j.
        let mut y = vec![0.0f64; m];
        for j in (0..m).rev() {
            let mut acc = zp[j];
            for &(i, lv) in &lu.lcols[j] {
                acc -= lv * zp[lu.rowp_inv[i]];
            }
            zp[j] = acc;
            y[lu.rowp[j]] = acc;
        }
        y
    }

    /// Row `r` of `B⁻¹`: solve `Bᵀ·y = e_r` (position space) — the
    /// pricing vector of the dual simplex.
    pub fn btran_unit(&self, r: usize) -> Vec<f64> {
        let mut e = vec![0.0f64; self.m];
        e[r] = 1.0;
        self.btran(&e)
    }

    /// Record the pivot (row `r`, FTRAN'd entering column `t`) as an eta
    /// transform. `t[r]` must already have passed the driver's pivot
    /// guard.
    pub fn update(&mut self, r: usize, t: &[f64]) {
        let col: Vec<(usize, f64)> = t
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.eta_nnz += col.len() + 1;
        self.etas.push(Eta {
            r,
            pivot: t[r],
            col,
        });
        self.peak_eta_len = self.peak_eta_len.max(self.etas.len() as u64);
    }

    /// Materialize `B⁻¹` row-major (`binv[r*m + i]`) — used only to
    /// synthesize a [`crate::simplex::TableauView`] for Gomory cut
    /// generation at the B&B root.
    pub fn dense_binv(&self) -> Vec<f64> {
        let m = self.m;
        let mut binv = vec![0.0f64; m * m];
        for i in 0..m {
            // Column i of B^-1 is FTRAN(e_i); scatter into row-major.
            let mut e = vec![0.0f64; m];
            e[i] = 1.0;
            self.ftran_in_place(&mut e);
            for r in 0..m {
                binv[r * m + i] = e[r];
            }
        }
        binv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CscMatrix;

    fn dense_mat(m: usize, entries: &[&[f64]]) -> CscMatrix {
        // entries[j] is column j, dense.
        let mut csc = CscMatrix::with_capacity(m, entries.len(), m * entries.len());
        for col in entries {
            csc.push_col(
                col.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i, v)),
            );
        }
        csc
    }

    fn mat_vec(m: usize, cols: &CscMatrix, basis: &[usize], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (r, &j) in basis.iter().enumerate() {
            for (i, v) in cols.col(j) {
                out[i] += v * x[r];
            }
        }
        out
    }

    #[test]
    fn lu_solves_match_the_matrix() {
        // A 4x4 basis needing row pivoting (first column's largest entry
        // is not on the diagonal).
        let cols = dense_mat(
            4,
            &[
                &[0.0, 2.0, 1.0, 0.0],
                &[3.0, 0.0, 0.0, 1.0],
                &[1.0, 1.0, 4.0, 0.0],
                &[0.0, 0.5, 0.0, 2.0],
            ],
        );
        let basis = [0usize, 1, 2, 3];
        let mut eng = SparseBasis::new(4);
        eng.refactorize(&cols, &basis).expect("nonsingular");

        // FTRAN: B x = a.
        let a = [1.0, -2.0, 0.5, 3.0];
        let x = eng.ftran_dense(&a);
        let back = mat_vec(4, &cols, &basis, &x);
        for i in 0..4 {
            assert!((back[i] - a[i]).abs() < 1e-10, "ftran row {i}");
        }

        // BTRAN: B^T y = c (c in position space).
        let c = [0.3, 1.0, -1.5, 2.0];
        let y = eng.btran(&c);
        for (r, &j) in basis.iter().enumerate() {
            let dot: f64 = cols.col(j).map(|(i, v)| v * y[i]).sum();
            assert!((dot - c[r]).abs() < 1e-10, "btran position {r}");
        }
    }

    #[test]
    fn hyper_sparse_ftran_matches_dense_probe() {
        // Unit right-hand sides take the hyper-sparse path (1 nonzero on
        // an 8-row basis); dense RHS takes the probe path. Both must
        // produce bit-identical results.
        let m = 8;
        let cols_dense: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                (0..m)
                    .map(|i| {
                        if i == j {
                            2.0 + j as f64
                        } else if (i + 3 * j) % 5 == 0 {
                            1.0 + (i as f64) * 0.25
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = cols_dense.iter().map(|c| c.as_slice()).collect();
        let cols = dense_mat(m, &refs);
        let basis: Vec<usize> = (0..m).collect();
        let mut eng = SparseBasis::new(m);
        eng.refactorize(&cols, &basis).unwrap();
        for i in 0..m {
            let sparse = eng.ftran_sparse([(i, 1.0)]);
            let mut dense_rhs = vec![0.0; m];
            dense_rhs[i] = 1.0;
            let dense = eng.ftran_dense(&dense_rhs);
            assert_eq!(sparse, dense, "unit rhs {i}");
            let back = mat_vec(m, &cols, &basis, &sparse);
            for (r, &b) in back.iter().enumerate() {
                let want = if r == i { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-10, "rhs {i} row {r}");
            }
        }
    }

    #[test]
    fn eta_update_tracks_a_column_swap() {
        let cols = dense_mat(
            3,
            &[
                &[2.0, 0.0, 1.0],
                &[0.0, 1.0, 0.0],
                &[0.0, 0.0, 3.0],
                &[1.0, 1.0, 1.0], // candidate entering column
            ],
        );
        let mut basis = vec![0usize, 1, 2];
        let mut eng = SparseBasis::new(3);
        eng.refactorize(&cols, &basis).unwrap();

        // Pivot column 3 into row 1 via the eta update.
        let t = eng.ftran_sparse(cols.col(3));
        eng.update(1, &t);
        basis[1] = 3;
        assert_eq!(eng.eta_len(), 1);

        // The updated engine must solve with the *new* basis matrix.
        let a = [1.0, 2.0, 3.0];
        let x = eng.ftran_dense(&a);
        let back = mat_vec(3, &cols, &basis, &x);
        for i in 0..3 {
            assert!((back[i] - a[i]).abs() < 1e-10, "post-eta ftran row {i}");
        }
        let c = [1.0, -1.0, 0.5];
        let y = eng.btran(&c);
        for (r, &j) in basis.iter().enumerate() {
            let dot: f64 = cols.col(j).map(|(i, v)| v * y[i]).sum();
            assert!((dot - c[r]).abs() < 1e-10, "post-eta btran position {r}");
        }

        // A fresh factorization of the updated basis agrees and clears
        // the eta file.
        let mut fresh = SparseBasis::new(3);
        fresh.refactorize(&cols, &basis).unwrap();
        let x2 = fresh.ftran_dense(&a);
        for r in 0..3 {
            assert!((x2[r] - x[r]).abs() < 1e-10);
        }
        assert_eq!(fresh.eta_len(), 0);
    }

    #[test]
    fn signed_identity_factors_solve_without_a_refactorization() {
        let cols = dense_mat(3, &[&[1.0, 0.0, 0.0], &[0.0, -1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let basis = [0usize, 1, 2];
        let mut eng = SparseBasis::new(3);
        eng.factor_signed_identity(&[1.0, -1.0, 1.0]);
        assert_eq!(eng.refactorizations, 0);
        let a = [2.0, 3.0, -4.0];
        let x = eng.ftran_dense(&a);
        let back = mat_vec(3, &cols, &basis, &x);
        for i in 0..3 {
            assert!((back[i] - a[i]).abs() < 1e-12);
        }
        let y = eng.btran(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn refactor_trigger_follows_eta_growth_not_pivot_count() {
        let mut eng = SparseBasis::new(4);
        let cols = dense_mat(
            4,
            &[
                &[1.0, 0.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0],
                &[0.0, 0.0, 0.0, 1.0],
            ],
        );
        eng.refactorize(&cols, &[0, 1, 2, 3]).unwrap();
        assert!(!eng.should_refactor(64), "fresh factors need no rebuild");
        // Dense eta columns trip the fill-in arm long before the length
        // arm.
        for _ in 0..16 {
            eng.update(1, &[0.5, 2.0, 0.5, 0.5]);
        }
        assert!(eng.should_refactor(64), "fill-in outweighs the LU");
        // Clearing through a refactorization resets both arms.
        eng.refactorize(&cols, &[0, 1, 2, 3]).unwrap();
        assert!(!eng.should_refactor(64));
        // The length arm fires at refactor_every transforms.
        for _ in 0..3 {
            eng.update(0, &[1.0, 0.0, 0.0, 0.0]);
        }
        assert!(!eng.should_refactor(4));
        eng.update(0, &[1.0, 0.0, 0.0, 0.0]);
        assert!(eng.should_refactor(4));
    }

    #[test]
    fn singular_basis_is_rejected() {
        let cols = dense_mat(2, &[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut eng = SparseBasis::new(2);
        assert!(eng.refactorize(&cols, &[0, 1]).is_err());
    }

    #[test]
    fn dense_binv_matches_unit_solves() {
        let cols = dense_mat(3, &[&[4.0, 1.0, 0.0], &[0.0, 2.0, 1.0], &[1.0, 0.0, 3.0]]);
        let basis = [0usize, 1, 2];
        let mut eng = SparseBasis::new(3);
        eng.refactorize(&cols, &basis).unwrap();
        let binv = eng.dense_binv();
        // B * B^-1 = I, checked column by column of B^-1.
        for i in 0..3 {
            let xi: Vec<f64> = (0..3).map(|r| binv[r * 3 + i]).collect();
            let back = mat_vec(3, &cols, &basis, &xi);
            for (r, &b) in back.iter().enumerate() {
                let want = if r == i { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn empty_basis_is_fine() {
        let cols = CscMatrix::with_capacity(0, 0, 0);
        let mut eng = SparseBasis::new(0);
        eng.refactorize(&cols, &[]).unwrap();
        assert!(eng.ftran_dense(&[]).is_empty());
        assert!(eng.btran(&[]).is_empty());
    }
}
