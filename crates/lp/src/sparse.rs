//! Sparse substrate for the revised simplex: CSC constraint-matrix
//! storage, warm-start basis snapshots, and an incremental LP that
//! re-optimizes after appended rows (see [`crate::factor`] for the LU
//! machinery and [`crate::dual`] for the dual simplex).

use crate::model::{ConstrId, Model, Sense, VarId};
use crate::simplex::{Loc, LpSolution, SimplexConfig};

/// Compressed-sparse-column matrix: the tableau's constraint matrix
/// (structural, logical and artificial columns) in three flat arrays.
/// Columns are appended once at build time and never mutated, so the
/// factorization and pricing loops iterate cache-friendly slices.
#[derive(Clone, Debug)]
pub struct CscMatrix {
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// An empty matrix with `m` rows and reserved space.
    pub fn with_capacity(m: usize, ncols: usize, nnz: usize) -> CscMatrix {
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0);
        CscMatrix {
            m,
            col_ptr,
            row_idx: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Append one column given `(row, value)` entries.
    pub fn push_col(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (i, v) in entries {
            debug_assert!(i < self.m);
            self.row_idx.push(i);
            self.vals.push(v);
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// The `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Largest absolute value among the entries of the given columns
    /// (1.0 floor), used to scale singularity thresholds.
    pub fn scale_of(&self, cols: &[usize]) -> f64 {
        let mut s = 1.0f64;
        for &j in cols {
            for (_, v) in self.col(j) {
                s = s.max(v.abs());
            }
        }
        s
    }
}

/// A column reference that survives row append/renumber: the identity of
/// a basis member independent of the tableau's flat column indexing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmCol {
    /// Structural variable `j` (stable across row changes).
    Struct(usize),
    /// The logical (slack) column of row `i`.
    Logical(usize),
    /// The artificial column of row `i` (pinned to zero after phase 1;
    /// may linger in a degenerate optimal basis).
    Artificial(usize),
}

/// An optimal-basis snapshot, sufficient to warm-start a re-optimization
/// after bound changes (branch & bound children) or appended rows
/// (Benders cut rounds). Captured on every unperturbed optimal solve; installing it on a grown model puts each *new* row's logical
/// into the basis, which preserves dual feasibility (logicals price to
/// zero), so the dual simplex restores primal feasibility in a handful
/// of pivots instead of re-running both phases.
#[derive(Clone, Debug)]
pub struct WarmBasis {
    /// The basic column of each row at capture time.
    pub basis: Vec<WarmCol>,
    /// Rest state of every structural column.
    pub loc_struct: Vec<Loc>,
    /// Rest state of every logical column (indexed by row at capture).
    pub loc_logical: Vec<Loc>,
}

/// An LP that persists across Benders separation rounds: rows are
/// appended in place and each `solve` re-optimizes from the previous
/// optimal basis.
///
/// Rows are never removed: the stored basis indexes them by position, and
/// `solve` asserts that the row count only grows.
///
/// Columns may be appended too ([`IncrementalLp::add_col`]) and
/// right-hand sides and coefficients patched in place: the stored basis
/// names its members by identity, and a column it has never seen rests at
/// its lower bound. That allowance lives here, not in the simplex — the
/// raw [`crate::simplex::solve_lp_warm`] (branch & bound's entry) still
/// rejects a snapshot whose column count differs from the model's.
#[derive(Clone, Debug)]
pub struct IncrementalLp {
    model: Model,
    config: SimplexConfig,
    warm: Option<WarmBasis>,
    rows_floor: usize,
    cols_floor: usize,
    /// Cumulative [`crate::simplex::SolveStats`] over all solves.
    pub stats: crate::simplex::SolveStats,
    /// Solves that could not reuse a basis (first call, or warm-start
    /// fallback).
    pub cold_solves: u64,
}

impl IncrementalLp {
    /// Wrap `model` for incremental re-optimization.
    pub fn new(model: Model, config: SimplexConfig) -> IncrementalLp {
        let rows_floor = model.num_constrs();
        let cols_floor = model.num_vars();
        IncrementalLp {
            model,
            config,
            warm: None,
            rows_floor,
            cols_floor,
            stats: crate::simplex::SolveStats::default(),
            cold_solves: 0,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Current row count.
    pub fn num_rows(&self) -> usize {
        self.model.num_constrs()
    }

    #[cfg(test)]
    pub(crate) fn model_mut_for_tests(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Append a row in place — the persistent master model's fast path,
    /// warm-started across separation rounds.
    pub fn add_row(
        &mut self,
        name: impl Into<String>,
        coeffs: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        self.model.add_constr(name, coeffs, sense, rhs);
    }

    /// Append a permanent column (see [`Model::add_col`]).
    pub fn add_col(
        &mut self,
        name: impl Into<String>,
        lb: f64,
        ub: f64,
        obj: f64,
        entries: &[(ConstrId, f64)],
    ) -> VarId {
        self.model.add_col(name, lb, ub, obj, entries)
    }

    /// Replace a row's right-hand side (see [`Model::set_rhs`]).
    pub fn set_rhs(&mut self, row: ConstrId, rhs: f64) {
        self.model.set_rhs(row, rhs);
    }

    /// Replace one coefficient (see [`Model::set_coeff`]).
    pub fn set_coeff(&mut self, row: ConstrId, var: VarId, coeff: f64) {
        self.model.set_coeff(row, var, coeff);
    }

    /// Solve the current model, warm-starting from the previous optimal
    /// basis.
    pub fn solve(&mut self) -> LpSolution {
        assert!(
            self.model.num_constrs() >= self.rows_floor,
            "incremental LP rows must grow monotonically ({} < {})",
            self.model.num_constrs(),
            self.rows_floor
        );
        self.rows_floor = self.model.num_constrs();
        let n = self.model.num_vars();
        assert!(
            n >= self.cols_floor,
            "incremental LP columns must grow monotonically ({n} < {})",
            self.cols_floor
        );
        self.cols_floor = n;
        if let Some(warm) = &mut self.warm {
            // Columns appended since the snapshot rest at their lower bound.
            warm.loc_struct.resize(n, Loc::AtLb);
        }
        let out = crate::simplex::solve_lp_warm(&self.model, &self.config, self.warm.as_ref());
        self.stats.refactorizations += out.solution.stats.refactorizations;
        self.stats.peak_eta_len += out.solution.stats.peak_eta_len;
        self.stats.warm_pivots += out.solution.stats.warm_pivots;
        self.stats.factor_us += out.solution.stats.factor_us;
        self.stats.ftran_btran_us += out.solution.stats.ftran_btran_us;
        self.stats.pricing_us += out.solution.stats.pricing_us;
        if !out.solution.stats.warm {
            self.cold_solves += 1;
        }
        self.warm = out.basis;
        out.solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstrId, Model, Sense};
    use crate::simplex::LpStatus;

    #[test]
    fn csc_round_trips_columns() {
        let mut csc = CscMatrix::with_capacity(3, 2, 4);
        csc.push_col(vec![(0, 1.0), (2, -2.0)]);
        csc.push_col(vec![(1, 3.0)]);
        assert_eq!(csc.ncols(), 2);
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, -2.0)]);
        assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(csc.scale_of(&[0, 1]), 3.0);
    }

    #[test]
    fn incremental_rows_are_monotone_and_reoptimize() {
        // min x, x in [0, 10]; rounds push the lower bound up via rows.
        let mut m = Model::new("inc");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        let cfg = SimplexConfig::default();
        let mut inc = IncrementalLp::new(m, cfg);
        let s0 = inc.solve();
        assert_eq!(s0.status, LpStatus::Optimal);
        assert!((s0.objective - 0.0).abs() < 1e-9);
        for k in 1..=4 {
            let rows = inc.num_rows();
            inc.add_row(format!("ge{k}"), vec![(x, 1.0)], Sense::Ge, f64::from(k));
            assert_eq!(inc.num_rows(), rows + 1);
            let s = inc.solve();
            assert_eq!(s.status, LpStatus::Optimal);
            assert!(
                (s.objective - f64::from(k)).abs() < 1e-6,
                "round {k}: {}",
                s.objective
            );
        }
        // First solve is cold; the re-optimizations reuse the basis.
        assert_eq!(inc.cold_solves, 1, "appended rows must warm-start");
    }

    #[test]
    fn warm_start_after_appended_columns_matches_cold() {
        // Column generation in miniature: max λ with 3λ routed over
        // paths; each round appends a path column (and patches a
        // capacity) and must re-optimize from the stored basis to exactly
        // what a cold solve of the grown model finds.
        let mut m = Model::new("colgen");
        let lambda = m.add_var("lambda", 0.0, 10.0, -1.0, false);
        let x1 = m.add_nonneg("x1", 0.0);
        m.add_constr("dem", vec![(x1, 1.0), (lambda, -3.0)], Sense::Ge, 0.0);
        m.add_constr("cap1", vec![(x1, 1.0)], Sense::Le, 4.0);
        m.add_constr("cap2", vec![], Sense::Le, 2.0);
        m.add_constr("cap3", vec![], Sense::Le, 1.0);
        let cfg = SimplexConfig::default();
        let mut inc = IncrementalLp::new(m, cfg);
        let s0 = inc.solve();
        assert!((s0.x[lambda.0] - 4.0 / 3.0).abs() < 1e-9);
        let (dem, cap2, cap3) = (ConstrId(0), ConstrId(2), ConstrId(3));
        for (round, (row, want)) in [(cap2, 2.0), (cap3, 3.0)].into_iter().enumerate() {
            inc.add_col("x", 0.0, f64::INFINITY, 0.0, &[(dem, 1.0), (row, 1.0)]);
            if round == 1 {
                inc.set_rhs(cap3, 3.0); // 4 + 2 + 3 = 9 = 3λ
            }
            let warm = inc.solve();
            assert!(warm.stats.warm, "round {round} must reuse the basis");
            let cold = crate::simplex::solve_lp(inc.model(), &cfg);
            assert_eq!(warm.status, LpStatus::Optimal);
            assert!((warm.x[lambda.0] - want).abs() < 1e-9, "round {round}");
            assert!((warm.objective - cold.objective).abs() < 1e-9);
            for (a, b) in warm.x.iter().zip(&cold.x) {
                assert!((a - b).abs() < 1e-9, "round {round}: x {a} vs {b}");
            }
            for (a, b) in warm.duals.iter().zip(&cold.duals) {
                assert!((a - b).abs() < 1e-9, "round {round}: dual {a} vs {b}");
            }
        }
        assert_eq!(inc.cold_solves, 1, "appended columns must warm-start");
        // A coefficient patch keeps the basis too: halve the demand.
        inc.set_coeff(dem, lambda, -1.5);
        let s = inc.solve();
        assert!(s.stats.warm);
        assert!((s.x[lambda.0] - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn untagged_shrinkage_still_panics() {
        let mut m = Model::new("shrink");
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constr("r", vec![(x, 1.0)], Sense::Ge, 0.5);
        let mut inc = IncrementalLp::new(m, SimplexConfig::default());
        inc.solve();
        // Mutating the model behind the wrapper's back (out-of-band row
        // removal) must still trip the monotonicity assert.
        let mut stolen = Model::new("empty");
        let y = stolen.add_var("x", 0.0, 1.0, 1.0, false);
        let _ = y;
        *inc.model_mut_for_tests() = stolen;
        inc.solve();
    }
}
