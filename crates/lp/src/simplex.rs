//! Bounded-variable two-phase revised simplex over an LU-factorized basis.
//!
//! The implementation follows the classic textbook method (Chvátal ch. 8,
//! bounded variables):
//!
//! 1. every row gets a slack column (`≤` → `+s`, `≥` → `−s`, `=` → a
//!    fixed slack), turning the system into `Ax = b` with box bounds;
//! 2. **phase 1** starts from an all-artificial basis absorbing the
//!    residual of the initial point and minimizes the sum of artificial
//!    values; a positive optimum proves infeasibility;
//! 3. **phase 2** minimizes the real objective with the artificials
//!    pinned to zero.
//!
//! Pricing is Dantzig (most-negative reduced cost) with an automatic
//! switch to Bland's rule after a run of degenerate pivots, which
//! guarantees termination. The basis is held as sparse LU factors with
//! eta updates ([`crate::factor`]), which pricing and pivoting reach only
//! through FTRAN, BTRAN and the pivot update; `B⁻¹` itself is formed only
//! for a [`TableauView`].
//!
//! Warm starts ([`solve_lp_warm`]) reinstall a previously-optimal basis
//! ([`WarmBasis`]) after bound changes or appended rows and re-optimize
//! with the bounded-variable **dual simplex** ([`crate::dual`]) instead of
//! re-running both phases; every failure path falls back to a cold solve,
//! so warm starting is purely an accelerator, never a semantics change.

// Index loops here walk several per-column arrays (`loc`, `lb`, `ub`,
// `x`) in step; enumerate-based rewrites obscure the linear algebra
// without changing the generated code.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use crate::factor::{SparseBasis, REFACTOR_EVERY};
use crate::model::{Model, Sense};
use crate::sparse::{CscMatrix, WarmBasis, WarmCol};

/// Outcome of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists (phase-1 optimum is positive).
    Infeasible,
    /// The objective is unbounded below on the feasible set.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterationLimit,
    /// The basis factorization failed (singular basis) even after the
    /// recovery ladder — bound perturbation, then Bland's rule from the
    /// first pivot. Callers must treat the solution as unknown (like
    /// `IterationLimit`), never as a feasibility verdict.
    NumericalFailure,
}

/// Feasibility / optimality tolerance of every solve.
const TOL: f64 = 1e-7;

/// Solver switches. The tolerance ([`TOL`]) and the pivot cap
/// (`200·(m+n) + 20_000` across both phases) are fixed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimplexConfig {
    /// Collect per-stage wall timers (factorize / ftran-btran /
    /// pricing) into [`SolveStats`]. Off by default: the clock reads
    /// are cheap but not free, and only `--profile` consumers look at
    /// them.
    pub collect_timing: bool,
}

/// Per-solve accounting for the `lp.*` telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Whether this solve reused a warm basis (dual-simplex path).
    pub warm: bool,
    /// Pivots spent in the warm re-optimization (dual restore + primal
    /// cleanup); 0 for cold solves.
    pub warm_pivots: u64,
    /// Basis factorizations performed.
    pub refactorizations: u64,
    /// Longest eta file between refactorizations.
    pub peak_eta_len: u64,
    /// Wall spent in basis factorizations, µs (0 unless
    /// `collect_timing`).
    pub factor_us: u64,
    /// Wall spent in FTRAN/BTRAN solves, µs (0 unless `collect_timing`).
    pub ftran_btran_us: u64,
    /// Wall spent in pricing / ratio-test column scans, µs (0 unless
    /// `collect_timing`).
    pub pricing_us: u64,
}

/// Nanosecond-resolution stage clocks, accumulated only when
/// `collect_timing` is set (µs resolution would truncate the many
/// sub-µs FTRAN calls to zero). `Cell`s so `&self` solve paths
/// (`duals`, `ftran`) can charge themselves without threading `&mut`
/// through every read-only caller.
#[derive(Debug, Default)]
pub(crate) struct StageTimers {
    factor_ns: std::cell::Cell<u64>,
    solve_ns: std::cell::Cell<u64>,
    price_ns: std::cell::Cell<u64>,
}

#[inline]
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An LP solution.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Final status; `x`/`objective` are meaningful for `Optimal` (and
    /// best-effort for `IterationLimit`).
    pub status: LpStatus,
    /// Objective value of `x`.
    pub objective: f64,
    /// Values of the *structural* variables, indexed like `model.vars()`.
    pub x: Vec<f64>,
    /// Row duals `y = c_B B⁻¹` at termination, indexed like
    /// `model.constrs()`. Sign convention: reduced costs are
    /// `c_j − yᵀA_j`, non-negative for variables at lower bound at the
    /// optimum of a minimization.
    pub duals: Vec<f64>,
    /// Total simplex pivots performed.
    pub iterations: usize,
    /// Factorization/warm-start accounting for telemetry.
    pub stats: SolveStats,
}

/// Where a column currently rests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLb,
    /// Nonbasic at its upper bound.
    AtUb,
    /// Free nonbasic variable resting at 0.
    FreeZero,
}

/// A snapshot of the optimal simplex tableau, enough to derive Gomory
/// mixed-integer cuts (see [`crate::gomory`]): which column is basic in
/// each row, where every column rests, all column values, and the dense
/// basis inverse.
///
/// Column indexing: `0..n` structural variables, `n..n+m` slacks (one per
/// row, `+1` for `≤`/`=`, `−1` for `≥`), `n+m..n+2m` artificials (pinned
/// to zero at optimality).
#[derive(Clone, Debug)]
pub struct TableauView {
    /// Basic column of each row.
    pub basis: Vec<usize>,
    /// Rest state of every column.
    pub loc: Vec<Loc>,
    /// Value of every column.
    pub x: Vec<f64>,
    /// Lower bound of every column.
    pub lb: Vec<f64>,
    /// Upper bound of every column.
    pub ub: Vec<f64>,
    /// Row-major m×m basis inverse, materialized from the LU factors.
    pub binv: Vec<f64>,
    /// Number of rows.
    pub m: usize,
    /// Number of structural columns.
    pub n_struct: usize,
}

pub(crate) struct Tableau {
    pub(crate) m: usize,
    /// structural + slack + artificial column count
    pub(crate) ncols: usize,
    pub(crate) n_struct: usize,
    pub(crate) art_start: usize,
    pub(crate) cols: CscMatrix,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) cost: Vec<f64>,
    pub(crate) b: Vec<f64>,
    pub(crate) basis: Vec<usize>,
    pub(crate) loc: Vec<Loc>,
    pub(crate) x: Vec<f64>,
    pub(crate) factors: SparseBasis,
    pub(crate) tol: f64,
    /// Stage clocks, present only when `SimplexConfig::collect_timing`.
    pub(crate) timers: Option<StageTimers>,
}

/// A tiny deterministic magnitude for the singular-recovery perturbation:
/// index-hashed so neighboring bounds move by different amounts (the
/// point is to break exact degeneracy), relative so large bounds are not
/// perturbed below their own rounding noise, and ~1e-9 so every
/// downstream tolerance (simplex `tol`, MIP integrality, metric-cut
/// violation) dwarfs it.
fn perturb_eps(seed: u64, index: usize, value: f64) -> f64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let frac = ((z >> 11) as f64) / ((1u64 << 53) as f64);
    1e-9 * (1.0 + value.abs()) * (0.5 + frac)
}

impl Tableau {
    /// Build the phase-1 tableau. With `perturb = Some(seed)`, every
    /// finite structural bound is widened and every inequality RHS
    /// loosened by a deterministic [`perturb_eps`] — the feasible set
    /// only grows, so a feasible model stays feasible and the optimum
    /// moves by at most O(1e-9) relative.
    fn build(model: &Model, perturb: Option<u64>, timing: bool) -> Tableau {
        let m = model.num_constrs();
        let n = model.num_vars();
        let ncols = n + m + m;
        let art_start = n + m;
        let mut lb = vec![0.0f64; ncols];
        let mut ub = vec![f64::INFINITY; ncols];
        for (j, v) in model.vars().iter().enumerate() {
            lb[j] = v.lb;
            ub[j] = v.ub;
            if let Some(seed) = perturb {
                if lb[j].is_finite() {
                    lb[j] -= perturb_eps(seed, 2 * j, lb[j]);
                }
                if ub[j].is_finite() {
                    ub[j] += perturb_eps(seed, 2 * j + 1, ub[j]);
                }
            }
        }
        let mut b = vec![0.0f64; m];
        let mut scols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut slack_sign = vec![1.0f64; m];
        for (i, c) in model.constrs().iter().enumerate() {
            b[i] = c.rhs;
            if let Some(seed) = perturb {
                let eps = perturb_eps(seed, 2 * (n + i), c.rhs);
                match c.sense {
                    Sense::Le => b[i] += eps,
                    Sense::Ge => b[i] -= eps,
                    Sense::Eq => {}
                }
            }
            for &(v, a) in &c.coeffs {
                scols[v.0].push((i, a));
            }
            match c.sense {
                Sense::Le => slack_sign[i] = 1.0,
                Sense::Ge => slack_sign[i] = -1.0,
                Sense::Eq => {
                    slack_sign[i] = 1.0;
                    ub[n + i] = 0.0;
                }
            }
        }
        let nnz_hint = scols.iter().map(Vec::len).sum::<usize>() + 2 * m;
        let mut cols = CscMatrix::with_capacity(m, ncols, nnz_hint);
        for sc in &scols {
            cols.push_col(sc.iter().copied());
        }
        for i in 0..m {
            cols.push_col([(i, slack_sign[i])]);
        }
        // Initial nonbasic point: each structural/slack at its finite bound
        // nearest zero, or zero if free.
        let mut x = vec![0.0f64; ncols];
        let mut loc = vec![Loc::AtLb; ncols];
        for j in 0..art_start {
            if lb[j].is_finite() {
                x[j] = lb[j];
                loc[j] = Loc::AtLb;
            } else if ub[j].is_finite() {
                x[j] = ub[j];
                loc[j] = Loc::AtUb;
            } else {
                x[j] = 0.0;
                loc[j] = Loc::FreeZero;
            }
        }
        // Residuals absorbed by artificials with ±1 coefficients.
        let mut resid = b.clone();
        for j in 0..art_start {
            if x[j] != 0.0 {
                for (i, a) in cols.col(j) {
                    resid[i] -= a * x[j];
                }
            }
        }
        let mut basis = Vec::with_capacity(m);
        for i in 0..m {
            let aj = art_start + i;
            let sign = if resid[i] >= 0.0 { 1.0 } else { -1.0 };
            cols.push_col([(i, sign)]);
            x[aj] = resid[i].abs();
            loc[aj] = Loc::Basic;
            basis.push(aj);
        }
        // The all-artificial basis is a ±1 diagonal: install its factors
        // directly instead of paying (and counting) a factorization that a
        // warm install would immediately discard anyway.
        let mut factors = SparseBasis::new(m);
        let signs: Vec<f64> = basis
            .iter()
            .map(|&aj| cols.col(aj).next().map_or(1.0, |(_, v)| v))
            .collect();
        factors.factor_signed_identity(&signs);
        Tableau {
            m,
            ncols,
            n_struct: n,
            art_start,
            cols,
            lb,
            ub,
            cost: vec![0.0; ncols],
            b,
            basis,
            loc,
            x,
            factors,
            tol: TOL,
            timers: timing.then(StageTimers::default),
        }
    }

    /// Read the clock iff stage timing is on.
    #[inline]
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.timers.as_ref().map(|_| Instant::now())
    }

    #[inline]
    fn lap_factor(&self, t0: Option<Instant>) {
        if let (Some(t0), Some(tm)) = (t0, self.timers.as_ref()) {
            tm.factor_ns.set(tm.factor_ns.get() + elapsed_ns(t0));
        }
    }

    #[inline]
    fn lap_solve(&self, t0: Option<Instant>) {
        if let (Some(t0), Some(tm)) = (t0, self.timers.as_ref()) {
            tm.solve_ns.set(tm.solve_ns.get() + elapsed_ns(t0));
        }
    }

    #[inline]
    pub(crate) fn lap_price(&self, t0: Option<Instant>) {
        if let (Some(t0), Some(tm)) = (t0, self.timers.as_ref()) {
            tm.price_ns.set(tm.price_ns.get() + elapsed_ns(t0));
        }
    }

    /// Post-optimal cleanup: refresh the basic values (and on drifted
    /// factors, the factorization) so `x` tightly agrees with the row
    /// system. With an empty eta file the sparse factors already *are*
    /// the fresh factorization of the current basis, so only the basic
    /// values need recomputing — skipping the factorization that made
    /// warm two-pivot solves pay cold prices.
    pub(crate) fn refresh_final(&mut self) -> Result<(), ()> {
        if self.factors.eta_len() == 0 {
            let t0 = self.clock();
            self.recompute_basics();
            self.lap_solve(t0);
            return Ok(());
        }
        self.refactorize()
    }

    /// `y = c_B B⁻¹`.
    pub(crate) fn duals(&self) -> Vec<f64> {
        let t0 = self.clock();
        let cb: Vec<f64> = self.basis.iter().map(|&bj| self.cost[bj]).collect();
        let y = self.factors.btran(&cb);
        self.lap_solve(t0);
        y
    }

    /// Row `r` of `B⁻¹` (the dual-simplex pricing vector), timed.
    pub(crate) fn btran_unit(&self, r: usize) -> Vec<f64> {
        let t0 = self.clock();
        let rho = self.factors.btran_unit(r);
        self.lap_solve(t0);
        rho
    }

    /// Reduced cost of column `j` given duals `y`.
    pub(crate) fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.cost[j];
        for (i, a) in self.cols.col(j) {
            d -= y[i] * a;
        }
        d
    }

    /// `t = B⁻¹ A_j`.
    pub(crate) fn ftran(&self, j: usize) -> Vec<f64> {
        let t0 = self.clock();
        let t = self.factors.ftran_sparse(self.cols.col(j));
        self.lap_solve(t0);
        t
    }

    /// Rebuild the basis representation and basic values from scratch.
    pub(crate) fn refactorize(&mut self) -> Result<(), ()> {
        let t0 = self.clock();
        let r = self.factors.refactorize(&self.cols, &self.basis);
        self.lap_factor(t0);
        r.map_err(|_| ())?;
        let t0 = self.clock();
        self.recompute_basics();
        self.lap_solve(t0);
        Ok(())
    }

    /// Basic values `x_B = B⁻¹ (b − N x_N)`.
    pub(crate) fn recompute_basics(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.ncols {
            if self.loc[j] != Loc::Basic && self.x[j] != 0.0 {
                for (i, a) in self.cols.col(j) {
                    rhs[i] -= a * self.x[j];
                }
            }
        }
        let xb = self.factors.ftran_dense(&rhs);
        for (r, v) in xb.into_iter().enumerate() {
            self.x[self.basis[r]] = v;
        }
    }

    /// Install a [`WarmBasis`] captured from an earlier optimal solve of
    /// a compatible model (same structural columns; rows only appended;
    /// bounds may have changed). New rows get their logical column as the
    /// basic member, which keeps the reinstalled basis dual feasible.
    /// Fails — signalling the caller to fall back to a cold solve — on
    /// any shape mismatch or a singular reinstalled basis.
    pub(crate) fn install_warm(&mut self, warm: &WarmBasis) -> Result<(), ()> {
        let m = self.m;
        let n = self.n_struct;
        if warm.loc_struct.len() != n || warm.basis.len() != warm.loc_logical.len() {
            return Err(());
        }
        let cap_m = warm.basis.len();
        if cap_m > m {
            return Err(()); // rows were removed: the snapshot is stale
        }
        let mut basis = Vec::with_capacity(m);
        for wc in &warm.basis {
            let j = match *wc {
                WarmCol::Struct(j) if j < n => j,
                WarmCol::Logical(i) if i < m => n + i,
                WarmCol::Artificial(i) if i < m => self.art_start + i,
                _ => return Err(()),
            };
            basis.push(j);
        }
        for i in cap_m..m {
            basis.push(n + i);
        }
        let mut seen = vec![false; self.ncols];
        for &j in &basis {
            if seen[j] {
                return Err(());
            }
            seen[j] = true;
        }
        // Rest states: start from the snapshot where it applies, fixing
        // any rest spot the current bounds no longer admit.
        for j in 0..self.ncols {
            let wanted = if j < n {
                warm.loc_struct[j]
            } else if j < n + cap_m {
                warm.loc_logical[j - n]
            } else {
                // Logicals of appended rows (unless made basic below)
                // and artificials both rest at zero / their lower bound.
                Loc::AtLb
            };
            self.loc[j] = match wanted {
                Loc::AtLb if self.lb[j].is_finite() => Loc::AtLb,
                Loc::AtUb if self.ub[j].is_finite() => Loc::AtUb,
                Loc::Basic | Loc::AtLb | Loc::AtUb | Loc::FreeZero => {
                    if self.lb[j].is_finite() {
                        Loc::AtLb
                    } else if self.ub[j].is_finite() {
                        Loc::AtUb
                    } else {
                        Loc::FreeZero
                    }
                }
            };
        }
        for &j in &basis {
            self.loc[j] = Loc::Basic;
        }
        self.basis = basis;
        for j in 0..self.ncols {
            if self.loc[j] != Loc::Basic {
                self.x[j] = match self.loc[j] {
                    Loc::AtLb => self.lb[j],
                    Loc::AtUb => self.ub[j],
                    _ => 0.0,
                };
            }
        }
        self.refactorize()
    }

    /// Snapshot the current (optimal) basis for later warm starts.
    pub(crate) fn capture_warm(&self) -> WarmBasis {
        let n = self.n_struct;
        let basis = self
            .basis
            .iter()
            .map(|&j| {
                if j < n {
                    WarmCol::Struct(j)
                } else if j < self.art_start {
                    WarmCol::Logical(j - n)
                } else {
                    WarmCol::Artificial(j - self.art_start)
                }
            })
            .collect();
        WarmBasis {
            basis,
            loc_struct: self.loc[..n].to_vec(),
            loc_logical: self.loc[n..self.art_start].to_vec(),
        }
    }

    /// Are the current reduced costs dual feasible for the current rest
    /// states? Used to certify an `Infeasible` verdict from the dual
    /// simplex before trusting it without a phase-1 proof.
    pub(crate) fn dual_feasible(&self) -> bool {
        let y = self.duals();
        let tol = self.tol * 10.0;
        for j in 0..self.ncols {
            if self.loc[j] == Loc::Basic || self.ub[j] - self.lb[j] <= self.tol {
                continue;
            }
            let d = self.reduced_cost(j, &y);
            let ok = match self.loc[j] {
                Loc::AtLb => d >= -tol,
                Loc::AtUb => d <= tol,
                Loc::FreeZero => d.abs() <= tol,
                Loc::Basic => true,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// One phase of the simplex. Returns the status reached. With
    /// `start_bland`, Bland's rule is used from the first pivot (the last
    /// rung of the singular-recovery ladder) instead of only after a
    /// degenerate run.
    fn optimize(
        &mut self,
        max_iters: usize,
        iterations: &mut usize,
        start_bland: bool,
    ) -> LpStatus {
        let mut degenerate_run = 0usize;
        let mut bland = start_bland;
        loop {
            if *iterations >= max_iters {
                return LpStatus::IterationLimit;
            }
            let y = self.duals();
            // --- pricing ---------------------------------------------------
            let p0 = self.clock();
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, dir)
            for j in 0..self.ncols {
                if self.loc[j] == Loc::Basic {
                    continue;
                }
                // Fixed columns (lb == ub) can never improve.
                if self.ub[j] - self.lb[j] <= self.tol {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let dir = match self.loc[j] {
                    Loc::AtLb if d < -self.tol => 1.0,
                    Loc::AtUb if d > self.tol => -1.0,
                    Loc::FreeZero if d < -self.tol => 1.0,
                    Loc::FreeZero if d > self.tol => -1.0,
                    _ => continue,
                };
                if bland {
                    entering = Some((j, d.abs(), dir));
                    break;
                }
                if entering.is_none_or(|(_, best, _)| d.abs() > best) {
                    entering = Some((j, d.abs(), dir));
                }
            }
            self.lap_price(p0);
            let Some((j, _, dir)) = entering else {
                return LpStatus::Optimal;
            };
            *iterations += 1;

            // --- ratio test -------------------------------------------------
            let t = self.ftran(j);
            // Moving x_j by `dir·Δ` changes basic r by `-dir·t_r·Δ`.
            let span = self.ub[j] - self.lb[j]; // may be ∞
            let mut limit = span;
            let mut leaving: Option<(usize, Loc)> = None; // (row, bound hit)
            for r in 0..self.m {
                let rate = -dir * t[r];
                if rate.abs() <= 1e-10 {
                    continue;
                }
                let bj = self.basis[r];
                let room = if rate > 0.0 {
                    // basic value increases toward its upper bound
                    if self.ub[bj].is_infinite() {
                        continue;
                    }
                    (self.ub[bj] - self.x[bj]) / rate
                } else {
                    if self.lb[bj].is_infinite() {
                        continue;
                    }
                    (self.lb[bj] - self.x[bj]) / rate
                };
                let room = room.max(0.0);
                // Bland's anti-cycling rule needs the smallest-index
                // leaving variable among ties, not the first row seen.
                let better = room < limit - 1e-12
                    || (bland
                        && (room - limit).abs() <= 1e-12
                        && leaving.is_some_and(|(lr, _)| bj < self.basis[lr]));
                if better {
                    limit = room;
                    leaving = Some((r, if rate > 0.0 { Loc::AtUb } else { Loc::AtLb }));
                }
            }
            if limit.is_infinite() {
                return LpStatus::Unbounded;
            }
            if limit <= self.tol {
                degenerate_run += 1;
                if degenerate_run > 40 + self.m {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
            }

            // --- update -----------------------------------------------------
            let delta = dir * limit;
            for r in 0..self.m {
                let bj = self.basis[r];
                self.x[bj] -= t[r] * delta;
            }
            self.x[j] += delta;
            match leaving {
                None => {
                    // Bound flip: j moves to its opposite bound.
                    self.loc[j] = if dir > 0.0 { Loc::AtUb } else { Loc::AtLb };
                    // Snap exactly to the bound to kill drift.
                    self.x[j] = if dir > 0.0 { self.ub[j] } else { self.lb[j] };
                }
                Some((r, bound)) => {
                    let out = self.basis[r];
                    self.loc[out] = bound;
                    self.x[out] = match bound {
                        Loc::AtUb => self.ub[out],
                        _ => self.lb[out],
                    };
                    self.loc[j] = Loc::Basic;
                    self.basis[r] = j;
                    if t[r].abs() < 1e-11 {
                        // Numerically unsafe pivot: rebuild everything.
                        if self.refactorize().is_err() {
                            return LpStatus::NumericalFailure;
                        }
                        continue;
                    }
                    self.factors.update(r, &t);
                }
            }
            if self.factors.should_refactor(REFACTOR_EVERY) && self.refactorize().is_err() {
                return LpStatus::NumericalFailure;
            }
        }
    }

    fn phase1_objective(&self) -> f64 {
        (self.art_start..self.ncols).map(|j| self.x[j].abs()).sum()
    }

    /// Set phase-2 costs (the model objective) and pin the artificials
    /// at zero.
    fn enter_phase2(&mut self, model: &Model) {
        for j in 0..self.ncols {
            self.cost[j] = if j < self.n_struct {
                model.var(crate::model::VarId(j)).obj
            } else {
                0.0
            };
        }
        for j in self.art_start..self.ncols {
            self.ub[j] = 0.0;
            if self.loc[j] != Loc::Basic {
                self.x[j] = 0.0;
                self.loc[j] = Loc::AtLb;
            }
        }
    }

    fn view(&self) -> TableauView {
        TableauView {
            basis: self.basis.clone(),
            loc: self.loc.clone(),
            x: self.x.clone(),
            lb: self.lb.clone(),
            ub: self.ub.clone(),
            binv: self.factors.dense_binv(),
            m: self.m,
            n_struct: self.n_struct,
        }
    }
}

/// Pivot cap across both phases of one solve.
fn iter_cap(t: &Tableau) -> usize {
    200 * (t.m + t.n_struct) + 20_000
}

fn extract(
    model: &Model,
    t: &Tableau,
    status: LpStatus,
    iterations: usize,
    warm: bool,
) -> LpSolution {
    LpSolution {
        status,
        objective: model.objective_value(&t.x[..t.n_struct]),
        x: t.x[..t.n_struct].to_vec(),
        duals: t.duals(),
        iterations,
        stats: SolveStats {
            warm,
            warm_pivots: if warm { iterations as u64 } else { 0 },
            refactorizations: t.factors.refactorizations,
            peak_eta_len: t.factors.peak_eta_len,
            factor_us: t.timers.as_ref().map_or(0, |tm| tm.factor_ns.get() / 1_000),
            ftran_btran_us: t.timers.as_ref().map_or(0, |tm| tm.solve_ns.get() / 1_000),
            pricing_us: t.timers.as_ref().map_or(0, |tm| tm.price_ns.get() / 1_000),
        },
    }
}

/// The result of a warm-capable solve: the solution plus (on optimal
/// solves) the tableau snapshot for cut generation and the basis snapshot
/// for the next warm start.
#[derive(Clone, Debug)]
pub struct LpOutcome {
    /// The solution itself.
    pub solution: LpSolution,
    /// Optimal-tableau snapshot, if requested and optimal.
    pub view: Option<TableauView>,
    /// Basis snapshot for warm-starting the next solve (optimal solves
    /// only).
    pub basis: Option<WarmBasis>,
}

/// Solve the LP relaxation of `model` (integrality is ignored here; see
/// [`crate::milp::solve_mip`] for the integer solver).
pub fn solve_lp(model: &Model, config: &SimplexConfig) -> LpSolution {
    solve_lp_warm_chaos(model, config, None, false, np_chaos::global()).solution
}

/// Warm-capable LP solve: a supplied basis snapshot is reinstalled and
/// re-optimized with the dual simplex; any warm-path failure (shape
/// mismatch, singular reinstall, iteration cap, uncertified
/// infeasibility) falls back to the cold two-phase ladder. The returned
/// outcome carries the next warm-start snapshot on optimal solves.
pub fn solve_lp_warm(model: &Model, config: &SimplexConfig, warm: Option<&WarmBasis>) -> LpOutcome {
    solve_lp_warm_chaos(model, config, warm, false, np_chaos::global())
}

/// [`solve_lp_warm`] with a tableau-view request and an explicit chaos
/// handle — the full-control entry point the MILP and Benders layers use.
/// `want_view` asks for the optimal tableau snapshot (only when the
/// status is `Optimal`), for cut generation.
///
/// Singular-basis recovery: when a factorization fails mid-solve (or an
/// injected `lp-singular` fault pretends it did), the solve is retried
/// with deterministically perturbed bounds to break the degeneracy, then
/// with Bland's rule from the first pivot on the exact problem. Only if
/// every rung fails is [`LpStatus::NumericalFailure`] reported.
pub fn solve_lp_warm_chaos(
    model: &Model,
    config: &SimplexConfig,
    warm: Option<&WarmBasis>,
    want_view: bool,
    chaos: &np_chaos::Chaos,
) -> LpOutcome {
    if let Some(wb) = warm {
        if let Some(out) = warm_attempt(model, config, wb, want_view, chaos) {
            return out;
        }
    }
    // Cold ladder.
    let (solution, view, basis) = if !chaos.should_fire(np_chaos::FaultClass::LpSingular) {
        let r = solve_attempt(model, config, None, false, want_view);
        if r.0.status != LpStatus::NumericalFailure {
            r
        } else {
            cold_recovery(model, config, want_view)
        }
    } else {
        cold_recovery(model, config, want_view)
    };
    LpOutcome {
        solution,
        view,
        basis,
    }
}

/// The perturbation → Bland recovery rungs shared by real singular bases
/// and injected `lp-singular` faults.
fn cold_recovery(
    model: &Model,
    config: &SimplexConfig,
    want_view: bool,
) -> (LpSolution, Option<TableauView>, Option<WarmBasis>) {
    let r = solve_attempt(model, config, Some(0x5eed_cafe), false, want_view);
    if r.0.status != LpStatus::NumericalFailure {
        return r;
    }
    solve_attempt(model, config, None, true, want_view)
}

/// One rung of the recovery ladder: a full two-phase solve, optionally
/// on perturbed bounds and/or with Bland's rule throughout.
fn solve_attempt(
    model: &Model,
    config: &SimplexConfig,
    perturb: Option<u64>,
    bland: bool,
    want_view: bool,
) -> (LpSolution, Option<TableauView>, Option<WarmBasis>) {
    let mut t = Tableau::build(model, perturb, config.collect_timing);
    let max_iters = iter_cap(&t);
    let mut iterations = 0usize;

    // Phase 1: minimize the artificial mass.
    for j in t.art_start..t.ncols {
        t.cost[j] = 1.0;
    }
    let s1 = t.optimize(max_iters, &mut iterations, bland);
    if s1 == LpStatus::IterationLimit || s1 == LpStatus::NumericalFailure {
        return (extract(model, &t, s1, iterations, false), None, None);
    }
    if t.phase1_objective() > TOL * 10.0 {
        return (
            extract(model, &t, LpStatus::Infeasible, iterations, false),
            None,
            None,
        );
    }
    // Phase 2: real costs; artificials pinned at zero.
    t.enter_phase2(model);
    let s2 = t.optimize(max_iters, &mut iterations, bland);
    // Final cleanup for tight agreement between x and the row system.
    if s2 == LpStatus::Optimal {
        let _ = t.refresh_final();
    }
    let view = (s2 == LpStatus::Optimal && want_view).then(|| t.view());
    // Only unperturbed optimal bases are worth snapshotting: a perturbed
    // basis is optimal for slightly different bounds, and the warm path
    // re-verifies optimality anyway, but there is no point seeding it
    // from a recovery rung.
    let basis = (s2 == LpStatus::Optimal && perturb.is_none()).then(|| t.capture_warm());
    (extract(model, &t, s2, iterations, false), view, basis)
}

/// The warm path: reinstall the snapshot, restore primal feasibility with
/// the dual simplex, then finish with primal phase 2. Returns `None`
/// whenever the cold ladder should take over instead.
fn warm_attempt(
    model: &Model,
    config: &SimplexConfig,
    warm: &WarmBasis,
    want_view: bool,
    chaos: &np_chaos::Chaos,
) -> Option<LpOutcome> {
    // An injected singular fault hits the reinstall factorization first.
    if chaos.should_fire(np_chaos::FaultClass::LpSingular) {
        return None;
    }
    let mut t = Tableau::build(model, None, config.collect_timing);
    t.enter_phase2(model);
    t.install_warm(warm).ok()?;
    let max_iters = iter_cap(&t);
    // The dual restore is expected to take a handful of pivots; if it
    // drags on, the cold solve is the better use of the budget.
    let dual_cap = max_iters.min(20 * (t.m + t.n_struct) + 500);
    let mut iterations = 0usize;
    match crate::dual::restore_feasibility(&mut t, dual_cap, &mut iterations) {
        crate::dual::DualStatus::PrimalFeasible => {}
        crate::dual::DualStatus::Infeasible => {
            // The dual simplex proves infeasibility only under dual
            // feasibility; certify before trusting the verdict.
            if t.dual_feasible() {
                return Some(LpOutcome {
                    solution: extract(model, &t, LpStatus::Infeasible, iterations, true),
                    view: None,
                    basis: None,
                });
            }
            return None;
        }
        _ => return None,
    }
    // Primal cleanup: usually zero pivots, but bound changes can leave
    // residual dual infeasibility (e.g. rest states repaired on install).
    let s2 = t.optimize(max_iters, &mut iterations, false);
    if s2 == LpStatus::Optimal {
        let _ = t.refresh_final();
    }
    match s2 {
        LpStatus::Optimal => Some(LpOutcome {
            solution: extract(model, &t, s2, iterations, true),
            view: want_view.then(|| t.view()),
            basis: Some(t.capture_warm()),
        }),
        LpStatus::Unbounded => Some(LpOutcome {
            solution: extract(model, &t, s2, iterations, true),
            view: None,
            basis: None,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn cfg() -> SimplexConfig {
        SimplexConfig::default()
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  (≡ min −3x −5y)
        // Optimum (2, 6) with objective −36.
        let mut m = Model::new("wyndor");
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0, false);
        m.add_constr("c1", vec![(x, 1.0)], Sense::Le, 4.0);
        m.add_constr("c2", vec![(y, 2.0)], Sense::Le, 12.0);
        m.add_constr("c3", vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 36.0).abs() < 1e-6);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y s.t. x + y = 10, x >= 3, y >= 2 → (8, 2), obj 12.
        let mut m = Model::new("eq");
        let x = m.add_var("x", 3.0, f64::INFINITY, 1.0, false);
        let y = m.add_var("y", 2.0, f64::INFINITY, 2.0, false);
        m.add_constr("sum", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 10.0);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 12.0).abs() < 1e-6);
        assert!((s.x[0] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new("inf");
        let x = m.add_var("x", 0.0, 1.0, 0.0, false);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, 2.0);
        let c = cfg();
        assert_eq!(solve_lp(&m, &c).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut m = Model::new("unb");
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0, false);
        m.add_constr("c", vec![(x, -1.0)], Sense::Le, 5.0);
        let c = cfg();
        assert_eq!(solve_lp(&m, &c).status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_without_rows() {
        // min −x − y, x ≤ 3, y ≤ 4 with no constraints: hits the box corner.
        let mut m = Model::new("box");
        m.add_var("x", 0.0, 3.0, -1.0, false);
        m.add_var("y", 0.0, 4.0, -1.0, false);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 7.0).abs() < 1e-9);
    }

    #[test]
    fn free_variables() {
        // min x s.t. x >= -5 via row (x itself free): optimum −5.
        let mut m = Model::new("free");
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0, false);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, -5.0);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows() {
        // min y s.t. −x − y ≤ −4, x ≤ 3 → y ≥ 4 − x ≥ 1.
        let mut m = Model::new("negrhs");
        let x = m.add_var("x", 0.0, 3.0, 0.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, false);
        m.add_constr("c", vec![(x, -1.0), (y, -1.0)], Sense::Le, -4.0);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: many redundant rows through the optimum.
        let m = degenerate_model();
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        // Optimum x=1,y=0 (binding c1) gives −1.
        assert!(m.is_feasible(&s.x, 1e-6));
        assert!(s.objective <= -1.0 + 1e-6);
    }

    /// The degenerate instance shared by the recovery tests: many
    /// redundant rows through the optimum (x=1, y=0, objective −1).
    fn degenerate_model() -> Model {
        let mut m = Model::new("degen");
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, -1.0, false);
        for k in 1..=6 {
            m.add_constr(
                format!("c{k}"),
                vec![(x, 1.0), (y, f64::from(k))],
                Sense::Le,
                f64::from(k),
            );
        }
        m
    }

    #[test]
    fn injected_singular_basis_recovers_via_perturbation() {
        use np_chaos::{Chaos, FaultClass, FaultPlan};
        let c = cfg();
        let m = degenerate_model();
        let clean = solve_lp(&m, &c);
        assert_eq!(clean.status, LpStatus::Optimal);
        // The chaos plan declares the first solve attempt singular; the
        // perturbed retry must land on the same optimum.
        let chaos = Chaos::new(FaultPlan::parse("lp-singular@0").unwrap());
        let LpOutcome {
            solution: sol,
            view,
            ..
        } = solve_lp_warm_chaos(&m, &c, None, true, &chaos);
        assert_eq!(chaos.fired(FaultClass::LpSingular), 1);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective - clean.objective).abs() < 1e-6,
            "perturbed recovery drifted: {} vs {}",
            sol.objective,
            clean.objective
        );
        assert!(view.is_some(), "recovered solves still produce a tableau");
    }

    #[test]
    fn bland_fallback_solves_the_degenerate_lp_exactly() {
        // The last rung of the ladder — Bland's rule from the first
        // pivot on the unperturbed problem — must terminate on the
        // degenerate instance and agree with the Dantzig solve.
        let m = degenerate_model();
        let c = cfg();
        let clean = solve_lp(&m, &c);
        let (bland, _, _) = solve_attempt(&m, &c, None, true, false);
        assert_eq!(bland.status, LpStatus::Optimal);
        assert!(
            (bland.objective - clean.objective).abs() < 1e-9,
            "Bland fallback drifted: {} vs {}",
            bland.objective,
            clean.objective
        );
    }

    #[test]
    fn perturbed_attempt_stays_within_tolerance_everywhere() {
        // Perturbation only widens the feasible set, so the perturbed
        // optimum can only improve, and by a hair.
        let mut wyndor = Model::new("wyndor");
        let x = wyndor.add_var("x", 0.0, f64::INFINITY, -3.0, false);
        let y = wyndor.add_var("y", 0.0, f64::INFINITY, -5.0, false);
        wyndor.add_constr("c1", vec![(x, 1.0)], Sense::Le, 4.0);
        wyndor.add_constr("c2", vec![(y, 2.0)], Sense::Le, 12.0);
        wyndor.add_constr("c3", vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        for (name, m) in [("degen", degenerate_model()), ("wyndor", wyndor)] {
            let c = cfg();
            let clean = solve_lp(&m, &c);
            let (pert, _, _) = solve_attempt(&m, &c, Some(0x5eed_cafe), false, false);
            assert_eq!(pert.status, LpStatus::Optimal, "{name}");
            assert!(
                pert.objective <= clean.objective + 1e-9,
                "{name}: widening must not worsen the optimum"
            );
            assert!(
                (pert.objective - clean.objective).abs() < 1e-6,
                "{name}: perturbation moved the objective too far: {} vs {}",
                pert.objective,
                clean.objective
            );
        }
    }

    #[test]
    fn duals_price_binding_rows() {
        // min −x, x ≤ 4 (row): y = −1 prices the row; reduced costs ≥ 0.
        let mut m = Model::new("dual");
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0, false);
        m.add_constr("cap", vec![(x, 1.0)], Sense::Le, 4.0);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.duals[0] + 1.0).abs() < 1e-6, "dual = {}", s.duals[0]);
    }

    #[test]
    fn transportation_problem() {
        // 2 plants (cap 20, 30) → 3 markets (demand 10, 25, 15),
        // costs rows: [8,6,10],[9,12,13]. Known optimum 395:
        // plant1 → m2 (20 @6) ... verify against brute LP structure.
        let mut m = Model::new("transport");
        let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
        let caps = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        let mut v = vec![];
        for (p, row) in costs.iter().enumerate() {
            for (mk, &c) in row.iter().enumerate() {
                v.push(m.add_var(format!("x{p}{mk}"), 0.0, f64::INFINITY, c, false));
            }
        }
        for (p, &cap) in caps.iter().enumerate() {
            m.add_constr(
                format!("cap{p}"),
                (0..3).map(|mk| (v[p * 3 + mk], 1.0)).collect(),
                Sense::Le,
                cap,
            );
        }
        for (mk, &d) in demands.iter().enumerate() {
            m.add_constr(
                format!("dem{mk}"),
                (0..2).map(|p| (v[p * 3 + mk], 1.0)).collect(),
                Sense::Ge,
                d,
            );
        }
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(m.is_feasible(&s.x, 1e-6));
        // Optimal: p0→m2:5? Let's check the known LP optimum by weak
        // duality against a hand-computed feasible dual bound.
        // Feasible primal: p0: m1=20; p1: m0=10, m1=5, m2=15 →
        // 6·20 + 9·10 + 12·5 + 13·15 = 465. Solver must do at least
        // as well, and no better than 6 per unit · 50 = 300.
        assert!(s.objective <= 465.0 + 1e-6);
        assert!(s.objective >= 300.0);
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        let mut m = Model::new("fixed");
        let x = m.add_var("x", 2.0, 2.0, -10.0, false);
        let y = m.add_var("y", 0.0, 5.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let c = cfg();
        let s = solve_lp(&Model::new("empty"), &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn larger_random_lp_satisfies_kkt_spotchecks() {
        // A 30×60 random-but-seeded LP: verify feasibility and that the
        // objective is not improvable along any single coordinate
        // (first-order stationarity on the box).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = Model::new("rand");
        let mut vars = Vec::new();
        for j in 0..60 {
            let ub = rng.gen_range(1.0..5.0);
            let obj = rng.gen_range(-2.0..2.0);
            vars.push(m.add_var(format!("x{j}"), 0.0, ub, obj, false));
        }
        for i in 0..30 {
            let mut coeffs = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.3) {
                    coeffs.push((v, rng.gen_range(0.1..1.0)));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            let worth: f64 = coeffs.iter().map(|&(_, c)| c).sum();
            m.add_constr(format!("r{i}"), coeffs, Sense::Le, worth * 2.0);
        }
        let c = cfg();
        let s = solve_lp(&m, &c);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(m.is_feasible(&s.x, 1e-5));
    }

    #[test]
    fn warm_start_after_bound_change_matches_cold() {
        // Solve, tighten a bound (a B&B branch), re-solve warm: the warm
        // answer must match a cold solve of the changed model exactly in
        // status and to tight tolerance in objective.
        let mut m = Model::new("warm");
        let x = m.add_var("x", 0.0, 4.0, -3.0, false);
        let y = m.add_var("y", 0.0, 6.0, -5.0, false);
        m.add_constr("c3", vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let c = cfg();
        let first = solve_lp_warm(&m, &c, None);
        assert_eq!(first.solution.status, LpStatus::Optimal);
        let wb = first.basis.expect("sparse optimal solves snapshot a basis");
        m.set_bounds(x, 0.0, 1.0); // branch: x ≤ 1
        let warm = solve_lp_warm(&m, &c, Some(&wb));
        assert!(warm.solution.stats.warm, "bound change should warm-start");
        let cold = solve_lp(&m, &c);
        assert_eq!(warm.solution.status, cold.status);
        assert!(
            (warm.solution.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.solution.objective,
            cold.objective
        );
    }

    #[test]
    fn warm_start_proves_infeasibility_with_certificate() {
        // Branch to an empty box: the warm dual simplex must report
        // Infeasible (certified) or fall back — never claim optimality.
        let mut m = Model::new("warminf");
        let x = m.add_var("x", 0.0, 5.0, 1.0, false);
        let y = m.add_var("y", 0.0, 5.0, 1.0, false);
        m.add_constr("sum", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 8.0);
        let c = cfg();
        let first = solve_lp_warm(&m, &c, None);
        assert_eq!(first.solution.status, LpStatus::Optimal);
        let wb = first.basis.unwrap();
        m.set_bounds(x, 0.0, 1.0);
        m.set_bounds(y, 0.0, 1.0); // x + y ≤ 2 < 8: infeasible
        let warm = solve_lp_warm(&m, &c, Some(&wb));
        assert_eq!(warm.solution.status, LpStatus::Infeasible);
        let cold = solve_lp(&m, &c);
        assert_eq!(cold.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_after_appended_rows_matches_cold() {
        // The Benders pattern: cuts arrive as new Ge rows; the warm
        // re-solve from the pre-cut basis must agree with a cold solve.
        let mut m = Model::new("warmcut");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        let y = m.add_var("y", 0.0, 10.0, 2.0, false);
        m.add_constr("base", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
        let c = cfg();
        let mut out = solve_lp_warm(&m, &c, None);
        assert_eq!(out.solution.status, LpStatus::Optimal);
        for k in 0..4 {
            m.add_constr(
                format!("cut{k}"),
                vec![(x, 1.0), (y, 0.5)],
                Sense::Ge,
                3.0 + f64::from(k),
            );
            let wb = out.basis.expect("optimal sparse solve keeps a basis");
            out = solve_lp_warm(&m, &c, Some(&wb));
            assert_eq!(out.solution.status, LpStatus::Optimal, "round {k}");
            assert!(out.solution.stats.warm, "round {k} should warm-start");
            let cold = solve_lp(&m, &c);
            assert!(
                (out.solution.objective - cold.objective).abs() < 1e-9,
                "round {k}: warm {} vs cold {}",
                out.solution.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn warm_start_with_mismatched_shape_falls_back_cold() {
        // The raw entry point (branch & bound's) takes a snapshot only
        // for the exact column count it was captured on; growing the
        // column set is `IncrementalLp`'s business, which pads its own
        // snapshot before it gets here.
        let model_with = |cols: usize| {
            let mut m = Model::new("shape");
            let x = m.add_var("x", 0.0, 5.0, -1.0, false);
            for _ in 1..cols {
                m.add_var("y", 0.0, 5.0, -1.0, false);
            }
            m.add_constr("c", vec![(x, 1.0)], Sense::Le, 4.0);
            m
        };
        let c = cfg();
        let wb = |cols| solve_lp_warm(&model_with(cols), &c, None).basis.unwrap();
        let solves_cold = |model: &Model, wb: &WarmBasis, why: &str| {
            let out = solve_lp_warm(model, &c, Some(wb));
            assert_eq!(out.solution.status, LpStatus::Optimal, "{why}");
            assert!(!out.solution.stats.warm, "{why} must solve cold");
        };
        solves_cold(&model_with(2), &wb(1), "fewer columns than the model");
        solves_cold(&model_with(1), &wb(2), "more columns than the model");
        let mut torn = wb(1);
        torn.loc_logical.push(Loc::AtLb);
        solves_cold(&model_with(1), &torn, "logical/basis length mismatch");
        let mut grown = wb(1);
        grown.basis.push(WarmCol::Logical(1));
        grown.loc_logical.push(Loc::Basic);
        solves_cold(&model_with(1), &grown, "more rows than the model");
        // The matching shape does warm-start.
        let out = solve_lp_warm(&model_with(2), &c, Some(&wb(2)));
        assert!(out.solution.stats.warm);
    }

    #[test]
    fn sparse_stats_count_factorizations() {
        let m = degenerate_model();
        let s = solve_lp(&m, &cfg());
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.stats.refactorizations >= 1);
        assert!(!s.stats.warm);
    }
}
