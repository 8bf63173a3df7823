//! Bounded-variable dual simplex: restore primal feasibility after a
//! warm-started basis reinstall.
//!
//! Precondition: the tableau holds a (near-)dual-feasible basis — reduced
//! costs respect the rest states — but basic values may violate their
//! bounds, which is exactly the state after a parent-optimal basis is
//! reinstalled under tightened bounds (a B&B branch) or appended rows
//! (Benders cuts). Each iteration picks the most-violated basic variable
//! as the leaving row, prices the row with one BTRAN, runs the dual ratio
//! test over the nonbasic columns to preserve dual feasibility, and
//! pivots. When no eligible entering column exists the LP is primal
//! infeasible (the caller re-certifies numerically before trusting it).

use crate::factor::REFACTOR_EVERY;
use crate::simplex::{Loc, LpStatus, Tableau};

/// Outcome of the feasibility-restoration loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DualStatus {
    /// All basic values are within bounds; primal phase 2 can finish.
    PrimalFeasible,
    /// A violated row admits no entering column: primal infeasible,
    /// subject to the caller's dual-feasibility certificate.
    Infeasible,
    /// Pivot budget exhausted — fall back to a cold solve.
    IterationLimit,
    /// A factorization failed — fall back to a cold solve.
    NumericalFailure,
}

impl From<LpStatus> for DualStatus {
    fn from(s: LpStatus) -> DualStatus {
        match s {
            LpStatus::NumericalFailure => DualStatus::NumericalFailure,
            _ => DualStatus::IterationLimit,
        }
    }
}

/// Run dual-simplex pivots until the basic values satisfy their bounds,
/// incrementing `iterations` per pivot (shared with the primal driver so
/// the total respects one budget).
pub(crate) fn restore_feasibility(
    t: &mut Tableau,
    max_iters: usize,
    iterations: &mut usize,
) -> DualStatus {
    let zero_tol = 1e-9;
    loop {
        if *iterations >= max_iters {
            return DualStatus::IterationLimit;
        }
        // --- leaving row: largest bound violation --------------------------
        let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, above_ub)
        for r in 0..t.m {
            let bj = t.basis[r];
            let xv = t.x[bj];
            let (viol, above) = if xv > t.ub[bj] + t.tol {
                (xv - t.ub[bj], true)
            } else if xv < t.lb[bj] - t.tol {
                (t.lb[bj] - xv, false)
            } else {
                continue;
            };
            if leave.is_none_or(|(_, best, _)| viol > best) {
                leave = Some((r, viol, above));
            }
        }
        let Some((r, _, above)) = leave else {
            return DualStatus::PrimalFeasible;
        };

        // --- dual ratio test -----------------------------------------------
        // Row r of B⁻¹ prices every column: α_j = ρ·A_j. The leaving
        // basic must move back toward its violated bound, which fixes the
        // admissible sign of α_j per rest state; among the admissible
        // columns the one with the smallest |d_j/α_j| keeps every reduced
        // cost on its feasible side.
        let rho = t.btran_unit(r);
        let y = t.duals();
        let p0 = t.clock();
        let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
        for j in 0..t.ncols {
            if t.loc[j] == Loc::Basic || t.ub[j] - t.lb[j] <= t.tol {
                continue;
            }
            let mut alpha = 0.0;
            for (i, a) in t.cols.col(j) {
                alpha += rho[i] * a;
            }
            if alpha.abs() <= zero_tol {
                continue;
            }
            // x_Br must decrease when above its upper bound (so x_j moves
            // with sign(α) > 0 from a lower bound) and increase when
            // below its lower bound.
            let ok = match t.loc[j] {
                Loc::AtLb => {
                    if above {
                        alpha > zero_tol
                    } else {
                        alpha < -zero_tol
                    }
                }
                Loc::AtUb => {
                    if above {
                        alpha < -zero_tol
                    } else {
                        alpha > zero_tol
                    }
                }
                Loc::FreeZero => true,
                Loc::Basic => unreachable!(),
            };
            if !ok {
                continue;
            }
            let ratio = (t.reduced_cost(j, &y) / alpha).abs();
            let better = match enter {
                None => true,
                Some((_, best, besta)) => {
                    ratio < best - 1e-12
                        || ((ratio - best).abs() <= 1e-12 && alpha.abs() > besta.abs())
                }
            };
            if better {
                enter = Some((j, ratio, alpha));
            }
        }
        t.lap_price(p0);
        let Some((j, _, _)) = enter else {
            return DualStatus::Infeasible;
        };
        *iterations += 1;

        // --- pivot ----------------------------------------------------------
        let tcol = t.ftran(j);
        if tcol[r].abs() < 1e-11 {
            // BTRAN and FTRAN disagree badly: the factors have drifted.
            if t.refactorize().is_err() {
                return DualStatus::NumericalFailure;
            }
            continue;
        }
        let out = t.basis[r];
        let beta = if above { t.ub[out] } else { t.lb[out] };
        let delta = (t.x[out] - beta) / tcol[r];
        for (rr, &tc) in tcol.iter().enumerate().take(t.m) {
            let bj = t.basis[rr];
            t.x[bj] -= tc * delta;
        }
        t.x[j] += delta;
        t.loc[out] = if above { Loc::AtUb } else { Loc::AtLb };
        t.x[out] = beta;
        t.loc[j] = Loc::Basic;
        t.basis[r] = j;
        t.factors.update(r, &tcol);
        if t.factors.should_refactor(REFACTOR_EVERY) && t.refactorize().is_err() {
            return DualStatus::NumericalFailure;
        }
    }
}
