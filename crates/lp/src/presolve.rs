//! Presolve: cheap model reductions applied before the simplex.
//!
//! Implements the standard safe reductions that matter for our master
//! problems (and for LP hygiene generally):
//!
//! 1. **bound tightening from single rows** — a `≥` row with all-positive
//!    coefficients implies a lower bound on each variable once the others
//!    sit at their upper bounds (and dually for `≤` rows);
//! 2. **empty and redundant row removal** — rows that cannot be violated
//!    within the current bounds are dropped; rows that cannot be
//!    *satisfied* prove infeasibility immediately;
//! 3. **singleton rows** — a row with one variable is just a bound.
//!
//! The pass is iterated to a fixed point (bounded rounds), and returns a
//! report of what was done. It never changes the feasible set.

use crate::model::{Model, Sense};

/// What a presolve pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct PresolveReport {
    /// Rows removed as redundant.
    pub redundant_rows: usize,
    /// Singleton rows converted into bounds.
    pub singleton_rows: usize,
    /// Variable bounds tightened.
    pub bounds_tightened: usize,
    /// The model was proven infeasible during presolve.
    pub proven_infeasible: bool,
    /// Fixed-point rounds executed.
    pub rounds: usize,
}

/// Smallest bound improvement worth recording (guards float churn).
const MIN_TIGHTEN: f64 = 1e-9;

/// Bound tightening only: no rows are added or removed, so constraint
/// indices stay stable — safe to run inside the MILP solver before the
/// search (cuts and duals keep their row alignment). Returns
/// `(bounds_tightened, proven_infeasible)`.
pub fn tighten_bounds(model: &mut Model) -> (usize, bool) {
    let mut total = 0usize;
    for _ in 0..4 {
        let mut m2 = model.clone();
        let report = presolve(&mut m2);
        if report.proven_infeasible {
            return (total, true);
        }
        // Copy only the bounds back.
        let mut changed = 0usize;
        for j in 0..model.num_vars() {
            let v = crate::model::VarId(j);
            let (ol, ou) = (model.var(v).lb, model.var(v).ub);
            let (nl, nu) = (m2.var(v).lb, m2.var(v).ub);
            if nl > ol + MIN_TIGHTEN || nu < ou - MIN_TIGHTEN {
                model.set_bounds(v, nl, nu);
                changed += 1;
            }
        }
        total += changed;
        if changed == 0 {
            break;
        }
    }
    (total, false)
}

/// Run presolve in place. Constraints may be removed and variable bounds
/// tightened; variable indices are preserved.
pub(crate) fn presolve(model: &mut Model) -> PresolveReport {
    let mut report = PresolveReport::default();
    for round in 0..8 {
        report.rounds = round + 1;
        let mut changed = false;

        // Row activity bounds: min/max of Σ a·x over the box.
        let activity = |model: &Model, row: usize| -> (f64, f64) {
            let mut lo = 0.0f64;
            let mut hi = 0.0f64;
            for &(v, a) in &model.constrs()[row].coeffs {
                let var = model.var(v);
                let (l, u) = (var.lb, var.ub);
                if a >= 0.0 {
                    lo += a * l;
                    hi += a * u;
                } else {
                    lo += a * u;
                    hi += a * l;
                }
            }
            (lo, hi)
        };

        // Pass 1: singleton rows → bounds; redundancy / infeasibility.
        let mut keep = vec![true; model.num_constrs()];
        // Indexed loop: `model` is mutated (`set_bounds`) mid-iteration,
        // which holding an iterator over `model.constrs()` would forbid.
        #[allow(clippy::needless_range_loop)]
        for row in 0..model.num_constrs() {
            let c = &model.constrs()[row];
            if c.coeffs.is_empty() {
                let violated = match c.sense {
                    Sense::Le => 0.0 > c.rhs + 1e-9,
                    Sense::Ge => 0.0 < c.rhs - 1e-9,
                    Sense::Eq => c.rhs.abs() > 1e-9,
                };
                if violated {
                    report.proven_infeasible = true;
                    return report;
                }
                keep[row] = false;
                report.redundant_rows += 1;
                changed = true;
                continue;
            }
            if c.coeffs.len() == 1 {
                let (v, a) = c.coeffs[0];
                let rhs = c.rhs / a;
                let var = model.var(v);
                let (mut lb, mut ub) = (var.lb, var.ub);
                match (c.sense, a > 0.0) {
                    (Sense::Le, true) | (Sense::Ge, false) => ub = ub.min(rhs),
                    (Sense::Ge, true) | (Sense::Le, false) => lb = lb.max(rhs),
                    (Sense::Eq, _) => {
                        lb = lb.max(rhs);
                        ub = ub.min(rhs);
                    }
                }
                if lb > ub + 1e-9 {
                    report.proven_infeasible = true;
                    return report;
                }
                let tightened = lb > var.lb + MIN_TIGHTEN || ub < var.ub - MIN_TIGHTEN;
                if tightened {
                    report.bounds_tightened += 1;
                    changed = true;
                }
                model.set_bounds(v, lb, ub.max(lb));
                keep[row] = false;
                report.singleton_rows += 1;
                continue;
            }
            let (lo, hi) = activity(model, row);
            let redundant = match c.sense {
                Sense::Le => hi <= c.rhs + 1e-9,
                Sense::Ge => lo >= c.rhs - 1e-9,
                Sense::Eq => false,
            };
            let impossible = match c.sense {
                Sense::Le => lo > c.rhs + 1e-9,
                Sense::Ge => hi < c.rhs - 1e-9,
                Sense::Eq => lo > c.rhs + 1e-9 || hi < c.rhs - 1e-9,
            };
            if impossible {
                report.proven_infeasible = true;
                return report;
            }
            if redundant {
                keep[row] = false;
                report.redundant_rows += 1;
                changed = true;
            }
        }
        if keep.iter().any(|&k| !k) {
            let mut it = keep.into_iter();
            model.purge_constrs(0, |_| it.next().unwrap_or(true));
        }

        // Pass 2: bound tightening from multi-variable rows.
        for row in 0..model.num_constrs() {
            let c = model.constrs()[row].clone();
            let (lo, hi) = activity(model, row);
            for &(v, a) in &c.coeffs {
                let var = model.var(v);
                let (l, u) = (var.lb, var.ub);
                // Residual activity without this variable's contribution.
                let (term_lo, term_hi) = if a >= 0.0 {
                    (a * l, a * u)
                } else {
                    (a * u, a * l)
                };
                let rest_lo = lo - term_lo;
                let rest_hi = hi - term_hi;
                let mut new_l = l;
                let mut new_u = u;
                match c.sense {
                    Sense::Le => {
                        // a·x ≤ rhs − rest_lo
                        if rest_lo.is_finite() {
                            let cap = (c.rhs - rest_lo) / a;
                            if a > 0.0 {
                                new_u = new_u.min(cap);
                            } else {
                                new_l = new_l.max(cap);
                            }
                        }
                    }
                    Sense::Ge => {
                        // a·x ≥ rhs − rest_hi
                        if rest_hi.is_finite() {
                            let need = (c.rhs - rest_hi) / a;
                            if a > 0.0 {
                                new_l = new_l.max(need);
                            } else {
                                new_u = new_u.min(need);
                            }
                        }
                    }
                    Sense::Eq => { /* both directions handled by Le+Ge logic elsewhere */ }
                }
                // Integer variables can round their bounds inward.
                if var.integer {
                    if new_l.is_finite() {
                        new_l = (new_l - 1e-9).ceil();
                    }
                    if new_u.is_finite() {
                        new_u = (new_u + 1e-9).floor();
                    }
                }
                if new_l > new_u + 1e-9 {
                    report.proven_infeasible = true;
                    return report;
                }
                if new_l > l + MIN_TIGHTEN || new_u < u - MIN_TIGHTEN {
                    model.set_bounds(v, new_l, new_u.max(new_l));
                    report.bounds_tightened += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve_lp, LpStatus, SimplexConfig};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new("s");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        m.add_constr("c1", vec![(x, 2.0)], Sense::Ge, 6.0);
        m.add_constr("c2", vec![(x, 1.0)], Sense::Le, 8.0);
        let r = presolve(&mut m);
        assert_eq!(r.singleton_rows, 2);
        assert_eq!(m.num_constrs(), 0);
        assert_eq!(m.var(x).lb, 3.0);
        assert_eq!(m.var(x).ub, 8.0);
        assert!(!r.proven_infeasible);
    }

    #[test]
    fn detects_infeasible_singletons() {
        let mut m = Model::new("inf");
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, 5.0);
        assert!(presolve(&mut m).proven_infeasible);
    }

    #[test]
    fn redundant_rows_are_dropped() {
        let mut m = Model::new("red");
        let x = m.add_var("x", 0.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 2.0, 1.0, false);
        // Always true within bounds: x + y ≤ 100.
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Le, 100.0);
        let r = presolve(&mut m);
        assert_eq!(r.redundant_rows, 1);
        assert_eq!(m.num_constrs(), 0);
    }

    #[test]
    fn impossible_rows_prove_infeasibility() {
        let mut m = Model::new("imp");
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        let y = m.add_var("y", 0.0, 1.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 5.0);
        assert!(presolve(&mut m).proven_infeasible);
    }

    #[test]
    fn ge_rows_tighten_lower_bounds() {
        // x + y ≥ 9 with y ≤ 4 forces x ≥ 5.
        let mut m = Model::new("tight");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        let y = m.add_var("y", 0.0, 4.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 9.0);
        let r = presolve(&mut m);
        assert!(r.bounds_tightened >= 1);
        assert!((m.var(x).lb - 5.0).abs() < 1e-9);
        assert_eq!(m.var(y).lb, 0.0, "y's bound cannot tighten (x can cover)");
    }

    #[test]
    fn integer_bounds_round_inward() {
        // 2x ≥ 5 with x integer: presolve should land x ≥ 3 directly.
        let mut m = Model::new("int");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c1", vec![(x, 2.0)], Sense::Ge, 5.0);
        // Keep a second row so the bound-tightening pass sees the var.
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_constr("c2", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        presolve(&mut m);
        assert!(m.var(x).lb >= 2.5 - 1e-9);
        // The singleton pass applies the raw bound; the integer rounding
        // applies in the multi-row pass. Either way the LP below agrees
        // with the MILP optimum.
        let s = solve_lp(&m, &SimplexConfig::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.x[0] >= 2.5 - 1e-9);
    }

    #[test]
    fn tighten_bounds_keeps_rows_stable() {
        let mut m = Model::new("tb");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        let y = m.add_var("y", 0.0, 4.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 9.0);
        let rows = m.num_constrs();
        let (tightened, infeasible) = tighten_bounds(&mut m);
        assert!(!infeasible);
        assert!(tightened >= 1);
        assert_eq!(m.num_constrs(), rows, "rows must not move");
        assert!(m.var(x).lb >= 5.0 - 1e-9);
    }

    #[test]
    fn presolve_preserves_the_optimum() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..10 {
            let mut m = Model::new(format!("t{trial}"));
            let vars: Vec<_> = (0..6)
                .map(|j| {
                    let ub = rng.gen_range(2.0..8.0);
                    let obj = rng.gen_range(0.5..3.0);
                    m.add_var(format!("x{j}"), 0.0, ub, obj, false)
                })
                .collect();
            for k in 0..5 {
                let mut coeffs = Vec::new();
                for &v in &vars {
                    if rng.gen_bool(0.5) {
                        coeffs.push((v, rng.gen_range(0.3..2.0)));
                    }
                }
                if coeffs.is_empty() {
                    continue;
                }
                let worth: f64 = coeffs.iter().map(|&(v, a)| a * m.var(v).ub).sum();
                m.add_constr(format!("r{k}"), coeffs, Sense::Ge, worth * 0.4);
            }
            let before = solve_lp(&m, &SimplexConfig::default());
            let mut reduced = m.clone();
            let report = presolve(&mut reduced);
            assert!(!report.proven_infeasible);
            let after = solve_lp(&reduced, &SimplexConfig::default());
            assert_eq!(before.status, after.status);
            if before.status == LpStatus::Optimal {
                assert!(
                    (before.objective - after.objective).abs() <= 1e-6,
                    "trial {trial}: presolve changed the optimum {} -> {}",
                    before.objective,
                    after.objective
                );
            }
        }
    }
}
