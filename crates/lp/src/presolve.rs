//! Root bound tightening for the MILP solver: each row's activity range
//! over the variable box bounds the variables it holds. Only variable
//! bounds change; no row is added, removed or reordered, so cut and dual
//! indexing stay stable, and the feasible set never changes. Per sweep:
//!
//! 1. a singleton row is a bound on its variable, applied unrounded;
//! 2. any other row no point of the box violates is redundant, and one no
//!    point satisfies proves infeasibility;
//! 3. every other row bounds each of its variables by the activity range
//!    of the rest, integer bounds rounded inward.
//!
//! Rows settled by steps 1–2 sit out the round's later sweeps. A round
//! sweeps until nothing changes (at most 8) and keeps only the bounds it
//! moved by more than [`MIN_TIGHTEN`]; rounds repeat while they keep any
//! (at most 4).

use crate::model::{Model, Sense, VarId};

/// Smallest bound improvement worth recording (guards float churn).
const MIN_TIGHTEN: f64 = 1e-9;

/// Tighten `model`'s variable bounds in place. Returns
/// `(bounds_tightened, proven_infeasible)`; the bounds of a model proven
/// infeasible are those of the last completed round.
pub fn tighten_bounds(model: &mut Model) -> (usize, bool) {
    let mut total = 0usize;
    for _ in 0..4 {
        let mut lb: Vec<f64> = model.vars().iter().map(|v| v.lb).collect();
        let mut ub: Vec<f64> = model.vars().iter().map(|v| v.ub).collect();
        if !sweep(model, &mut lb, &mut ub) {
            return (total, true);
        }
        let mut changed = 0usize;
        for (j, (&nl, &nu)) in lb.iter().zip(&ub).enumerate() {
            let var = model.var(VarId(j));
            if nl > var.lb + MIN_TIGHTEN || nu < var.ub - MIN_TIGHTEN {
                model.set_bounds(VarId(j), nl, nu);
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

/// Row activity range: min and max of `Σ a·x` over the box `lb`/`ub`.
fn activity(coeffs: &[(VarId, f64)], lb: &[f64], ub: &[f64]) -> (f64, f64) {
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for &(v, a) in coeffs {
        let (l, u) = (lb[v.0], ub[v.0]);
        if a >= 0.0 {
            lo += a * l;
            hi += a * u;
        } else {
            lo += a * u;
            hi += a * l;
        }
    }
    (lo, hi)
}

/// One round: sweep `model`'s rows over the box `lb`/`ub` until nothing
/// changes. Returns `false` when a row proves the model infeasible.
fn sweep(model: &Model, lb: &mut [f64], ub: &mut [f64]) -> bool {
    let rows = model.constrs();
    // Rows still in play this round (steps 1–2 settle the rest).
    let mut live = vec![true; rows.len()];
    for _ in 0..8 {
        let mut changed = false;
        // Steps 1–2.
        for (c, live) in rows.iter().zip(&mut live) {
            if !*live {
                continue;
            }
            match c.coeffs[..] {
                [(v, a)] => {
                    let rhs = c.rhs / a;
                    let (mut l, mut u) = (lb[v.0], ub[v.0]);
                    match (c.sense, a > 0.0) {
                        (Sense::Le, true) | (Sense::Ge, false) => u = u.min(rhs),
                        (Sense::Ge, true) | (Sense::Le, false) => l = l.max(rhs),
                        (Sense::Eq, _) => {
                            l = l.max(rhs);
                            u = u.min(rhs);
                        }
                    }
                    if l > u + 1e-9 {
                        return false;
                    }
                    if l > lb[v.0] + MIN_TIGHTEN || u < ub[v.0] - MIN_TIGHTEN {
                        changed = true;
                    }
                    lb[v.0] = l;
                    ub[v.0] = u.max(l);
                    *live = false;
                }
                _ => {
                    // An empty row has activity [0, 0]; an equality row is
                    // redundant only when it is empty.
                    let (lo, hi) = activity(&c.coeffs, lb, ub);
                    let (redundant, impossible) = match c.sense {
                        Sense::Le => (hi <= c.rhs + 1e-9, lo > c.rhs + 1e-9),
                        Sense::Ge => (lo >= c.rhs - 1e-9, hi < c.rhs - 1e-9),
                        Sense::Eq => (c.coeffs.is_empty(), lo > c.rhs + 1e-9 || hi < c.rhs - 1e-9),
                    };
                    if impossible {
                        return false;
                    }
                    if redundant {
                        *live = false;
                        changed = true;
                    }
                }
            }
        }

        // Step 3, on the rows still live.
        for (c, _) in rows.iter().zip(&live).filter(|(_, live)| **live) {
            let (lo, hi) = activity(&c.coeffs, lb, ub);
            for &(v, a) in &c.coeffs {
                let (l, u) = (lb[v.0], ub[v.0]);
                // Activity range of the rest of the row.
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
                    // a·x ≤ rhs − rest_lo
                    Sense::Le if rest_lo.is_finite() => {
                        let cap = (c.rhs - rest_lo) / a;
                        if a > 0.0 {
                            new_u = new_u.min(cap);
                        } else {
                            new_l = new_l.max(cap);
                        }
                    }
                    // a·x ≥ rhs − rest_hi
                    Sense::Ge if rest_hi.is_finite() => {
                        let need = (c.rhs - rest_hi) / a;
                        if a > 0.0 {
                            new_l = new_l.max(need);
                        } else {
                            new_u = new_u.min(need);
                        }
                    }
                    _ => {}
                }
                if model.var(v).integer {
                    if new_l.is_finite() {
                        new_l = (new_l - 1e-9).ceil();
                    }
                    if new_u.is_finite() {
                        new_u = (new_u + 1e-9).floor();
                    }
                }
                if new_l > new_u + 1e-9 {
                    return false;
                }
                if new_l > l + MIN_TIGHTEN || new_u < u - MIN_TIGHTEN {
                    lb[v.0] = new_l;
                    ub[v.0] = new_u.max(new_l);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new("s");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        m.add_constr("c1", vec![(x, 2.0)], Sense::Ge, 6.0);
        m.add_constr("c2", vec![(x, 1.0)], Sense::Le, 8.0);
        assert_eq!(tighten_bounds(&mut m), (1, false));
        assert_eq!(m.var(x).lb, 3.0);
        assert_eq!(m.var(x).ub, 8.0);
    }

    #[test]
    fn detects_infeasible_singletons() {
        let mut m = Model::new("inf");
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, 5.0);
        assert!(tighten_bounds(&mut m).1);
    }

    #[test]
    fn impossible_rows_prove_infeasibility() {
        let mut m = Model::new("imp");
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        let y = m.add_var("y", 0.0, 1.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 5.0);
        assert!(tighten_bounds(&mut m).1);
    }

    #[test]
    fn ge_rows_tighten_lower_bounds() {
        // x + y ≥ 9 with y ≤ 4 forces x ≥ 5.
        let mut m = Model::new("tight");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        let y = m.add_var("y", 0.0, 4.0, 1.0, false);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 9.0);
        let (tightened, infeasible) = tighten_bounds(&mut m);
        assert!(tightened >= 1 && !infeasible);
        assert!((m.var(x).lb - 5.0).abs() < 1e-9);
        assert_eq!(m.var(y).lb, 0.0, "y's bound cannot tighten (x can cover)");
    }

    #[test]
    fn integer_bounds_round_inward() {
        // 2x ≥ 5 with x integer: the singleton row alone gives the bound
        // unrounded; a multi-variable row holding x rounds it to 3.
        let mut m = Model::new("int");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c1", vec![(x, 2.0)], Sense::Ge, 5.0);
        let mut alone = m.clone();
        tighten_bounds(&mut alone);
        assert_eq!(alone.var(x).lb, 2.5);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_constr("c2", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        tighten_bounds(&mut m);
        assert_eq!(m.var(x).lb, 3.0);
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
}
