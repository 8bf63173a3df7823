//! Gomory mixed-integer (GMI) cut generation from an optimal tableau.
//!
//! Given an optimal basis where some integer variable is basic at a
//! fractional value, the corresponding tableau row
//!
//! ```text
//!   x_B + Σ_j ā_j t_j = x̄        (t_j = nonbasic j's shift off its bound)
//! ```
//!
//! yields the GMI inequality `Σ_j π_j t_j ≥ f₀` with `f₀ = frac(x̄)` and
//!
//! * integer `t_j`:  `π_j = f_j` if `f_j ≤ f₀` else `f₀(1−f_j)/(1−f₀)`
//!   where `f_j = frac(ā_j)`,
//! * continuous `t_j`: `π_j = ā_j` if `ā_j ≥ 0` else `f₀·(−ā_j)/(1−f₀)`.
//!
//! Substituting the shifts (`t_j = x_j − l_j` at lower bound,
//! `t_j = u_j − x_j` at upper) and the slack definitions turns the cut
//! into a plain `≥` row over structural variables, valid for every
//! mixed-integer point of the *original* bounds — so cuts generated at
//! the root of a branch-and-bound tree are globally valid.

use crate::model::{Model, Sense, VarId};
use crate::simplex::{Loc, TableauView};

/// A generated cut `Σ coeffs·x ≥ rhs` over structural variables.
#[derive(Clone, Debug)]
pub struct GmiCut {
    /// Sparse structural coefficients.
    pub coeffs: Vec<(VarId, f64)>,
    /// Right-hand side.
    pub rhs: f64,
}

impl GmiCut {
    /// Violation of the cut at a point (positive = violated).
    pub fn violation(&self, x: &[f64]) -> f64 {
        self.rhs - self.coeffs.iter().map(|&(v, w)| w * x[v.0]).sum::<f64>()
    }
}

/// Fractionality thresholds: rows with `f₀` outside this band produce
/// numerically dubious cuts and are skipped.
const MIN_FRAC: f64 = 0.02;
/// Largest acceptable dynamic range of a cut's coefficients.
const MAX_DYNAMIC: f64 = 1e7;

/// Generate up to `max_cuts` GMI cuts from an optimal tableau.
///
/// `is_int[j]` flags the integer structural variables. Cuts are returned
/// most-fractional-source first, each guaranteed violated by the current
/// LP point by at least `min_violation`.
pub fn generate(
    model: &Model,
    view: &TableauView,
    is_int: &[bool],
    max_cuts: usize,
    min_violation: f64,
) -> Vec<GmiCut> {
    let n = view.n_struct;
    // Candidate rows: basic integer structural variable, fractional value.
    let mut rows: Vec<(usize, f64)> = view
        .basis
        .iter()
        .enumerate()
        .filter_map(|(r, &bj)| {
            if bj >= n || !is_int[bj] {
                return None;
            }
            let f0 = frac(view.x[bj]);
            (f0 > MIN_FRAC && f0 < 1.0 - MIN_FRAC).then_some((r, f0))
        })
        .collect();
    rows.sort_by(|a, b| {
        let da = (a.1 - 0.5).abs();
        let db = (b.1 - 0.5).abs();
        da.partial_cmp(&db).expect("fractions are finite")
    });

    let mut cuts = Vec::new();
    let lp_x: Vec<f64> = view.x[..n].to_vec();
    for (r, f0) in rows.into_iter().take(max_cuts * 3) {
        if let Some(cut) = cut_from_row(model, view, is_int, r, f0) {
            if cut.violation(&lp_x) >= min_violation {
                cuts.push(cut);
                if cuts.len() >= max_cuts {
                    break;
                }
            }
        }
    }
    cuts
}

fn frac(v: f64) -> f64 {
    v - v.floor()
}

/// The tableau-row coefficient of column `j` in basis row `r`:
/// `(B⁻¹ A_j)_r`.
fn row_coeff(model: &Model, view: &TableauView, r: usize, j: usize) -> f64 {
    let m = view.m;
    let n = view.n_struct;
    let binv_row = &view.binv[r * m..(r + 1) * m];
    if j < n {
        // Structural column from the model.
        let mut v = 0.0;
        for (i, c) in model.constrs().iter().enumerate() {
            for &(var, a) in &c.coeffs {
                if var.0 == j {
                    v += binv_row[i] * a;
                }
            }
        }
        v
    } else {
        // Slack column: ±e_row.
        let row = j - n;
        let sign = match model.constrs()[row].sense {
            Sense::Ge => -1.0,
            _ => 1.0,
        };
        binv_row[row] * sign
    }
}

fn cut_from_row(
    model: &Model,
    view: &TableauView,
    is_int: &[bool],
    r: usize,
    f0: f64,
) -> Option<GmiCut> {
    let n = view.n_struct;
    let m = view.m;
    // Accumulate the structural-space cut: coeffs·x ≥ rhs.
    let mut coeffs = vec![0.0f64; n];
    let mut rhs = f0;
    for j in 0..n + m {
        if view.loc[j] == Loc::Basic {
            continue;
        }
        // Fixed columns (e.g. Eq-row slacks) have t ≡ 0.
        if view.ub[j] - view.lb[j] <= 1e-12 {
            continue;
        }
        let a = row_coeff(model, view, r, j);
        if a.abs() < 1e-12 {
            continue;
        }
        // Shift direction off the active bound.
        let (at_upper, free) = match view.loc[j] {
            Loc::AtUb => (true, false),
            Loc::FreeZero => (false, true),
            _ => (false, false),
        };
        if free {
            // A free nonbasic variable cannot be complemented to a
            // nonnegative shift; GMI is invalid for this row.
            return None;
        }
        // In t-space the row reads x_B + Σ ā t = x̄ with ā = a for
        // lower-bound columns and ā = −a for upper-bound columns.
        let abar = if at_upper { -a } else { a };
        let integral_shift = j < n && is_int[j] && is_integer_bound(view, j);
        let pi = if integral_shift {
            let fj = frac(abar);
            if fj <= f0 {
                fj
            } else {
                f0 * (1.0 - fj) / (1.0 - f0)
            }
        } else if abar >= 0.0 {
            abar
        } else {
            f0 * (-abar) / (1.0 - f0)
        };
        if pi == 0.0 {
            continue;
        }
        // Substitute t back to structural space: t = c0 + Σ c_k x_k.
        if j < n {
            if at_upper {
                // t = u_j − x_j
                coeffs[j] -= pi;
                rhs -= pi * view.ub[j];
            } else {
                // t = x_j − l_j
                coeffs[j] += pi;
                rhs += pi * view.lb[j];
            }
        } else {
            // Slack of row `j − n` (always nonbasic at lower bound 0):
            // Le/Eq: s = b − A·x ; Ge: s = A·x − b.
            let row = j - n;
            let c = &model.constrs()[row];
            match c.sense {
                Sense::Ge => {
                    for &(v, w) in &c.coeffs {
                        coeffs[v.0] += pi * w;
                    }
                    rhs += pi * c.rhs;
                }
                _ => {
                    for &(v, w) in &c.coeffs {
                        coeffs[v.0] -= pi * w;
                    }
                    rhs -= pi * c.rhs;
                }
            }
        }
    }
    // Numerical guardrails.
    let max = coeffs.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if max <= 1e-12 || !rhs.is_finite() {
        return None;
    }
    let min_nonzero = coeffs
        .iter()
        .filter(|v| v.abs() > 1e-12)
        .fold(f64::INFINITY, |acc, &v| acc.min(v.abs()));
    if max / min_nonzero > MAX_DYNAMIC {
        return None;
    }
    let sparse: Vec<(VarId, f64)> = coeffs
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v.abs() > 1e-12)
        .map(|(k, &v)| (VarId(k), v))
        .collect();
    Some(GmiCut {
        coeffs: sparse,
        rhs,
    })
}

fn is_integer_bound(view: &TableauView, j: usize) -> bool {
    let near_int = |v: f64| v.is_infinite() || (v - v.round()).abs() < 1e-9;
    near_int(view.lb[j]) && near_int(view.ub[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::simplex::{solve_lp_warm_chaos, LpOutcome, LpStatus, SimplexConfig};

    fn lp_and_view(model: &Model) -> (Vec<f64>, TableauView) {
        let LpOutcome { solution, view, .. } = tableau_solve(model);
        assert_eq!(solution.status, LpStatus::Optimal);
        (solution.x, view.expect("optimal gives a view"))
    }

    fn tableau_solve(model: &Model) -> LpOutcome {
        let cfg = SimplexConfig::default();
        solve_lp_warm_chaos(model, &cfg, None, true, np_chaos::global())
    }

    /// min x, 2x ≥ 3, x integer: LP gives 1.5; a GMI cut must enforce
    /// x ≥ 2.
    #[test]
    fn gmi_closes_the_classic_rounding_gap() {
        let mut m = Model::new("round");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 2.0)], Sense::Ge, 3.0);
        let (lp_x, view) = lp_and_view(&m);
        assert!((lp_x[0] - 1.5).abs() < 1e-6);
        let cuts = generate(&m, &view, &[true], 4, 1e-6);
        assert!(
            !cuts.is_empty(),
            "a fractional basic integer must yield a cut"
        );
        // Each cut: violated at 1.5 but satisfied at the integer optimum 2.
        for cut in &cuts {
            assert!(cut.violation(&[1.5]) > 1e-9);
            assert!(
                cut.violation(&[2.0]) <= 1e-9,
                "cut must admit x = 2: {cut:?}"
            );
            assert!(cut.violation(&[3.0]) <= 1e-9);
        }
    }

    /// A 2-variable knapsack-ish LP with fractional optimum; all integer
    /// feasible points must survive every generated cut.
    #[test]
    fn gmi_cuts_are_valid_for_all_integer_points() {
        let mut m = Model::new("knap");
        let a = m.add_var("a", 0.0, 5.0, -3.0, true);
        let b = m.add_var("b", 0.0, 5.0, -4.0, true);
        m.add_constr("w1", vec![(a, 2.0), (b, 3.0)], Sense::Le, 7.0);
        m.add_constr("w2", vec![(a, 3.0), (b, 1.0)], Sense::Le, 8.0);
        let (lp_x, view) = lp_and_view(&m);
        let cuts = generate(&m, &view, &[true, true], 8, 1e-7);
        // Enumerate every integer point of the box and check validity.
        for cut in &cuts {
            assert!(
                cut.violation(&lp_x) > 0.0,
                "returned cuts are violated at the LP point"
            );
            for ai in 0..=5 {
                for bi in 0..=5 {
                    let p = [f64::from(ai), f64::from(bi)];
                    if m.is_feasible(&p, 1e-9) {
                        assert!(
                            cut.violation(&p) <= 1e-7,
                            "cut {cut:?} wrongly excludes integer point {p:?}"
                        );
                    }
                }
            }
        }
    }

    /// Mixed problem: continuous variable participates via the continuous
    /// GMI coefficients; integer-feasible mixed points must survive.
    #[test]
    fn gmi_handles_mixed_integer_rows() {
        let mut m = Model::new("mix");
        let x = m.add_var("x", 0.0, 10.0, 2.0, true);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_constr("c1", vec![(x, 2.0), (y, 1.0)], Sense::Ge, 5.0);
        m.add_constr("c2", vec![(x, 1.0), (y, 3.0)], Sense::Ge, 4.5);
        let (lp_x, view) = lp_and_view(&m);
        let cuts = generate(&m, &view, &[true, false], 8, 1e-9);
        for cut in &cuts {
            assert!(cut.violation(&lp_x) > 0.0);
            // Sample mixed feasible points with integer x.
            for xi in 0..=10 {
                for yk in 0..=40 {
                    let p = [f64::from(xi), f64::from(yk) * 0.25];
                    if m.is_feasible(&p, 1e-9) {
                        assert!(
                            cut.violation(&p) <= 1e-6,
                            "cut {cut:?} wrongly excludes {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integral_optimum_yields_no_cuts() {
        let mut m = Model::new("intopt");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, 4.0);
        let (_, view) = lp_and_view(&m);
        assert!(generate(&m, &view, &[true], 4, 1e-9).is_empty());
    }

    /// Larger randomized validation: every generated cut must keep every
    /// integer-feasible corner we can enumerate.
    #[test]
    fn randomized_small_mips_never_lose_integer_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let mut m = Model::new(format!("t{trial}"));
            let a = m.add_var("a", 0.0, 4.0, rng.gen_range(-3.0..3.0), true);
            let b = m.add_var("b", 0.0, 4.0, rng.gen_range(-3.0..3.0), true);
            let c = m.add_var("c", 0.0, 4.0, rng.gen_range(-3.0..3.0), true);
            for k in 0..3 {
                let coeffs = vec![
                    (a, rng.gen_range(0.2..2.0)),
                    (b, rng.gen_range(0.2..2.0)),
                    (c, rng.gen_range(0.2..2.0)),
                ];
                let worth: f64 = coeffs.iter().map(|&(_, w)| w).sum();
                let sense = if rng.gen_bool(0.5) {
                    Sense::Le
                } else {
                    Sense::Ge
                };
                let rhs = worth * rng.gen_range(0.8..2.4);
                m.add_constr(format!("r{k}"), coeffs, sense, rhs);
            }
            let LpOutcome {
                solution: sol,
                view,
                ..
            } = tableau_solve(&m);
            if sol.status != LpStatus::Optimal {
                continue;
            }
            let cuts = generate(&m, &view.unwrap(), &[true, true, true], 8, 1e-9);
            for cut in &cuts {
                for ai in 0..=4 {
                    for bi in 0..=4 {
                        for ci in 0..=4 {
                            let p = [f64::from(ai), f64::from(bi), f64::from(ci)];
                            if m.is_feasible(&p, 1e-9) {
                                assert!(
                                    cut.violation(&p) <= 1e-6,
                                    "trial {trial}: cut {cut:?} excludes {p:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
