//! The simplex against oracles that share no code with it: on randomly
//! generated bounded LPs, status and objective must match an
//! n-dimensional vertex enumeration, and every `Optimal` answer must
//! carry a KKT certificate checked from first principles — including
//! degenerate and infeasible instances (DESIGN.md §12).
//!
//! Every variable of these models is boxed, so a nonempty feasible set is
//! a bounded polytope and has a vertex optimum: brute force over the
//! vertices is a complete answer, not a spot check.

use np_lp::{solve_lp, solve_lp_warm_chaos, LpSolution, LpStatus, Model, Sense, SimplexConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random bounded LP with small integer data, which makes ties (and
/// therefore degeneracy) common rather than rare.
fn random_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=5usize);
    let m = rng.gen_range(0..=7usize);
    let mut model = Model::new(format!("rand_{seed}"));
    let vars: Vec<_> = (0..n)
        .map(|j| {
            let lb = f64::from(rng.gen_range(-3..=1i32));
            let width = f64::from(rng.gen_range(0..=6i32));
            let obj = f64::from(rng.gen_range(-4..=4i32));
            model.add_var(format!("x{j}"), lb, lb + width, obj, false)
        })
        .collect();
    for i in 0..m {
        let coeffs: Vec<_> = vars
            .iter()
            .filter_map(|&v| {
                let a = rng.gen_range(-3..=3i32);
                (a != 0).then(|| (v, f64::from(a)))
            })
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        let sense = match rng.gen_range(0..6u32) {
            0 => Sense::Eq, // rarer: equalities make infeasibility likely
            1 | 2 => Sense::Ge,
            _ => Sense::Le,
        };
        let rhs = f64::from(rng.gen_range(-6..=6i32));
        model.add_constr(format!("c{i}"), coeffs, sense, rhs);
    }
    model
}

/// Solve the square system `A x = b` (rows `(a, b)`) by Gaussian
/// elimination with partial pivoting; `None` when it is singular.
fn solve_square(mut rows: Vec<(Vec<f64>, f64)>) -> Option<Vec<f64>> {
    let n = rows.len();
    for col in 0..n {
        let piv =
            (col..n).max_by(|&a, &b| rows[a].0[col].abs().total_cmp(&rows[b].0[col].abs()))?;
        if rows[piv].0[col].abs() < 1e-9 {
            return None;
        }
        rows.swap(col, piv);
        for r in col + 1..n {
            let f = rows[r].0[col] / rows[col].0[col];
            if f != 0.0 {
                for k in col..n {
                    rows[r].0[k] -= f * rows[col].0[k];
                }
                rows[r].1 -= f * rows[col].1;
            }
        }
    }
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let tail: f64 = (r + 1..n).map(|k| rows[r].0[k] * x[k]).sum();
        x[r] = (rows[r].1 - tail) / rows[r].0[r];
    }
    Some(x)
}

/// Is `x` inside every bound and row of `model`, to `tol`?
fn inside(model: &Model, x: &[f64], tol: f64) -> bool {
    let boxed = model
        .vars()
        .iter()
        .zip(x)
        .all(|(v, &xj)| xj >= v.lb - tol && xj <= v.ub + tol);
    boxed
        && model.constrs().iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v.0]).sum();
            match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
}

/// The LP optimum by brute force. A vertex of the feasible set is where
/// `n` linearly independent boundary planes meet — rows held at equality
/// and variables at one of their bounds — so solve every `n`-subset of
/// them, keep the feasible points and take the cheapest. `None` means no
/// feasible vertex, which on a boxed model means infeasible.
fn vertex_enumeration(model: &Model) -> Option<f64> {
    let n = model.num_vars();
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for (j, v) in model.vars().iter().enumerate() {
        for bound in [v.lb, v.ub] {
            let mut a = vec![0.0; n];
            a[j] = 1.0;
            planes.push((a, bound));
        }
    }
    for c in model.constrs() {
        let mut a = vec![0.0; n];
        for &(v, coef) in &c.coeffs {
            a[v.0] += coef;
        }
        planes.push((a, c.rhs));
    }
    let mut best: Option<f64> = None;
    // Walk the n-subsets in lexicographic order.
    let mut pick: Vec<usize> = (0..n).collect();
    loop {
        let rows = pick.iter().map(|&i| planes[i].clone()).collect();
        if let Some(x) = solve_square(rows) {
            if inside(model, &x, 1e-7) {
                let obj: f64 = model.vars().iter().zip(&x).map(|(v, xj)| v.obj * xj).sum();
                best = Some(best.map_or(obj, |b| b.min(obj)));
            }
        }
        let Some(i) = (0..n).rev().find(|&i| pick[i] < planes.len() - n + i) else {
            return best;
        };
        pick[i] += 1;
        for k in i + 1..n {
            pick[k] = pick[k - 1] + 1;
        }
    }
}

/// KKT certificate for `(lp.x, lp.duals)` checked from first principles:
/// primal feasibility, dual feasibility (reduced costs respect each
/// variable's rest position), and complementary slackness on the rows.
fn kkt_certified(model: &Model, lp: &LpSolution, tol: f64) -> bool {
    if model.max_violation(&lp.x) > tol {
        return false;
    }
    // Reduced costs d_j = c_j − yᵀA_j, accumulated column-wise.
    let mut d: Vec<f64> = model.vars().iter().map(|v| v.obj).collect();
    for (c, &yi) in model.constrs().iter().zip(&lp.duals) {
        for &(v, a) in &c.coeffs {
            d[v.0] -= yi * a;
        }
    }
    for (j, v) in model.vars().iter().enumerate() {
        let at_lb = lp.x[j] <= v.lb + tol;
        let at_ub = lp.x[j] >= v.ub - tol;
        let ok = match (at_lb, at_ub) {
            (true, true) => true, // fixed: any reduced cost
            (true, false) => d[j] >= -tol,
            (false, true) => d[j] <= tol,
            (false, false) => d[j].abs() <= tol,
        };
        if !ok {
            return false;
        }
    }
    for (c, &yi) in model.constrs().iter().zip(&lp.duals) {
        let slack = model.row_slack(c, &lp.x);
        // A slack row must carry a zero dual; a tight inequality's dual
        // sign follows from its slack column's reduced cost (∓y_i ≥ 0).
        let ok = match c.sense {
            Sense::Eq => true,
            _ if slack > tol => yi.abs() <= tol,
            Sense::Le => yi <= tol,
            Sense::Ge => yi >= -tol,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// The simplex's answer on `model` equals the vertex enumeration's, and
/// an optimal one is KKT-certified.
fn assert_matches_oracle(model: &Model, seed: u64) -> LpSolution {
    let lp = solve_lp(model, &SimplexConfig::default());
    match vertex_enumeration(model) {
        None => assert_eq!(
            lp.status,
            LpStatus::Infeasible,
            "seed {seed}: no feasible vertex, simplex says {:?}",
            lp.status
        ),
        Some(best) => {
            assert_eq!(
                lp.status,
                LpStatus::Optimal,
                "seed {seed}: vertex optimum {best}, simplex says {:?}",
                lp.status
            );
            assert!(
                (lp.objective - best).abs() <= 1e-6 * best.abs().max(1.0),
                "seed {seed}: simplex {} vs vertex enumeration {best}",
                lp.objective
            );
            assert!(
                kkt_certified(model, &lp, 1e-6),
                "seed {seed}: no KKT certificate for x {:?}, duals {:?}",
                lp.x,
                lp.duals
            );
        }
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    #[test]
    fn random_bounded_lps_match_vertex_enumeration(seed in 0u64..1_000_000) {
        assert_matches_oracle(&random_model(seed), seed);
    }
}

#[test]
fn a_degenerate_vertex_matches_vertex_enumeration() {
    // Many redundant rows meet at the same optimal vertex, so the basis
    // there is massively degenerate and the dual vector is not unique.
    let mut m = Model::new("degenerate");
    let x = m.add_var("x", 0.0, 10.0, -1.0, false);
    let y = m.add_var("y", 0.0, 10.0, -1.0, false);
    for k in 1..=5 {
        m.add_constr(format!("tie{k}"), vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
    }
    m.add_constr("cap_x", vec![(x, 1.0)], Sense::Le, 2.0);
    m.add_constr("cap_y", vec![(y, 1.0)], Sense::Le, 2.0);
    let lp = assert_matches_oracle(&m, u64::MAX);
    assert!((lp.objective - -4.0).abs() < 1e-9);
}

#[test]
fn contradictory_rows_match_vertex_enumeration() {
    let mut m = Model::new("contradiction");
    let x = m.add_var("x", 0.0, 5.0, 1.0, false);
    let y = m.add_var("y", 0.0, 5.0, 1.0, false);
    m.add_constr("lo", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 8.0);
    m.add_constr("hi", vec![(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
    assert_eq!(vertex_enumeration(&m), None);
    assert_eq!(assert_matches_oracle(&m, 0).status, LpStatus::Infeasible);
}

#[test]
fn warm_started_solve_recovers_from_injected_singularity() {
    use np_chaos::{Chaos, FaultClass, FaultPlan};
    // A warm-started re-optimization that chaos declares singular must
    // fall back to the cold ladder and still land on the cold optimum —
    // the `lp-singular` fault exercises the factorized path too.
    let mut m = Model::new("warm_chaos");
    let x = m.add_var("x", 0.0, 10.0, 1.0, false);
    let y = m.add_var("y", 0.0, 10.0, 2.0, false);
    m.add_constr("need", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
    let cfg = SimplexConfig::default();

    let clean = solve_lp_warm_chaos(&m, &cfg, None, false, &Chaos::disabled());
    assert_eq!(clean.solution.status, LpStatus::Optimal);
    let basis = clean.basis.expect("optimal solves capture a basis");

    m.add_constr("cut", vec![(x, 1.0)], Sense::Ge, 4.0);
    let chaos = Chaos::new(FaultPlan::parse("lp-singular@0").unwrap());
    let out = solve_lp_warm_chaos(&m, &cfg, Some(&basis), false, &chaos);
    assert_eq!(chaos.fired(FaultClass::LpSingular), 1);
    assert_eq!(out.solution.status, LpStatus::Optimal);
    let cold = solve_lp(&m, &cfg);
    assert!(
        (out.solution.objective - cold.objective).abs() < 1e-9,
        "recovery drifted: {} vs {}",
        out.solution.objective,
        cold.objective
    );
    assert_eq!(vertex_enumeration(&m), Some(cold.objective));
}
