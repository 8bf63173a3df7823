//! Branch and bound against an oracle that shares no code with np-lp: on
//! random pure-integer models the optimum (or infeasibility) reported by
//! `solve_mip` at zero gap must equal the one found by enumerating every
//! integer point of the variable box.
//!
//! In half the cases some rows are held back from the model and reach the
//! solver only through a separator callback, which returns the held-back
//! rows the offered point violates — the lazy-row path the Benders master
//! runs on. The oracle checks every point against its own copy of all the
//! rows, held back or not.

use np_lp::{solve_mip, Cut, MipConfig, MipSolution, MipStatus, Model, Sense, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The oracle's own row type: `Σ coeffs·x (sense) rhs`.
#[derive(Clone, Debug)]
struct Row {
    coeffs: Vec<(usize, f64)>,
    /// `-1` for `≤`, `0` for `=`, `1` for `≥`.
    sense: i8,
    rhs: f64,
}

impl Row {
    fn violation(&self, x: &[f64]) -> f64 {
        let lhs: f64 = self.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
        match self.sense {
            -1 => lhs - self.rhs,
            1 => self.rhs - lhs,
            _ => (lhs - self.rhs).abs(),
        }
    }

    fn sense(&self) -> Sense {
        match self.sense {
            -1 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        }
    }
}

/// A random pure-integer problem: a box inside `0..=5`, integer
/// objective, and rows split into those in the model and those held back.
#[derive(Debug)]
struct Case {
    lb: Vec<i32>,
    ub: Vec<i32>,
    obj: Vec<f64>,
    rows: Vec<Row>,
    held: Vec<Row>,
}

fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=3usize);
    let lb: Vec<i32> = (0..n).map(|_| rng.gen_range(0..=3i32)).collect();
    let ub: Vec<i32> = lb.iter().map(|&l| rng.gen_range(l..=5i32)).collect();
    let obj: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.gen_range(-4..=4i32)))
        .collect();
    let anchor: Vec<i32> = (0..n).map(|j| rng.gen_range(lb[j]..=ub[j])).collect();
    let lazy = rng.gen_bool(0.5);
    let (mut rows, mut held) = (Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(1..=4usize) {
        let coeffs: Vec<(usize, f64)> = if rng.gen_range(0..4u32) == 0 {
            // A singleton row: a bound in disguise.
            let j = rng.gen_range(0..n);
            vec![(j, f64::from(rng.gen_range(1..=3i32)) * pick_sign(&mut rng))]
        } else {
            (0..n)
                .filter_map(|j| {
                    let a = rng.gen_range(-3..=3i32);
                    (a != 0).then(|| (j, f64::from(a)))
                })
                .collect()
        };
        if coeffs.is_empty() {
            continue;
        }
        // Most rows keep a random integer point of the box feasible (by a
        // quarter-step slack, so right-hand sides are often fractional);
        // the rest, and every equality, may cut all integer points off.
        let sense = [-1i8, -1, 1, 1, 1, 0][rng.gen_range(0..6usize)];
        let at_anchor: f64 = coeffs.iter().map(|&(j, a)| a * f64::from(anchor[j])).sum();
        let slack = f64::from(rng.gen_range(0..=8i32)) / 4.0;
        let rhs = match (sense, rng.gen_range(0..5u32)) {
            (_, 0) => f64::from(rng.gen_range(-12..=40i32)) / 4.0,
            (-1, _) => at_anchor + slack,
            (1, _) => at_anchor - slack,
            _ => at_anchor,
        };
        let row = Row { coeffs, sense, rhs };
        if lazy && rng.gen_bool(0.5) {
            held.push(row);
        } else {
            rows.push(row);
        }
    }
    Case {
        lb,
        ub,
        obj,
        rows,
        held,
    }
}

fn pick_sign(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        1.0
    } else {
        -1.0
    }
}

/// The best objective over every integer point of the box that
/// satisfies every row, held back or not; `None` when there is none.
fn enumerate(case: &Case) -> Option<f64> {
    let n = case.lb.len();
    let mut point: Vec<i32> = case.lb.clone();
    let mut best: Option<f64> = None;
    loop {
        let x: Vec<f64> = point.iter().map(|&v| f64::from(v)).collect();
        let feasible = case
            .rows
            .iter()
            .chain(&case.held)
            .all(|r| r.violation(&x) <= 1e-9);
        if feasible {
            let value: f64 = x.iter().zip(&case.obj).map(|(v, c)| v * c).sum();
            best = Some(best.map_or(value, |b: f64| b.min(value)));
        }
        // Odometer step over the box.
        let mut j = 0;
        loop {
            if j == n {
                return best;
            }
            if point[j] < case.ub[j] {
                point[j] += 1;
                break;
            }
            point[j] = case.lb[j];
            j += 1;
        }
    }
}

fn solve(case: &Case) -> MipSolution {
    let mut model = Model::new("oracle");
    let vars: Vec<VarId> = (0..case.lb.len())
        .map(|j| {
            model.add_var(
                format!("x{j}"),
                f64::from(case.lb[j]),
                f64::from(case.ub[j]),
                case.obj[j],
                true,
            )
        })
        .collect();
    let coeffs =
        |r: &Row| -> Vec<(VarId, f64)> { r.coeffs.iter().map(|&(j, a)| (vars[j], a)).collect() };
    for (i, r) in case.rows.iter().enumerate() {
        model.add_constr(format!("r{i}"), coeffs(r), r.sense(), r.rhs);
    }
    let cfg = MipConfig {
        gap_tol: 0.0,
        ..MipConfig::default()
    };
    if case.held.is_empty() {
        return solve_mip(&model, &cfg, None);
    }
    let mut separator = |x: &[f64]| -> Vec<Cut> {
        case.held
            .iter()
            .enumerate()
            .filter(|(_, r)| r.violation(x) > 1e-6)
            .map(|(i, r)| Cut {
                name: format!("held{i}"),
                coeffs: coeffs(r),
                sense: r.sense(),
                rhs: r.rhs,
            })
            .collect()
    };
    solve_mip(&model, &cfg, Some(&mut separator))
}

/// Checks one case against the enumeration and returns its node count.
fn assert_matches_oracle(seed: u64) -> usize {
    let case = random_case(seed);
    let sol = solve(&case);
    match enumerate(&case) {
        None => assert_eq!(
            sol.status,
            MipStatus::Infeasible,
            "seed {seed}: no integer point, solver says {sol:?} on {case:?}"
        ),
        Some(best) => {
            assert_eq!(
                sol.status,
                MipStatus::Optimal,
                "seed {seed}: optimum {best}, solver says {sol:?} on {case:?}"
            );
            assert!(
                (sol.objective - best).abs() <= 1e-6,
                "seed {seed}: solver {} vs enumeration {best} on {case:?}",
                sol.objective
            );
        }
    }
    sol.nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]
    #[test]
    fn random_integer_programs_match_enumeration(seed in 0u64..1_000_000) {
        assert_matches_oracle(seed);
    }
}

/// Every MILP the planner runs closes at the root node, so the branching
/// code is reached only here: a fixed sweep of the same generator must
/// contain cases that branch, lazy and plain, and agree on all of them.
#[test]
fn some_random_cases_branch() {
    let (mut plain, mut lazy) = (0, 0);
    for seed in 0..2000u64 {
        if assert_matches_oracle(seed) > 1 {
            if random_case(seed).held.is_empty() {
                plain += 1;
            } else {
                lazy += 1;
            }
        }
    }
    assert!(
        plain > 0 && lazy > 0,
        "branching cases: {plain} plain, {lazy} lazy"
    );
}
