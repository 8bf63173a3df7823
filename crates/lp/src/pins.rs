//! Bit pins for the branch and bound's root machinery.
//!
//! Every MILP the planner runs closes at the root node, so a change to
//! bound tightening or to the lazy-row loop could move a pivot count or
//! a cut without any plan noticing. These tests hash the exact bits:
//!
//! * [`tighten_bounds`] on 500 seeded random models — integer and
//!   continuous variables, infinite and fractional bounds, empty,
//!   singleton and multi-variable rows of all three senses;
//! * the separator trace of fixed models: the bits of every point the
//!   solver offers to the separator, then the solution and every `lp.*`
//!   counter.
//!
//! The fixed models between them drive every lazy-row site: root
//! fractional rounds that return a duplicate row and grow the cut pool
//! past its purge threshold, a rejected round-up point, a rejected
//! integer candidate, a duplicate-row stalemate, and a dive three or more
//! levels deep.

use crate::milp::{solve_mip_telemetry, Cut, MipConfig, MipSolution, MipStatus};
use crate::model::{Model, Sense, VarId};
use crate::presolve::tighten_bounds;
use np_telemetry::{sys, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

fn random_bound_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(format!("tb{seed}"));
    let n = rng.gen_range(1..=5usize);
    let vars: Vec<VarId> = (0..n)
        .map(|j| {
            let lo = f64::from(rng.gen_range(-8..=4i32)) / 2.0;
            let width = f64::from(rng.gen_range(0..=12i32)) / 2.0;
            let lb = if rng.gen_range(0..8u32) == 0 {
                f64::NEG_INFINITY
            } else {
                lo
            };
            let ub = if rng.gen_range(0..8u32) == 0 {
                f64::INFINITY
            } else {
                lo + width
            };
            m.add_var(format!("x{j}"), lb, ub, 1.0, rng.gen_bool(0.5))
        })
        .collect();
    for i in 0..rng.gen_range(0..=6usize) {
        let len = match rng.gen_range(0..6u32) {
            0 => 0,
            1 | 2 => 1,
            _ => rng.gen_range(2..=n.max(2)),
        };
        let exact = rng.gen_bool(0.5);
        let coeffs: Vec<(VarId, f64)> = (0..len)
            .map(|_| {
                let v = vars[rng.gen_range(0..n)];
                let a = if exact {
                    f64::from(rng.gen_range(1..=12i32)) / 4.0
                } else {
                    rng.gen_range(0.05..3.0)
                };
                (v, if rng.gen_bool(0.3) { -a } else { a })
            })
            .collect();
        let sense = [Sense::Le, Sense::Ge, Sense::Eq][rng.gen_range(0..3usize)];
        let rhs = if exact {
            f64::from(rng.gen_range(-16..=40i32)) / 4.0
        } else {
            rng.gen_range(-4.0..10.0)
        };
        m.add_constr(format!("r{i}"), coeffs, sense, rhs);
    }
    m
}

#[test]
fn tighten_bounds_bits_are_pinned() {
    let mut h = Fnv::new();
    let mut infeasible = 0;
    for seed in 0..500u64 {
        let mut m = random_bound_model(seed);
        let rows = m.num_constrs();
        let (tightened, proven_infeasible) = tighten_bounds(&mut m);
        assert_eq!(m.num_constrs(), rows, "seed {seed}: rows must not move");
        infeasible += usize::from(proven_infeasible);
        h.word(tightened as u64);
        h.word(u64::from(proven_infeasible));
        for v in m.vars() {
            h.f64s(&[v.lb, v.ub]);
        }
    }
    assert!(
        (50..450).contains(&infeasible),
        "both verdicts must be common: {infeasible} infeasible"
    );
    assert_eq!(h.0, 0x582a0b164c36a3b3, "tighten_bounds hash");
}

/// Solve `m` with `sep`, hashing every offered point, the solution and
/// the `lp.*` counters.
fn trace(
    m: &Model,
    cfg: &MipConfig,
    sep: &mut dyn FnMut(&[f64]) -> Vec<Cut>,
    h: &mut Fnv,
) -> MipSolution {
    let tel = Telemetry::memory();
    let mut offered = Vec::new();
    let mut wrapped = |x: &[f64]| -> Vec<Cut> {
        offered.push(x.to_vec());
        sep(x)
    };
    let s = solve_mip_telemetry(m, cfg, Some(&mut wrapped), &tel);
    for x in &offered {
        h.f64s(x);
    }
    for b in format!("{:?}", s.status).bytes() {
        h.word(u64::from(b));
    }
    h.f64s(&[s.objective, s.best_bound]);
    h.f64s(&s.x);
    h.word(s.nodes as u64);
    h.word(s.cuts_added as u64);
    for name in [
        "simplex_iterations",
        "bb_nodes",
        "lazy_callbacks",
        "gomory_cuts",
        "cuts_added",
        "incumbent_updates",
        "deadline_overshoot_us",
        "refactorizations",
        "eta_len",
        "warm_start_pivots",
        "cold_solves",
    ] {
        h.word(tel.counter(sys::LP, name));
    }
    s
}

fn ge(v: VarId, rhs: f64) -> Cut {
    Cut {
        name: format!("ge{rhs}"),
        coeffs: vec![(v, 1.0)],
        sense: Sense::Ge,
        rhs,
    }
}

#[test]
fn separator_trace_bits_are_pinned() {
    let mut h = Fnv::new();
    let cfg = MipConfig::default();

    // Root fractional rounds: `2x ≥ 1` keeps the LP optimum at a half,
    // and every round returns the next half-step together with the first
    // row it ever returned (a duplicate from the second round on). Past
    // 120 cut rows the pool purges the slack ones. The round-up point 151
    // is then rejected for a hidden `x ≥ 155`.
    let mut m = Model::new("pool");
    let x = m.add_var("x", 0.0, 500.0, 1.0, true);
    m.add_constr("half", vec![(x, 2.0)], Sense::Ge, 1.0);
    let mut sep = |p: &[f64]| -> Vec<Cut> {
        if p[0] < 150.0 {
            vec![ge(x, p[0].floor() + 1.5), ge(x, 1.5)]
        } else if p[0] < 155.0 - 1e-9 && p[0] == p[0].round() {
            vec![ge(x, 155.0)]
        } else {
            vec![]
        }
    };
    let s = trace(&m, &cfg, &mut sep, &mut h);
    assert!(s.cuts_added > 150, "the pool must pass its purge threshold");

    // A rejected integer candidate, then a separator that insists on a
    // row the LP point already satisfies: the duplicate-row stalemate.
    let mut m = Model::new("stalemate");
    let x = m.add_var("x", 0.0, 10.0, 1.0, true);
    let mut sep = |p: &[f64]| -> Vec<Cut> {
        if p[0] <= 3.0 + 1e-9 {
            vec![ge(x, 3.0)]
        } else {
            vec![]
        }
    };
    let s = trace(&m, &cfg, &mut sep, &mut h);
    assert_eq!(s.status, MipStatus::Limit, "the stalemate is a limit");

    // A two-row covering problem the root cannot close, with its second
    // row held back in the separator: the search dives, and the
    // separator vets every candidate on the way down.
    let mut m = Model::new("dive");
    let costs = [9.0, 10.0, 16.0, 8.0];
    let ubs = [3.0, 5.0, 5.0, 8.0];
    let vars: Vec<VarId> = (0..4)
        .map(|j| m.add_var(format!("y{j}"), 0.0, ubs[j], costs[j], true))
        .collect();
    let row = |w: [f64; 4]| -> Vec<(VarId, f64)> { vars.iter().copied().zip(w).collect() };
    m.add_constr("first", row([2.0, 7.0, 4.0, 1.0]), Sense::Ge, 39.5);
    let held = [5.0, 7.0, 9.0, 9.0];
    let mut sep = |p: &[f64]| -> Vec<Cut> {
        let load: f64 = p.iter().zip(held).map(|(y, w)| y * w).sum();
        if load < 56.5 - 1e-6 {
            vec![Cut {
                name: "held".into(),
                coeffs: row(held),
                sense: Sense::Ge,
                rhs: 56.5,
            }]
        } else {
            vec![]
        }
    };
    let s = trace(&m, &cfg, &mut sep, &mut h);
    assert!(s.nodes >= 4, "the search must branch: {} nodes", s.nodes);

    assert_eq!(h.0, 0xd3a9a8666c209472, "separator trace hash");
}
