//! Cross-validation of the plan evaluator against independent oracles:
//! the exact LP, brute single-commodity max-flow, and hand-built
//! instances with known answers.

use neuroplan::greedy_augment;
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::{build_all, scenario_at};
use np_eval::{CheckConfig, EvalConfig, EvalStats, PlanEvaluator, ScenarioCtx, Verdict};
use np_topology::{
    generator::preset_network, CosClass, CostModel, Failure, FailureKind, Fiber, FiberId, Flow,
    IpLink, Network, ReliabilityPolicy, SiteId, TopologyPreset,
};

/// Line network 0 - 1 - 2 with one flow 0→2 of 300 Gbps; capacities are
/// (left, right) units of 100 Gbps.
fn line(left: u32, right: u32, failures: Vec<Failure>) -> Network {
    let sites = (0..3)
        .map(|i| np_topology::Site {
            name: format!("s{i}"),
            pos: (f64::from(i) * 100.0, 0.0),
            is_datacenter: false,
        })
        .collect();
    let fibers = vec![
        Fiber {
            endpoints: (SiteId::new(0), SiteId::new(1)),
            length_km: 100.0,
            spectrum_ghz: 4800.0,
            build_cost: 1.0,
        },
        Fiber {
            endpoints: (SiteId::new(1), SiteId::new(2)),
            length_km: 100.0,
            spectrum_ghz: 4800.0,
            build_cost: 1.0,
        },
    ];
    let mk = |src: usize, dst: usize, fiber: usize, units: u32| IpLink {
        src: SiteId::new(src),
        dst: SiteId::new(dst),
        fiber_path: vec![(FiberId::new(fiber), 40.0)],
        capacity_units: units,
        min_units: 0,
        length_km: 100.0,
    };
    Network::new(
        sites,
        fibers,
        vec![mk(0, 1, 0, left), mk(1, 2, 1, right)],
        vec![Flow {
            src: SiteId::new(0),
            dst: SiteId::new(2),
            demand_gbps: 300.0,
            cos: CosClass::Gold,
        }],
        failures,
        ReliabilityPolicy::protect_all(),
        CostModel::default(),
        100.0,
    )
    .unwrap()
}

#[test]
fn line_feasibility_threshold_is_exact() {
    // 300 Gbps needs 3 units on both hops.
    for (l, r, expect) in [
        (3, 3, true),
        (2, 3, false),
        (3, 2, false),
        (4, 3, true),
        (2, 2, false),
    ] {
        let net = line(l, r, vec![]);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        assert_eq!(
            ev.check_network(&net).feasible,
            expect,
            "left={l} right={r}"
        );
    }
}

#[test]
fn a_fiber_cut_on_a_line_is_structurally_fatal() {
    let net = line(
        5,
        5,
        vec![Failure {
            name: "cut".into(),
            kind: FailureKind::FiberCut(FiberId::new(0)),
        }],
    );
    let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
    let out = ev.check_network(&net);
    assert!(!out.feasible);
    assert!(out.structural, "no capacity fixes a severed line");
    assert_eq!(out.first_violated, Some(1));
}

/// The walk the RL environment runs: it never reaches the exact LP.
fn rl_walk() -> CheckConfig {
    CheckConfig {
        allow_exact_lp: false,
        ..CheckConfig::default()
    }
}

#[test]
fn backends_agree_up_to_documented_mwu_conservatism() {
    let ctx = |net: &Network| {
        let mut ctx = ScenarioCtx::build(net, None, true);
        ctx.refresh(|link| net.capacity_gbps(link));
        ctx
    };
    let verdict = |net: &Network, cfg: CheckConfig| {
        let mut stats = np_eval::EvalStats::default();
        np_eval::check_scenario(&ctx(net), &cfg, &mut stats).is_feasible()
    };
    // (3,3) is the exact λ* = 1 boundary: the RL walk is allowed
    // (documented) to be conservative there, never permissive.
    for (l, r) in [(3u32, 3u32), (2, 3), (1, 1), (9, 9)] {
        let net = line(l, r, vec![]);
        let exact = exact_lp_verdict(&ctx(&net)).is_feasible();
        let auto = verdict(&net, CheckConfig::default());
        let mwu = verdict(&net, rl_walk());
        assert_eq!(
            auto, exact,
            "the full walk must match the exact LP on ({l},{r})"
        );
        if !exact {
            assert!(
                !mwu,
                "the RL walk must never accept an infeasible plan ({l},{r})"
            );
        }
        if mwu {
            assert!(
                exact,
                "RL-walk feasibility is a primal witness and cannot lie ({l},{r})"
            );
        }
    }
}

#[test]
fn parallel_links_pool_capacity() {
    // Two parallel links 0-1 of 2 units each must carry a 300 Gbps flow
    // (capacity pools across parallels: 400 Gbps total).
    let sites = (0..2)
        .map(|i| np_topology::Site {
            name: format!("s{i}"),
            pos: (f64::from(i) * 100.0, 0.0),
            is_datacenter: false,
        })
        .collect();
    let fibers = vec![
        Fiber {
            endpoints: (SiteId::new(0), SiteId::new(1)),
            length_km: 100.0,
            spectrum_ghz: 4800.0,
            build_cost: 1.0,
        },
        Fiber {
            endpoints: (SiteId::new(0), SiteId::new(1)),
            length_km: 150.0,
            spectrum_ghz: 4800.0,
            build_cost: 1.0,
        },
    ];
    let links = (0..2)
        .map(|i| IpLink {
            src: SiteId::new(0),
            dst: SiteId::new(1),
            fiber_path: vec![(FiberId::new(i), 40.0)],
            capacity_units: 2,
            min_units: 0,
            length_km: 100.0,
        })
        .collect();
    let net = Network::new(
        sites,
        fibers,
        links,
        vec![Flow {
            src: SiteId::new(0),
            dst: SiteId::new(1),
            demand_gbps: 300.0,
            cos: CosClass::Gold,
        }],
        vec![Failure {
            name: "cut:f1".into(),
            kind: FailureKind::FiberCut(FiberId::new(1)),
        }],
        ReliabilityPolicy::protect_all(),
        CostModel::default(),
        100.0,
    )
    .unwrap();
    let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
    // No failure: 400 ≥ 300 OK; under cut of fiber 1, only 200 Gbps
    // survives → infeasible at scenario index 1.
    let out = ev.check_network(&net);
    assert!(!out.feasible);
    assert_eq!(out.first_violated, Some(1));
    assert!(
        !out.structural,
        "adding capacity on the surviving parallel fixes it"
    );
    // Give the surviving link 3 units: feasible everywhere.
    let caps = vec![300.0, 200.0];
    let mut ev2 = PlanEvaluator::new(&net, EvalConfig::default());
    assert!(ev2.check(&caps).feasible);
}

#[test]
fn verdict_pipeline_reports_cuts_on_mwu_backend() {
    let net = line(1, 1, vec![]);
    let mut ctx = ScenarioCtx::build(&net, None, true);
    ctx.refresh(|l| net.capacity_gbps(l));
    let mut stats = np_eval::EvalStats::default();
    match np_eval::check_scenario(&ctx, &rl_walk(), &mut stats) {
        Verdict::Infeasible(Some(cut)) => {
            assert!(cut.is_violated(|l| net.capacity_gbps(l)));
        }
        other => panic!("expected a certified infeasibility, got {other:?}"),
    }
}

/// A stored witness that no longer fits is repaired before greedy runs
/// (DESIGN.md §17, "Escalation"). On presets A and B, with one set of
/// contexts per walk carried from the greedy plan's capacities down to
/// 0.8 of them and then to each link dark in turn, every check answered
/// by a repair is `Feasible` and agrees with the exact LP on a fresh
/// context, on the full walk and on the RL walk alike.
#[test]
fn repaired_witnesses_agree_with_the_exact_lp_on_both_walks() {
    let mut repairs = [0; 2];
    for preset in [TopologyPreset::A, TopologyPreset::B] {
        let net = preset_network(preset);
        let mut planned = net.clone();
        greedy_augment(&mut planned, EvalConfig::default()).expect("presets are plannable");
        let plan: Vec<f64> = net.link_ids().map(|l| planned.capacity_gbps(l)).collect();
        let mut sweep: Vec<Vec<f64>> = [1.0, 0.95, 0.9, 0.85, 0.8]
            .iter()
            .map(|x| plan.iter().map(|c| c * x).collect())
            .collect();
        for dark in 0..plan.len() {
            let mut caps = plan.clone();
            caps[dark] = 0.0;
            sweep.push(caps);
        }
        let mut walks = [
            (CheckConfig::default(), build_all(&net, true)),
            (rl_walk(), build_all(&net, true)),
        ];
        for (w, (cfg, ctxs)) in walks.iter_mut().enumerate() {
            let mut stats = EvalStats::default();
            for (k, caps) in sweep.iter().enumerate() {
                for (i, ctx) in ctxs.iter_mut().enumerate() {
                    ctx.refresh(|l| caps[l.index()]);
                    let before = stats.witness_repairs;
                    let verdict = np_eval::check_scenario(ctx, cfg, &mut stats);
                    if stats.witness_repairs == before {
                        continue;
                    }
                    let what = format!("{preset:?} walk {w}, capacities {k}, scenario {i}");
                    assert!(
                        verdict.is_feasible(),
                        "{what}: a repair answered {verdict:?}"
                    );
                    let mut fresh = ScenarioCtx::build(&net, scenario_at(i), true);
                    fresh.refresh(|l| caps[l.index()]);
                    assert!(
                        exact_lp_verdict(&fresh).is_feasible(),
                        "{what}: repaired where the exact LP says infeasible"
                    );
                }
            }
            repairs[w] += stats.witness_repairs;
        }
    }
    assert!(
        repairs.iter().all(|&r| r > 0),
        "a walk repaired nothing: {repairs:?}"
    );
}
