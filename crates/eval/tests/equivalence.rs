//! Parallel-vs-serial equivalence suite.
//!
//! The paper's "parallel failure groups" optimization must be invisible
//! in every observable output: for any plan, the evaluator must return
//! the same verdict, the same first violated scenario, and — via the
//! telemetry layer — comparable work counters, whether it scans with 1,
//! 2 or 4 workers.
//!
//! One asymmetry is inherent and asserted as such: on an *infeasible*
//! plan, parallel workers may check scenarios past the first violation
//! (they scan their own chunks concurrently), so parallel may do *more*
//! scenario checks than serial — never fewer, and never with a different
//! verdict. On *feasible* plans every scenario is checked exactly once
//! either way, so the counters must match exactly.

use np_eval::{EvalConfig, PlanEvaluator, Separation};
use np_telemetry::Telemetry;
use np_topology::generator::{preset_network, GeneratorConfig};
use np_topology::{Network, TopologyPreset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker counts under test. The default sweep compares serial against 2
/// and 4 workers; CI's dedicated equivalence leg pins the parallel side
/// via `NP_EQUIV_WORKERS=<n>`, which narrows the sweep to `[1, n]`.
fn worker_counts() -> Vec<usize> {
    match std::env::var("NP_EQUIV_WORKERS") {
        Ok(v) => {
            let w: usize = v.parse().expect("NP_EQUIV_WORKERS takes a worker count");
            vec![1, w.max(2)]
        }
        Err(_) => vec![1, 2, 4],
    }
}

fn evaluator(net: &Network, workers: usize, tel: Telemetry) -> PlanEvaluator {
    PlanEvaluator::with_telemetry(
        net,
        EvalConfig {
            parallel_workers: workers,
            ..EvalConfig::default()
        },
        tel,
    )
}

/// A seeded random capacity plan: each link's current capacity scaled by
/// a random factor in `[lo, hi)`.
fn random_caps(net: &Network, rng: &mut StdRng, lo: f64, hi: f64) -> Vec<f64> {
    net.link_ids()
        .map(|l| (net.capacity_gbps(l) + 1.0) * rng.gen_range(lo..hi))
        .collect()
}

#[test]
fn worker_count_never_changes_the_verdict_sequence() {
    let net = preset_network(TopologyPreset::B);
    let counts = worker_counts();
    // Fresh evaluator per worker count; every variant sees the identical
    // plan sequence, so stateful cursors and certificates evolve from the
    // same inputs.
    let mut evs: Vec<PlanEvaluator> = counts
        .iter()
        .map(|&w| evaluator(&net, w, Telemetry::noop()))
        .collect();
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..12 {
        // Mix clearly-infeasible, borderline and abundant plans.
        let caps = match round % 3 {
            0 => random_caps(&net, &mut rng, 0.0, 0.4),
            1 => random_caps(&net, &mut rng, 0.2, 2.0),
            _ => random_caps(&net, &mut rng, 5.0, 50.0),
        };
        for ev in &mut evs {
            ev.reset();
        }
        let baseline = evs[0].check(&caps);
        for (k, ev) in evs.iter_mut().enumerate().skip(1) {
            let got = ev.check(&caps);
            assert_eq!(
                got, baseline,
                "round {round}: workers={} disagrees with serial",
                counts[k]
            );
        }
    }
}

#[test]
fn feasible_plans_report_identical_telemetry_counters() {
    let net = preset_network(TopologyPreset::B);
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..4 {
        // Clearly abundant but still randomized per link, so each round
        // exercises a different capacity vector.
        let caps: Vec<f64> = net
            .link_ids()
            .map(|_| 1e5 * rng.gen_range(1.0..10.0))
            .collect();
        let mut reports = Vec::new();
        for &w in &worker_counts() {
            let tel = Telemetry::memory();
            let mut ev = evaluator(&net, w, tel.clone());
            let out = ev.check(&caps);
            assert!(
                out.feasible,
                "round {round}: abundant capacity must be feasible"
            );
            reports.push((w, tel.counters()));
        }
        let (_, baseline) = &reports[0];
        assert!(
            baseline
                .iter()
                .any(|(_, n, v)| n == "scenario_checks" && *v > 0),
            "serial run must actually check scenarios"
        );
        for (w, counters) in &reports[1..] {
            assert_eq!(
                counters, baseline,
                "round {round}: workers={w} reported different counters on a \
                 feasible plan"
            );
        }
    }
}

#[test]
fn infeasible_plans_agree_on_the_first_violation() {
    let net = GeneratorConfig::a_variant(0.0).generate();
    let mut rng = StdRng::seed_from_u64(1234);
    for round in 0..8 {
        let caps = random_caps(&net, &mut rng, 0.0, 0.5);
        let mut outcomes = Vec::new();
        for &w in &worker_counts() {
            let tel = Telemetry::memory();
            let mut ev = evaluator(&net, w, tel.clone());
            let out = ev.check(&caps);
            outcomes.push((w, out, tel.counter("eval", "scenario_checks")));
        }
        let (_, baseline, serial_checks) = outcomes[0].clone();
        for (w, out, checks) in &outcomes[1..] {
            assert_eq!(
                out, &baseline,
                "round {round}: workers={w} disagrees on the verdict"
            );
            if !baseline.feasible {
                assert!(
                    *checks >= serial_checks,
                    "round {round}: workers={w} checked fewer scenarios ({checks}) \
                     than serial ({serial_checks}) on an infeasible plan"
                );
            }
        }
    }
}

#[test]
fn stateful_cursors_agree_after_every_scan() {
    // The stateful cursor is where the next check resumes; if parallel
    // scans left it anywhere else than serial does, a later check on the
    // same evaluator would diverge. Feasible scans must park it past the
    // last scenario, violated scans on the violation, and both must agree
    // at every worker count.
    let net = preset_network(TopologyPreset::B);
    let counts = worker_counts();
    let mut evs: Vec<PlanEvaluator> = counts
        .iter()
        .map(|&w| evaluator(&net, w, Telemetry::noop()))
        .collect();
    let total = evs[0].num_scenarios();
    let mut rng = StdRng::seed_from_u64(2024);
    for round in 0..10 {
        let caps = match round % 3 {
            0 => random_caps(&net, &mut rng, 0.0, 0.4),
            1 => random_caps(&net, &mut rng, 0.2, 2.0),
            _ => random_caps(&net, &mut rng, 5.0, 50.0),
        };
        for ev in &mut evs {
            ev.reset();
        }
        let baseline = evs[0].check(&caps);
        let serial_cursor = evs[0].cursor();
        if baseline.feasible {
            assert_eq!(
                serial_cursor, total,
                "round {round}: a feasible scan must exhaust the scenarios"
            );
        } else if let Some(v) = baseline.first_violated {
            assert_eq!(
                serial_cursor, v,
                "round {round}: the cursor must resume at the violation"
            );
        }
        for (k, ev) in evs.iter_mut().enumerate().skip(1) {
            let got = ev.check(&caps);
            assert_eq!(got, baseline, "round {round}: workers={}", counts[k]);
            assert_eq!(
                ev.cursor(),
                serial_cursor,
                "round {round}: workers={} left a different cursor",
                counts[k]
            );
        }
    }
}

/// A chain of `n + 1` sites joined by single fibers, one IP link per
/// fiber and a Gold end-to-end flow: any single fiber cut disconnects the
/// flow, so every failure scenario is structurally unfixable. `n >= 8`
/// keeps the scenario count above the parallel scan's engagement
/// threshold at 4 workers.
fn chain_network(n: usize) -> Network {
    use np_topology::{CosClass, Failure, FailureKind, Fiber, FiberId, Flow, IpLink, Site, SiteId};
    let sites = (0..=n)
        .map(|i| Site {
            name: format!("s{i}"),
            pos: (i as f64 * 100.0, 0.0),
            is_datacenter: i == 0 || i == n,
        })
        .collect();
    let fibers = (0..n)
        .map(|i| Fiber {
            endpoints: (SiteId::new(i), SiteId::new(i + 1)),
            length_km: 100.0,
            spectrum_ghz: 4800.0,
            build_cost: 1.0,
        })
        .collect();
    let links = (0..n)
        .map(|i| IpLink {
            src: SiteId::new(i),
            dst: SiteId::new(i + 1),
            fiber_path: vec![(FiberId::new(i), 50.0)],
            capacity_units: 4,
            min_units: 0,
            length_km: 100.0,
        })
        .collect();
    let flows = vec![Flow {
        src: SiteId::new(0),
        dst: SiteId::new(n),
        demand_gbps: 50.0,
        cos: CosClass::Gold,
    }];
    let failures = (0..n)
        .map(|i| Failure {
            name: format!("cut:f{i}"),
            kind: FailureKind::FiberCut(FiberId::new(i)),
        })
        .collect();
    Network::new(
        sites,
        fibers,
        links,
        flows,
        failures,
        Default::default(),
        Default::default(),
        100.0,
    )
    .expect("the chain instance is valid")
}

#[test]
fn structural_infeasibility_leaves_identical_state() {
    // On the chain, the no-failure scenario passes (ample capacity) and
    // the first fiber cut disconnects the Gold flow: the scan must stop
    // on the same structurally-unfixable scenario with the same cursor
    // at every worker count.
    let net = chain_network(8);
    let caps = vec![1e5; net.links().len()];
    let counts = worker_counts();
    let mut outcomes = Vec::new();
    for &w in &counts {
        let mut ev = evaluator(&net, w, Telemetry::noop());
        let out = ev.check(&caps);
        assert!(out.structural, "a fiber cut on a chain must be structural");
        assert_eq!(out.first_violated, Some(1), "first cut scenario");
        outcomes.push((w, out, ev.cursor()));
    }
    let (_, baseline, serial_cursor) = outcomes[0].clone();
    for (w, out, cursor) in &outcomes[1..] {
        assert_eq!(out, &baseline, "workers={w} disagrees on the verdict");
        assert_eq!(
            cursor, &serial_cursor,
            "workers={w} left a different cursor"
        );
    }
    // The structural outcome must surface through separation as well.
    for &w in &counts {
        let mut ev = evaluator(&net, w, Telemetry::noop());
        assert_eq!(
            ev.separate(&caps, 4),
            Separation::StructurallyInfeasible(1),
            "workers={w}: separation must pinpoint the same scenario"
        );
    }
    // The mixed case: below the Gold demand scenario 0 yields a cut and
    // every later scenario is structural, so where the walk stops is
    // decided by the cap on cuts alone.
    let starved = vec![10.0; net.links().len()];
    for &w in &counts {
        let mut ev = evaluator(&net, w, Telemetry::noop());
        match ev.separate(&starved, 1) {
            Separation::Cuts(cuts) => assert_eq!(cuts.len(), 1, "workers={w}"),
            other => panic!("workers={w}: a full cap must end the walk, got {other:?}"),
        }
        assert_eq!(
            ev.separate(&starved, 4),
            Separation::StructurallyInfeasible(1),
            "workers={w}: cuts found before a structural scenario are dropped"
        );
    }
}

#[test]
fn separation_rounds_return_identical_cuts_in_identical_order() {
    // Drive each evaluator through the same sequence of separation
    // rounds. `max_cuts = num_scenarios` means no early stop, so the
    // certificate stores evolve identically and every later round starts
    // from the same state regardless of worker count.
    let net = preset_network(TopologyPreset::B);
    let counts = worker_counts();
    let mut evs: Vec<PlanEvaluator> = counts
        .iter()
        .map(|&w| evaluator(&net, w, Telemetry::noop()))
        .collect();
    let total = evs[0].num_scenarios();
    let mut rng = StdRng::seed_from_u64(99);
    let mut saw_cuts = false;
    for round in 0..6 {
        let caps = match round % 3 {
            0 => random_caps(&net, &mut rng, 0.05, 0.6),
            1 => random_caps(&net, &mut rng, 0.3, 1.5),
            _ => random_caps(&net, &mut rng, 5.0, 50.0),
        };
        let baseline = evs[0].separate(&caps, total);
        if let Separation::Cuts(cuts) = &baseline {
            saw_cuts = true;
            assert!(!cuts.is_empty());
        }
        for (k, ev) in evs.iter_mut().enumerate().skip(1) {
            let got = ev.separate(&caps, total);
            assert_eq!(
                got, baseline,
                "round {round}: workers={} separated differently",
                counts[k]
            );
        }
    }
    assert!(saw_cuts, "the sweep must exercise the cut-producing path");
}

#[test]
fn capped_separation_is_deterministic_from_a_fresh_evaluator() {
    // A capped round (max_cuts below the scenario count) from identical
    // starting state must return the same cuts in the same order — the
    // parallel merge walks chunks in index order, reproducing the serial
    // scan's prefix exactly.
    let net = preset_network(TopologyPreset::B);
    let counts = worker_counts();
    let mut rng = StdRng::seed_from_u64(5);
    for round in 0..5 {
        let caps = random_caps(&net, &mut rng, 0.05, 0.7);
        let mut results = Vec::new();
        for &w in &counts {
            let mut ev = evaluator(&net, w, Telemetry::noop());
            results.push((w, ev.separate(&caps, 8)));
        }
        let (_, baseline) = &results[0];
        for (w, got) in &results[1..] {
            assert_eq!(
                got, baseline,
                "round {round}: workers={w} disagrees on a capped round"
            );
        }
    }
}
