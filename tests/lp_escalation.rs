//! The separator's escalation order (DESIGN.md §17, "Escalation"): a
//! coarse MWU pass that neither certifies a cut nor completes a witness
//! goes to the fine pass while the scenario has no exact LP, and straight
//! to a warm re-solve of that LP once it is built (these contexts are
//! never perturbed, which would send them back to the fine pass until
//! the LP answers again). Either route ends in a witness, a verified cut
//! or the LP, so no verdict may move; only which certified cut comes back
//! can.
//!
//! One set of scenario contexts per preset is held across two sweeps of
//! the greedy plan's capacities scaled around 1: the first sweep builds
//! the LPs of the scenarios that need one, the second meets them built.
//! Which route a scenario takes thus depends on what its LP has answered,
//! and the master's plan on it must not depend on the evaluator's worker
//! count (DESIGN.md §9). Both tests walk with `round_node_cuts` off, as
//! `greedy_augment` does: a node cut rounded before the coarse pass or
//! from a coarse miss (§17, "Rounding") ends its check before either
//! route is taken.

use neuroplan::{greedy_augment, solve_master, MasterConfig};
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::{build_all, ScenarioCtx};
use np_eval::{check_scenario, CheckConfig, EvalConfig, EvalStats, PlanEvaluator, Verdict};
use np_topology::{generator::preset_network, LinkId, TopologyPreset};

const SCALES: [f64; 5] = [0.6, 0.8, 0.9, 1.0, 1.1];

/// One pass over `SCALES`: every verdict's feasibility is the exact LP's
/// on a fresh context (`exact[s][i]`), and every cut it returns is
/// violated at the capacities it was found under.
fn sweep(
    ctxs: &mut [ScenarioCtx],
    caps: &[Vec<f64>],
    exact: &[Vec<bool>],
    cfg: &CheckConfig,
    what: &str,
) -> EvalStats {
    let mut stats = EvalStats::default();
    for (s, caps) in caps.iter().enumerate() {
        let cap = |l: LinkId| caps[l.index()];
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            ctx.refresh(cap);
            let verdict = check_scenario(ctx, cfg, &mut stats);
            let what = format!("{what}: scenario {i} x{}", SCALES[s]);
            if cfg.allow_exact_lp {
                assert_eq!(verdict.is_feasible(), exact[s][i], "{what}");
            }
            if let Verdict::Infeasible(Some(cut)) = &verdict {
                assert!(cut.is_violated(cap), "{what}: the cut is not violated");
            }
        }
    }
    stats
}

#[test]
fn a_built_lp_takes_the_fine_passes_place_and_no_verdict_moves() {
    let auto = CheckConfig {
        round_node_cuts: false,
        ..CheckConfig::default()
    };
    let approximate = CheckConfig {
        allow_exact_lp: false,
        ..CheckConfig::default()
    };
    for preset in [TopologyPreset::A, TopologyPreset::B] {
        let net = preset_network(preset);
        let mut planned = net.clone();
        greedy_augment(&mut planned, EvalConfig::default()).expect("presets are plannable");
        let caps: Vec<Vec<f64>> = SCALES
            .iter()
            .map(|&x| {
                net.link_ids()
                    .map(|l| planned.capacity_gbps(l) * x)
                    .collect()
            })
            .collect();
        let exact: Vec<Vec<bool>> = caps
            .iter()
            .map(|caps| {
                let mut fresh = build_all(&net, true);
                fresh
                    .iter_mut()
                    .map(|ctx| {
                        ctx.refresh(|l| caps[l.index()]);
                        exact_lp_verdict(ctx).is_feasible()
                    })
                    .collect()
            })
            .collect();
        let what = format!("{preset:?}");

        let mut ctxs = build_all(&net, true);
        let first = sweep(&mut ctxs, &caps, &exact, &auto, &what);
        assert!(
            first.lp_cold_builds > 0,
            "{what}: no scenario needed its LP"
        );
        assert_eq!(
            first.fine_passes_skipped, 0,
            "{what}: every coarse fall-through of the first sweep met no LP"
        );

        let mut held = ctxs.clone();
        let second = sweep(&mut ctxs, &caps, &exact, &auto, &what);
        assert!(
            second.fine_passes_skipped > 0,
            "{what}: the second sweep met built LPs and re-solved none warm"
        );
        assert_eq!(second.lp_cold_builds, 0, "{what}: a skip built an LP cold");

        // The RL walk, from the very same state, never skips.
        let rl = sweep(&mut held, &caps, &exact, &approximate, &what);
        assert_eq!(rl.fine_passes_skipped, 0, "{what}: the RL walk skipped");
        assert_eq!(rl.lp_calls, 0, "{what}: the RL walk reached the LP");
    }
}

/// A parallel separation round checks scenarios past where one in-order
/// walk stops; were the LPs those checks leave behind kept, a later round
/// could skip a fine pass the one-worker run runs, and the master end on
/// another plan.
#[test]
fn the_master_plans_alike_at_one_and_four_workers() {
    let workers = std::env::var("NP_EQUIV_WORKERS").map_or(4, |v| {
        v.parse().expect("NP_EQUIV_WORKERS takes a worker count")
    });
    let mut skipped = 0;
    for preset in [TopologyPreset::A, TopologyPreset::B] {
        let net = preset_network(preset);
        let [one, many] = [1, workers.max(2)].map(|w| {
            let cfg = EvalConfig {
                check: CheckConfig {
                    round_node_cuts: false,
                    ..CheckConfig::default()
                },
                parallel_workers: w,
                ..EvalConfig::default()
            };
            let mut ev = PlanEvaluator::new(&net, cfg);
            let master = MasterConfig::new(MasterConfig::spectrum_bounds(&net), 200, f64::INFINITY);
            let out = solve_master(&net, &mut ev, &master);
            (
                (out.units, out.cost.to_bits()),
                ev.stats.fine_passes_skipped,
            )
        });
        assert_eq!(one.0, many.0, "{preset:?}: the plans differ");
        skipped += one.1;
    }
    assert!(skipped > 0, "no master round met a warm LP");
}
