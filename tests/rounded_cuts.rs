//! The RL loop's coarse-pass rounding (DESIGN.md §17, "Escalation"): in a
//! walk that never reaches the exact LP, a coarse MWU pass that neither
//! certifies a cut nor completes a witness has its lengths rounded to a
//! node cut before the fine pass may run. A verified violated cut exists
//! only on an infeasible scenario, so no verdict may move: over presets
//! A–C at the greedy plan's capacities scaled around 1, every rounded cut
//! is violated, the exact LP calls each such scenario infeasible and no
//! feasible one, and the walk's verdicts are the ones the commit before
//! the rounding gave (pinned as counts).

use neuroplan::{greedy_augment, NeuroPlanConfig};
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::build_all;
use np_eval::{check_scenario, EvalConfig, EvalStats, Verdict};
use np_topology::{generator::preset_network, LinkId, TopologyPreset};

const SCALES: [f64; 6] = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1];

#[test]
fn rounded_cuts_are_violated_and_no_verdict_moves() {
    // The RL environment's pipeline: Auto, never the exact LP.
    let rl = NeuroPlanConfig::default().eval.check;
    assert!(!rl.allow_exact_lp);
    // (preset, infeasible verdicts of the sweep, checks of the sweep) as
    // the approximate walk gave them before it rounded.
    let pinned = [
        (TopologyPreset::A, 20, 66),
        (TopologyPreset::B, 68, 180),
        (TopologyPreset::C, 92, 342),
    ];
    let mut rounded = 0;
    for (preset, want_infeasible, want_checks) in pinned {
        let net = preset_network(preset);
        let mut planned = net.clone();
        greedy_augment(&mut planned, EvalConfig::default()).expect("presets are plannable");
        // One set of contexts through the whole sweep, as the RL loop
        // carries its evaluator's.
        let mut ctxs = build_all(&net, true);
        let mut stats = EvalStats::default();
        let mut infeasible = 0;
        for x in SCALES {
            let cap = |l: LinkId| planned.capacity_gbps(l) * x;
            let mut fresh = build_all(&net, true);
            for (i, (ctx, exact)) in ctxs.iter_mut().zip(&mut fresh).enumerate() {
                let what = format!("{preset:?}: scenario {i} x{x}");
                ctx.refresh(cap);
                exact.refresh(cap);
                let before = stats.rounded_cuts;
                let verdict = check_scenario(ctx, &rl, &mut stats);
                infeasible += usize::from(!verdict.is_feasible());
                let feasible = exact_lp_verdict(exact).is_feasible();
                if stats.rounded_cuts == before {
                    continue;
                }
                let Verdict::Infeasible(Some(cut)) = &verdict else {
                    panic!("{what}: a rounded cut came back as {verdict:?}");
                };
                assert!(
                    cut.is_violated(cap),
                    "{what}: the rounded cut is not violated"
                );
                assert!(!feasible, "{what}: rounded a cut where the exact LP routes");
            }
        }
        rounded += stats.rounded_cuts;
        assert_eq!(
            (infeasible, stats.scenario_checks),
            (want_infeasible, want_checks),
            "{preset:?}: the walk's verdicts moved"
        );
    }
    assert!(rounded > 0, "no coarse miss was rounded");
}
