//! Node-cut rounding (DESIGN.md §17, "Rounding"): where an MWU pass would
//! run, the unit and inverse-capacity metrics are rounded to a node cut
//! first, and a coarse MWU pass that neither certifies a cut nor completes
//! a witness has its lengths rounded to one before the fine pass may run.
//! A verified violated cut exists only on an infeasible scenario, so no
//! verdict may move: over presets A–C at the greedy plan's capacities
//! scaled around 1, every returned cut is violated, the exact LP calls
//! each rounded scenario infeasible and no feasible one, and both walks
//! answer some scenarios before any MWU pass. The RL loop's walk, which
//! never reaches the exact LP, gives the verdicts the commit before the
//! rounding gave (pinned as counts); the separator's walk (`separate`, as
//! the master's lazy callback, polish and the replan master run it) gives
//! the exact LP's. `greedy_augment` walks the separator's pipeline
//! unrounded.

use neuroplan::{greedy_augment_telemetry, NeuroPlanConfig};
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::build_all;
use np_eval::{
    check_scenario, CheckConfig, EvalConfig, EvalStats, PlanEvaluator, Separation, Verdict,
};
use np_telemetry::{sys, Telemetry};
use np_topology::{generator::preset_network, LinkId, TopologyPreset};

const SCALES: [f64; 6] = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1];

#[test]
fn rounded_cuts_are_violated_and_no_verdict_moves() {
    // The RL environment's pipeline: Auto, never the exact LP.
    let rl = NeuroPlanConfig::default().eval.check;
    assert!(!rl.allow_exact_lp);
    // The separator's: Auto, the exact LP behind the fine pass.
    let sep = CheckConfig::default();
    assert!(sep.allow_exact_lp && sep.round_node_cuts);
    // (preset, infeasible verdicts of the sweep, checks of the sweep) as
    // the approximate walk gave them before it rounded.
    let pinned = [
        (TopologyPreset::A, 20, 66),
        (TopologyPreset::B, 68, 180),
        (TopologyPreset::C, 92, 342),
    ];
    let mut rounded = [0; 2];
    let mut before_mwu = [0; 2];
    for (preset, want_infeasible, want_checks) in pinned {
        let net = preset_network(preset);
        let mut planned = net.clone();
        let tel = Telemetry::memory();
        greedy_augment_telemetry(&mut planned, EvalConfig::default(), tel.clone())
            .expect("presets are plannable");
        assert!(
            tel.counter(sys::EVAL, "mwu_calls") > 0,
            "{preset:?}: greedy's walk ran no MWU pass"
        );
        assert_eq!(
            tel.counter(sys::EVAL, "rounded_cuts"),
            0,
            "{preset:?}: greedy's walk rounded a coarse miss"
        );
        // One set of contexts per walk through the whole sweep, as the RL
        // loop and a master carry their evaluator's.
        let mut walks = [(rl, build_all(&net, true)), (sep, build_all(&net, true))];
        let mut stats = [EvalStats::default(), EvalStats::default()];
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let mut infeasible = 0;
        for x in SCALES {
            let caps: Vec<f64> = net
                .link_ids()
                .map(|l| planned.capacity_gbps(l) * x)
                .collect();
            let cap = |l: LinkId| caps[l.index()];
            let mut refuted = 0;
            for (i, exact) in build_all(&net, true).iter_mut().enumerate() {
                exact.refresh(cap);
                let feasible = exact_lp_verdict(exact).is_feasible();
                refuted += usize::from(!feasible);
                for (w, ((cfg, ctxs), stats)) in walks.iter_mut().zip(&mut stats).enumerate() {
                    let what = format!("{preset:?} walk {w}: scenario {i} x{x}");
                    let ctx = &mut ctxs[i];
                    ctx.refresh(cap);
                    let before = (stats.rounded_cuts, stats.mwu_calls);
                    let verdict = check_scenario(ctx, cfg, stats);
                    if cfg.allow_exact_lp {
                        assert_eq!(verdict.is_feasible(), feasible, "{what}: not the LP's");
                    } else {
                        infeasible += usize::from(!verdict.is_feasible());
                    }
                    if let Verdict::Infeasible(Some(cut)) = &verdict {
                        assert!(cut.is_violated(cap), "{what}: the cut is not violated");
                    }
                    if stats.rounded_cuts > before.0 {
                        assert!(
                            matches!(verdict, Verdict::Infeasible(Some(_))),
                            "{what}: a rounded cut came back as {verdict:?}"
                        );
                        assert!(!feasible, "{what}: rounded a cut where the exact LP routes");
                        before_mwu[w] += usize::from(stats.mwu_calls == before.1);
                    }
                }
            }
            let what = format!("{preset:?} x{x}: separate");
            match ev.separate(&caps, usize::MAX) {
                Separation::Feasible => assert_eq!(refuted, 0, "{what}: feasible"),
                Separation::Cuts(cuts) => {
                    assert_eq!(cuts.len(), refuted, "{what}: one cut per refuted scenario");
                    for cut in &cuts {
                        assert!(cut.is_violated(cap), "{what}: a cut is not violated");
                    }
                }
                other => panic!("{what}: {other:?}"),
            }
        }
        assert_eq!(
            (infeasible, stats[0].scenario_checks),
            (want_infeasible, want_checks),
            "{preset:?}: the RL walk's verdicts moved"
        );
        rounded[0] += stats[0].rounded_cuts;
        rounded[1] += stats[1].rounded_cuts + ev.stats.rounded_cuts;
    }
    assert!(
        rounded.iter().all(|&r| r > 0),
        "a walk rounded no node cut: {rounded:?}"
    );
    assert!(
        before_mwu.iter().all(|&r| r > 0),
        "a walk answered no scenario before the MWU: {before_mwu:?}"
    );
}
