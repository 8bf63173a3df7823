//! Witness repair (`np_flow::greedy::repair`) on the graphs the planner
//! really checks: every failure scenario of presets A, B and C. A greedy
//! witness routed at the capacities of the greedy plan meets lower ones —
//! every link at 0.9 of the plan, and each link in turn at 0 — and where
//! it no longer fits it is repaired. A repair that succeeds leaves every
//! arc within its capacity and every node's net outflow where the routed
//! flow had it, so it still routes the demands, and the exact LP on
//! contexts of its own, which no repair touches, agrees that the scenario
//! is feasible. So a repair never succeeds where the exact LP says
//! infeasible.

use neuroplan::greedy_augment;
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::build_all;
use np_eval::EvalConfig;
use np_flow::greedy::{repair, route};
use np_flow::FlowGraph;
use np_topology::{generator::preset_network, LinkId, TopologyPreset};

/// Each node's net outflow under `flow`.
fn net_outflow(graph: &FlowGraph, flow: &[f64]) -> Vec<f64> {
    let mut net = vec![0.0; graph.num_nodes()];
    for (arc, &f) in graph.arcs().iter().zip(flow) {
        net[arc.from] += f;
        net[arc.to] -= f;
    }
    net
}

/// Repair every witness of `preset` that a lowered capacity vector
/// overflows, check each success, and count the repairs and the misses.
fn sweep(preset: TopologyPreset) {
    let (mut repaired, mut missed) = (0, 0);
    let net = preset_network(preset);
    let mut planned = net.clone();
    greedy_augment(&mut planned, EvalConfig::default()).expect("presets are plannable");
    let plan: Vec<f64> = net.link_ids().map(|l| planned.capacity_gbps(l)).collect();
    let mut ctxs = build_all(&net, true);
    // The LP oracle's own contexts, which no repair touches: each keeps
    // its scenario's LP and re-solves it warm at the next capacities.
    let mut oracle = build_all(&net, true);
    let witnesses: Vec<Option<Vec<f64>>> = (ctxs.iter_mut())
        .map(|ctx| {
            ctx.refresh(|l| plan[l.index()]);
            let r = route(&ctx.graph, &ctx.commodities);
            r.feasible.then_some(r.flow)
        })
        .collect();
    let mut lowered = vec![(
        "all x0.9".to_string(),
        plan.iter().map(|c| c * 0.9).collect(),
    )];
    for dark in net.link_ids() {
        let mut caps = plan.clone();
        caps[dark.index()] = 0.0;
        lowered.push((format!("link {} dark", dark.index()), caps));
    }
    for (name, caps) in &lowered {
        let cap = |l: LinkId| caps[l.index()];
        for (i, (ctx, witness)) in ctxs.iter_mut().zip(&witnesses).enumerate() {
            let Some(witness) = witness else { continue };
            ctx.refresh(cap);
            let arcs = ctx.graph.arcs();
            if arcs.iter().zip(witness).all(|(a, &f)| f <= a.cap + 1e-9) {
                continue;
            }
            let what = format!("{preset:?} scenario {i}, {name}");
            let mut flow = witness.clone();
            if !repair(&ctx.graph, &mut flow) {
                missed += 1;
                continue;
            }
            repaired += 1;
            for (a, (arc, &f)) in arcs.iter().zip(&flow).enumerate() {
                assert!(f <= arc.cap + 1e-9, "{what}: arc {a} overflows");
                assert!(f >= 0.0, "{what}: arc {a} carries {f}");
            }
            let (got, want) = (
                net_outflow(&ctx.graph, &flow),
                net_outflow(&ctx.graph, witness),
            );
            for (v, (g, w)) in got.iter().zip(&want).enumerate() {
                let tol = 1e-9 * w.abs().max(1.0);
                assert!((g - w).abs() <= tol, "{what}: node {v} nets {g}, not {w}");
            }
            oracle[i].refresh(cap);
            assert!(
                exact_lp_verdict(&oracle[i]).is_feasible(),
                "{what}: repaired where the exact LP says infeasible"
            );
        }
    }
    assert!(
        repaired > 0 && missed > 0,
        "{preset:?}: repaired {repaired}, missed {missed}"
    );
}

#[test]
fn repaired_witnesses_of_preset_a_fit_and_agree_with_the_exact_lp() {
    sweep(TopologyPreset::A);
}

#[test]
fn repaired_witnesses_of_preset_b_fit_and_agree_with_the_exact_lp() {
    sweep(TopologyPreset::B);
}

#[test]
fn repaired_witnesses_of_preset_c_fit_and_agree_with_the_exact_lp() {
    sweep(TopologyPreset::C);
}
