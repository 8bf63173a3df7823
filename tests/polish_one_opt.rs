//! The polish runs one pass over the links (DESIGN.md §11): after it,
//! every link sits at its `min_units` or has just failed a trial one unit
//! lower, and since the pass only lowers capacities and feasibility is
//! monotone in capacity, a second pass could lower nothing. That is the
//! 1-opt property a second pass used to guarantee, held here to the exact
//! LP on scenario contexts built fresh for every trial, so no state is
//! shared with the evaluator that polished: on the quick plans of
//! presets A–C, and on a polished greedy (warm) plan.

use neuroplan::master::polish_units;
use neuroplan::{greedy_augment, NeuroPlan, NeuroPlanConfig};
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::build_all;
use np_eval::{EvalConfig, PlanEvaluator};
use np_topology::generator::{preset_network, TopologyPreset};
use np_topology::Network;

/// Whether link `i` of `units` can lose one unit, with the rest of the
/// plan kept, while the exact LP still routes every scenario.
fn routes_one_lower(net: &Network, units: &[u32], i: usize) -> bool {
    let mut caps: Vec<f64> = units
        .iter()
        .map(|&u| f64::from(u) * net.unit_gbps)
        .collect();
    caps[i] = f64::from(units[i] - 1) * net.unit_gbps;
    build_all(net, true).iter_mut().all(|ctx| {
        ctx.refresh(|l| caps[l.index()]);
        exact_lp_verdict(ctx).is_feasible()
    })
}

/// No link of `units` above its `min_units` can lose a unit.
fn assert_one_opt(net: &Network, units: &[u32], what: &str) {
    let above: Vec<usize> = net
        .link_ids()
        .filter(|&l| units[l.index()] > net.link(l).min_units)
        .map(|l| l.index())
        .collect();
    assert!(!above.is_empty(), "{what}: no link above its min_units");
    for i in above {
        assert!(
            !routes_one_lower(net, units, i),
            "{what}: link {i} can lose a unit of its {}",
            units[i]
        );
    }
}

const PRESETS: [TopologyPreset; 3] = [TopologyPreset::A, TopologyPreset::B, TopologyPreset::C];

#[test]
fn quick_plans_of_presets_a_to_c_are_one_opt() {
    for preset in PRESETS {
        let net = preset_network(preset);
        let result =
            NeuroPlan::new(NeuroPlanConfig::quick().with_seed(0).with_workers(1)).plan(&net);
        assert_one_opt(&net, &result.final_units, &format!("{preset:?}"));
    }
}

/// The warm polish of the master, on greedy's plan. The check must see
/// the unit the polish took first: greedy's plan routes every scenario
/// without it.
#[test]
fn polished_warm_plans_are_one_opt() {
    for preset in PRESETS {
        let net = preset_network(preset);
        let mut warm = net.clone();
        greedy_augment(&mut warm, EvalConfig::default()).expect("presets are plannable");
        let greedy: Vec<u32> = warm
            .link_ids()
            .map(|l| warm.link(l).capacity_units)
            .collect();
        let mut units = greedy.clone();
        polish_units(
            &net,
            &mut PlanEvaluator::new(&net, EvalConfig::default()),
            &mut units,
        );
        let lowered = (0..units.len()).find(|&i| units[i] < greedy[i]);
        let lowered = lowered.unwrap_or_else(|| panic!("{preset:?}: the polish lowered nothing"));
        assert!(routes_one_lower(&net, &greedy, lowered), "{preset:?}");
        assert_one_opt(&net, &units, &format!("{preset:?} polished greedy plan"));
    }
}
