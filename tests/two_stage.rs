//! End-to-end integration: the two-stage pipeline on generated
//! instances, validated by a fresh exact evaluator.

use neuroplan::{validate_plan, NeuroPlan, NeuroPlanConfig};
use np_eval::{EvalConfig, PlanEvaluator};
use np_topology::generator::GeneratorConfig;

fn quick_planner(seed: u64) -> NeuroPlan {
    NeuroPlan::new(NeuroPlanConfig::quick().with_seed(seed))
}

#[test]
fn plans_a_half_provisioned_instance() {
    let net = GeneratorConfig::a_variant(0.5).generate();
    let result = quick_planner(1).plan(&net);
    assert!(
        result.final_cost > 0.0,
        "demand outgrew the baseline, so the plan costs"
    );
    assert!(result.final_cost <= result.first_stage_cost + 1e-9);
    validate_plan(&net, &result.final_units).expect("final plan validates");
    // Every capacity respects Eq. 5 and the pruned bounds.
    for (i, &(l, _, _, ub, _)) in result.pruning.per_link.iter().enumerate() {
        assert!(result.final_units[i] >= net.link(l).min_units);
        assert!(result.final_units[i] <= ub);
    }
}

#[test]
fn long_term_instance_lights_candidates_only_when_worthwhile() {
    let mut cfg = GeneratorConfig::a_variant(0.0);
    cfg.long_term = true;
    let net = cfg.generate();
    let result = quick_planner(2).plan(&net);
    validate_plan(&net, &result.final_units).expect("final plan validates");
    // The plan never exceeds the greedy reference in cost: stage 2's
    // cutoff guarantees it.
    let mut greedy_net = net.clone();
    let greedy_cost = neuroplan::greedy_augment(&mut greedy_net, EvalConfig::default()).unwrap();
    assert!(
        result.final_cost <= greedy_cost + 1e-6,
        "pipeline ({}) must not cost more than the greedy reference ({greedy_cost})",
        result.final_cost
    );
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let net = GeneratorConfig::a_variant(0.25).generate();
    let a = quick_planner(9).plan(&net);
    let b = quick_planner(9).plan(&net);
    assert_eq!(a.final_units, b.final_units);
    assert_eq!(a.first_stage_units, b.first_stage_units);
    assert!((a.final_cost - b.final_cost).abs() < 1e-12);
}

#[test]
fn different_seeds_may_differ_but_both_validate() {
    let net = GeneratorConfig::a_variant(0.25).generate();
    let a = quick_planner(10).plan(&net);
    let b = quick_planner(11).plan(&net);
    validate_plan(&net, &a.final_units).expect("plan a validates");
    validate_plan(&net, &b.final_units).expect("plan b validates");
}

#[test]
fn evaluator_confirms_first_stage_plans_too() {
    let net = GeneratorConfig::a_variant(0.0).generate();
    let result = quick_planner(3).plan(&net);
    let mut check = net.clone();
    neuroplan::master::apply_units(&mut check, &result.first_stage_units);
    let mut evaluator = PlanEvaluator::new(&check, EvalConfig::default());
    assert!(evaluator.check_network(&check).feasible);
}

/// The staged API runs the code `plan()` runs: `first_stage`, then
/// `second_stage`, then `plan()`'s choice between the two, lands on
/// `plan()`'s final units and cost bits — under the supervisor's budgets
/// too: with no branch-and-bound nodes the master ships its warm plan and
/// the polish stage trims it.
#[test]
fn the_staged_api_equals_plan() {
    let net = GeneratorConfig::a_variant(0.5).generate();
    let unlimited = NeuroPlanConfig::quick().with_seed(1);
    let mut no_nodes = unlimited.clone();
    no_nodes.supervisor.budget.max_nodes = Some(0);
    for (row, cfg) in [("unlimited", unlimited), ("no nodes", no_nodes)] {
        let planner = NeuroPlan::new(cfg);
        let first = planner.first_stage(&net);
        let mut stats = first.stats.clone();
        let cuts = first.certificates.clone();
        let (master, _) = planner.second_stage(&net, &first.units, first.cost, cuts, &mut stats);
        let (cost, units) = if master.has_plan() && master.cost < first.cost {
            (master.cost, master.units)
        } else {
            (first.cost, first.units)
        };
        let planned = planner.plan(&net);
        assert_eq!(units, planned.final_units, "{row}");
        assert_eq!(cost.to_bits(), planned.final_cost.to_bits(), "{row}");
    }
}
