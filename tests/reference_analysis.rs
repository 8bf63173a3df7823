//! Integration: reference topologies flow through the whole stack —
//! greedy planning and validation by the evaluator.

use neuroplan::greedy_augment;
use np_eval::{EvalConfig, PlanEvaluator};
use np_topology::{reference, Network};

/// Greedy-plan `net` and check that the evaluator accepts the result.
fn plan_and_validate(mut net: Network) {
    let cost = greedy_augment(&mut net, EvalConfig::default()).expect("the map is plannable");
    assert!(cost > 0.0);
    let mut check = PlanEvaluator::new(&net, EvalConfig::default());
    assert!(check.check_network(&net).feasible);
}

#[test]
fn abilene_plans_and_validates_end_to_end() {
    plan_and_validate(reference::abilene(0.0));
}

#[test]
fn geant_plans_and_validates_end_to_end() {
    plan_and_validate(reference::geant(0.3));
}

#[test]
fn reference_maps_survive_json_roundtrip() {
    let net = reference::abilene(0.5);
    let back = Network::from_json(&net.to_json()).unwrap();
    assert_eq!(net.links(), back.links());
    assert_eq!(net.flows(), back.flows());
}
