//! Bit-identity of a whole evaluator-bound plan (the `plan-golden` CI
//! job runs this in release).
//!
//! `tests/golden/plan_preset_b_quick_w1.json` pins the RL-bound preset-B
//! plan through the CLI. The evaluator-bound twin is preset C at 8
//! epochs — the `plan-wan-c` benchmark input — which the CLI cannot
//! express (it has no epoch flag), so it is `NeuroPlanConfig::quick()`
//! with its epoch cap set here. The golden was recorded on the commit
//! *before* the exact LP moved from the edge to the path formulation:
//! the exact oracle may change how it gets its verdicts, never the plan
//! they lead to.
//!
//! `tests/golden/replan_preset_b_seed0_n6.json` pins a churn stream the
//! same way: `replan_from` on the preset-B instance from the golden
//! preset-B plan, so no training runs.

use neuroplan::{NeuroPlan, NeuroPlanConfig, ReplanConfig};
use np_chaos::checkpoint::f64_to_hex;
use np_topology::generator::{GeneratorConfig, TopologyPreset};

#[test]
fn preset_c_8_epochs_1_worker_matches_the_recorded_plan() {
    let mut cfg = NeuroPlanConfig::quick().with_seed(0).with_workers(1);
    cfg.train.epochs = 8;
    let net = GeneratorConfig::preset(TopologyPreset::C).generate();
    let result = NeuroPlan::new(cfg).plan(&net);
    let actual = serde_json::json!({
        "units": result.final_units,
        "cost": result.final_cost,
        "cost_hex": f64_to_hex(result.final_cost),
        "first_stage_cost": result.first_stage_cost,
        "first_stage_cost_hex": f64_to_hex(result.first_stage_cost),
        "quality": result.quality.name(),
    });
    let actual = serde_json::to_string_pretty(&actual).expect("json");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/plan_preset_c_8ep_w1.json"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        golden.trim_end() == actual,
        "preset-C plan differs from {path}; this run produced:\n{actual}"
    );
}

/// `neuroplan replan --preset b --quick --workers 1 --events seed=0,n=6`
/// from the golden preset-B plan, event by event (class, skip reason,
/// cost bits, rung, churn, certificates kept and dropped) plus the final
/// units.
#[test]
fn preset_b_stream_seed_0_matches_the_recorded_events() {
    let net = GeneratorConfig::preset(TopologyPreset::B).generate();
    let plan: serde_json::Value = serde_json::from_str(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/plan_preset_b_quick_w1.json"
    )))
    .expect("golden plan JSON");
    let units: Vec<u32> = plan["units"]
        .as_array()
        .expect("units array")
        .iter()
        .map(|u| u.as_u64().expect("unit") as u32)
        .collect();
    let events = np_churn::generate_stream(&net, 0, 6);
    let cfg = NeuroPlanConfig::quick().with_seed(0).with_workers(1);
    let report = NeuroPlan::new(cfg)
        .replan_from(&net, &units, &events, &ReplanConfig::default())
        .expect("stream replans");
    let events: Vec<serde_json::Value> = report
        .events
        .iter()
        .map(|ev| {
            serde_json::json!({
                "event": ev.event,
                "class": ev.class,
                "skipped": ev.skipped,
                "cost_hex": f64_to_hex(ev.cost),
                "quality": ev.quality.name(),
                "churn": ev.churn,
                "certs_retained": ev.certs_retained,
                "certs_dropped": ev.certs_dropped,
            })
        })
        .collect();
    let actual = serde_json::json!({
        "events": events,
        "units": report.final_units,
        "cost_hex": f64_to_hex(report.final_cost),
    });
    let actual = serde_json::to_string_pretty(&actual).expect("json");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/replan_preset_b_seed0_n6.json"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        golden.trim_end() == actual,
        "preset-B stream differs from {path}; this run produced:\n{actual}"
    );
}

/// A plan depends on its seed, never on the worker count: `neuroplan plan
/// --preset a --seed 4 --quick` (release) at `--workers` 1, 2 and 4. The
/// first stage's evaluator scans on one worker whatever the count: a
/// wider scan's approximate walks keep certificates from past where one
/// in-order walk stops, and those reach the master as seed cuts — here
/// they once led four workers to other units at the same cost.
#[test]
fn preset_a_seed_4_plans_alike_at_one_two_and_four_workers() {
    let mut gen = GeneratorConfig::preset(TopologyPreset::A);
    gen.seed = 4;
    let net = gen.generate();
    let [one, two, four] = [1, 2, 4].map(|workers| {
        let cfg = NeuroPlanConfig::quick().with_seed(4).with_workers(workers);
        let result = NeuroPlan::new(cfg).plan(&net);
        (result.final_units, f64_to_hex(result.final_cost))
    });
    assert_eq!(one, two, "one and two workers planned differently");
    assert_eq!(one, four, "one and four workers planned differently");
}
