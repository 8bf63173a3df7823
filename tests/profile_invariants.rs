//! The `--profile` mode's core contract: the process-global profiling
//! switch changes *timing collection only*, never solver arithmetic or
//! control flow. Randomized pin: a full Benders master solve must
//! produce a bit-identical plan cost and an identical telemetry counter
//! stream with profiling on and off, serially and with 4 evaluator
//! workers.
//!
//! The profiling switch is process-global, so every test in this binary
//! holds `PROFILING_SWITCH` while it runs (test threads would otherwise
//! race on the flag).
//!
//! The same body pins the breakdown's accounting on a whole plan — RL
//! first stage included, rollouts on 1 and on 4 threads: the self times
//! of the profile sum to at most the wall (forked rollout evaluators
//! publish their stage times, and the rest of their scan time as
//! `eval.fork_checks`, inside the live `rl.forward` span, and worker
//! CPU-seconds are clipped to wall), and that greedy routing has its own
//! `eval.greedy` row.

use neuroplan::master::{solve_master_telemetry, MasterConfig};
use neuroplan::{NeuroPlan, NeuroPlanConfig};
use np_eval::{EvalConfig, PlanEvaluator};
use np_telemetry::profile::ProfileReport;
use np_telemetry::Telemetry;
use np_topology::{generator::preset_network, Network, TopologyPreset};
use proptest::prelude::*;

static PROFILING_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One master solve; returns the plan cost and the full counter stream.
fn run(
    net: &Network,
    workers: usize,
    profiling: bool,
    node_limit: usize,
    granularity: u32,
) -> (f64, Vec<(String, String, u64)>) {
    np_telemetry::set_profiling(profiling);
    let tel = Telemetry::memory();
    let mut evaluator = PlanEvaluator::with_telemetry(
        net,
        EvalConfig {
            parallel_workers: workers,
            ..EvalConfig::default()
        },
        tel.clone(),
    );
    let cfg = MasterConfig {
        granularity,
        ..MasterConfig::new(
            MasterConfig::spectrum_bounds(net),
            node_limit,
            f64::INFINITY,
        )
    };
    let out = solve_master_telemetry(net, &mut evaluator, &cfg, &tel);
    np_telemetry::set_profiling(false);
    (out.cost, tel.counters())
}

/// One profiled tier-A plan; returns `(self-time sum, wall)` in µs.
fn profiled_plan(net: &Network, workers: usize) -> (u64, u64) {
    np_telemetry::set_profiling(true);
    let tel = Telemetry::memory();
    let mut planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(3).with_workers(workers));
    planner.tel = tel.clone();
    planner.plan(net);
    let wall = tel.elapsed_us();
    np_telemetry::set_profiling(false);
    let report = ProfileReport::from_telemetry(&tel, wall);
    assert!(
        report
            .entries
            .iter()
            .any(|e| e.name == "mwu" && e.self_us > 0),
        "the evaluator's stage times must reach the profile"
    );
    // Greedy routing (the first-fit attempt of every check without a
    // fitting witness, and the top-up of a sub-threshold MWU flow) is a
    // row of its own, not self time of `check`, `separate` or
    // `fork_checks`.
    assert!(
        report
            .entries
            .iter()
            .any(|e| e.sys == "eval" && e.name == "greedy" && e.self_us > 0),
        "greedy routing must reach the profile as eval.greedy"
    );
    // The rollout actors' forked evaluators check under a silent sink;
    // their scan time outside the MWU, the exact LP and greedy routing
    // must still leave `rl.forward`'s self time for an `eval` row of its
    // own.
    assert!(
        report
            .entries
            .iter()
            .any(|e| e.sys == "eval" && e.name == "fork_checks" && e.self_us > 0),
        "the rollout actors' env checks must reach the profile"
    );
    (report.self_total_us(), wall)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn profiling_toggle_never_changes_costs_or_counters(
        granularity in 1u32..3,
        node_limit in 20usize..60,
    ) {
        let _switch = PROFILING_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let net = preset_network(TopologyPreset::A);
        for workers in [1usize, 4] {
            let (cost_off, counters_off) =
                run(&net, workers, false, node_limit, granularity);
            let (cost_on, counters_on) =
                run(&net, workers, true, node_limit, granularity);
            prop_assert_eq!(
                cost_off.to_bits(),
                cost_on.to_bits(),
                "profiling changed the plan cost at {} workers: off {} vs on {}",
                workers,
                cost_off,
                cost_on
            );
            prop_assert_eq!(
                counters_off,
                counters_on,
                "profiling changed the counter stream at {} workers",
                workers
            );
        }
    }
}

#[test]
fn self_times_of_a_whole_plan_sum_to_at_most_the_wall() {
    let _switch = PROFILING_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let net = preset_network(TopologyPreset::A);
    for workers in [1usize, 4] {
        let (self_sum, wall) = profiled_plan(&net, workers);
        assert!(
            self_sum <= wall,
            "self-time sum {self_sum} us exceeds the {wall} us wall at {workers} workers"
        );
        assert!(
            self_sum * 10 >= wall * 9,
            "breakdown covers only {self_sum} of {wall} us at {workers} workers"
        );
    }
}
