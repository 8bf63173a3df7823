//! The greedy stop of the first stage (DESIGN.md §11): once 384 env steps
//! have run, training ends at the first epoch boundary where no rollout
//! plan so far costs within 1.25× of the greedy reference. Where the
//! policy loses it must leave the plan's bytes alone, where it wins it
//! must never fire, and it must land on the same epoch at any worker
//! count and across kill-and-resume, at 128- and 384-step epochs. The
//! epoch it stops on runs no policy or value update, and a policy it
//! stops runs no final rollouts; one it never stops does both.

use neuroplan::checkpoint::EpochRecord;
use neuroplan::sweep::run_plan;
use neuroplan::{NeuroPlan, NeuroPlanConfig, PlanSpec, PlanningEnv};
use np_chaos::checkpoint::{f64_to_hex, Chain};
use np_chaos::Chaos;
use np_rl::{ActorCritic, GraphEnv};
use np_telemetry::Telemetry;
use np_topology::generator::GeneratorConfig;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// `spec`'s planner at the budgets `--quick` means in release, so a plan
/// is the same in both build profiles (as in tests/plan_golden.rs).
fn release_quick(spec: Value) -> (NeuroPlanConfig, np_topology::Network) {
    let spec = PlanSpec::from_json(&spec).expect("spec");
    let mut cfg = spec.config();
    cfg.train.epochs = 20;
    cfg.train.steps_per_epoch = 384;
    cfg.train.max_traj_len = 128;
    cfg.mip_node_limit = 20_000;
    cfg.mip_time_limit_secs = 90.0;
    cfg.final_rollouts = 4;
    (cfg, spec.network().expect("instance"))
}

/// Spans `sys/name` recorded on `tel`.
fn span_count(tel: &Telemetry, sys: &str, name: &str) -> u64 {
    tel.spans_self()
        .iter()
        .find(|(s, n, ..)| s == sys && n == name)
        .map_or(0, |&(_, _, count, ..)| count)
}

/// `neuroplan plan --preset b --quick --workers 1` in release: the policy's
/// best plan is 2× greedy's after the first 384-step epoch, so training
/// stops there, before that epoch's updates, and the policy is not rolled
/// out again, and the plan file is the recorded one byte for byte.
#[test]
fn preset_b_quick_stops_after_epoch_1_with_the_recorded_plan() {
    let (cfg, net) = release_quick(json!({"preset": "b", "quick": true, "workers": 1}));
    let tel = Telemetry::memory();
    let (result, body) = run_plan(&NeuroPlan::with_telemetry(cfg, tel.clone()), &net).unwrap();
    assert_eq!(tel.counter("rl", "greedy_stops"), 1);
    assert_eq!(tel.counter("rl", "epochs"), 1);
    assert_eq!(tel.counter("rl", "env_steps"), 384);
    assert_eq!(result.train_report.epochs_run(), 1);
    assert_eq!(result.first_stage_source(), "greedy");
    assert_eq!(span_count(&tel, "rl", "policy_update"), 0);
    // Training steps forked environments, whose evaluators report as
    // `eval.fork_checks`; only a step of the pipeline's own environment
    // (a final rollout) checks under `eval.check`.
    assert_eq!(span_count(&tel, "pipeline", "final_rollouts"), 0);
    assert_eq!(
        span_count(&tel, "eval", "check"),
        0,
        "an env step after the stop"
    );
    let plan = serde_json::to_string_pretty(&Value::Object(body)).expect("json");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/plan_preset_b_quick_w1.json"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        golden.trim_end() == plan,
        "preset-B plan differs from {path}; this run produced:\n{plan}"
    );
}

/// The preset-B run of the test above with a checkpoint chain: its one
/// epoch record holds the agent that epoch started from, the untrained
/// one, since the stop skips the epoch's updates.
#[test]
fn the_stopping_epoch_records_the_agent_it_started_from() {
    let (cfg, net) = release_quick(json!({"preset": "b", "quick": true, "workers": 1}));
    let dir = tmp("record");
    let planner = NeuroPlan::new(cfg.clone()).with_checkpoint(&dir, false);
    planner.try_plan(&net).expect("plan");
    let records = Chain::new(&dir.join("checkpoint.jsonl"), &Chaos::disabled()).read();
    let epochs: Vec<EpochRecord> = records.iter().filter_map(|r| r.decode()).collect();
    assert_eq!(epochs.len(), 1, "one epoch, then the stop");
    assert_eq!(epochs[0].next_epoch, 1);
    // The agent is built as the first stage builds it; the reward scale
    // (here 1) shapes neither the adjacency nor the features' width.
    let env = PlanningEnv::new(net, cfg.eval, cfg.max_units_per_step, 1.0);
    let mut untrained = ActorCritic::new(
        env.adjacency().clone(),
        env.feature_dim(),
        cfg.max_units_per_step,
        &cfg.agent,
    );
    assert!(
        epochs[0].agent == untrained.export_state(),
        "the stopping epoch's record holds an updated agent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same instance at 128-step epochs (debug `--quick`, the churn
/// bench) waits for the same 384 steps: it stops after epoch 3, having
/// updated the policy after epochs 1 and 2 only.
#[test]
fn at_128_step_epochs_preset_b_stops_after_the_same_384_steps() {
    let (mut cfg, net) = release_quick(json!({"preset": "b", "quick": true, "workers": 1}));
    cfg.train.steps_per_epoch = 128;
    let tel = Telemetry::memory();
    let (result, _) = run_plan(&NeuroPlan::with_telemetry(cfg, tel.clone()), &net).unwrap();
    assert_eq!(tel.counter("rl", "greedy_stops"), 1);
    assert_eq!(tel.counter("rl", "epochs"), 3);
    assert_eq!(tel.counter("rl", "env_steps"), 384);
    assert_eq!(result.train_report.epochs_run(), 3);
    assert_eq!(span_count(&tel, "rl", "policy_update"), 2);
    assert_eq!(result.first_stage_source(), "greedy");
}

/// `fig16` cell 4, a Barabási–Albert tier-A cell where the policy beats
/// greedy from its first epoch: the stop never fires, all 20 epochs
/// train and update, the trained policy is rolled out, and the policy's plan has the
/// bits it had before the rule.
#[test]
fn where_the_policy_wins_all_epochs_train() {
    let (cfg, net) = release_quick(json!({
        "family": "ba", "size_tier": "a", "failure_model": "cuts",
        "seed": 16384016, "quick": true,
    }));
    let tel = Telemetry::memory();
    let (result, _) = run_plan(&NeuroPlan::with_telemetry(cfg, tel.clone()), &net).unwrap();
    assert_eq!(tel.counter("rl", "greedy_stops"), 0);
    assert_eq!(result.train_report.epochs_run(), 20);
    assert_eq!(span_count(&tel, "rl", "policy_update"), 20);
    assert_eq!(result.first_stage_source(), "policy");
    assert_eq!(span_count(&tel, "pipeline", "final_rollouts"), 1);
    assert!(
        span_count(&tel, "eval", "check") > 0,
        "no final rollout stepped"
    );
    let rl_cost = result.rl_cost.expect("the policy completed a plan");
    assert_eq!(f64_to_hex(rl_cost), "38a271aa4c8e7740", "rl_cost {rl_cost}");
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-greedy-stop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// At 128-step epochs the uninterrupted run stops after epoch 3, at
/// 384-step epochs after epoch 1. A chain cut before the stop (after
/// epoch 2 of 3) and one cut on the stop boundary each resume to the
/// uninterrupted run's stop and plan, at 1, 2 and 4 workers.
#[test]
fn a_resume_lands_on_the_uninterrupted_stop_at_any_worker_count() {
    let net = GeneratorConfig::a_variant(0.5).generate();
    let dir = tmp("resume");
    let run = |steps_per_epoch: usize, workers: usize, ckpt: &Path| {
        let tel = Telemetry::memory();
        let mut cfg = NeuroPlanConfig::quick().with_seed(5).with_workers(workers);
        cfg.train.steps_per_epoch = steps_per_epoch;
        let planner = NeuroPlan::with_telemetry(cfg, tel.clone()).with_checkpoint(ckpt, true);
        let result = planner.try_plan(&net).expect("plan");
        let counts = (
            tel.counter("rl", "epochs"),
            tel.counter("rl", "greedy_stops"),
        );
        (result, counts)
    };
    for (steps, stop, cuts) in [(128, 3, &[2, 3][..]), (384, 1, &[1][..])] {
        let mut one_worker = None;
        for workers in [1, 2, 4] {
            let clean_dir = dir.join(format!("clean-{steps}-{workers}"));
            let (clean, counts) = run(steps, workers, &clean_dir);
            assert_eq!(
                counts,
                (stop, 1),
                "{steps}-step epochs, {workers} workers: the uninterrupted run stops at {stop}"
            );
            let plan = (clean.final_units.clone(), clean.final_cost.to_bits());
            assert_eq!(
                one_worker.get_or_insert(plan.clone()),
                &plan,
                "{steps}-step epochs, {workers} workers"
            );
            let records =
                Chain::new(&clean_dir.join("checkpoint.jsonl"), &Chaos::disabled()).read();
            for &cut in cuts {
                let cut_dir = dir.join(format!("cut-{steps}-{workers}-{cut}"));
                std::fs::create_dir_all(&cut_dir).unwrap();
                // The meta record, then `cut` epoch records.
                let kept = records[..1 + cut].to_vec();
                assert!(kept.iter().skip(1).all(|r| r.kind == "epoch"));
                Chain::new(&cut_dir.join("checkpoint.jsonl"), &Chaos::disabled())
                    .restart(kept)
                    .unwrap();
                let (resumed, counts) = run(steps, workers, &cut_dir);
                let tag = format!("{steps}-step epochs, {workers} workers, cut after epoch {cut}");
                assert_eq!(
                    counts,
                    (stop - cut as u64, 1),
                    "{tag}: trains to the same stop"
                );
                assert_eq!(resumed.train_report.epochs_run(), stop as usize, "{tag}");
                assert_eq!(resumed.final_units, clean.final_units, "{tag}");
                assert_eq!(resumed.final_cost.to_bits(), clean.final_cost.to_bits());
                assert_eq!(
                    resumed.rl_cost.map(f64::to_bits),
                    clean.rl_cost.map(f64::to_bits)
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
