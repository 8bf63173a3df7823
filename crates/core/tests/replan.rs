//! Equivalence and resume suite for the incremental re-planner
//! (DESIGN.md §14).
//!
//! The core claim of exact Benders-cut invalidation is that the
//! incremental path changes *where the work happens*, never *what the
//! answer is*: with a zero optimality gap, a master warm-started from
//! the carried plan and seeded with every surviving certificate must
//! prove the same optimal cost as a cold master built from nothing on
//! the perturbed instance — for every event of a stream, at 1 and at 4
//! workers. The checkpoint half: a stream killed mid-event resumes from
//! its own chain to the same final plan, with already-solved events
//! replayed (perturbations only) rather than re-solved.

use neuroplan::master::{solve_master, MasterConfig, MasterOutcome};
use neuroplan::{NeuroPlan, NeuroPlanConfig, PlanQuality, ReplanConfig, ReplanReport};
use np_chaos::checkpoint::Chain;
use np_chaos::Chaos;
use np_churn::ChurnEvent;
use np_eval::{EvalConfig, PlanEvaluator};
use np_lp::MipStatus;
use np_topology::generator::{preset_network, GeneratorConfig};
use np_topology::{Network, TopologyPreset};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Tier-A instance with half the capacity pre-provisioned.
fn tier_a() -> Network {
    GeneratorConfig::a_variant(0.5).generate()
}

/// A cheap deterministic starting plan (the greedy reference); the
/// equivalence claims are about the master, not the RL stage.
fn greedy_units(net: &Network, eval: EvalConfig) -> Vec<u32> {
    let mut ref_net = net.clone();
    neuroplan::greedy_augment(&mut ref_net, eval).expect("instance is feasible");
    ref_net
        .link_ids()
        .map(|l| ref_net.link(l).capacity_units)
        .collect()
}

/// Planner config for exact solves: huge node/time budget so a zero gap
/// always proves optimality.
fn exact_cfg(workers: usize) -> NeuroPlanConfig {
    let mut cfg = NeuroPlanConfig::quick().with_seed(1);
    if workers > 1 {
        cfg = cfg.with_workers(workers);
    }
    cfg.mip_node_limit = 1_000_000;
    cfg.mip_time_limit_secs = 600.0;
    cfg
}

fn exact_rcfg() -> ReplanConfig {
    ReplanConfig {
        gap_tol: 0.0,
        ..ReplanConfig::default()
    }
}

/// Cold re-plan baseline: a fresh evaluator (no certificates) and a
/// master with no warm start, no seed cuts and a zero gap on the
/// perturbed instance — everything re-derived from scratch.
fn cold_master(net: &Network, eval: EvalConfig) -> MasterOutcome {
    let mut evaluator = PlanEvaluator::new(net, eval);
    let cfg = MasterConfig {
        gap_tol: 0.0,
        ..MasterConfig::new(MasterConfig::spectrum_bounds(net), 1_000_000, 600.0)
    };
    solve_master(net, &mut evaluator, &cfg)
}

fn incremental_stream(workers: usize, events: &[ChurnEvent], net: &Network) -> ReplanReport {
    let cfg = exact_cfg(workers);
    let units = greedy_units(net, cfg.eval);
    NeuroPlan::new(cfg)
        .replan_from(net, &units, events, &exact_rcfg())
        .expect("stream replans")
}

/// The 10-event seeded smoke stream: per event, the incremental master
/// proves the same optimal cost a cold master proves from scratch, and
/// the whole stream is bit-identical at 1 and 4 workers.
#[test]
fn smoke_stream_incremental_equals_cold_at_one_and_four_workers() {
    let net = tier_a();
    let events = np_churn::generate_stream(&net, 42, 10);
    assert_eq!(events.len(), 10);
    let r1 = incremental_stream(1, &events, &net);
    let r4 = incremental_stream(4, &events, &net);
    assert_eq!(r1.skipped(), 0, "generated events all apply");

    // Determinism across worker counts: the entire event trajectory.
    assert_eq!(r1.final_units, r4.final_units);
    assert_eq!(r1.final_cost.to_bits(), r4.final_cost.to_bits());
    for (a, b) in r1.events.iter().zip(&r4.events) {
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "event {}", a.index);
        assert_eq!(a.churn, b.churn, "event {}", a.index);
    }

    // Exactness against the cold baseline, event by event.
    let eval = exact_cfg(1).eval;
    let mut cur = net.clone();
    for (ev, rep) in events.iter().zip(&r1.events) {
        let p = ev.to_perturbation(&cur).expect("generated event converts");
        cur.apply_perturbation(&p).expect("generated event applies");
        assert_eq!(
            rep.quality,
            PlanQuality::Optimal,
            "zero gap proves optimality at event {}",
            rep.index
        );
        let cold = cold_master(&cur, eval);
        assert_eq!(cold.status, MipStatus::Optimal, "event {}", rep.index);
        assert!(
            (cold.cost - rep.cost).abs() <= 1e-6 * cold.cost.abs().max(1.0),
            "event {} ({}): incremental {} != cold {}",
            rep.index,
            rep.class,
            rep.cost,
            cold.cost
        );
    }
    // The stream exercised the cut-surgery paths, not just rebuilds.
    assert!(r1.eval_stats.perturb_certs_retained > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized event streams: after the whole stream, the
    /// invalidate-and-rederive master has reached the same optimal cost
    /// as a cold master on the final perturbed instance.
    #[test]
    fn randomized_stream_incremental_matches_cold(
        seed in 0u64..1_000_000,
        n in 2usize..5,
    ) {
        let net = tier_a();
        let events = np_churn::generate_stream(&net, seed, n);
        let report = incremental_stream(1, &events, &net);
        prop_assert_eq!(report.skipped(), 0);
        let last = report.events.last().expect("non-empty stream");
        prop_assert_eq!(last.quality, PlanQuality::Optimal);
        let cold = cold_master(&report.net, exact_cfg(1).eval);
        prop_assert_eq!(cold.status, MipStatus::Optimal);
        prop_assert!(
            (cold.cost - report.final_cost).abs() <= 1e-6 * cold.cost.abs().max(1.0),
            "incremental {} != cold {}", report.final_cost, cold.cost
        );
    }
}

/// `benchmark/README.md` "Known limits" saw the evaluator panic with
/// "separator could not certify infeasibility" on preset-A churn streams
/// of seed >= 4, before the exact LP answered an unverifiable dual with a
/// cold rebuild. Those seeds now replan with no recovery of any kind: a
/// panic inside a stage would show as a supervisor retry.
#[test]
fn preset_a_churn_seeds_4_to_11_replan_without_a_retry() {
    let net = preset_network(TopologyPreset::A);
    let planner = NeuroPlan::new(NeuroPlanConfig::quick());
    let base = planner.plan(&net).final_units;
    for seed in 4..12 {
        let events = np_churn::generate_stream(&net, seed, 6);
        let report = planner
            .replan_from(&net, &base, &events, &ReplanConfig::default())
            .unwrap_or_else(|e| panic!("stream seed {seed}: {e}"));
        neuroplan::validate_plan(&report.net, &report.final_units)
            .unwrap_or_else(|e| panic!("stream seed {seed}: {e:?}"));
        assert_eq!(report.supervision.total_retries(), 0, "stream seed {seed}");
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-replan-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A finished stream resumes entirely from its records: same final plan,
/// zero solver or evaluator work.
#[test]
fn finished_stream_resumes_without_any_recomputation() {
    let dir = tmp_dir("full-resume");
    let net = tier_a();
    let events = np_churn::generate_stream(&net, 7, 4);
    let cfg = exact_cfg(1);
    let units = greedy_units(&net, cfg.eval);
    let first = NeuroPlan::new(cfg.clone())
        .with_checkpoint(&dir, false)
        .replan_from(&net, &units, &events, &exact_rcfg())
        .expect("stream replans");
    let resumed = NeuroPlan::new(cfg)
        .with_checkpoint(&dir, true)
        .replan_from(&net, &units, &events, &exact_rcfg())
        .expect("stream resumes");
    assert_eq!(resumed.resumed, events.len(), "every event restored");
    assert_eq!(resumed.final_units, first.final_units);
    assert_eq!(resumed.final_cost.to_bits(), first.final_cost.to_bits());
    assert_eq!(
        resumed.eval_stats.scenario_checks, 0,
        "a full resume re-separates nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- chaos kill mid-stream (subprocess) -----------------------------

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_neuroplan")
}

fn run(args: &[&str], chaos: Option<&str>) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    match chaos {
        Some(spec) => cmd.env("NP_CHAOS", spec),
        None => cmd.env_remove("NP_CHAOS"),
    };
    cmd.output().expect("spawn neuroplan")
}

fn plan_of(path: &Path) -> (Vec<u64>, u64) {
    let body = std::fs::read_to_string(path).expect("plan file");
    let v: serde_json::Value = serde_json::from_str(&body).expect("plan JSON");
    let units: Vec<u64> = v["units"]
        .as_array()
        .expect("units array")
        .iter()
        .map(|u| u.as_u64().expect("unit"))
        .collect();
    let cost = v["cost"].as_f64().expect("cost").to_bits();
    (units, cost)
}

fn replan_args<'a>(dir: &'a str, out: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "replan",
        "--preset",
        "a",
        "--fill",
        "0.5",
        "--quick",
        "--seed",
        "5",
        "--events",
        "seed=5,n=5",
        "--checkpoint-dir",
        dir,
        "--out",
        out,
    ];
    args.extend_from_slice(extra);
    args
}

/// Kill the process mid-stream, resume, and land on the uninterrupted
/// run's exact plan — with the already-solved prefix replayed from the
/// stream's fingerprint chain instead of re-solved.
#[test]
fn kill_mid_stream_resumes_to_the_uninterrupted_plan() {
    let clean_dir = tmp_dir("kill-clean");
    let clean_out = clean_dir.join("plan.json");
    let out = run(
        &replan_args(
            clean_dir.to_str().unwrap(),
            clean_out.to_str().unwrap(),
            &[],
        ),
        None,
    );
    assert!(
        out.status.success(),
        "uninterrupted replan failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = plan_of(&clean_out);

    let dir = tmp_dir("kill-resume");
    let out_path = dir.join("plan.json");
    // Kill points are counted from the start of the process: one per
    // training epoch, then one per supervised stage (first_stage, master,
    // polish), then each event's replan_master. The epochs are the ones
    // the uninterrupted run trained — one `epoch` record each in its
    // chain; a policy that has lost to greedy stops early (DESIGN.md §11)
    // — so the kill lands inside event 1's solve, after event 0's record
    // hit the checkpoint.
    let records = Chain::new(&clean_dir.join("checkpoint.jsonl"), &Chaos::disabled()).read();
    let plan_phase = records.iter().filter(|r| r.kind == "epoch").count() + 3;
    let kill = format!("kill@{}", plan_phase + 1);
    let killed = run(
        &replan_args(dir.to_str().unwrap(), out_path.to_str().unwrap(), &[]),
        Some(&kill),
    );
    let killed_stderr = String::from_utf8_lossy(&killed.stderr);
    assert!(
        !killed.status.success(),
        "{kill} must abort the run:\n{killed_stderr}"
    );
    assert!(
        killed_stderr.contains("injected kill at stage replan_master"),
        "{kill} must land on an event's solve, not earlier:\n{killed_stderr}"
    );
    assert!(!out_path.exists(), "no plan written by the killed run");
    assert!(
        dir.join("replan.jsonl").exists(),
        "the killed run recorded its solved prefix"
    );

    let resumed = run(
        &replan_args(
            dir.to_str().unwrap(),
            out_path.to_str().unwrap(),
            &["--resume"],
        ),
        None,
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume failed:\n{stderr}");
    assert!(
        stderr.contains("[resumed]"),
        "solved prefix restored from records, not recomputed:\n{stderr}"
    );
    assert_eq!(
        plan_of(&out_path),
        reference,
        "resume lands on the same plan"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The report's per-event objects without the keys a resume may change
/// (`millis`, `resumed`).
fn events_of(path: &Path) -> Vec<Vec<(String, serde_json::Value)>> {
    let body = std::fs::read_to_string(path).expect("plan file");
    let v: serde_json::Value = serde_json::from_str(&body).expect("plan JSON");
    v["events"]
        .as_array()
        .expect("events array")
        .iter()
        .map(|ev| {
            ev.as_object()
                .expect("event object")
                .iter()
                .filter(|(k, _)| k != "millis" && k != "resumed")
                .cloned()
                .collect()
        })
        .collect()
}

/// A chaos link flap at events 0 and 1: each flapped event drops a link,
/// re-plans, re-adds it, re-plans, then applies its own event. A run
/// killed inside event 2 resumes without `NP_CHAOS` — the flap trigger
/// counts live events from process start, so re-arming it would flap the
/// first live event of the resume — and must replay the recorded flaps
/// to the uninterrupted run's output.
#[test]
fn a_flapped_stream_resumes_to_the_uninterrupted_output() {
    let flaps = "link-flap@0-1";
    let clean_dir = tmp_dir("flap-clean");
    let clean_out = clean_dir.join("plan.json");
    let clean_args = replan_args(
        clean_dir.to_str().unwrap(),
        clean_out.to_str().unwrap(),
        &[],
    );
    let out = run(&clean_args, Some(flaps));
    // `replan` exits non-zero when its final plan fails validation.
    assert!(
        out.status.success(),
        "flapped replan failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = (plan_of(&clean_out), events_of(&clean_out));
    let flapped: Vec<bool> = reference
        .1
        .iter()
        .map(|ev| {
            ev.iter()
                .any(|(k, v)| k == "flapped" && v.as_bool() == Some(true))
        })
        .collect();
    assert_eq!(flapped, [true, true, false, false, false]);

    // Kill points: the plan phase (as in the test above), then one per
    // solve — two per flap, one per applied event — so this one is the
    // first solve of event 2.
    let records = Chain::new(&clean_dir.join("checkpoint.jsonl"), &Chaos::disabled()).read();
    let plan_phase = records.iter().filter(|r| r.kind == "epoch").count() + 3;
    let solves: usize = reference.1[..2]
        .iter()
        .map(|ev| {
            let applied = ev.iter().any(|(k, v)| k == "skipped" && v.is_null());
            2 + usize::from(applied)
        })
        .sum();
    let dir = tmp_dir("flap-resume");
    let out_path = dir.join("plan.json");
    let args = replan_args(dir.to_str().unwrap(), out_path.to_str().unwrap(), &[]);
    let kill = format!("{flaps},kill@{}", plan_phase + solves);
    let killed = run(&args, Some(&kill));
    let killed_stderr = String::from_utf8_lossy(&killed.stderr);
    assert!(
        killed_stderr.contains("injected kill at stage replan_master"),
        "{kill} must land on an event's solve:\n{killed_stderr}"
    );
    assert!(!out_path.exists(), "no plan written by the killed run");

    let resume_args = replan_args(
        dir.to_str().unwrap(),
        out_path.to_str().unwrap(),
        &["--resume"],
    );
    let resumed = run(&resume_args, None);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume failed:\n{stderr}");
    assert_eq!(
        stderr.matches("[resumed]").count(),
        2,
        "both flapped events replayed from records:\n{stderr}"
    );
    assert_eq!(
        (plan_of(&out_path), events_of(&out_path)),
        reference,
        "resume lands on the uninterrupted output"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
