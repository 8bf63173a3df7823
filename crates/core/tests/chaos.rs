//! End-to-end fault-injection suite (DESIGN.md §10).
//!
//! Each fault class is injected into a real `neuroplan plan` subprocess
//! (via `NP_CHAOS` or `--chaos`) and the run must still deliver a
//! validated feasible plan. The `kill` class additionally exercises the
//! checkpoint/resume path: a run killed mid-training and resumed must
//! reproduce the uninterrupted run's plan **bit for bit**, at 1 and at 4
//! workers.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_neuroplan")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-chaos-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `neuroplan <args>`, optionally under an `NP_CHAOS` spec.
fn run(args: &[&str], chaos: Option<&str>) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    match chaos {
        Some(spec) => cmd.env("NP_CHAOS", spec),
        None => cmd.env_remove("NP_CHAOS"),
    };
    cmd.output().expect("spawn neuroplan")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The run must exit cleanly and have written a plan with positive,
/// finite cost (the CLI itself re-validates feasibility before writing).
fn assert_plan_written(out: &Output, plan_path: &Path, ctx: &str) {
    assert!(
        out.status.success(),
        "{ctx}: planner failed\nstderr:\n{}",
        stderr_of(out)
    );
    let body =
        std::fs::read_to_string(plan_path).unwrap_or_else(|e| panic!("{ctx}: no plan file: {e}"));
    let v: serde_json::Value = serde_json::from_str(&body).expect("plan JSON");
    let cost = v.get("cost").and_then(|c| c.as_f64()).expect("cost field");
    assert!(cost > 0.0 && cost.is_finite(), "{ctx}: bad cost {cost}");
}

fn plan_args<'a>(out: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "plan", "--preset", "a", "--quick", "--seed", "5", "--out", out,
    ];
    args.extend_from_slice(extra);
    args
}

#[test]
fn lp_singular_injection_still_plans() {
    let dir = tmp_dir("lp-singular");
    let out_path = dir.join("plan.json");
    let out = run(
        &plan_args(out_path.to_str().unwrap(), &[]),
        Some("lp-singular@0-9"),
    );
    assert_plan_written(&out, &out_path, "lp-singular");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pool_panic_injection_still_plans() {
    let dir = tmp_dir("pool-panic");
    let out_path = dir.join("plan.json");
    let out = run(
        &plan_args(out_path.to_str().unwrap(), &["--workers", "2"]),
        Some("pool-panic@0-2"),
    );
    assert_plan_written(&out, &out_path, "pool-panic");
    assert!(
        stderr_of(&out).contains("chaos: pool-panic fired"),
        "injection must be visible in the exit summary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nan_grad_injection_rolls_back_and_plans() {
    let dir = tmp_dir("nan-grad");
    let out_path = dir.join("plan.json");
    let out = run(
        &plan_args(out_path.to_str().unwrap(), &[]),
        Some("nan-grad@0"),
    );
    assert_plan_written(&out, &out_path, "nan-grad");
    assert!(
        stderr_of(&out).contains("chaos: nan-grad fired 1x"),
        "stderr: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_injection_still_plans() {
    let dir = tmp_dir("deadline");
    let out_path = dir.join("plan.json");
    let out = run(
        &plan_args(out_path.to_str().unwrap(), &[]),
        Some("deadline@0"),
    );
    assert_plan_written(&out, &out_path, "deadline");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_write_is_survived() {
    let dir = tmp_dir("truncate");
    let ckpt = dir.join("ckpt");
    let first_path = dir.join("first.json");
    let resumed_path = dir.join("resumed.json");
    // The torn record (injected via the --chaos flag rather than the env
    // var, to exercise that path too) must not affect the run itself...
    let out = run(
        &plan_args(
            first_path.to_str().unwrap(),
            &[
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--chaos",
                "truncate-checkpoint@2",
            ],
        ),
        None,
    );
    assert_plan_written(&out, &first_path, "truncate-checkpoint");
    // ...and a resume over the torn file must drop the tail, replay from
    // the last intact record and still land on the identical plan.
    let out = run(
        &plan_args(
            resumed_path.to_str().unwrap(),
            &["--checkpoint-dir", ckpt.to_str().unwrap(), "--resume"],
        ),
        None,
    );
    assert_plan_written(&out, &resumed_path, "resume over torn checkpoint");
    assert_eq!(
        std::fs::read_to_string(&first_path).unwrap(),
        std::fs::read_to_string(&resumed_path).unwrap(),
        "resume over a torn checkpoint must reproduce the plan exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the planner after epoch 2 via the chaos plan, resume from the
/// checkpoint, and require the resumed output to be byte-identical to an
/// uninterrupted run without any checkpointing at all.
fn kill_and_resume_round_trip(workers: Option<&str>, tag: &str) {
    let dir = tmp_dir(tag);
    let ckpt = dir.join("ckpt");
    let full_path = dir.join("full.json");
    let resumed_path = dir.join("resumed.json");
    let worker_flags: Vec<&str> = match workers {
        Some(n) => vec!["--workers", n],
        None => vec![],
    };

    // Uninterrupted reference run (no checkpointing).
    let out = run(&plan_args(full_path.to_str().unwrap(), &worker_flags), None);
    assert_plan_written(&out, &full_path, "uninterrupted reference");

    // Killed run: the injected kill panics after epoch 2's checkpoint.
    let mut kill_flags = worker_flags.clone();
    kill_flags.extend_from_slice(&["--checkpoint-dir", ckpt.to_str().unwrap()]);
    let out = run(
        &plan_args(dir.join("never.json").to_str().unwrap(), &kill_flags),
        Some("kill@2"),
    );
    assert!(
        !out.status.success(),
        "the injected kill must abort the run"
    );
    assert!(
        stderr_of(&out).contains("chaos: injected kill"),
        "stderr: {}",
        stderr_of(&out)
    );
    assert!(
        !dir.join("never.json").exists(),
        "the killed run must not have produced a plan"
    );

    // Resumed run: continue from the checkpoint, no chaos.
    let mut resume_flags = worker_flags.clone();
    resume_flags.extend_from_slice(&["--checkpoint-dir", ckpt.to_str().unwrap(), "--resume"]);
    let out = run(
        &plan_args(resumed_path.to_str().unwrap(), &resume_flags),
        None,
    );
    assert_plan_written(&out, &resumed_path, "resumed run");
    assert_eq!(
        std::fs::read_to_string(&full_path).unwrap(),
        std::fs::read_to_string(&resumed_path).unwrap(),
        "kill-and-resume must be bit-identical to the uninterrupted run ({tag})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_bit_identical_serial() {
    kill_and_resume_round_trip(Some("1"), "kill-1w");
}

#[test]
fn kill_and_resume_is_bit_identical_at_four_workers() {
    kill_and_resume_round_trip(Some("4"), "kill-4w");
}

#[test]
fn resume_under_a_different_config_starts_fresh() {
    use neuroplan::{NeuroPlan, NeuroPlanConfig};
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    let dir = tmp_dir("foreign-resume");
    let net = GeneratorConfig::preset(TopologyPreset::A).generate();
    let seed1 = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(1))
        .with_checkpoint(&dir, false)
        .plan(&net);
    // Same directory, different seed: the fingerprint mismatch must
    // discard the checkpoint instead of splicing two runs together.
    let spliced = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(2))
        .with_checkpoint(&dir, true)
        .plan(&net);
    let clean = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(2)).plan(&net);
    assert_eq!(spliced.final_units, clean.final_units);
    assert_eq!(
        spliced.final_cost.to_bits(),
        clean.final_cost.to_bits(),
        "a foreign checkpoint must not leak into the run"
    );
    // And a same-config resume of the now-finished run short-circuits to
    // the recorded result without retraining.
    let resumed = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(2))
        .with_checkpoint(&dir, true)
        .plan(&net);
    assert_eq!(resumed.final_units, spliced.final_units);
    assert_eq!(
        resumed.train_report.epochs_run(),
        spliced.train_report.epochs_run(),
        "the recorded epoch stats are reassembled on resume"
    );
    assert_eq!(
        resumed.eval_stats.scenario_checks, 0,
        "a finished run resumes without re-evaluating anything"
    );
    drop(seed1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `plan_args` with `--alpha`, a telemetry file and the checkpoint flags.
fn alpha_args<'a>(out: &'a str, alpha: &'a str, tel: &'a str, ckpt: &[&'a str]) -> Vec<&'a str> {
    let mut args = plan_args(out, &["--alpha", alpha, "--telemetry", tel]);
    args.extend_from_slice(ckpt);
    args
}

/// Whether the run whose telemetry is at `tel` trained at all.
fn trained(tel: &Path) -> bool {
    logged(tel, r#""sys":"rl","event":"counter","name":"epochs""#)
}

fn logged(tel: &Path, what: &str) -> bool {
    std::fs::read_to_string(tel)
        .expect("telemetry file")
        .contains(what)
}

/// A finished α = 1.5 chain resumed at α = 1.25 keeps its training and
/// re-runs the second stage only — through a kill at the `master`
/// boundary too — and lands on the uninterrupted α = 1.25 plan.
#[test]
fn resume_under_a_new_alpha_keeps_the_first_stage() {
    let dir = tmp_dir("alpha-resume");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (ckpt, tel) = (path("ckpt"), path("t.jsonl"));
    let resume = ["--checkpoint-dir", ckpt.as_str(), "--resume"];

    let out = run(
        &alpha_args(&path("a15.json"), "1.5", &tel, &resume[..2]),
        None,
    );
    assert_plan_written(&out, &dir.join("a15.json"), "alpha 1.5");
    assert!(trained(Path::new(&tel)));

    // What a chain restart killed part-way leaves behind: the old chain
    // whole, the beginning of the new one beside it.
    let stale = dir.join("ckpt").join("checkpoint.jsonl.next");
    let whole = std::fs::read(dir.join("ckpt").join("checkpoint.jsonl")).unwrap();
    std::fs::write(&stale, &whole[..whole.len() / 3]).unwrap();

    // No first stage runs, so the first stage boundary is the master's.
    let never = path("never.json");
    let out = run(&alpha_args(&never, "1.25", &tel, &resume), Some("kill@0"));
    assert!(!out.status.success() && !Path::new(&never).exists());
    assert!(!stale.exists(), "the restart that completed replaced it");
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("first stage resumed from checkpoint: only second-stage settings changed")
            && stderr.contains("chaos: injected kill at stage master")
            && !stderr.contains("starting fresh"),
        "stderr: {stderr}"
    );

    let out = run(
        &alpha_args(&path("resumed.json"), "1.25", &tel, &resume),
        None,
    );
    assert_plan_written(&out, &dir.join("resumed.json"), "resumed at alpha 1.25");
    assert!(!trained(Path::new(&tel)), "the resume must not retrain");
    // ...and must not pass the alpha 1.5 master off as this run's either
    // (at this seed both alphas reach the same optimum).
    assert!(logged(Path::new(&tel), r#""name":"second_stage""#));
    assert!(!stderr_of(&out).contains("starting fresh"));

    let out = run(&alpha_args(&path("full.json"), "1.25", &tel, &[]), None);
    assert_plan_written(&out, &dir.join("full.json"), "uninterrupted alpha 1.25");
    assert_eq!(
        std::fs::read_to_string(dir.join("full.json")).unwrap(),
        std::fs::read_to_string(dir.join("resumed.json")).unwrap(),
        "a reused first stage must give the from-scratch plan byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chain written before `meta` carried the first-stage key resumes on
/// an exact fingerprint match and is discarded on anything else.
#[test]
fn a_chain_without_the_first_stage_key_resumes_only_on_its_fingerprint() {
    use neuroplan::checkpoint::Meta;
    use np_chaos::checkpoint::Chain;
    let dir = tmp_dir("legacy-meta");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (ckpt, tel) = (path("ckpt"), path("t.jsonl"));
    let resume = ["--checkpoint-dir", ckpt.as_str(), "--resume"];
    let out = run(
        &alpha_args(&path("a15.json"), "1.5", &tel, &resume[..2]),
        None,
    );
    assert_plan_written(&out, &dir.join("a15.json"), "alpha 1.5");

    // Strip `fs` from the meta record, as an older binary wrote it.
    let chaos = np_chaos::Chaos::disabled();
    let file = dir.join("ckpt").join("checkpoint.jsonl");
    let chain = Chain::new(&file, &chaos);
    let mut records = chain.read();
    let meta: Meta = records[0].decode().expect("meta first");
    assert!(meta.fs.starts_with("fs-"));
    let serde_json::Value::Object(members) = &mut records[0].body else {
        panic!("a record body is an object");
    };
    members.retain(|(key, _)| key != "fs");
    chain.restart(records).unwrap();

    let out = run(&alpha_args(&path("same.json"), "1.5", &tel, &resume), None);
    assert_plan_written(&out, &dir.join("same.json"), "legacy chain, same config");
    assert!(!trained(Path::new(&tel)) && !stderr_of(&out).contains("starting fresh"));
    assert_eq!(
        std::fs::read_to_string(dir.join("a15.json")).unwrap(),
        std::fs::read_to_string(dir.join("same.json")).unwrap()
    );

    let out = run(
        &alpha_args(&path("other.json"), "1.25", &tel, &resume),
        None,
    );
    assert_plan_written(&out, &dir.join("other.json"), "legacy chain, new alpha");
    assert!(trained(Path::new(&tel)) && stderr_of(&out).contains("starting fresh"));
    let out = run(&alpha_args(&path("full.json"), "1.25", &tel, &[]), None);
    assert_plan_written(&out, &dir.join("full.json"), "uninterrupted alpha 1.25");
    assert_eq!(
        std::fs::read_to_string(dir.join("full.json")).unwrap(),
        std::fs::read_to_string(dir.join("other.json")).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chain the daemon seeds for a reused first stage — `meta` +
/// `first_stage` — skips training; with a bit of the `first_stage`
/// record flipped, the checksum drops it and the run trains. Same plan
/// both ways.
#[test]
fn a_corrupt_seeded_first_stage_is_dropped_and_the_run_trains() {
    use neuroplan::{checkpoint, NeuroPlan, NeuroPlanConfig};
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    let dir = tmp_dir("seeded");
    let net = GeneratorConfig::preset(TopologyPreset::A).generate();
    let at = |alpha: f64| {
        let mut cfg = NeuroPlanConfig::quick().with_seed(5);
        cfg.relax_factor = alpha;
        cfg
    };
    let donor = NeuroPlan::new(at(1.5)).plan(&net);
    let clean = NeuroPlan::new(at(1.25)).plan(&net);
    let (fp, key) = (
        checkpoint::fingerprint(&net, &at(1.25)),
        checkpoint::first_stage_key(&net, &at(1.25)),
    );
    assert_eq!(key, checkpoint::first_stage_key(&net, &at(1.5)));
    for flip in [false, true] {
        let ckpt = dir.join(format!("flip-{flip}"));
        let planner = NeuroPlan::new(at(1.25)).with_checkpoint(&ckpt, true);
        let first = donor.first_stage();
        assert!(planner.seed_first_stage(&fp, &key, first.clone()));
        assert!(
            !planner.seed_first_stage(&fp, &key, first),
            "never over a chain"
        );
        if flip {
            let chain = ckpt.join("checkpoint.jsonl");
            let mut bytes = std::fs::read(&chain).unwrap();
            let at = bytes.len() - 40;
            bytes[at] ^= 1;
            std::fs::write(&chain, bytes).unwrap();
        }
        let got = planner.plan(&net);
        assert_eq!(
            got.train_report.epochs_run() > 0,
            flip,
            "trains iff dropped"
        );
        assert_eq!(got.final_units, clean.final_units, "flip {flip}");
        assert_eq!(got.final_cost.to_bits(), clean.final_cost.to_bits());
        assert_eq!(got.quality, clean.quality);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One flipped bit in one record of each kind of a real chain: the
/// checksum drops that record and everything after it, the resume redoes
/// what was dropped, and the plan is the uninterrupted one. The
/// positions are seeded (FNV of the kind), not searched for.
#[test]
fn one_flipped_bit_per_record_kind_resumes_to_the_uninterrupted_plan() {
    use neuroplan::{NeuroPlan, NeuroPlanConfig, ReplanConfig};
    use np_chaos::checkpoint::{fnv1a64, Chain};
    use np_topology::generator::GeneratorConfig;

    /// Flip one bit inside the middle record of `kind` in `file`.
    fn flip(file: &Path, kind: &str) {
        let chain = Chain::new(file, np_chaos::global()).read();
        let of_kind: Vec<usize> = (0..chain.len())
            .filter(|&i| chain[i].kind == kind)
            .collect();
        let line = of_kind[of_kind.len() / 2];
        let mut bytes = std::fs::read(file).unwrap();
        let starts: Vec<usize> = std::iter::once(0)
            .chain(
                (0..bytes.len())
                    .filter(|&i| bytes[i] == b'\n')
                    .map(|i| i + 1),
            )
            .collect();
        let len = starts[line + 1] - starts[line] - 1;
        let seed = fnv1a64(kind.as_bytes());
        bytes[starts[line] + (seed % len as u64) as usize] ^= 1 << ((seed >> 32) % 8);
        std::fs::write(file, bytes).unwrap();
        let kept = Chain::new(file, np_chaos::global()).read().len();
        assert_eq!(kept, line, "{kind}: the chain now ends before the flip");
    }

    let dir = tmp_dir("flips");
    let net = GeneratorConfig::a_variant(0.5).generate();
    let planner = |ckpt: &Path| {
        NeuroPlan::new(NeuroPlanConfig::quick().with_seed(5)).with_checkpoint(ckpt, true)
    };
    let events = np_churn::generate_stream(&net, 5, 4);
    let rcfg = ReplanConfig::default();
    let clean_dir = dir.join("clean");
    let clean = planner(&clean_dir)
        .replan(&net, &events, &rcfg)
        .expect("uninterrupted");
    for (file, kind) in [
        ("checkpoint.jsonl", "meta"),
        ("checkpoint.jsonl", "epoch"),
        ("checkpoint.jsonl", "first_stage"),
        ("checkpoint.jsonl", "master"),
        ("replan.jsonl", "replan_meta"),
        ("replan.jsonl", "replan_event"),
    ] {
        let ckpt = dir.join(kind);
        std::fs::create_dir_all(&ckpt).unwrap();
        for name in ["checkpoint.jsonl", "replan.jsonl"] {
            std::fs::copy(clean_dir.join(name), ckpt.join(name)).unwrap();
        }
        flip(&ckpt.join(file), kind);
        let got = planner(&ckpt)
            .replan(&net, &events, &rcfg)
            .expect("resumed");
        assert_eq!(got.final_units, clean.final_units, "{kind}");
        assert_eq!(
            got.final_cost.to_bits(),
            clean.final_cost.to_bits(),
            "{kind}"
        );
        let costs = |r: &neuroplan::ReplanReport| -> Vec<u64> {
            r.events.iter().map(|e| e.cost.to_bits()).collect()
        };
        assert_eq!(costs(&got), costs(&clean), "{kind}");
        let want = match kind {
            "replan_meta" => 0,
            "replan_event" => events.len() / 2,
            _ => events.len(),
        };
        assert_eq!(got.resumed, want, "{kind}: events restored, not re-solved");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
