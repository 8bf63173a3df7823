//! Supervisor × chaos composition suite (DESIGN.md §11).
//!
//! The anytime supervisor must compose with np-chaos and with
//! checkpoint/resume: a kill or deadline injected at a stage boundary
//! still yields a validated feasible plan (or, for kills, a resumable
//! checkpoint), the reported `PlanQuality` matches the injected
//! scenario, and results stay bit-identical across worker counts and
//! across kill-and-resume.
//!
//! Chaos deadlines (occurrence-counted, fired at deterministic serial
//! boundaries) stand in for real wall-clock budgets — a tight real
//! budget would make the cut point scheduling-dependent and the asserts
//! flaky. Real budgets are exercised with generous values that the run
//! fits inside, which must leave the plan untouched.
//!
//! Deadline occurrence map (with `--max-retries 0`, so each supervised
//! stage makes exactly one attempt): occurrence 0 is the master stage's
//! budget pre-check, 1 is the LP-rounding rung's pre-check, 2 is the
//! polish stage's pre-check. `deadline@0` therefore exhausts exactly
//! the MILP rung, `deadline@0-1` exhausts MILP + rounding, and
//! `deadline@0-2` additionally skips the polish so the heuristic plan
//! ships verbatim.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_neuroplan")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-sup-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
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

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn plan_args<'a>(out: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "plan", "--preset", "a", "--quick", "--seed", "5", "--out", out,
    ];
    args.extend_from_slice(extra);
    args
}

/// Exit 0, plan file written, validated by the CLI, and the emitted
/// quality matches `want` (when given). Returns the plan JSON.
fn assert_quality(out: &Output, plan_path: &Path, want: Option<&str>, ctx: &str) -> String {
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
    let quality = v
        .get("quality")
        .and_then(|q| q.as_str())
        .expect("quality field");
    if let Some(want) = want {
        assert_eq!(quality, want, "{ctx}: wrong quality\n{}", stderr_of(out));
    }
    body
}

/// A generous real per-stage budget changes nothing: the run finishes
/// every stage inside it, reports its usual quality, and exits 0 — the
/// "any per-stage budget ≥ 1s still exits 0 with a valid plan"
/// acceptance bar, with margin for slow CI machines.
#[test]
fn generous_stage_budget_is_invisible() {
    let dir = tmp_dir("budget");
    let reference = dir.join("ref.json");
    let budgeted = dir.join("budgeted.json");
    let out = run(&plan_args(reference.to_str().unwrap(), &[]), None);
    let ref_body = assert_quality(&out, &reference, None, "no budget");
    let out = run(
        &plan_args(budgeted.to_str().unwrap(), &["--stage-budget", "600"]),
        None,
    );
    let got_body = assert_quality(&out, &budgeted, None, "600s budget");
    assert_eq!(
        ref_body, got_body,
        "a budget the run fits inside must not change the plan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transient exhaustion of the master stage retries and recovers: the
/// default retry policy absorbs a single injected deadline without
/// degrading at all.
#[test]
fn master_retry_absorbs_a_single_deadline() {
    let dir = tmp_dir("retry");
    let reference = dir.join("ref.json");
    let retried = dir.join("retried.json");
    let out = run(&plan_args(reference.to_str().unwrap(), &[]), None);
    let ref_body = assert_quality(&out, &reference, None, "no chaos");
    // Occurrence 0 exhausts the master's first attempt; the retry's
    // pre-check (occurrence 1) is clean and the solve proceeds.
    let out = run(
        &plan_args(retried.to_str().unwrap(), &[]),
        Some("deadline@0"),
    );
    let got_body = assert_quality(&out, &retried, None, "deadline@0 retried");
    let err = stderr_of(&out);
    assert!(err.contains("1 retries"), "retry must be reported: {err}");
    assert!(err.contains("0 degrades"), "no rung was skipped: {err}");
    assert_eq!(
        ref_body, got_body,
        "a retried master lands on the same plan as an undisturbed run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadline at the master boundary with retries off: the ladder steps
/// down to LP rounding, the degraded plan validates, and the result is
/// bit-identical at 1 and 4 workers — the chaos deadline fires at an
/// occurrence-counted serial boundary, never a wall-clock one.
#[test]
fn deadline_at_master_boundary_degrades_identically_across_workers() {
    let dir = tmp_dir("deadline-master");
    let mut bodies = Vec::new();
    for workers in ["1", "4"] {
        let path = dir.join(format!("plan-{workers}.json"));
        let out = run(
            &plan_args(
                path.to_str().unwrap(),
                &["--max-retries", "0", "--workers", workers],
            ),
            Some("deadline@0"),
        );
        let body = assert_quality(
            &out,
            &path,
            Some("rounded"),
            &format!("deadline@master, {workers}w"),
        );
        assert!(
            stderr_of(&out).contains("1 degrades"),
            "one rung was skipped: {}",
            stderr_of(&out)
        );
        bodies.push(body);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "the degraded plan must be bit-identical across worker counts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadlines at the master, LP-rounding *and* polish boundaries: the
/// ladder bottoms out at the heuristic rung, which ships the feasible
/// first-stage plan verbatim.
#[test]
fn deadline_at_every_rung_falls_back_to_the_heuristic_plan() {
    let dir = tmp_dir("deadline-all");
    let path = dir.join("plan.json");
    let out = run(
        &plan_args(path.to_str().unwrap(), &["--max-retries", "0"]),
        Some("deadline@0-2"),
    );
    let body = assert_quality(&out, &path, Some("heuristic"), "deadline@0-2");
    assert!(
        stderr_of(&out).contains("2 degrades"),
        "both rungs were skipped: {}",
        stderr_of(&out)
    );
    let v: serde_json::Value = serde_json::from_str(&body).expect("plan JSON");
    let cost = v["cost"].as_f64().unwrap();
    let first = v["first_stage_cost"].as_f64().unwrap();
    assert_eq!(
        cost.to_bits(),
        first.to_bits(),
        "the heuristic rung returns the first-stage plan itself"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--no-degrade` turns the same injected exhaustion into a clean
/// nonzero exit instead of a silent fallback.
#[test]
fn no_degrade_fails_loudly_instead_of_falling_back() {
    let dir = tmp_dir("no-degrade");
    let path = dir.join("plan.json");
    let out = run(
        &plan_args(
            path.to_str().unwrap(),
            &["--max-retries", "0", "--no-degrade"],
        ),
        Some("deadline@0"),
    );
    assert!(
        !out.status.success(),
        "with --no-degrade an exhausted master must be an error"
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("plan failed") && err.contains("master"),
        "the error names the exhausted stage: {err}"
    );
    assert!(!path.exists(), "no plan may be written on failure");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill at a supervised stage boundary: the process must abort on
/// `stage`'s boundary, and a resume from the checkpoint must land
/// bit-identical to an uninterrupted run.
fn kill_at_stage_boundary_round_trip(workers: &str, kill_spec: &str, stage: &str, tag: &str) {
    let dir = tmp_dir(tag);
    let ckpt = dir.join("ckpt");
    let full = dir.join("full.json");
    let resumed = dir.join("resumed.json");

    let worker_flags = ["--workers", workers];
    let out = run(&plan_args(full.to_str().unwrap(), &worker_flags), None);
    assert_quality(&out, &full, None, "uninterrupted reference");

    let mut kill_flags = worker_flags.to_vec();
    kill_flags.extend_from_slice(&["--checkpoint-dir", ckpt.to_str().unwrap()]);
    let out = run(
        &plan_args(dir.join("never.json").to_str().unwrap(), &kill_flags),
        Some(kill_spec),
    );
    assert!(!out.status.success(), "{tag}: the kill must abort the run");
    assert!(
        stderr_of(&out).contains(&format!("chaos: injected kill at stage {stage}")),
        "{tag}: the kill must land on the {stage} boundary, stderr: {}",
        stderr_of(&out)
    );

    let mut resume_flags = worker_flags.to_vec();
    resume_flags.extend_from_slice(&["--checkpoint-dir", ckpt.to_str().unwrap(), "--resume"]);
    let out = run(&plan_args(resumed.to_str().unwrap(), &resume_flags), None);
    assert_quality(&out, &resumed, None, &format!("{tag}: resumed run"));
    assert_eq!(
        std::fs::read_to_string(&full).unwrap(),
        std::fs::read_to_string(&resumed).unwrap(),
        "{tag}: kill-and-resume must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// Kill occurrence 0 is the first_stage boundary (before any training);
// occurrences 1..=E land after each completed epoch, and the next two
// land on the master and polish stage boundaries. The seed-5 quick run
// loses to greedy and stops once 384 env steps have run (DESIGN.md §11),
// after its first 384-step epoch. So occurrence E + 1 = 2 is the master
// boundary.

#[test]
fn kill_at_the_first_stage_boundary_resumes_bit_identically() {
    kill_at_stage_boundary_round_trip("1", "kill@0", "first_stage", "kill-first-1w");
}

#[test]
fn kill_at_the_first_stage_boundary_resumes_bit_identically_at_four_workers() {
    kill_at_stage_boundary_round_trip("4", "kill@0", "first_stage", "kill-first-4w");
}

#[test]
fn kill_at_the_master_boundary_resumes_bit_identically() {
    kill_at_stage_boundary_round_trip("1", "kill@2-99", "master", "kill-master-1w");
}

/// A finished checkpointed run whose second stage degraded must resume
/// straight to the *recorded* quality — the ladder decision is part of
/// the checkpoint, not re-derived.
#[test]
fn degraded_quality_survives_a_finished_run_resume() {
    let dir = tmp_dir("degrade-resume");
    let ckpt = dir.join("ckpt");
    let first = dir.join("first.json");
    let resumed = dir.join("resumed.json");
    // The supervisor knobs are part of the checkpoint fingerprint, so
    // the resume must run under the same --max-retries.
    let flags = [
        "--max-retries",
        "0",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
    ];
    let out = run(
        &plan_args(first.to_str().unwrap(), &flags),
        Some("deadline@0"),
    );
    assert_quality(&out, &first, Some("rounded"), "degraded checkpointed run");
    // Resume with no chaos installed: the recorded rung must come back.
    let mut resume_flags = flags.to_vec();
    resume_flags.push("--resume");
    let out = run(&plan_args(resumed.to_str().unwrap(), &resume_flags), None);
    assert_quality(&out, &resumed, Some("rounded"), "resumed degraded run");
    assert_eq!(
        std::fs::read_to_string(&first).unwrap(),
        std::fs::read_to_string(&resumed).unwrap(),
        "a finished-run resume reproduces the degraded plan bit for bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every non-kill fault class, injected while a real (generous) stage
/// budget is active: budgets and fault recovery must compose.
#[test]
fn faults_under_an_active_budget_still_plan() {
    for (spec, tag) in [
        ("lp-singular@0-9", "lp-singular"),
        ("nan-grad@1", "nan-grad"),
        ("pool-panic@0-2", "pool-panic"),
    ] {
        let dir = tmp_dir(&format!("budget-{tag}"));
        let path = dir.join("plan.json");
        let out = run(
            &plan_args(
                path.to_str().unwrap(),
                &["--stage-budget", "600", "--workers", "2"],
            ),
            Some(spec),
        );
        assert_quality(&out, &path, None, tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
