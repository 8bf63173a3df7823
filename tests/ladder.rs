//! The one degradation ladder under both of its callers (DESIGN.md §11):
//! `NeuroPlan::try_plan` (`master` / `lp_round` / `heuristic`, then the
//! caller's own `polish` stage) and `NeuroPlan::replan_from`
//! (`replan_master` / `replan_lp_round` / `replan_heuristic`).
//!
//! Every cost, unit vector and stage trace in the table was recorded on
//! the commit *before* the two hand-written copies of the ladder became
//! one function, so the merge is pinned bit for bit: the stage labels,
//! the attempt and degrade counts, the chaos occurrence each budget
//! pre-check consumes, and the plan each rung ships. The rows were
//! recorded at budgets smaller than `quick()`'s, written out field by
//! field in `cfg`. `NP_EQUIV_WORKERS=<n>`
//! runs every row on `n` workers (CI's `equivalence-4w` sets 4); the
//! worker count is a thread budget only, so the expectations are the
//! same either way.

use neuroplan::checkpoint::MasterRecord;
use neuroplan::{
    validate_plan, NeuroPlan, NeuroPlanConfig, NeuroPlanResult, PlanFailure, PlanQuality,
    ReplanConfig, SupervisionReport,
};
use np_chaos::checkpoint::{f64_to_hex, Chain};
use np_chaos::{CancelToken, FaultPlan};
use np_churn::ChurnEvent;
use np_telemetry::Telemetry;
use np_topology::generator::GeneratorConfig;
use np_topology::Network;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

fn tier_a() -> Network {
    GeneratorConfig::a_variant(0.5).generate()
}

fn cfg() -> NeuroPlanConfig {
    let mut cfg = NeuroPlanConfig::quick();
    cfg.train.epochs = 5;
    cfg.train.steps_per_epoch = 128;
    cfg.train.max_traj_len = 96;
    cfg.final_rollouts = 2;
    let cfg = cfg.with_seed(1);
    match std::env::var("NP_EQUIV_WORKERS") {
        Ok(v) => cfg.with_workers(v.parse().expect("NP_EQUIV_WORKERS is a count")),
        Err(_) => cfg,
    }
}

fn no_nodes(mut cfg: NeuroPlanConfig) -> NeuroPlanConfig {
    cfg.supervisor.budget.max_nodes = Some(0);
    cfg
}

/// The greedy reference plan of [`tier_a`]: what `replan_from` carries
/// in, and (five quick epochs never beat it) the first-stage plan too.
const GREEDY: [u32; 18] = [10, 8, 1, 1, 1, 3, 5, 8, 3, 3, 1, 1, 0, 0, 0, 6, 0, 1];
const GREEDY_COST: &str = "0467184004649440";
/// The α-box optimum around [`GREEDY`].
const PLANNED: [u32; 18] = [10, 9, 1, 0, 0, 3, 5, 8, 3, 3, 1, 1, 0, 0, 0, 6, 0, 0];
const PLANNED_COST: &str = "dafee66607e39240";
/// The optimum once every demand has grown by 1.3.
const SURGED: [u32; 18] = [13, 11, 2, 0, 0, 3, 7, 11, 4, 3, 2, 3, 0, 0, 0, 6, 0, 0];
const SURGED_COST: &str = "f7ea0455a8ae9e40";

/// What a row must produce: the rung, `f64_to_hex` of the cost, the
/// units and the [`trace`] — or the stage that gave out and a phrase its
/// message must contain.
type Want =
    Result<(PlanQuality, &'static str, [u32; 18], &'static str), (&'static str, &'static str)>;

/// `stage(attempts/retries[,failed][,skipped])` per supervised
/// stage in execution order, then the degrade count: everything in a
/// [`SupervisionReport`] except the wall times.
fn trace(report: &SupervisionReport) -> String {
    let stages: Vec<String> = report
        .stages
        .iter()
        .map(|s| {
            let failed = if s.failed { ",failed" } else { "" };
            let skipped = if s.skipped { ",skipped" } else { "" };
            format!("{}({}/{}{failed}{skipped})", s.stage, s.attempts, s.retries)
        })
        .collect();
    format!("{}; {} degrades", stages.join(" "), report.degrades)
}

type Got<'a> = Result<(PlanQuality, f64, &'a [u32], &'a SupervisionReport), &'a PlanFailure>;

fn check(row: &str, got: Got<'_>, want: &Want) {
    match (got, want) {
        (
            Ok((quality, cost, units, report)),
            Ok((want_quality, want_cost, want_units, want_trace)),
        ) => {
            assert_eq!(quality, *want_quality, "{row}: rung");
            assert_eq!(units, want_units, "{row}: units");
            assert_eq!(f64_to_hex(cost), *want_cost, "{row}: cost bits ({cost})");
            assert_eq!(trace(report), *want_trace, "{row}: stage trace");
        }
        (Err(PlanFailure::StageExhausted { stage, .. }), Err((want_stage, phrase))) => {
            assert_eq!(stage, want_stage, "{row}: stage that gave out");
            let message = got.unwrap_err().to_string();
            assert!(
                message.contains(phrase),
                "{row}: `{message}` lacks `{phrase}`"
            );
            // One cause per message: what `no_degrade` forbids is not
            // what an exhausted ladder ran out of.
            let other = ["no_degrade", "no lower rung"]
                .into_iter()
                .find(|p| p != phrase)
                .expect("two phrases");
            assert!(
                !message.contains(other),
                "{row}: `{message}` also says `{other}`"
            );
        }
        (got, want) => panic!(
            "{row}: got {:?}, want {want:?}",
            got.map(|(q, c, u, r)| (q, c, u, trace(r)))
        ),
    }
}

// ---- try_plan ----------------------------------------------------------

/// The two `plan` rows that need a fault plan. With a verified plan to
/// warm-start from, the master fails only at its budget pre-check, and
/// a wall budget that fails it fails the rounding rung too — so
/// `Rounded` is reached with a chaos deadline at the master's pre-check
/// and retries off, and a retried master with the same deadline and
/// retries on. The pre-checks are the only deadline trigger points a
/// degraded run touches: the first run consumes occurrences 0 (master,
/// fires), 1 (rounding) and 2 (polish), so the second run's first
/// master attempt is occurrence 3.
///
/// The fault plan is process-global and occurrence-counted, so these
/// runs must own the first occurrences: every test of this file calls
/// this before anything else and the `OnceLock` makes the others wait.
fn chaos_rows() -> &'static [Result<NeuroPlanResult, PlanFailure>; 2] {
    static ROWS: OnceLock<[Result<NeuroPlanResult, PlanFailure>; 2]> = OnceLock::new();
    ROWS.get_or_init(|| {
        let plan = FaultPlan::parse("deadline@0,deadline@3").expect("valid fault plan");
        assert!(
            np_chaos::install(plan),
            "nothing may touch the chaos handle before these rows"
        );
        let net = tier_a();
        [
            NeuroPlan::new(cfg().with_max_retries(0)).try_plan(&net),
            NeuroPlan::new(cfg()).try_plan(&net),
        ]
    })
}

#[test]
fn plan_walks_the_recorded_rungs() {
    let [rounded, retried] = chaos_rows().clone();
    let net = tier_a();
    let rows: [(&str, Result<NeuroPlanResult, PlanFailure>, Want); 6] = [
        (
            "plan, deadline at the master",
            rounded,
            Ok((
                PlanQuality::Rounded,
                PLANNED_COST,
                PLANNED,
                "first_stage(1/0) master(1/0,failed) lp_round(1/0) polish(1/0); \
                 1 degrades",
            )),
        ),
        (
            "plan, deadline absorbed by a retry",
            retried,
            Ok((
                PlanQuality::Optimal,
                PLANNED_COST,
                PLANNED,
                "first_stage(1/0) master(2/1) polish(1/0); 0 degrades",
            )),
        ),
        (
            "plan, unlimited",
            NeuroPlan::new(cfg()).try_plan(&net),
            Ok((
                PlanQuality::Optimal,
                PLANNED_COST,
                PLANNED,
                "first_stage(1/0) master(1/0) polish(1/0); 0 degrades",
            )),
        ),
        (
            // The master hands back its polished warm plan: a limit with
            // an incumbent is rung 1, not a failure.
            "plan, no nodes",
            NeuroPlan::new(no_nodes(cfg())).try_plan(&net),
            Ok((
                PlanQuality::Incumbent,
                "7860c86fcc4c9340",
                [10, 8, 1, 0, 0, 3, 5, 8, 3, 3, 1, 1, 0, 0, 0, 6, 0, 1],
                "first_stage(1/0) master(1/0) polish(1/0); 0 degrades",
            )),
        ),
        (
            "plan, no wall",
            NeuroPlan::new(cfg().with_stage_budget(0.0)).try_plan(&net),
            Ok((
                PlanQuality::Heuristic,
                GREEDY_COST,
                GREEDY,
                "first_stage(1/0) master(1/0,failed) lp_round(1/0,failed) \
                 heuristic(0/0,skipped) polish(1/0); 2 degrades",
            )),
        ),
        (
            "plan, no wall, no_degrade",
            NeuroPlan::new(cfg().with_stage_budget(0.0).with_degrade(false)).try_plan(&net),
            Err(("master", "no_degrade")),
        ),
    ];
    for (row, outcome, want) in &rows {
        if let Ok(result) = outcome {
            validate_plan(&net, &result.final_units)
                .unwrap_or_else(|e| panic!("{row}: plan does not validate: {e}"));
        }
        let got = outcome
            .as_ref()
            .map(|r| (r.quality, r.final_cost, &r.final_units[..], &r.supervision));
        check(row, got, want);
    }
}

// ---- replan_from -------------------------------------------------------

#[test]
fn replan_walks_the_recorded_rungs() {
    chaos_rows();
    let net = tier_a();
    let prune = ReplanConfig {
        prune_alpha: Some(1.0),
        ..ReplanConfig::default()
    };
    // (row, config, the one event, knobs, prune fallbacks, expectation)
    let rows: [(&str, NeuroPlanConfig, &str, ReplanConfig, u64, Want); 6] = [
        (
            "replan, unlimited",
            cfg(),
            "demand-scale:1.3",
            ReplanConfig::default(),
            0,
            Ok((
                PlanQuality::Optimal,
                SURGED_COST,
                SURGED,
                "replan_master(1/0); 0 degrades",
            )),
        ),
        (
            // The α = 1 box around a plan the surge broke holds no
            // feasible point: one retry in spectrum bounds, same optimum.
            "replan, pruned to an infeasible box",
            cfg(),
            "demand-scale:1.3",
            prune,
            1,
            Ok((
                PlanQuality::Optimal,
                SURGED_COST,
                SURGED,
                "replan_master(1/0,failed) replan_master(1/0); 0 degrades",
            )),
        ),
        (
            // No verified plan to warm-start from and no nodes: three
            // empty-handed attempts, then the rounding rung. The plan it
            // rounds is the relaxation under the separator's cuts, so it
            // is the one row that moves with which cut a scenario
            // certifies: re-recorded (2162.25 → 2116.24) when a built path
            // LP began to answer in place of the fine MWU pass, and again
            // (→ 1963.66, the optimum itself) when the separator began to
            // round coarse misses to node cuts.
            "replan, no nodes",
            no_nodes(cfg()),
            "demand-scale:1.3",
            ReplanConfig::default(),
            0,
            Ok((
                PlanQuality::Rounded,
                SURGED_COST,
                SURGED,
                "replan_master(3/2,failed) replan_lp_round(1/0); 1 degrades",
            )),
        ),
        (
            "replan, no wall, carried plan verifies",
            cfg().with_stage_budget(0.0),
            "demand-scale:0.9",
            ReplanConfig::default(),
            0,
            Ok((
                PlanQuality::Heuristic,
                GREEDY_COST,
                GREEDY,
                "replan_master(1/0,failed) replan_lp_round(1/0,failed) \
                 replan_heuristic(0/0,skipped); 2 degrades",
            )),
        ),
        (
            "replan, no wall, carried plan broken",
            cfg().with_stage_budget(0.0),
            "demand-scale:1.3",
            ReplanConfig::default(),
            0,
            Err(("replan_master", "no lower rung")),
        ),
        (
            "replan, no wall, no_degrade",
            cfg().with_stage_budget(0.0).with_degrade(false),
            "demand-scale:0.9",
            ReplanConfig::default(),
            0,
            Err(("replan_master", "no_degrade")),
        ),
    ];
    for (row, cfg, event, rcfg, fallbacks, want) in rows {
        let tel = Telemetry::memory();
        let events = [ChurnEvent::parse(event).expect("valid event")];
        let outcome =
            NeuroPlan::with_telemetry(cfg, tel.clone()).replan_from(&net, &GREEDY, &events, &rcfg);
        assert_eq!(
            tel.counter("pipeline", "replan_prune_fallbacks"),
            fallbacks,
            "{row}: prune fallbacks"
        );
        if let Ok(report) = &outcome {
            validate_plan(&report.net, &report.final_units)
                .unwrap_or_else(|e| panic!("{row}: plan does not validate: {e}"));
        }
        let got = outcome.as_ref().map(|r| {
            let quality = r.events[0].quality;
            (quality, r.final_cost, &r.final_units[..], &r.supervision)
        });
        check(row, got, &want);
    }
}

// ---- cancellation ------------------------------------------------------

/// A token that fires while the master MILP runs is seen by nobody until
/// the `polish` stage refuses to start. That refusal is a cancellation
/// of the run — not a reason to ship, checkpoint and cache the
/// unpolished plan as if the run had finished.
///
/// The watcher fires once the first stage is over and the evaluator has
/// been asked something since — which only the master (or, if this
/// thread is starved, the polish) does. Wherever the token lands, one of
/// the two honest outcomes must hold, and the chain must resume to the
/// uninterrupted plan.
#[test]
fn a_cancel_that_lands_during_the_master_is_never_swallowed() {
    chaos_rows();
    let net = tier_a();
    let dir = std::env::temp_dir().join(format!("np-ladder-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reference = NeuroPlan::new(cfg()).try_plan(&net).expect("plans");

    let tel = Telemetry::memory();
    let cancel = CancelToken::new();
    let done = AtomicBool::new(false);
    let planner = NeuroPlan::with_telemetry(cfg(), tel.clone())
        .with_checkpoint(&dir, false)
        .with_cancel(cancel.clone());
    let outcome = std::thread::scope(|s| {
        s.spawn(|| {
            let wait_for = |what: &dyn Fn() -> bool| {
                while !done.load(Ordering::SeqCst) && !what() {
                    std::thread::sleep(Duration::from_micros(100));
                }
            };
            wait_for(&|| {
                tel.spans_self()
                    .iter()
                    .any(|(sys, name, ..)| sys == "pipeline" && name == "first_stage")
            });
            let asked = tel.counter("eval", "scenario_checks");
            wait_for(&|| tel.counter("eval", "scenario_checks") > asked);
            cancel.cancel();
        });
        let outcome = planner.try_plan(&net);
        done.store(true, Ordering::SeqCst);
        outcome
    });

    let chain = dir.join("checkpoint.jsonl");
    let chain = Chain::new(&chain, np_chaos::global()).read();
    match outcome {
        Err(PlanFailure::Cancelled) => assert!(
            !chain.iter().any(|r| r.is::<MasterRecord>()),
            "a cancelled run must not record a finished second stage"
        ),
        Ok(result) => {
            let polish = result.supervision.stage("polish").expect("polish stage");
            assert!(
                polish.attempts == 1 && !polish.failed,
                "an `Ok` plan went through its polish stage, got {polish:?}"
            );
        }
        Err(other) => panic!("unexpected failure: {other}"),
    }
    let resumed = NeuroPlan::new(cfg())
        .with_checkpoint(&dir, true)
        .try_plan(&net)
        .expect("the interrupted chain resumes");
    assert_eq!(resumed.final_units, reference.final_units);
    assert_eq!(resumed.final_cost.to_bits(), reference.final_cost.to_bits());
    assert_eq!(resumed.quality, reference.quality);
    let _ = std::fs::remove_dir_all(&dir);
}
