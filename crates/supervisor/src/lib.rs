//! Anytime-execution supervisor for the NeuroPlan pipeline.
//!
//! The two-stage planner is only useful in production when it returns
//! *a* feasible plan under any budget — the ILP tail latency the paper
//! motivates the hybrid design with is unbounded. This crate supplies
//! the reaction layer on top of np-chaos's fault *injection*:
//!
//! - [`StageBudget`] — per-stage wall-clock / node / epoch caps;
//! - [`RetryPolicy`] — how many times a transient failure (singular
//!   basis, worker panic, NaN rollback) is retried. A retry re-runs
//!   deterministic in-process work at once: there is nothing to back
//!   off from;
//! - [`Supervisor::run`] — executes one stage attempt-by-attempt,
//!   catching panics, classifying errors, and recording per-stage retry
//!   telemetry under the `supervisor` subsystem;
//! - [`PlanQuality`] — the provenance rung of the degradation ladder
//!   the pipeline walks when a stage exhausts its budget:
//!   full MILP proof → incumbent return → LP rounding → greedy
//!   heuristic.
//!
//! Injected-kill panics (np-chaos `kill`) are *not* swallowed: the
//! supervisor rethrows any panic whose payload mentions the chaos kill
//! marker, so kill-and-resume semantics (process aborts, checkpoint
//! survives) are preserved under supervision.

use np_telemetry::{sys, Telemetry};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Marker substring of np-chaos injected-kill panics. Panics carrying
/// it are rethrown, never retried: a kill must abort the process.
pub const KILL_MARKER: &str = "chaos: injected kill";

/// Provenance of a returned plan: which rung of the degradation ladder
/// produced it. Ordering is by decreasing quality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanQuality {
    /// The α-relaxed MILP ran to a proven optimum within budget.
    #[default]
    Optimal,
    /// The MILP hit a budget but returned its best incumbent.
    Incumbent,
    /// The MILP produced no incumbent; the plan is a rounded
    /// LP-relaxation point repaired against separation cuts.
    Rounded,
    /// Everything above exhausted its budget; the plan is the greedy /
    /// first-stage capacity heuristic.
    Heuristic,
}

impl PlanQuality {
    /// Stable wire name (checkpoint records, CLI JSON output).
    pub fn name(self) -> &'static str {
        match self {
            PlanQuality::Optimal => "optimal",
            PlanQuality::Incumbent => "incumbent",
            PlanQuality::Rounded => "rounded",
            PlanQuality::Heuristic => "heuristic",
        }
    }

    /// Inverse of [`PlanQuality::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "optimal" => PlanQuality::Optimal,
            "incumbent" => PlanQuality::Incumbent,
            "rounded" => PlanQuality::Rounded,
            "heuristic" => PlanQuality::Heuristic,
            _ => return None,
        })
    }

    /// Ladder rung index: 0 = best (proved optimal), 3 = last resort.
    pub fn rung(self) -> u8 {
        match self {
            PlanQuality::Optimal => 0,
            PlanQuality::Incumbent => 1,
            PlanQuality::Rounded => 2,
            PlanQuality::Heuristic => 3,
        }
    }
}

impl std::fmt::Display for PlanQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stage resource caps. The default is unlimited on every axis, so
/// an unconfigured pipeline behaves exactly as before supervision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageBudget {
    /// Wall-clock cap per stage, seconds. `INFINITY` = unlimited.
    /// Enforced only at deterministic boundaries (epoch ends, branch &
    /// bound nodes, ladder rungs) so equal-seed runs stay comparable.
    pub wall_secs: f64,
    /// Cap on branch & bound nodes for the MILP stages.
    pub max_nodes: Option<usize>,
    /// Cap on RL training epochs.
    pub max_epochs: Option<usize>,
}

impl StageBudget {
    /// No caps on any axis.
    pub const UNLIMITED: StageBudget = StageBudget {
        wall_secs: f64::INFINITY,
        max_nodes: None,
        max_epochs: None,
    };

    /// True when no axis is capped.
    pub fn is_unlimited(&self) -> bool {
        self.wall_secs.is_infinite() && self.max_nodes.is_none() && self.max_epochs.is_none()
    }
}

impl Default for StageBudget {
    fn default() -> Self {
        StageBudget::UNLIMITED
    }
}

/// How often a transient failure is retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per stage after the first attempt (so `max_retries = 2`
    /// allows three attempts total).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2 }
    }
}

/// Everything the supervisor needs to run stages: budget, retry
/// count, and whether degradation below the incumbent rung is
/// permitted (`--no-degrade` turns the ladder off).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisorConfig {
    /// Per-stage caps (each stage gets the full budget, not a share).
    pub budget: StageBudget,
    /// Retries for transient failures.
    pub retry: RetryPolicy,
    /// When false, exhausting the MILP rungs is a hard error instead
    /// of falling through to rounding / heuristic plans.
    pub degrade: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            budget: StageBudget::UNLIMITED,
            retry: RetryPolicy::default(),
            degrade: true,
        }
    }
}

/// How a stage attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageError {
    /// Worth retrying: singular basis, worker panic, NaN rollback,
    /// spurious limit with no incumbent.
    Transient(String),
    /// Retrying cannot help (structural infeasibility, bad input).
    Fatal(String),
    /// The run's [`CancelToken`] fired. Never retried, never degraded:
    /// the caller asked the whole solve to stop.
    Cancelled,
}

impl StageError {
    /// The human-readable reason.
    pub fn reason(&self) -> &str {
        match self {
            StageError::Transient(s) | StageError::Fatal(s) => s,
            StageError::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Transient(s) => write!(f, "transient: {s}"),
            StageError::Fatal(s) => write!(f, "fatal: {s}"),
            StageError::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// Per-stage outcome accounting, accumulated by [`Supervisor`] and
/// surfaced on the pipeline result for telemetry assertions.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStats {
    /// Stage label (`"first_stage"`, `"master"`, `"lp_round"`, ...).
    pub stage: String,
    /// Attempts made (>= 1 unless the stage was skipped).
    pub attempts: u32,
    /// Retries after the first attempt.
    pub retries: u32,
    /// Panics caught and converted to transient failures.
    pub panics: u32,
    /// Wall-clock spent across all attempts, seconds.
    pub elapsed_secs: f64,
    /// True when the stage never ran (budget exhausted before entry).
    pub skipped: bool,
    /// True when every attempt failed.
    pub failed: bool,
}

/// The supervision trace of one pipeline run: per-stage stats plus the
/// number of ladder degradations taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisionReport {
    /// One entry per supervised stage, in execution order.
    pub stages: Vec<StageStats>,
    /// Ladder rungs skipped downward due to budget exhaustion.
    pub degrades: u32,
}

impl SupervisionReport {
    /// Total retries across all stages.
    pub fn total_retries(&self) -> u32 {
        self.stages.iter().map(|s| s.retries).sum()
    }

    /// Stats for `stage`, if it ran.
    pub fn stage(&self, stage: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// Handle passed into each stage attempt: the attempt index and the
/// remaining budget, so stages can clamp their own inner limits.
pub struct StageCtx<'a> {
    /// 0-based attempt index for this stage.
    pub attempt: u32,
    /// The budget this stage runs under.
    pub budget: &'a StageBudget,
    started: Instant,
    chaos: &'a np_chaos::Chaos,
    cancel: &'a np_chaos::CancelToken,
}

impl StageCtx<'_> {
    /// Seconds of wall budget left for this stage (`INFINITY` when the
    /// budget has no wall cap). Never negative.
    pub fn remaining_secs(&self) -> f64 {
        if self.budget.wall_secs.is_infinite() {
            return f64::INFINITY;
        }
        (self.budget.wall_secs - self.started.elapsed().as_secs_f64()).max(0.0)
    }

    /// Whether the run's [`CancelToken`] has fired. Stages poll this at
    /// their deterministic boundaries and return
    /// [`StageError::Cancelled`] to stop the whole run.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// True when the stage should stop: wall budget spent, the run
    /// cancelled, or the chaos plan fires a `deadline` fault at this
    /// trigger point. Chaos firing is occurrence-counted and therefore
    /// deterministic across worker counts; call only at serial
    /// boundaries.
    pub fn exhausted(&self) -> bool {
        let chaos_deadline = self.chaos.should_fire(np_chaos::FaultClass::Deadline);
        chaos_deadline || self.cancelled() || self.remaining_secs() <= 0.0
    }
}

/// Runs stages under budgets with retries, accumulating a
/// [`SupervisionReport`]. Cheap to share by reference; interior
/// mutability keeps `run` callable from `&self`.
pub struct Supervisor {
    cfg: SupervisorConfig,
    tel: Telemetry,
    chaos: np_chaos::Chaos,
    cancel: np_chaos::CancelToken,
    stages: Mutex<Vec<StageStats>>,
    degrades: Mutex<u32>,
}

impl Supervisor {
    /// A supervisor wired to the process-global chaos plan.
    pub fn new(cfg: SupervisorConfig, tel: Telemetry) -> Self {
        Supervisor::with_chaos(cfg, tel, np_chaos::global().clone())
    }

    /// A supervisor with an explicit chaos handle (tests).
    pub fn with_chaos(cfg: SupervisorConfig, tel: Telemetry, chaos: np_chaos::Chaos) -> Self {
        Supervisor {
            cfg,
            tel,
            chaos,
            cancel: np_chaos::CancelToken::new(),
            stages: Mutex::new(Vec::new()),
            degrades: Mutex::new(0),
        }
    }

    /// Attach a cooperative cancellation token. A cancelled token stops
    /// the supervisor at the next stage boundary or retry, and stages
    /// observe it mid-attempt through [`StageCtx::exhausted`] /
    /// [`StageCtx::cancelled`].
    pub fn with_cancel(mut self, cancel: np_chaos::CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The configuration this supervisor enforces.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Run one stage with retries. `f` is invoked once per
    /// attempt with a fresh [`StageCtx`]; a panic inside `f` counts as
    /// a transient failure unless it is an injected chaos kill, which
    /// is rethrown so the process aborts as the fault plan demands.
    ///
    /// A chaos `kill` fault scheduled at this trigger point fires
    /// *before* the first attempt — stage boundaries are kill points,
    /// mirroring the trainer's per-epoch kill points.
    pub fn run<T>(
        &self,
        stage: &'static str,
        mut f: impl FnMut(&StageCtx) -> Result<T, StageError>,
    ) -> Result<T, StageError> {
        if self.chaos.should_fire(np_chaos::FaultClass::Kill) {
            panic!("{KILL_MARKER} at stage {stage}");
        }
        let mut stats = StageStats {
            stage: stage.to_string(),
            attempts: 0,
            retries: 0,
            panics: 0,
            elapsed_secs: 0.0,
            skipped: false,
            failed: false,
        };
        let started = Instant::now();
        let mut last_err = StageError::Transient("stage never attempted".to_string());
        let mut result = None;
        for attempt in 0..=self.cfg.retry.max_retries {
            // Cancellation wins over retries: a cancelled run
            // stops at the next boundary, never burning another attempt.
            if self.cancel.is_cancelled() {
                last_err = StageError::Cancelled;
                self.tel.incr(sys::SUPERVISOR, "cancelled_stages", 1);
                break;
            }
            if attempt > 0 {
                // Out of wall budget: stop burning attempts on a stage
                // the ladder is about to route around.
                if started.elapsed().as_secs_f64() >= self.cfg.budget.wall_secs {
                    break;
                }
                stats.retries += 1;
                self.tel.incr(sys::SUPERVISOR, "retries", 1);
            }
            stats.attempts += 1;
            let ctx = StageCtx {
                attempt,
                budget: &self.cfg.budget,
                started: Instant::now(),
                chaos: &self.chaos,
                cancel: &self.cancel,
            };
            let span = self.tel.span(sys::SUPERVISOR, stage);
            let outcome = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            drop(span);
            match outcome {
                Ok(Ok(value)) => {
                    result = Some(value);
                    break;
                }
                Ok(Err(err)) => {
                    let stop = !matches!(err, StageError::Transient(_));
                    if matches!(err, StageError::Cancelled) {
                        self.tel.incr(sys::SUPERVISOR, "cancelled_stages", 1);
                    }
                    last_err = err;
                    if stop {
                        break;
                    }
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    if msg.contains(KILL_MARKER) {
                        resume_unwind(payload);
                    }
                    stats.panics += 1;
                    self.tel.incr(sys::SUPERVISOR, "stage_panics", 1);
                    last_err = StageError::Transient(format!("panic in {stage}: {msg}"));
                }
            }
        }
        stats.elapsed_secs = started.elapsed().as_secs_f64();
        stats.failed = result.is_none();
        if stats.failed {
            self.tel.incr(sys::SUPERVISOR, "stage_failures", 1);
        }
        self.stages.lock().unwrap().push(stats);
        match result {
            Some(value) => Ok(value),
            None => Err(last_err),
        }
    }

    /// Record a stage that was skipped outright (budget exhausted
    /// before entry, or a ladder rung that was never needed).
    pub fn note_skip(&self, stage: &str) {
        self.tel.incr(sys::SUPERVISOR, "stage_skips", 1);
        self.stages.lock().unwrap().push(StageStats {
            stage: stage.to_string(),
            attempts: 0,
            retries: 0,
            panics: 0,
            elapsed_secs: 0.0,
            skipped: true,
            failed: false,
        });
    }

    /// Record one downward step of the degradation ladder.
    pub fn note_degrade(&self, from: &str, to: PlanQuality) {
        self.tel.incr(sys::SUPERVISOR, "degrades", 1);
        self.tel
            .record(sys::SUPERVISOR, "ladder_rung", f64::from(to.rung()));
        let _ = from;
        *self.degrades.lock().unwrap() += 1;
    }

    /// True when the ladder may fall below the incumbent rung.
    pub fn may_degrade(&self) -> bool {
        self.cfg.degrade
    }

    /// Consume the accumulated trace.
    pub fn report(&self) -> SupervisionReport {
        SupervisionReport {
            stages: self.stages.lock().unwrap().clone(),
            degrades: *self.degrades.lock().unwrap(),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_chaos::{Chaos, FaultPlan};

    fn sup(cfg: SupervisorConfig) -> Supervisor {
        Supervisor::with_chaos(cfg, Telemetry::noop(), Chaos::disabled())
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy { max_retries: 3 }
    }

    #[test]
    fn quality_names_round_trip_and_order_by_rung() {
        for q in [
            PlanQuality::Optimal,
            PlanQuality::Incumbent,
            PlanQuality::Rounded,
            PlanQuality::Heuristic,
        ] {
            assert_eq!(PlanQuality::from_name(q.name()), Some(q));
        }
        assert!(PlanQuality::from_name("best-effort").is_none());
        assert!(PlanQuality::Optimal < PlanQuality::Heuristic);
        assert_eq!(PlanQuality::Rounded.rung(), 2);
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let s = sup(SupervisorConfig {
            retry: fast_retry(),
            ..SupervisorConfig::default()
        });
        let mut calls = 0;
        let out = s.run("flaky", |ctx| {
            calls += 1;
            assert_eq!(ctx.attempt + 1, calls);
            if calls < 3 {
                Err(StageError::Transient("singular basis".to_string()))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out, Ok(99));
        let rep = s.report();
        let st = rep.stage("flaky").unwrap();
        assert_eq!((st.attempts, st.retries), (3, 2));
        assert!(!st.failed && !st.skipped);
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let s = sup(SupervisorConfig {
            retry: fast_retry(),
            ..SupervisorConfig::default()
        });
        let mut calls = 0;
        let out: Result<(), _> = s.run("doomed", |_| {
            calls += 1;
            Err(StageError::Fatal("structurally infeasible".to_string()))
        });
        assert_eq!(calls, 1);
        assert!(matches!(out, Err(StageError::Fatal(_))));
        assert!(s.report().stage("doomed").unwrap().failed);
    }

    #[test]
    fn panics_are_caught_and_retried() {
        let s = sup(SupervisorConfig {
            retry: fast_retry(),
            ..SupervisorConfig::default()
        });
        let mut calls = 0;
        let out = s.run("panicky", |_| {
            calls += 1;
            if calls == 1 {
                panic!("worker died");
            }
            Ok("fine")
        });
        assert_eq!(out, Ok("fine"));
        assert_eq!(s.report().stage("panicky").unwrap().panics, 1);
    }

    #[test]
    fn chaos_kill_panics_are_rethrown_not_retried() {
        let s = sup(SupervisorConfig {
            retry: fast_retry(),
            ..SupervisorConfig::default()
        });
        let blown = catch_unwind(AssertUnwindSafe(|| {
            let _ = s.run("killed", |_| -> Result<(), StageError> {
                panic!("{KILL_MARKER} after epoch 2");
            });
        }));
        assert!(blown.is_err(), "kill panic must escape the supervisor");
    }

    #[test]
    fn kill_fires_at_stage_boundaries() {
        let chaos = Chaos::new(FaultPlan::parse("kill@1").unwrap());
        let s = Supervisor::with_chaos(SupervisorConfig::default(), Telemetry::noop(), chaos);
        assert_eq!(s.run("first", |_| Ok(1)), Ok(1));
        let blown = catch_unwind(AssertUnwindSafe(|| {
            let _ = s.run("second", |_| Ok(2));
        }));
        assert!(blown.is_err(), "kill@1 aborts at the second boundary");
    }

    #[test]
    fn retries_stop_when_wall_budget_is_spent() {
        let s = sup(SupervisorConfig {
            budget: StageBudget {
                wall_secs: 0.0,
                ..StageBudget::UNLIMITED
            },
            retry: fast_retry(),
            degrade: true,
        });
        let mut calls = 0;
        let out: Result<(), _> = s.run("broke", |_| {
            calls += 1;
            Err(StageError::Transient("nope".to_string()))
        });
        assert_eq!(calls, 1, "no retries once the wall budget is gone");
        assert!(out.is_err());
    }

    #[test]
    fn chaos_deadline_exhausts_the_stage_ctx() {
        let chaos = Chaos::new(FaultPlan::parse("deadline@0").unwrap());
        let s = Supervisor::with_chaos(SupervisorConfig::default(), Telemetry::noop(), chaos);
        let out = s.run("budgeted", |ctx| {
            assert!(ctx.exhausted(), "deadline@0 fires at the first check");
            assert!(!ctx.exhausted(), "occurrence 1 is not scheduled");
            Ok(())
        });
        assert!(out.is_ok());
    }

    #[test]
    fn remaining_secs_tracks_the_wall_budget() {
        let s = sup(SupervisorConfig {
            budget: StageBudget {
                wall_secs: 3600.0,
                max_nodes: Some(10),
                max_epochs: Some(2),
            },
            retry: fast_retry(),
            degrade: true,
        });
        s.run("roomy", |ctx| {
            let left = ctx.remaining_secs();
            assert!(left > 3000.0 && left <= 3600.0, "{left}");
            assert_eq!(ctx.budget.max_nodes, Some(10));
            assert_eq!(ctx.budget.max_epochs, Some(2));
            Ok(())
        })
        .unwrap();
        assert!(!s.config().budget.is_unlimited());
        assert!(StageBudget::UNLIMITED.is_unlimited());
    }

    #[test]
    fn cancel_before_the_stage_skips_every_attempt() {
        let token = np_chaos::CancelToken::new();
        let s = sup(SupervisorConfig {
            retry: fast_retry(),
            ..SupervisorConfig::default()
        })
        .with_cancel(token.clone());
        token.cancel();
        let mut calls = 0;
        let out: Result<(), _> = s.run("never", |_| {
            calls += 1;
            Ok(())
        });
        assert_eq!(calls, 0, "a cancelled run must not start the stage");
        assert_eq!(out, Err(StageError::Cancelled));
        assert!(s.report().stage("never").unwrap().failed);
    }

    #[test]
    fn cancel_mid_stage_is_seen_and_never_retried() {
        let token = np_chaos::CancelToken::new();
        let s = sup(SupervisorConfig {
            retry: fast_retry(),
            ..SupervisorConfig::default()
        })
        .with_cancel(token.clone());
        let mut calls = 0;
        let out: Result<(), _> = s.run("solve", |ctx| {
            calls += 1;
            assert!(!ctx.cancelled(), "not cancelled at entry");
            token.cancel();
            assert!(ctx.cancelled());
            assert!(ctx.exhausted(), "cancellation exhausts the stage ctx");
            Err(StageError::Cancelled)
        });
        assert_eq!(calls, 1, "Cancelled is terminal, not a transient");
        assert_eq!(out, Err(StageError::Cancelled));
        // Later stages stop at the boundary without an attempt.
        let out2: Result<(), _> = s.run("next", |_| Ok(()));
        assert_eq!(out2, Err(StageError::Cancelled));
    }

    #[test]
    fn cancelled_error_reason_and_display() {
        assert_eq!(StageError::Cancelled.reason(), "cancelled");
        assert_eq!(StageError::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn report_tracks_degrades_and_skips() {
        let s = sup(SupervisorConfig::default());
        s.run("master", |_| Ok(())).unwrap();
        s.note_degrade("master", PlanQuality::Rounded);
        s.note_degrade("lp_round", PlanQuality::Heuristic);
        s.note_skip("polish");
        let rep = s.report();
        assert_eq!(rep.degrades, 2);
        assert!(rep.stage("polish").unwrap().skipped);
        assert_eq!(rep.total_retries(), 0);
        assert_eq!(rep.stages.len(), 2, "run + skip each record one stage");
    }

    #[test]
    fn supervisor_telemetry_lands_under_the_supervisor_subsystem() {
        let tel = Telemetry::memory();
        let s = Supervisor::with_chaos(
            SupervisorConfig {
                retry: fast_retry(),
                ..SupervisorConfig::default()
            },
            tel.clone(),
            Chaos::disabled(),
        );
        let mut calls = 0;
        let _ = s.run("flaky", |_| {
            calls += 1;
            if calls < 2 {
                Err(StageError::Transient("x".to_string()))
            } else {
                Ok(())
            }
        });
        s.note_degrade("flaky", PlanQuality::Heuristic);
        assert_eq!(tel.counter(sys::SUPERVISOR, "retries"), 1);
        assert_eq!(tel.counter(sys::SUPERVISOR, "degrades"), 1);
    }
}
