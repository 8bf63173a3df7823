//! The two-stage NeuroPlan pipeline (Fig. 2 / Fig. 3), run under the
//! anytime supervisor: every stage has a budget, transient failures are
//! retried, and hard budget exhaustion walks the degradation ladder
//! instead of failing (DESIGN.md §11).

use crate::certificate::{self, Certificate};
use crate::checkpoint::{self, EpochRecord, MasterRecord, Meta};
use crate::config::NeuroPlanConfig;
use crate::env::PlanningEnv;
use crate::greedy::greedy_augment_telemetry;
use crate::master::{
    lp_round_plan, plan_cost_of, polish_units_budgeted, solve_master_telemetry, MasterConfig,
    MasterOutcome,
};
use crate::report::PruningReport;
use np_chaos::checkpoint::{Chain, Record, Typed};
use np_eval::{EvalConfig, EvalStats, PlanEvaluator};
use np_flow::MetricCut;
use np_lp::MipStatus;
use np_rl::{
    train_resumable, ActorCritic, EpochCallbacks, GraphEnv, TrainProgress, TrainReport, TrainResume,
};
use np_supervisor::{PlanQuality, StageCtx, StageError, SupervisionReport, Supervisor};
use np_telemetry::{sys, Telemetry};
use np_topology::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// How many environment steps the greedy stop waits for before it may end
/// training (DESIGN.md §11). The rule reads the policy's best rollout
/// plan, which grows with steps, not epochs. Where the policy wins (the
/// `fig16` Barabási–Albert tier-A cells) its best plan is at 0.93× greedy
/// after its first 384 steps. So `--quick` (384-step epochs) and
/// `--default` stop after epoch 1, `fig17_churn --quick` (128) after
/// epoch 3.
const GREEDY_STOP_STEPS: usize = 384;

/// How close to the greedy reference the policy's best plan must have
/// come for training to go on. At quick budgets the WAN presets' best
/// plans sit at 1.78× (A) to 4.6× (D) greedy at epoch 4 and still at
/// 1.74× or more at epoch 20, while only a plan at ≤ 1× greedy is ever
/// handed to the second stage. A policy within 1.25× is near enough to
/// be worth its remaining epochs; none of the grid cells the rule stops
/// changes its final cost.
const GREEDY_STOP_RATIO: f64 = 1.25;

/// The heuristic-bounded first stage: once [`GREEDY_STOP_STEPS`] env
/// steps have run, training stops at the first epoch boundary where no
/// rollout plan so far costs within [`GREEDY_STOP_RATIO`] of the greedy
/// reference. It reads only the steps run and the environment's best
/// plan, which is checkpointed and merged in actor order, so the stop
/// lands on the same epoch at any worker count and across kill-and-resume.
fn lost_to_greedy(env: &PlanningEnv, steps_run: usize, ref_cost: f64) -> bool {
    let best = env.best_plan().map_or(f64::INFINITY, |(cost, _)| *cost);
    steps_run >= GREEDY_STOP_STEPS && best > GREEDY_STOP_RATIO * ref_cost
}

/// Outputs of the RL stage.
#[derive(Clone, Debug, Default)]
pub struct FirstStage {
    /// Units per link of the initial plan handed to stage 2 (the best RL
    /// plan, or the greedy reference when RL never completed a
    /// trajectory).
    pub units: Vec<u32>,
    /// Cost of that plan.
    pub cost: f64,
    /// Cost of the best plan the **RL agent itself** found (`None` =
    /// "does not converge", the crosses of Fig. 10).
    pub rl_cost: Option<f64>,
    /// Cost of the greedy reference plan (also the reward normalizer).
    pub reference_cost: f64,
    /// Per-epoch training statistics.
    pub report: TrainReport,
    /// Metric-cut certificates harvested from the evaluator.
    pub certificates: Vec<MetricCut>,
    /// Evaluator instrumentation.
    pub stats: EvalStats,
}

/// A complete NeuroPlan run's outputs.
#[derive(Clone, Debug)]
pub struct NeuroPlanResult {
    /// Cost of the best feasible plan the RL stage produced
    /// (*First-stage* in the paper's figures).
    pub first_stage_cost: f64,
    /// Units per link of the first-stage plan.
    pub first_stage_units: Vec<u32>,
    /// Cost after the α-pruned ILP stage (*NeuroPlan* in the figures).
    pub final_cost: f64,
    /// Units per link of the final plan.
    pub final_units: Vec<u32>,
    /// Which rung of the degradation ladder produced the final plan.
    pub quality: PlanQuality,
    /// Per-stage retry/degrade trace from the supervisor.
    pub supervision: SupervisionReport,
    /// Per-epoch RL training statistics.
    pub train_report: TrainReport,
    /// Second-stage solver outcome.
    pub master: MasterOutcome,
    /// Evaluator instrumentation accumulated across the run.
    pub eval_stats: EvalStats,
    /// The interpretable pruning summary (§4.3).
    pub pruning: PruningReport,
    /// [`FirstStage::rl_cost`] of the first stage.
    pub rl_cost: Option<f64>,
    /// [`FirstStage::reference_cost`] of the first stage.
    pub reference_cost: f64,
    /// [`FirstStage::certificates`]: the cuts the second stage started from.
    pub certificates: Vec<MetricCut>,
}

impl NeuroPlanResult {
    /// Whether the first stage was trained by another run and seeded
    /// into this one's chain ([`NeuroPlan::seed_first_stage`]): such a
    /// chain holds a `first_stage` record and no `epoch` record, so the
    /// report a resume reassembles from it is empty.
    pub fn first_stage_reused(&self) -> bool {
        self.train_report.epochs.is_empty()
    }

    /// Which plan the second stage started from: `"policy"` when the
    /// policy's best plan cost no more than the greedy reference, else
    /// `"greedy"` (the first stage's `cost <= ref_cost` fallback).
    pub fn first_stage_source(&self) -> &'static str {
        match self.rl_cost {
            Some(cost) if cost <= self.reference_cost => "policy",
            _ => "greedy",
        }
    }

    /// The first stage this run's second stage started from — the
    /// `first_stage` record, so a run under other second-stage settings
    /// can start from it (evaluator stats aside).
    pub fn first_stage(&self) -> FirstStage {
        FirstStage {
            units: self.first_stage_units.clone(),
            cost: self.first_stage_cost,
            rl_cost: self.rl_cost,
            reference_cost: self.reference_cost,
            report: self.train_report.clone(),
            certificates: self.certificates.clone(),
            stats: EvalStats::default(),
        }
    }
}

/// Why a [`NeuroPlan::try_plan`] run could not produce a plan. With the
/// default configuration (unlimited budgets, degradation enabled) this
/// is unreachable: some rung of the ladder always returns the feasible
/// first-stage plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanFailure {
    /// A stage ran out of budget/retries with no lower rung to fall
    /// back to: `--no-degrade` forbade it, or every lower rung failed
    /// too. The reason says which.
    StageExhausted {
        /// The stage that gave out.
        stage: String,
        /// Last failure reason seen.
        reason: String,
    },
    /// The instance admits no feasible plan at any capacity.
    Infeasible {
        /// What proved it infeasible.
        reason: String,
    },
    /// The run's [`np_chaos::CancelToken`] fired. Never retried and
    /// never degraded: a cancelled request must release its worker at
    /// the next stage boundary, not grind down the quality ladder.
    Cancelled,
}

impl std::fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanFailure::StageExhausted { stage, reason } => {
                write!(f, "stage `{stage}` failed: {reason}")
            }
            PlanFailure::Infeasible { reason } => {
                write!(f, "planning instance is infeasible: {reason}")
            }
            PlanFailure::Cancelled => write!(f, "planning run was cancelled"),
        }
    }
}

impl std::error::Error for PlanFailure {}

impl PlanFailure {
    /// What `stage`'s last error means for the run once no retry and no
    /// lower rung is left.
    pub(crate) fn from_stage(stage: &str, err: StageError) -> Self {
        match err {
            StageError::Fatal(reason) => PlanFailure::Infeasible { reason },
            StageError::Cancelled => PlanFailure::Cancelled,
            StageError::Transient(reason) => PlanFailure::StageExhausted {
                stage: stage.to_string(),
                reason,
            },
        }
    }
}

/// Why [`validate_plan`] rejected a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The unit vector does not have one entry per link.
    WrongLength {
        /// Links in the network.
        expected: usize,
        /// Entries in the plan.
        got: usize,
    },
    /// A link's entry is below its minimum capacity (Eq. 4).
    BelowMinimum {
        /// Index of the link.
        link: usize,
    },
    /// A link's entry needs more spectrum than a fiber on its path has
    /// left (Eq. 5).
    SpectrumExceeded {
        /// Index of the link.
        link: usize,
        /// Index of the exhausted fiber.
        fiber: usize,
    },
    /// A scenario's service expectations are violated by these
    /// capacities. Scenario 0 is the no-failure base case; scenario `k`
    /// (k ≥ 1) is failure `k − 1` of the instance's failure set.
    ScenarioInfeasible {
        /// Dense scenario index of the first violation.
        scenario: usize,
    },
    /// The violated scenario cannot be fixed by adding capacity — the
    /// instance itself is broken under that failure.
    StructurallyInfeasible {
        /// Dense scenario index of the structural violation.
        scenario: usize,
    },
    /// A [`Certificate`] does not prove this scenario
    /// ([`certificate::verify`]). Not a verdict on the plan: only a
    /// validation can refute it.
    Uncertified {
        /// Dense index of the first scenario left unproven.
        scenario: usize,
    },
}

impl PlanError {
    fn scenario_name(scenario: usize) -> String {
        if scenario == 0 {
            "scenario 0 (no-failure)".to_string()
        } else {
            format!("scenario {scenario} (failure {})", scenario - 1)
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::WrongLength { expected, got } => {
                write!(f, "plan has {got} capacity entries for {expected} links")
            }
            PlanError::BelowMinimum { link } => {
                write!(f, "plan sets link {link} below its minimum capacity")
            }
            PlanError::SpectrumExceeded { link, fiber } => write!(
                f,
                "plan sets link {link} beyond the spectrum left on fiber {fiber}"
            ),
            PlanError::ScenarioInfeasible { scenario } => write!(
                f,
                "plan violates the service expectations of {}",
                Self::scenario_name(*scenario)
            ),
            PlanError::StructurallyInfeasible { scenario } => write!(
                f,
                "{} admits no feasible routing at any capacity",
                Self::scenario_name(*scenario)
            ),
            PlanError::Uncertified { scenario } => write!(
                f,
                "the certificate does not prove {}",
                Self::scenario_name(*scenario)
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The NeuroPlan planner.
pub struct NeuroPlan {
    /// Pipeline configuration.
    pub cfg: NeuroPlanConfig,
    /// Telemetry sink threaded through both stages (noop by default).
    pub tel: Telemetry,
    /// Directory for checkpoint records (`None` = no checkpointing). The
    /// pipeline appends to `<dir>/checkpoint.jsonl` — a `meta` record,
    /// one `epoch` record per completed training epoch, a `first_stage`
    /// record and a `master` record (DESIGN.md §10).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from valid records already in `checkpoint_dir`. Resuming a
    /// run killed at any epoch reproduces the uninterrupted run's plan
    /// bit for bit; a checkpoint from a different instance or config is
    /// detected by fingerprint and ignored.
    pub resume: bool,
    /// Cooperative cancellation for the whole run, polled at supervisor
    /// stage boundaries and trainer epoch boundaries. Cancelling stops
    /// the run with [`PlanFailure::Cancelled`] on a complete,
    /// checkpointable unit of work, so a later resume is bit-exact.
    pub cancel: np_chaos::CancelToken,
}

impl NeuroPlan {
    /// New planner with the given configuration.
    pub fn new(cfg: NeuroPlanConfig) -> Self {
        NeuroPlan {
            cfg,
            tel: Telemetry::noop(),
            checkpoint_dir: None,
            resume: false,
            cancel: np_chaos::CancelToken::new(),
        }
    }

    /// New planner reporting through `tel`: stage spans under `pipeline`,
    /// plus the `rl`, `eval`, `master`, `lp` and `supervisor` subsystem
    /// counters.
    pub fn with_telemetry(cfg: NeuroPlanConfig, tel: Telemetry) -> Self {
        NeuroPlan {
            cfg,
            tel,
            checkpoint_dir: None,
            resume: false,
            cancel: np_chaos::CancelToken::new(),
        }
    }

    /// Write checkpoint records under `dir`; when `resume` is set,
    /// continue from whatever valid records are already there.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, resume: bool) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.resume = resume;
        self
    }

    /// Share a cancellation token with this run's owner (a serve daemon
    /// or a CLI signal handler).
    pub fn with_cancel(mut self, cancel: np_chaos::CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    fn checkpoint_path(&self) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join("checkpoint.jsonl"))
    }

    /// Best-effort record append: a full disk must degrade the run to
    /// "unresumable", never kill it.
    pub(crate) fn append<R: Typed>(&self, chain: Chain<'_>, rec: R) {
        self.chain_io(R::KIND, || chain.append(rec));
    }

    /// A chain write ([`Chain::append`], [`Chain::restart`]), best-effort
    /// likewise and timed under `--profile`.
    pub(crate) fn chain_io(&self, what: &str, write: impl FnOnce() -> std::io::Result<()>) {
        let t0 = np_telemetry::profiling().then(std::time::Instant::now);
        if let Err(e) = write() {
            eprintln!("warning: failed to write checkpoint record `{what}`: {e}");
        }
        if let Some(t0) = t0 {
            self.tel.record_span(
                sys::PIPELINE,
                "checkpoint_io",
                t0.elapsed().as_micros() as u64,
            );
        }
    }

    /// Start this run's checkpoint chain from `first_stage`, the record
    /// of a run with the same [`checkpoint::first_stage_key`]: the
    /// resume then goes straight to the second stage. `fp` is this
    /// run's fingerprint. Returns `false`, with nothing written, when
    /// the chain already exists — a replayed request continues its own.
    pub fn seed_first_stage(
        &self,
        fp: &str,
        first_stage_key: &str,
        first_stage: FirstStage,
    ) -> bool {
        let Some(path) = self.checkpoint_path().filter(|p| !p.exists()) else {
            return false;
        };
        let meta = Meta {
            fp: fp.to_string(),
            fs: first_stage_key.to_string(),
        };
        let records = [Record::of(meta), Record::of(first_stage)];
        let chain = Chain::new(&path, np_chaos::global());
        self.chain_io("restart", || chain.restart(records));
        true
    }

    /// Run both stages on a planning instance.
    ///
    /// Panics if [`NeuroPlan::try_plan`] fails — which with the default
    /// supervisor configuration only happens for a structurally
    /// infeasible instance (some protected demand has no surviving path
    /// under some scenario); such an instance has no plan at any cost.
    pub fn plan(&self, net: &Network) -> NeuroPlanResult {
        self.try_plan(net)
            .unwrap_or_else(|e| panic!("neuroplan: {e}"))
    }

    /// Run both stages under the anytime supervisor.
    ///
    /// Every stage runs under [`NeuroPlanConfig::supervisor`]'s budget
    /// and retry policy. When the second stage cannot produce a plan in
    /// budget, the degradation ladder steps down — proven-optimal MILP,
    /// best MILP incumbent, LP-relaxation rounding, first-stage
    /// heuristic — and the rung reached is reported as
    /// [`NeuroPlanResult::quality`]. `Err` is only possible when the
    /// instance is infeasible or degradation is disabled.
    pub fn try_plan(&self, net: &Network) -> Result<NeuroPlanResult, PlanFailure> {
        let _plan_span = self.tel.span(sys::PIPELINE, "plan");
        let chaos = np_chaos::global();
        let sup =
            Supervisor::new(self.cfg.supervisor, self.tel.clone()).with_cancel(self.cancel.clone());
        let ckpt_path = self.checkpoint_path();
        let ckpt = ckpt_path.as_deref().map(|p| Chain::new(p, chaos));
        let mut records: Vec<Record> = Vec::new();
        if let Some(chain) = ckpt {
            let fp = checkpoint::fingerprint(net, &self.cfg);
            if self.resume {
                // Appends after a torn tail would be lost to the next read.
                self.chain_io("restart", || chain.cut_torn_tail());
                records = chain.read();
            }
            let meta: Option<Meta> = records.first().and_then(Record::decode);
            if meta.as_ref().is_none_or(|m| m.fp != fp) {
                // Not this run's chain. Under an equal first-stage key its
                // training is still this run's: only the `master` goes.
                let key = checkpoint::first_stage_key(net, &self.cfg);
                if meta.is_some_and(|m| m.fs == key) {
                    records.retain(|r| r.is::<EpochRecord>() || r.is::<FirstStage>());
                    eprintln!(
                        "first stage resumed from checkpoint: only second-stage settings \
                         changed (kept {} epoch/first_stage records, dropped master)",
                        records.len()
                    );
                    self.tel.incr(sys::PIPELINE, "first_stage_reused", 1);
                } else if !records.is_empty() {
                    eprintln!(
                        "warning: checkpoint in {} does not match this instance/config; \
                         starting fresh",
                        chain.path().display()
                    );
                    records.clear();
                }
                // The chain restarts under this run's keys.
                records.insert(0, Record::of(Meta { fp, fs: key }));
                self.chain_io("restart", || chain.restart(records.clone()));
            }
        }
        let epochs_of = |records: &[Record]| -> Vec<EpochRecord> {
            records.iter().filter_map(Record::decode).collect()
        };
        let epoch_recs = epochs_of(&records);
        // `stopped` steers only the run that trains; a recorded first
        // stage has no use for it.
        let report = TrainReport {
            epochs: epoch_recs.iter().map(|e| e.stats.clone()).collect(),
            ..TrainReport::default()
        };
        let first_rec = (records.iter())
            .find_map(Record::decode::<FirstStage>)
            .map(|first| FirstStage { report, ..first });
        let master_rec = records.iter().find_map(Record::decode::<MasterRecord>);

        // A run that already finished resumes straight to its recorded
        // result, including the ladder rung the original run settled on.
        // The pruning report is a pure function of the first-stage plan,
        // so it is recomputed rather than stored.
        if let (Some(first), Some(master)) = (&first_rec, master_rec) {
            let pruning = self.pruning_report(net, &first.units);
            return Ok(Self::finish(
                first.clone(),
                master.outcome,
                master.quality,
                sup.report(),
                pruning,
            ));
        }

        let mut first = match first_rec {
            Some(first) => first,
            None => {
                let first = sup
                    .run("first_stage", |ctx| {
                        // A retry after a mid-training panic must resume
                        // from the records the failed attempt managed to
                        // append, not from the stale pre-attempt view.
                        let recs = match (ckpt, ctx.attempt) {
                            (Some(chain), a) if a > 0 => epochs_of(&chain.read()),
                            _ => epoch_recs.clone(),
                        };
                        self.first_stage_resumable(net, ckpt, recs, chaos, Some(ctx))
                    })
                    .map_err(|e| PlanFailure::from_stage("first_stage", e))?;
                if let Some(chain) = ckpt {
                    self.append(chain, first.clone());
                }
                first
            }
        };
        let (master, pruning, quality) = self.second_stage_supervised(
            &sup,
            net,
            &first.units,
            first.cost,
            first.certificates.clone(),
            &mut first.stats,
        )?;
        if let Some(chain) = ckpt {
            let outcome = master.clone();
            self.append(chain, MasterRecord { outcome, quality });
        }
        Ok(Self::finish(first, master, quality, sup.report(), pruning))
    }

    /// Final plan selection: the master incumbent when it beats the
    /// first stage, otherwise the first-stage plan itself. `first.stats`
    /// holds the evaluator counts of the whole run by now.
    fn finish(
        first: FirstStage,
        master: MasterOutcome,
        quality: PlanQuality,
        supervision: SupervisionReport,
        pruning: PruningReport,
    ) -> NeuroPlanResult {
        let (final_cost, final_units) = if master.has_plan() && master.cost < first.cost {
            (master.cost, master.units.clone())
        } else {
            (first.cost, first.units.clone())
        };
        NeuroPlanResult {
            first_stage_cost: first.cost,
            first_stage_units: first.units,
            final_cost,
            final_units,
            quality,
            supervision,
            train_report: first.report,
            master,
            eval_stats: first.stats,
            pruning,
            rl_cost: first.rl_cost,
            reference_cost: first.reference_cost,
            certificates: first.certificates,
        }
    }

    fn pruning_report(&self, net: &Network, first_units: &[u32]) -> PruningReport {
        let spectrum = MasterConfig::spectrum_bounds(net);
        let bounds = MasterConfig::pruned_bounds(net, first_units, self.cfg.relax_factor);
        PruningReport::new(net, first_units, &bounds, &spectrum, self.cfg.relax_factor)
    }

    /// Stage 1: train the agent and extract the best feasible plan. A
    /// greedy certificate-guided plan provides the reward normalizer and
    /// the fallback if training never completes a trajectory.
    ///
    /// Panics on a structurally infeasible instance (same contract as
    /// [`NeuroPlan::plan`]); runs unsupervised with no budget.
    pub fn first_stage(&self, net: &Network) -> FirstStage {
        match self.first_stage_resumable(net, None, Vec::new(), np_chaos::global(), None) {
            Ok(first) => first,
            Err(e) => panic!("planning instance must admit a feasible plan: {e}"),
        }
    }

    /// [`NeuroPlan::first_stage`], with checkpointing and supervision:
    /// epoch records are appended to `ckpt` as training progresses,
    /// `epoch_recs` (the decoded records of an interrupted run) restore
    /// the trainer to the exact post-epoch state the last record
    /// captured, and `ctx` (when supervised) caps the epoch count and
    /// wall clock of the training loop.
    fn first_stage_resumable(
        &self,
        net: &Network,
        ckpt: Option<Chain<'_>>,
        epoch_recs: Vec<EpochRecord>,
        chaos: &np_chaos::Chaos,
        ctx: Option<&StageCtx>,
    ) -> Result<FirstStage, StageError> {
        let _stage_span = self.tel.span(sys::PIPELINE, "first_stage");
        // Reference plan: reward scale + fallback. Failure here means no
        // plan exists at any capacity — not worth retrying.
        let greedy_span = self.tel.span(sys::PIPELINE, "greedy_reference");
        let mut ref_net = net.clone();
        let ref_cost = greedy_augment_telemetry(&mut ref_net, self.cfg.eval, self.tel.clone())
            .map_err(|e| StageError::Fatal(format!("greedy reference failed: {e:?}")))?;
        let ref_units: Vec<u32> = ref_net
            .link_ids()
            .map(|l| ref_net.link(l).capacity_units)
            .collect();
        drop(greedy_span);
        let norm = ref_cost.max(1e-6);

        // The env scans on one worker, as its actor forks do: its walks
        // never reach the exact LP, so a wider scan would keep speculative
        // certificates past the stop and hand them to the master as seeds
        // (DESIGN.md §9).
        let build_span = self.tel.span(sys::PIPELINE, "env_build");
        let mut env = PlanningEnv::new(
            net.clone(),
            EvalConfig {
                parallel_workers: 1,
                ..self.cfg.eval
            },
            self.cfg.max_units_per_step,
            norm,
        );
        env.evaluator_mut().set_telemetry(self.tel.clone());
        let mut agent = ActorCritic::new(
            env.adjacency().clone(),
            env.feature_dim(),
            self.cfg.max_units_per_step,
            &self.cfg.agent,
        );
        drop(build_span);
        // Restore from the last epoch record, if any. A blob that fails
        // to restore (foreign, corrupt) discards the resume entirely
        // rather than training from a half-restored state.
        let mut resume: Option<TrainResume> = None;
        if let Some(last) = epoch_recs.last() {
            if agent.import_state(&last.agent) && env.restore_state_json(&last.env) {
                resume = Some(TrainResume {
                    next_epoch: last.next_epoch,
                    recovery_nonce: last.recovery_nonce,
                    stats: epoch_recs.iter().map(|e| e.stats.clone()).collect(),
                });
            } else {
                eprintln!(
                    "warning: checkpointed trainer state failed to restore; restarting training"
                );
            }
        }
        // The supervised stage budget clamps the training loop: epoch
        // cap directly, wall cap via the trainer's own epoch-boundary
        // check so the stop always lands on a checkpointable epoch.
        let mut tcfg = self.cfg.train.clone();
        tcfg.stop = Some(self.cancel.clone());
        if let Some(ctx) = ctx {
            if let Some(cap) = ctx.budget.max_epochs {
                tcfg.epochs = tcfg.epochs.min(cap);
            }
            let remaining = ctx.remaining_secs();
            if remaining.is_finite() {
                tcfg.wall_limit_secs = tcfg.wall_limit_secs.min(remaining);
            }
        }
        // The greedy stop is decided on an epoch boundary from checkpointed
        // state and the fingerprinted epoch size only, so a resume that
        // lands on the boundary where the uninterrupted run stopped stops
        // there too. It fires only where it cuts training short, and the
        // trainer asks it before the epoch's updates, which it then skips.
        let (epochs, steps_per_epoch) = (tcfg.epochs, tcfg.steps_per_epoch);
        let greedy_stop = |env: &PlanningEnv, next_epoch: usize| {
            next_epoch < epochs && lost_to_greedy(env, next_epoch * steps_per_epoch, ref_cost)
        };
        let mut hook = |agent: &mut ActorCritic, env: &mut PlanningEnv, p: &TrainProgress<'_>| {
            if let Some(chain) = ckpt {
                let rec = EpochRecord {
                    stats: p.stats.clone(),
                    next_epoch: p.next_epoch,
                    recovery_nonce: p.recovery_nonce,
                    agent: agent.export_state(),
                    env: env.state_json(),
                };
                self.append(chain, rec);
            }
        };
        let report = train_resumable(
            &mut env,
            &mut agent,
            &tcfg,
            &self.tel,
            chaos,
            resume,
            EpochCallbacks {
                stop: Some(&greedy_stop),
                on_epoch: Some(&mut hook),
            },
        );
        if report.stopped {
            self.tel.incr(sys::RL, "greedy_stops", 1);
        }
        // A cancelled run stops here, on the epoch boundary the trainer
        // just checkpointed — never spend the final rollouts or the
        // master on a request nobody is waiting for.
        if self.cancel.is_cancelled() {
            return Err(StageError::Cancelled);
        }

        // Final rollouts: stochastic samples plus one greedy decode. With
        // the wall budget spent, the stochastic extras are dropped but
        // the greedy decode always runs — it is what turns a trained
        // policy into a plan. A policy the greedy stop ended costs over
        // 1.25× greedy, so no rollout of it could pass the
        // `cost <= ref_cost` test below: it runs none, and greedy's plan
        // ships with the certificates training gathered.
        if !report.stopped {
            let _rollouts_span = self.tel.span(sys::PIPELINE, "final_rollouts");
            let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xdead_beef);
            let rollout_cap = self.cfg.train.max_traj_len * 4;
            let wall_spent = |ctx: Option<&StageCtx>| {
                ctx.is_some_and(|c| c.budget.wall_secs.is_finite() && c.remaining_secs() <= 0.0)
            };
            for k in 0..=self.cfg.final_rollouts {
                let greedy_decode = k == self.cfg.final_rollouts;
                if !greedy_decode && wall_spent(ctx) {
                    continue;
                }
                let mut obs = env.reset();
                for _ in 0..rollout_cap {
                    if !obs.has_valid_action() {
                        break;
                    }
                    let action = if greedy_decode {
                        agent.act_greedy(&obs.features, &obs.action_mask)
                    } else {
                        agent.act_with(&obs.features, &obs.action_mask, &mut rng).0
                    };
                    let (o, _, done) = env.step(action);
                    obs = o;
                    if done {
                        break;
                    }
                }
            }
        }

        let rl_best = env.best_plan().cloned();
        let rl_cost = rl_best.as_ref().map(|(c, _)| *c);
        let (cost, units) = match rl_best {
            Some((cost, snap)) if cost <= ref_cost => (cost, snap.as_slice().to_vec()),
            _ => (ref_cost, ref_units),
        };
        let evaluator = env.evaluator_mut();
        Ok(FirstStage {
            units,
            cost,
            rl_cost,
            reference_cost: ref_cost,
            report,
            // Every certificate the evaluator collected: free,
            // already-validated rows for the master.
            certificates: evaluator.certificates(),
            stats: evaluator.take_stats(),
        })
    }

    /// Stage 2 on its own: [`NeuroPlan::plan`]'s second stage under
    /// [`NeuroPlanConfig::supervisor`], so [`NeuroPlan::first_stage`]
    /// followed by this runs the code `plan` runs.
    ///
    /// Panics when no rung of the ladder yields a plan (same contract as
    /// [`NeuroPlan::plan`]).
    pub fn second_stage(
        &self,
        net: &Network,
        first_units: &[u32],
        first_cost: f64,
        seed_cuts: Vec<MetricCut>,
        eval_stats: &mut EvalStats,
    ) -> (MasterOutcome, PruningReport) {
        let sup =
            Supervisor::new(self.cfg.supervisor, self.tel.clone()).with_cancel(self.cancel.clone());
        let stage =
            self.second_stage_supervised(&sup, net, first_units, first_cost, seed_cuts, eval_stats);
        match stage {
            Ok((outcome, pruning, _)) => (outcome, pruning),
            Err(e) => panic!("neuroplan: {e}"),
        }
    }

    /// Stage 2 under the supervisor: the ladder inside the α-box around
    /// the first-stage plan, then a budget-aware 1-opt polish of
    /// whatever rung won as a stage of its own.
    fn second_stage_supervised(
        &self,
        sup: &Supervisor,
        net: &Network,
        first_units: &[u32],
        first_cost: f64,
        seed_cuts: Vec<MetricCut>,
        eval_stats: &mut EvalStats,
    ) -> Result<(MasterOutcome, PruningReport, PlanQuality), PlanFailure> {
        let _stage_span = self.tel.span(sys::PIPELINE, "second_stage");
        let spectrum = MasterConfig::spectrum_bounds(net);
        let bounds = MasterConfig::pruned_bounds(net, first_units, self.cfg.relax_factor);
        let pruning =
            PruningReport::new(net, first_units, &bounds, &spectrum, self.cfg.relax_factor);
        let mut evaluator = PlanEvaluator::with_telemetry(net, self.cfg.eval, self.tel.clone());
        let ladder = Ladder {
            labels: ["master", "lp_round", "heuristic"],
            bounds,
            // The first-stage plan is feasible inside its own α-box, so an
            // "infeasible" master is a solver artifact, not a reason to
            // widen.
            widen: false,
            carried: Some((first_units, first_cost)),
            seed_cuts,
            gap_tol: MasterConfig::DEFAULT_GAP,
            polish_final: false,
        };
        let (outcome, quality) = self.walk_ladder(sup, net, &mut evaluator, ladder)?;

        // Skipping the polish on an exhausted budget is not a failure —
        // the plan is already feasible, polish only trims cost.
        let polished = sup.run("polish", |ctx| {
            let mut m = outcome.clone();
            if m.has_plan() && !ctx.exhausted() {
                let over = polish_units_budgeted(
                    net,
                    &mut evaluator,
                    &mut m.units,
                    &Instant::now(),
                    ctx.remaining_secs(),
                );
                if over > 0 {
                    m.deadline_overshoot_us += over;
                    self.tel.incr(sys::MASTER, "deadline_overshoot_us", over);
                }
                m.cost = plan_cost_of(net, &m.units);
            }
            Ok::<_, StageError>(m)
        });
        let outcome = match polished {
            Ok(m) => m,
            // The token fired while the master ran: the run stops here,
            // it does not ship (or checkpoint) the unpolished plan.
            Err(e @ StageError::Cancelled) => return Err(PlanFailure::from_stage("polish", e)),
            Err(_) => outcome,
        };
        eval_stats.merge(&evaluator.take_stats());
        Ok((outcome, pruning, quality))
    }

    /// The degradation ladder (DESIGN.md §11), for `plan` and `replan`
    /// alike: the master MILP under the supervisor (rungs 0/1), then
    /// LP-relaxation rounding (rung 2), then the carried plan (rung 3).
    pub(crate) fn walk_ladder(
        &self,
        sup: &Supervisor,
        net: &Network,
        evaluator: &mut PlanEvaluator,
        mut ladder: Ladder<'_>,
    ) -> Result<(MasterOutcome, PlanQuality), PlanFailure> {
        let [master, lp_round, heuristic] = ladder.labels;
        let budget = self.cfg.supervisor.budget;
        let failure = loop {
            // `TimeLimit` with an incumbent is a *success* here — anytime
            // semantics — so only a solve that comes back empty-handed is
            // a transient worth retrying (with a widened node budget,
            // since `Limit` is the usual cause).
            let tried = sup.run(master, |ctx| {
                if ctx.exhausted() {
                    return Err(StageError::Transient(
                        "stage budget exhausted before the master solve".to_string(),
                    ));
                }
                let scaled = self
                    .cfg
                    .mip_node_limit
                    .saturating_mul(ctx.attempt as usize + 1);
                let cfg = MasterConfig {
                    cutoff: ladder.carried.map(|(_, c)| MasterConfig::cutoff_for(c)),
                    seed_cuts: ladder.seed_cuts.clone(),
                    gap_tol: ladder.gap_tol,
                    warm_units: ladder.carried.map(|(units, _)| units.to_vec()),
                    polish_final: ladder.polish_final,
                    ..MasterConfig::new(
                        ladder.bounds.clone(),
                        budget.max_nodes.map_or(scaled, |cap| scaled.min(cap)),
                        self.cfg.mip_time_limit_secs.min(ctx.remaining_secs()),
                    )
                };
                let outcome = solve_master_telemetry(net, evaluator, &cfg, &self.tel);
                if outcome.has_plan() {
                    let quality = if outcome.status == MipStatus::Optimal {
                        PlanQuality::Optimal
                    } else {
                        PlanQuality::Incumbent
                    };
                    Ok((outcome, quality))
                } else if outcome.status == MipStatus::Infeasible {
                    Err(StageError::Fatal(
                        "master proved the instance infeasible inside its bounds".to_string(),
                    ))
                } else {
                    Err(StageError::Transient(format!(
                        "master returned no incumbent (status {:?})",
                        outcome.status
                    )))
                }
            });
            match tried {
                Ok(won) => return Ok(won),
                Err(StageError::Fatal(_)) if ladder.widen => {
                    ladder.widen = false;
                    self.tel.incr(sys::PIPELINE, "replan_prune_fallbacks", 1);
                    ladder.bounds = MasterConfig::spectrum_bounds(net);
                }
                Err(e) => break e,
            }
        };

        // Cancellation never walks the ladder — not even to the carried
        // plan: the point is to free the worker now, not to degrade.
        if !matches!(failure, StageError::Cancelled) && sup.may_degrade() {
            sup.note_degrade(master, PlanQuality::Rounded);
            let rounded = sup.run(lp_round, |ctx| {
                if ctx.exhausted() {
                    return Err(StageError::Transient(
                        "stage budget exhausted before LP rounding".to_string(),
                    ));
                }
                let cfg = MasterConfig {
                    gap_tol: ladder.gap_tol,
                    ..MasterConfig::new(
                        ladder.bounds.clone(),
                        self.cfg.mip_node_limit,
                        self.cfg.mip_time_limit_secs,
                    )
                };
                let mut deadline = || ctx.remaining_secs() <= 0.0;
                lp_round_plan(net, evaluator, &cfg, &mut deadline, &self.tel).ok_or_else(|| {
                    StageError::Transient("LP rounding found no verifiable plan".to_string())
                })
            });
            match (rounded, ladder.carried) {
                (Ok((units, cost)), _) => {
                    return Ok((degraded(units, cost), PlanQuality::Rounded));
                }
                (Err(e @ StageError::Cancelled), _) => {
                    return Err(PlanFailure::from_stage(lp_round, e));
                }
                // The carried plan verifies, so this rung cannot fail.
                (Err(_), Some((units, cost))) => {
                    sup.note_degrade(lp_round, PlanQuality::Heuristic);
                    sup.note_skip(heuristic);
                    return Ok((degraded(units.to_vec(), cost), PlanQuality::Heuristic));
                }
                (Err(_), None) => {}
            }
        }
        let why = if sup.may_degrade() {
            "LP rounding failed too and no carried plan verifies, so no lower rung is left"
        } else {
            "degradation is disabled (no_degrade)"
        };
        let failure = match failure {
            StageError::Transient(reason) => StageError::Transient(format!("{reason}; {why}")),
            other => other,
        };
        Err(PlanFailure::from_stage(master, failure))
    }
}

/// What a caller brings to [`NeuroPlan::walk_ladder`]: data, not code.
pub(crate) struct Ladder<'a> {
    /// Stage labels of the master, LP-rounding and carried-plan rungs:
    /// what the supervision report and an injected kill name.
    pub labels: [&'static str; 3],
    /// The box the master and the rounding rung search.
    pub bounds: Vec<u32>,
    /// Retry once in full spectrum bounds when the master proves
    /// `bounds` infeasible.
    pub widen: bool,
    /// A plan that verifies on the instance, with its cost: the master's
    /// warm start and cutoff, and the last rung. `None` when the
    /// caller's plan failed its probe — the master may return its warm
    /// plan as is, so an infeasible one must never reach it.
    pub carried: Option<(&'a [u32], f64)>,
    /// Benders cuts known to be valid before the search starts.
    pub seed_cuts: Vec<MetricCut>,
    /// Relative optimality gap of the master.
    pub gap_tol: f64,
    /// Polish inside the master rather than as a stage of the caller's.
    pub polish_final: bool,
}

/// The outcome of a rung below the MILP: a plan and nothing proved.
fn degraded(units: Vec<u32>, cost: f64) -> MasterOutcome {
    MasterOutcome {
        status: MipStatus::TimeLimit,
        cost,
        units,
        ..MasterOutcome::default()
    }
}

/// Validate a finished plan end-to-end with a fresh exact evaluator —
/// harnesses call this before trusting any reported cost. On failure the
/// error names the violated constraint (the first link whose entry the
/// network cannot take, else the first infeasible scenario).
pub fn validate_plan(net: &Network, units: &[u32]) -> Result<(), PlanError> {
    let check = certificate::planned(net, units)?;
    let mut evaluator = np_eval::PlanEvaluator::new(&check, self_exact());
    let outcome = evaluator.check_network(&check);
    if outcome.feasible {
        return Ok(());
    }
    let scenario = outcome.first_violated.unwrap_or(0);
    Err(if outcome.structural {
        PlanError::StructurallyInfeasible { scenario }
    } else {
        PlanError::ScenarioInfeasible { scenario }
    })
}

fn self_exact() -> np_eval::EvalConfig {
    np_eval::EvalConfig::default()
}

/// A [`Certificate`] for `units` on `net`, from the evaluator's primal
/// witnesses ([`np_eval::path_witness`]); `None` when the units do not
/// fit the links or some scenario yields no witness. It proves nothing
/// until [`certificate::verify`] accepts it.
pub fn certify(net: &Network, units: &[u32]) -> Option<Certificate> {
    let planned = certificate::planned(net, units).ok()?;
    let scenarios = np_eval::path_witness(&planned)?;
    Some(Certificate { scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeuroPlanConfig;
    use np_topology::generator::GeneratorConfig;

    fn quick_plan(fill: f64) -> (Network, NeuroPlanResult) {
        let net = GeneratorConfig::a_variant(fill).generate();
        let planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(1));
        let result = planner.plan(&net);
        (net, result)
    }

    #[test]
    fn two_stage_produces_a_valid_plan_from_scratch() {
        let (net, result) = quick_plan(0.0);
        assert!(result.final_cost > 0.0);
        assert!(result.final_cost <= result.first_stage_cost + 1e-9);
        validate_plan(&net, &result.final_units).expect("final plan validates");
        validate_plan(&net, &result.first_stage_units).expect("first-stage plan validates");
        // An unlimited budget never degrades below the incumbent rung.
        assert!(result.quality <= PlanQuality::Incumbent);
        assert_eq!(result.supervision.degrades, 0);
        assert!(result.supervision.stage("master").is_some());
    }

    #[test]
    fn validate_plan_names_the_link_that_cannot_take_its_units() {
        // A plan from outside (`evaluate --plan`, a daemon request) may
        // undercut a minimum or overrun a fiber; both are verdicts, not
        // panics.
        let net = GeneratorConfig::a_variant(0.5).generate();
        let current: Vec<u32> = net.link_ids().map(|l| net.link(l).capacity_units).collect();
        let low = net
            .link_ids()
            .find(|&l| net.link(l).min_units > 0)
            .expect("a half-filled instance pins some minimums");
        let mut below = current.clone();
        below[low.index()] = net.link(low).min_units - 1;
        assert_eq!(
            validate_plan(&net, &below),
            Err(PlanError::BelowMinimum { link: low.index() })
        );
        let mut above = current;
        above[0] += net.spectrum_room_units(np_topology::LinkId::new(0)) + 1;
        match validate_plan(&net, &above) {
            Err(e @ PlanError::SpectrumExceeded { link: 0, .. }) => {
                assert!(e.to_string().contains("link 0"), "{e}")
            }
            other => panic!("expected a spectrum verdict on link 0, got {other:?}"),
        }
    }

    #[test]
    fn second_stage_only_trims_from_a_warm_start() {
        let (net, result) = quick_plan(0.75);
        // With most capacity pre-provisioned, stage 2 must still deliver a
        // feasible plan within bounds.
        validate_plan(&net, &result.final_units).expect("final plan validates");
        // Bounds honored: every final capacity within the pruned bound.
        for (i, &(l, _, _, ub, _)) in result.pruning.per_link.iter().enumerate() {
            assert!(
                result.final_units[i] <= ub,
                "link {l} exceeds its pruned bound"
            );
        }
    }

    #[test]
    fn training_report_and_stats_are_populated() {
        let (_, result) = quick_plan(0.5);
        assert!(result.train_report.epochs_run() > 0);
        assert!(result.eval_stats.scenario_checks > 0);
        assert!(result.pruning.reduction_log10() >= 0.0);
    }

    #[test]
    fn validate_plan_names_the_violated_constraint() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        let links = net.link_ids().count();
        let short = validate_plan(&net, &vec![0u32; links - 1]);
        assert_eq!(
            short,
            Err(PlanError::WrongLength {
                expected: links,
                got: links - 1
            })
        );
        // A dark network fails at the first scenario and says so.
        let dark = validate_plan(&net, &vec![0u32; links]);
        match dark {
            Err(PlanError::ScenarioInfeasible { scenario }) => {
                let msg = PlanError::ScenarioInfeasible { scenario }.to_string();
                assert!(
                    msg.contains("scenario"),
                    "message names the scenario: {msg}"
                );
            }
            other => panic!("expected a scenario violation, got {other:?}"),
        }
    }

    #[test]
    fn epoch_budget_degrades_gracefully_not_fatally() {
        // One training epoch and a starved node budget: the run must
        // still produce a validated plan, possibly on a lower rung.
        let net = GeneratorConfig::a_variant(0.5).generate();
        let mut cfg = NeuroPlanConfig::quick().with_seed(3);
        cfg.supervisor.budget.max_epochs = Some(1);
        cfg.mip_node_limit = 1;
        let result = NeuroPlan::new(cfg).plan(&net);
        validate_plan(&net, &result.final_units).expect("degraded plan still validates");
        assert!(result.train_report.epochs_run() <= 1);
    }

    #[test]
    fn no_degrade_reports_a_stage_exhausted_error() {
        // A zero wall budget starves the first stage before the greedy
        // reference; with degradation off this must surface as an error,
        // not a panic or a silent bad plan.
        let net = GeneratorConfig::a_variant(0.5).generate();
        let mut cfg = NeuroPlanConfig::quick().with_seed(3);
        cfg = cfg.with_stage_budget(0.0).with_degrade(false);
        cfg.supervisor.retry.max_retries = 0;
        match NeuroPlan::new(cfg).try_plan(&net) {
            Err(PlanFailure::StageExhausted { stage, .. }) => {
                assert_eq!(stage, "master");
            }
            other => panic!("expected StageExhausted, got {other:?}"),
        }
    }
}
