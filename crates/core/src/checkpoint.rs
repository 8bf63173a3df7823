//! The record family of the planner's chains: every record
//! [`crate::NeuroPlan`] appends to `<checkpoint-dir>/checkpoint.jsonl`
//! (`meta`, `epoch`, `first_stage`, `master`) and `replan.jsonl`
//! (`replan_meta`, `replan_event`) has its wire keys and codecs written
//! here, once, as the `rows` both its encoder and its decoder run
//! (format: DESIGN.md §10; substrate and codecs: [`np_chaos::checkpoint`]).
//!
//! Every `f64` that must survive bit-exactly (costs, returns, cut
//! coefficients) travels as little-endian hex; small counters travel as
//! plain JSON numbers. A record decodes to `None` on any shape mismatch —
//! the pipeline then ignores it and starts fresh rather than resuming
//! from a record it cannot fully trust.

use crate::config::NeuroPlanConfig;
use crate::master::MasterOutcome;
use crate::pipeline::FirstStage;
use crate::replan::EventReport;
use np_chaos::checkpoint::{
    flag, fnv1a64, hex, nullable, num, since, text, units, Io, Rows, Typed, Value,
};
use np_chaos::record;
use np_eval::evaluator::{decode_cert, encode_cert};
use np_flow::MetricCut;
use np_lp::MipStatus;
use np_rl::EpochStats;
use np_supervisor::PlanQuality;
use np_topology::Network;

/// Stable fingerprint of (instance, run-shaping config). A resume under
/// a different topology, seed or budget must not splice runs together,
/// so the `meta` record carries this and mismatches discard the file.
pub fn fingerprint(net: &Network, cfg: &NeuroPlanConfig) -> String {
    // Supervisor knobs shape which rung of the ladder produced the
    // recorded result, so they are part of the fingerprint: a resume
    // under a different budget or retry policy must recompute, not
    // splice. The wall budget travels as bits so INFINITY is stable.
    let sup = &cfg.supervisor;
    // The closing `Sparse` names the simplex engine, as it did when there
    // were two; it stays so every fingerprint keeps its bytes.
    let tag = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{:016x}|{:?}|{:?}|{}|{}|Sparse{}",
        cfg.seed,
        cfg.train.epochs,
        cfg.train.steps_per_epoch,
        cfg.train.num_actors,
        cfg.relax_factor,
        cfg.max_units_per_step,
        cfg.final_rollouts,
        cfg.mip_node_limit,
        sup.budget.wall_secs.to_bits(),
        sup.budget.max_nodes,
        sup.budget.max_epochs,
        sup.retry.max_retries,
        sup.degrade,
        shape(cfg),
    );
    format!("{:016x}", hashed(net, &tag))
}

/// The agent's shape as a tag suffix. Both budgets give 2 GCN layers and
/// an MLP as wide as the GCN; that shape adds nothing, so every key from
/// before the shape could be requested keeps its bytes.
fn shape(cfg: &NeuroPlanConfig) -> String {
    let agent = &cfg.agent;
    match agent.gnn_layers == 2 && agent.mlp_hidden == [agent.gnn_hidden; 2] {
        true => String::new(),
        false => format!("|gnn{}|mlp{:?}", agent.gnn_layers, agent.mlp_hidden),
    }
}

/// FNV-1a of the instance JSON and a config tag.
fn hashed(net: &Network, tag: &str) -> u64 {
    fnv1a64(format!("{}\n{tag}", net.to_json()).as_bytes())
}

/// Key of everything the first stage reads: the [`fingerprint`] minus the
/// second stage's settings (`relax_factor`, `mip_node_limit`,
/// `budget.max_nodes`, `degrade`). Runs with equal keys train the same
/// policy to the same `first_stage` record, so `epoch` and `first_stage`
/// records may be carried between them. The `fs-` prefix keeps the key
/// apart from fingerprints where one map holds both.
pub fn first_stage_key(net: &Network, cfg: &NeuroPlanConfig) -> String {
    let sup = &cfg.supervisor;
    let tag = format!(
        "{}|{}|{}|{}|{}|{}|{:016x}|{:?}|{}|Sparse{}",
        cfg.seed,
        cfg.train.epochs,
        cfg.train.steps_per_epoch,
        cfg.train.num_actors,
        cfg.max_units_per_step,
        cfg.final_rollouts,
        sup.budget.wall_secs.to_bits(),
        sup.budget.max_epochs,
        sup.retry.max_retries,
        shape(cfg),
    );
    format!("fs-{:016x}", hashed(net, &tag))
}

/// The `meta` record that opens `checkpoint.jsonl`: whose chain it is.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Meta {
    /// The run's [`fingerprint`]: on a match every record of the chain
    /// belongs to this run.
    pub fp: String,
    /// The run's [`first_stage_key`]: on a match the chain's `epoch` and
    /// `first_stage` records are this run's too. Empty in a `meta`
    /// written before the key existed, which matches nothing.
    pub fs: String,
}

record! { Meta = "meta" {
    text "fp" => fp,
    since(text) "fs" => fs,
}}

/// Stable tag of a churn stream + replan knobs. Part of the replan meta
/// record: resuming under a different event list or solver setting must
/// recompute, not splice. `events` are the event display strings;
/// `knob_bits` the replan config's numeric knobs as raw bits.
pub fn replan_stream_tag(events: &[String], initial_units: &[u32], knob_bits: &[u64]) -> String {
    let mut blob = events.join(";");
    blob.push('\n');
    for u in initial_units {
        blob.push_str(&format!("{u},"));
    }
    blob.push('\n');
    for b in knob_bits {
        blob.push_str(&format!("{b:016x},"));
    }
    format!("{:016x}", fnv1a64(blob.as_bytes()))
}

/// The `replan_meta` record that opens `replan.jsonl`: whose stream it
/// is. A resume continues the chain only when both members match.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplanMeta {
    /// Fingerprint of the pre-stream instance.
    pub fp: String,
    /// The stream's [`replan_stream_tag`].
    pub stream: String,
}

record! { ReplanMeta = "replan_meta" {
    text "fp" => fp,
    text "stream" => stream,
}}

impl ReplanMeta {
    /// Whether this chain is the stream `stream` run from the instance
    /// whose fingerprint is `fp_now`.
    pub fn matches(&self, stream: &str, fp_now: &str) -> bool {
        self.stream == stream && self.fp == fp_now
    }
}

/// One `replan_event` record: everything the re-planning loop needs to
/// resume *after* this event without recomputing it — the plan it
/// settled on, the evaluator state (certificates included, so no
/// still-valid cut is re-derived), and the fingerprint chain that proves
/// the record belongs to this instance's history.
#[derive(Clone, Debug, Default)]
pub struct ReplanEventRecord {
    /// What happened at the event, as the stream's report tells it
    /// (`resumed` and `millis` belong to a run and stay off the wire).
    pub report: EventReport,
    /// Fingerprint of the instance *before* this event (the ancestor).
    pub ancestor_fp: String,
    /// Fingerprint of the instance *after* this event.
    pub fp: String,
    /// Plan units after re-planning this event.
    pub units: Vec<u32>,
    /// [`np_eval::PlanEvaluator::snapshot_state`] blob taken after the
    /// event's solve (carries every retained certificate).
    pub eval: String,
}

record! { ReplanEventRecord = "replan_event" {
    num "k" => report.index,
    text "class" => report.class,
    text "event" => report.event,
    text "afp" => ancestor_fp,
    text "fp" => fp,
    hex "cost" => report.cost,
    units "units" => units,
    text "eval" => eval,
    quality "quality" => report.quality,
    nullable(text) "skipped" => report.skipped,
    num "churn" => report.churn,
    num "retained" => report.certs_retained,
    num "dropped" => report.certs_dropped,
    flag "flapped" => report.flapped,
}}

/// One `epoch` record: the loop counters a resume needs plus the
/// serialized agent and environment.
#[derive(Clone, Debug, Default)]
pub struct EpochRecord {
    /// This epoch's statistics.
    pub stats: EpochStats,
    /// Epoch index the resumed run continues from.
    pub next_epoch: usize,
    /// NaN rollbacks so far (feeds the recovery stream seed).
    pub recovery_nonce: u64,
    /// [`np_rl::ActorCritic::export_state`] blob.
    pub agent: String,
    /// [`crate::PlanningEnv::state_json`] blob.
    pub env: String,
}

record! { EpochRecord = "epoch" {
    num "epoch" => stats.epoch,
    hex "mean_return" => stats.mean_return,
    num "completed" => stats.completed,
    num "truncated" => stats.truncated,
    hex "mean_length" => stats.mean_length,
    num "next_epoch" => next_epoch,
    num "recovery_nonce" => recovery_nonce,
    text "agent" => agent,
    text "env" => env,
}}

// The `first_stage` record is the [`FirstStage`] itself. Its `report` is
// reassembled from the `epoch` records on a resume; the evaluator stats
// of the original run are not reconstructed.
record! { FirstStage = "first_stage" {
    hex "cost" => cost,
    units "units" => units,
    nullable(hex) "rl_cost" => rl_cost,
    hex "reference_cost" => reference_cost,
    certs "certs" => certificates,
}}

/// The `master` record: the second stage's outcome and the ladder rung
/// it settled on — a finished-run resume must report the same
/// [`PlanQuality`] the original run did, so it is recorded rather than
/// re-derived.
#[derive(Clone, Debug, Default)]
pub struct MasterRecord {
    /// The solver outcome.
    pub outcome: MasterOutcome,
    /// The rung the run settled on.
    pub quality: PlanQuality,
}

impl Typed for MasterRecord {
    const KIND: &'static str = "master";
}

impl Rows for MasterRecord {
    fn rows(&mut self, io: &mut Io<'_>) -> Option<()> {
        let m = &mut self.outcome;
        status(io, "status", &mut m.status)?;
        hex(io, "cost", &mut m.cost)?;
        units(io, "units", &mut m.units)?;
        num(io, "nodes", &mut m.nodes)?;
        num(io, "cuts_added", &mut m.cuts_added)?;
        hex(io, "best_bound", &mut m.best_bound)?;
        since(io, "overshoot_us", &mut m.deadline_overshoot_us, num)?;
        // Records written before the anytime supervisor carry no rung:
        // those infer it from the status (proven optimal → `Optimal`,
        // anything with a plan → `Incumbent`).
        if matches!(io, Io::Take(_)) && m.status != MipStatus::Optimal {
            self.quality = PlanQuality::Incumbent;
        }
        since(io, "quality", &mut self.quality, quality)?;
        // For readers of the file; never read back.
        since(io, "rung", &mut self.quality.rung(), num)
    }
}

const STATUS_NAMES: [(MipStatus, &str); 6] = [
    (MipStatus::Optimal, "optimal"),
    (MipStatus::Feasible, "feasible"),
    (MipStatus::Infeasible, "infeasible"),
    (MipStatus::Limit, "limit"),
    (MipStatus::TimeLimit, "time-limit"),
    (MipStatus::Unbounded, "unbounded"),
];

/// Row codec: a [`MipStatus`] as its stable wire name.
fn status(io: &mut Io<'_>, key: &str, x: &mut MipStatus) -> Option<()> {
    let named = |s: &mut MipStatus| STATUS_NAMES.iter().find(|(status, _)| status == s);
    let enc =
        |s: &mut MipStatus| Value::Str(named(s).expect("every status is named").1.to_string());
    let dec = |v: &Value| Some(STATUS_NAMES.iter().find(|(_, n)| Some(*n) == v.as_str())?.0);
    io.row(key, x, enc, dec)
}

/// Row codec: metric cuts as an array of their [`encode_cert`] texts.
fn certs(io: &mut Io<'_>, key: &str, x: &mut Vec<MetricCut>) -> Option<()> {
    let enc = |c: &mut Vec<MetricCut>| {
        Value::Array(c.iter().map(|c| Value::Str(encode_cert(c))).collect())
    };
    let cert = |v: &Value| decode_cert(v.as_str()?);
    io.row(key, x, enc, |v| v.as_array()?.iter().map(cert).collect())
}

/// Row codec: a [`PlanQuality`] as its stable wire name.
fn quality(io: &mut Io<'_>, key: &str, x: &mut PlanQuality) -> Option<()> {
    let enc = |q: &mut PlanQuality| Value::Str(q.name().to_string());
    io.row(key, x, enc, |v| PlanQuality::from_name(v.as_str()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    #[test]
    fn fingerprint_separates_instances_and_configs() {
        let a = GeneratorConfig::preset(TopologyPreset::A).generate();
        let b = GeneratorConfig::preset(TopologyPreset::B).generate();
        let cfg = NeuroPlanConfig::quick();
        let fa = fingerprint(&a, &cfg);
        assert_eq!(fa, fingerprint(&a, &cfg), "fingerprint is stable");
        assert_ne!(fa, fingerprint(&b, &cfg), "topology changes it");
        assert_ne!(
            fa,
            fingerprint(&a, &cfg.clone().with_seed(9)),
            "seed changes it"
        );
    }

    #[test]
    fn first_stage_key_ignores_exactly_the_second_stage_settings() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let cfg = NeuroPlanConfig::quick();
        let key = first_stage_key(&net, &cfg);
        assert!(key.starts_with("fs-") && key.len() == 19, "{key}");
        let mut second = cfg.clone().with_degrade(false);
        second.relax_factor = 2.0;
        second.mip_node_limit += 1;
        second.supervisor.budget.max_nodes = Some(7);
        assert_eq!(key, first_stage_key(&net, &second));
        assert_ne!(fingerprint(&net, &cfg), fingerprint(&net, &second));
        // The thread budget is neither: it trains and plans the same bits.
        let threads = cfg.clone().with_workers(1);
        assert_eq!(key, first_stage_key(&net, &threads));
        assert_eq!(fingerprint(&net, &cfg), fingerprint(&net, &threads));
        let moved: [fn(&mut NeuroPlanConfig); 10] = [
            |c| *c = c.clone().with_seed(9),
            |c| *c = c.clone().with_stage_budget(30.0),
            |c| *c = c.clone().with_max_retries(7),
            |c| c.train.epochs += 1,
            |c| c.train.steps_per_epoch += 1,
            |c| c.max_units_per_step += 1,
            |c| c.final_rollouts += 1,
            |c| c.supervisor.budget.max_epochs = Some(3),
            |c| c.agent.gnn_layers = 0,
            |c| c.agent.mlp_hidden = vec![16, 16],
        ];
        for (i, edit) in moved.iter().enumerate() {
            let mut other = cfg.clone();
            edit(&mut other);
            assert_ne!(key, first_stage_key(&net, &other), "config change {i}");
            assert_ne!(
                fingerprint(&net, &cfg),
                fingerprint(&net, &other),
                "config change {i}"
            );
        }
        let b = GeneratorConfig::preset(TopologyPreset::B).generate();
        assert_ne!(key, first_stage_key(&b, &cfg), "topology changes it");
    }

    #[test]
    fn fingerprint_tracks_supervisor_knobs() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let cfg = NeuroPlanConfig::quick();
        let base = fingerprint(&net, &cfg);
        assert_ne!(
            base,
            fingerprint(&net, &cfg.clone().with_stage_budget(30.0)),
            "stage budget changes it"
        );
        assert_ne!(
            base,
            fingerprint(&net, &cfg.clone().with_degrade(false)),
            "degradation toggle changes it"
        );
        assert_ne!(
            base,
            fingerprint(&net, &cfg.clone().with_max_retries(7)),
            "retry policy changes it"
        );
    }
}
