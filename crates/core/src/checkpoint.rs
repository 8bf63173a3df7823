//! Pipeline checkpoint records: encoding/decoding of the `meta`,
//! `epoch`, `first_stage` and `master` record bodies that
//! [`crate::NeuroPlan`] appends to `<checkpoint-dir>/checkpoint.jsonl`
//! (format: DESIGN.md §10; substrate: [`np_chaos::checkpoint`]).
//!
//! Every `f64` that must survive bit-exactly (costs, returns, cut
//! coefficients) travels as little-endian hex; small counters travel as
//! plain JSON numbers. Decoders return `None` on any shape mismatch —
//! the pipeline then ignores the checkpoint and starts fresh rather than
//! resuming from a record it cannot fully trust.

use crate::config::NeuroPlanConfig;
use crate::master::MasterOutcome;
use crate::pipeline::FirstStage;
use np_chaos::checkpoint::{f64_to_hex, fnv1a64, hex_to_f64};
use np_eval::evaluator::{decode_cert, encode_cert};
use np_flow::MetricCut;
use np_lp::MipStatus;
use np_rl::{EpochStats, TrainProgress, TrainReport};
use np_supervisor::PlanQuality;
use np_topology::Network;
use serde_json::Value;

/// Stable fingerprint of (instance, run-shaping config). A resume under
/// a different topology, seed or budget must not splice runs together,
/// so the `meta` record carries this and mismatches discard the file.
pub fn fingerprint(net: &Network, cfg: &NeuroPlanConfig) -> String {
    // Supervisor knobs shape which rung of the ladder produced the
    // recorded result, so they are part of the fingerprint: a resume
    // under a different budget or retry policy must recompute, not
    // splice. The wall budget travels as bits so INFINITY is stable.
    let sup = &cfg.supervisor;
    // The *resolved* simplex backend is part of the fingerprint: the two
    // engines may reach equal-cost plans through different pivot
    // sequences, so a resume across a backend switch (flag or
    // NP_LP_BACKEND) must recompute rather than splice.
    let tag = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{:016x}|{:?}|{:?}|{}|{}|{:?}",
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
        cfg.lp_backend.resolved(),
    );
    format!("{:016x}", hashed(net, &tag))
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
        "{}|{}|{}|{}|{}|{}|{:016x}|{:?}|{}|{:?}",
        cfg.seed,
        cfg.train.epochs,
        cfg.train.steps_per_epoch,
        cfg.train.num_actors,
        cfg.max_units_per_step,
        cfg.final_rollouts,
        sup.budget.wall_secs.to_bits(),
        sup.budget.max_epochs,
        sup.retry.max_retries,
        cfg.lp_backend.resolved(),
    );
    format!("fs-{:016x}", hashed(net, &tag))
}

/// Body of the `meta` record: the run's [`fingerprint`] and its
/// [`first_stage_key`].
pub fn meta_body(fp: &str, first_stage_key: &str) -> Value {
    Value::Object(vec![
        ("fp".to_string(), Value::Str(fp.to_string())),
        ("fs".to_string(), Value::Str(first_stage_key.to_string())),
    ])
}

/// Whether `body` is a `meta` record matching `fp`: every record of its
/// chain belongs to this run.
pub fn meta_matches(body: &Value, fp: &str) -> bool {
    body.get("fp").and_then(Value::as_str) == Some(fp)
}

/// Whether `body` is a `meta` record of a run with this first-stage key:
/// its chain's `epoch` and `first_stage` records are this run's too. A
/// `meta` written before the key existed matches nothing.
pub fn meta_first_stage_matches(body: &Value, first_stage_key: &str) -> bool {
    body.get("fs").and_then(Value::as_str) == Some(first_stage_key)
}

/// How a checkpoint relates to the instance a resume was asked for.
///
/// Historically a checkpoint was only usable on the *identical* run
/// (`Exact`). Re-planning relaxes that to *resumable ancestry*: a
/// checkpoint taken against topology `T` is still usable on a perturbed
/// `T′` when the chain of per-event records connects them — each record
/// carries the fingerprint of the state it was taken from (`afp`) and
/// the state it produced (`fp`), so the resume can locate the current
/// instance in the chain and replay only what follows. Unchanged runs
/// still match `Exact` and keep bit-identical kill-and-resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaMatch {
    /// The instance is the one the checkpoint started from.
    Exact,
    /// The instance is a recorded descendant: resume from the matching
    /// record (0-based index into the event records) instead of the top.
    Ancestor(usize),
    /// The checkpoint belongs to a different instance/stream; ignore it.
    Mismatch,
}

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

/// Body of the `replan_meta` record: the fingerprint of the pre-stream
/// instance, the stream tag, and the starting plan's cost (`cost0` —
/// an ancestor resume has no way to recompute it, since the caller no
/// longer holds the pre-stream instance).
pub fn replan_meta_body(fp: &str, stream: &str, cost0: f64) -> Value {
    Value::Object(vec![
        ("fp".to_string(), Value::Str(fp.to_string())),
        ("stream".to_string(), Value::Str(stream.to_string())),
        ("cost0".to_string(), Value::Str(f64_to_hex(cost0))),
    ])
}

/// The starting plan's cost recorded in a `replan_meta` body.
pub fn replan_meta_cost0(body: &Value) -> Option<f64> {
    hex_field(body, "cost0")
}

/// Whether `body` is a `replan_meta` record for this instance + stream.
pub fn replan_meta_matches(body: &Value, fp: &str, stream: &str) -> bool {
    body.get("fp").and_then(Value::as_str) == Some(fp)
        && body.get("stream").and_then(Value::as_str) == Some(stream)
}

/// Classify a resume request against a replan checkpoint: `fp_now` is
/// the fingerprint of the instance the caller holds, `meta` the decoded
/// `replan_meta` body, `event_fps` the post-event fingerprints of the
/// decoded event records in order.
pub fn classify_replan_meta(
    meta: &Value,
    stream: &str,
    fp_now: &str,
    event_fps: &[String],
) -> MetaMatch {
    if meta.get("stream").and_then(Value::as_str) != Some(stream) {
        return MetaMatch::Mismatch;
    }
    if meta.get("fp").and_then(Value::as_str) == Some(fp_now) {
        return MetaMatch::Exact;
    }
    match event_fps.iter().rposition(|fp| fp == fp_now) {
        Some(i) => MetaMatch::Ancestor(i),
        None => MetaMatch::Mismatch,
    }
}

/// One decoded `replan_event` record: everything the re-planning loop
/// needs to resume *after* this event without recomputing it — the plan
/// it settled on, the evaluator state (certificates included, so no
/// still-valid cut is re-derived), and the fingerprint chain that proves
/// the record belongs to this instance's history.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplanEventRecord {
    /// 0-based position in the event stream.
    pub index: usize,
    /// Event class (`demand-scale`, `link-add`, ...).
    pub class: String,
    /// Event display string (re-parseable by `np_churn`).
    pub event: String,
    /// Fingerprint of the instance *before* this event (the ancestor).
    pub ancestor_fp: String,
    /// Fingerprint of the instance *after* this event.
    pub fp: String,
    /// Plan cost after re-planning this event.
    pub cost: f64,
    /// Plan units after re-planning this event.
    pub units: Vec<u32>,
    /// [`np_eval::PlanEvaluator::snapshot_state`] blob taken after the
    /// event's solve (carries every retained certificate).
    pub eval: String,
    /// Ladder rung the event's solve settled on.
    pub quality: PlanQuality,
    /// `Some(reason)` when the event could not be applied and was skipped
    /// (the instance and plan are unchanged).
    pub skipped: Option<String>,
    /// L1 distance between the carried plan and the re-planned one.
    pub churn: u64,
    /// Certificates carried through the event's perturbation.
    pub retained: u64,
    /// Certificates invalidated by the event's perturbation.
    pub dropped: u64,
    /// Whether a chaos link-flap was recovered during this event.
    pub flapped: bool,
}

/// Body of a `replan_event` record.
pub fn replan_event_body(r: &ReplanEventRecord) -> Value {
    Value::Object(vec![
        ("k".to_string(), num(r.index as u64)),
        ("class".to_string(), Value::Str(r.class.clone())),
        ("event".to_string(), Value::Str(r.event.clone())),
        ("afp".to_string(), Value::Str(r.ancestor_fp.clone())),
        ("fp".to_string(), Value::Str(r.fp.clone())),
        ("cost".to_string(), Value::Str(f64_to_hex(r.cost))),
        ("units".to_string(), units_value(&r.units)),
        ("eval".to_string(), Value::Str(r.eval.clone())),
        (
            "quality".to_string(),
            Value::Str(r.quality.name().to_string()),
        ),
        (
            "skipped".to_string(),
            match &r.skipped {
                Some(reason) => Value::Str(reason.clone()),
                None => Value::Null,
            },
        ),
        ("churn".to_string(), num(r.churn)),
        ("retained".to_string(), num(r.retained)),
        ("dropped".to_string(), num(r.dropped)),
        ("flapped".to_string(), num(u64::from(r.flapped))),
    ])
}

/// Decode a `replan_event` record body.
pub fn decode_replan_event(body: &Value) -> Option<ReplanEventRecord> {
    let skipped = match body.get("skipped")? {
        Value::Null => None,
        v => Some(v.as_str()?.to_string()),
    };
    Some(ReplanEventRecord {
        index: u64_field(body, "k")? as usize,
        class: str_field(body, "class")?,
        event: str_field(body, "event")?,
        ancestor_fp: str_field(body, "afp")?,
        fp: str_field(body, "fp")?,
        cost: hex_field(body, "cost")?,
        units: units_field(body, "units")?,
        eval: str_field(body, "eval")?,
        quality: PlanQuality::from_name(&str_field(body, "quality")?)?,
        skipped,
        churn: u64_field(body, "churn")?,
        retained: u64_field(body, "retained")?,
        dropped: u64_field(body, "dropped")?,
        flapped: u64_field(body, "flapped")? != 0,
    })
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn str_field(body: &Value, key: &str) -> Option<String> {
    Some(body.get(key)?.as_str()?.to_string())
}

fn u64_field(body: &Value, key: &str) -> Option<u64> {
    body.get(key)?.as_u64()
}

fn hex_field(body: &Value, key: &str) -> Option<f64> {
    hex_to_f64(body.get(key)?.as_str()?)
}

fn units_value(units: &[u32]) -> Value {
    Value::Array(units.iter().map(|&u| num(u64::from(u))).collect())
}

fn units_field(body: &Value, key: &str) -> Option<Vec<u32>> {
    body.get(key)?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|u| u32::try_from(u).ok()))
        .collect()
}

/// One decoded `epoch` record: the loop counters a resume needs plus the
/// serialized agent and environment.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// This epoch's statistics.
    pub stats: EpochStats,
    /// Epoch index the resumed run continues from.
    pub next_epoch: usize,
    /// Convergence streak after this epoch.
    pub converged_run: usize,
    /// Mean return the next convergence check compares against.
    pub prev_return: f64,
    /// NaN rollbacks so far (feeds the recovery stream seed).
    pub recovery_nonce: u64,
    /// [`np_rl::ActorCritic::export_state`] blob.
    pub agent: String,
    /// [`np_rl::GraphEnv::state_json`] blob.
    pub env: String,
}

/// Body of an `epoch` record.
pub fn epoch_body(p: &TrainProgress<'_>, agent_blob: &str, env_blob: &str) -> Value {
    Value::Object(vec![
        ("epoch".to_string(), num(p.stats.epoch as u64)),
        (
            "mean_return".to_string(),
            Value::Str(f64_to_hex(p.stats.mean_return)),
        ),
        ("completed".to_string(), num(p.stats.completed as u64)),
        ("truncated".to_string(), num(p.stats.truncated as u64)),
        (
            "mean_length".to_string(),
            Value::Str(f64_to_hex(p.stats.mean_length)),
        ),
        ("next_epoch".to_string(), num(p.next_epoch as u64)),
        ("converged_run".to_string(), num(p.converged_run as u64)),
        (
            "prev_return".to_string(),
            Value::Str(f64_to_hex(p.prev_return)),
        ),
        ("recovery_nonce".to_string(), num(p.recovery_nonce)),
        ("agent".to_string(), Value::Str(agent_blob.to_string())),
        ("env".to_string(), Value::Str(env_blob.to_string())),
    ])
}

/// Decode an `epoch` record body.
pub fn decode_epoch(body: &Value) -> Option<EpochRecord> {
    Some(EpochRecord {
        stats: EpochStats {
            epoch: u64_field(body, "epoch")? as usize,
            mean_return: hex_field(body, "mean_return")?,
            completed: u64_field(body, "completed")? as usize,
            truncated: u64_field(body, "truncated")? as usize,
            mean_length: hex_field(body, "mean_length")?,
        },
        next_epoch: u64_field(body, "next_epoch")? as usize,
        converged_run: u64_field(body, "converged_run")? as usize,
        prev_return: hex_field(body, "prev_return")?,
        recovery_nonce: u64_field(body, "recovery_nonce")?,
        agent: str_field(body, "agent")?,
        env: str_field(body, "env")?,
    })
}

/// Body of the `first_stage` record.
pub fn first_stage_body(first: &FirstStage) -> Value {
    let certs = first
        .certificates
        .iter()
        .map(|c| Value::Str(encode_cert(c)));
    Value::Object(vec![
        ("cost".to_string(), Value::Str(f64_to_hex(first.cost))),
        ("units".to_string(), units_value(&first.units)),
        (
            "rl_cost".to_string(),
            match first.rl_cost {
                Some(c) => Value::Str(f64_to_hex(c)),
                None => Value::Null,
            },
        ),
        (
            "reference_cost".to_string(),
            Value::Str(f64_to_hex(first.reference_cost)),
        ),
        ("certs".to_string(), Value::Array(certs.collect())),
    ])
}

/// Decode a `first_stage` record body. `report` supplies the per-epoch
/// stats (reassembled from the `epoch` records); the evaluator stats of
/// the original run are not reconstructed.
pub fn decode_first_stage(body: &Value, report: TrainReport) -> Option<FirstStage> {
    let rl_cost = match body.get("rl_cost")? {
        Value::Null => None,
        v => Some(hex_to_f64(v.as_str()?)?),
    };
    let certificates: Option<Vec<MetricCut>> = body
        .get("certs")?
        .as_array()?
        .iter()
        .map(|v| decode_cert(v.as_str()?))
        .collect();
    Some(FirstStage {
        units: units_field(body, "units")?,
        cost: hex_field(body, "cost")?,
        rl_cost,
        reference_cost: hex_field(body, "reference_cost")?,
        report,
        certificates: certificates?,
        stats: np_eval::EvalStats::default(),
    })
}

fn status_name(s: MipStatus) -> &'static str {
    match s {
        MipStatus::Optimal => "optimal",
        MipStatus::Feasible => "feasible",
        MipStatus::Infeasible => "infeasible",
        MipStatus::Limit => "limit",
        MipStatus::TimeLimit => "time-limit",
        MipStatus::Unbounded => "unbounded",
    }
}

fn status_from(name: &str) -> Option<MipStatus> {
    Some(match name {
        "optimal" => MipStatus::Optimal,
        "feasible" => MipStatus::Feasible,
        "infeasible" => MipStatus::Infeasible,
        "limit" => MipStatus::Limit,
        "time-limit" => MipStatus::TimeLimit,
        "unbounded" => MipStatus::Unbounded,
        _ => return None,
    })
}

/// Body of the `master` record. `quality` is the ladder rung the
/// supervised second stage settled on — a finished-run resume must
/// report the same [`PlanQuality`] the original run did, so it is part
/// of the record rather than re-derived.
pub fn master_body(m: &MasterOutcome, quality: PlanQuality) -> Value {
    Value::Object(vec![
        (
            "status".to_string(),
            Value::Str(status_name(m.status).to_string()),
        ),
        ("cost".to_string(), Value::Str(f64_to_hex(m.cost))),
        ("units".to_string(), units_value(&m.units)),
        ("nodes".to_string(), num(m.nodes as u64)),
        ("cuts_added".to_string(), num(m.cuts_added as u64)),
        (
            "best_bound".to_string(),
            Value::Str(f64_to_hex(m.best_bound)),
        ),
        ("overshoot_us".to_string(), num(m.deadline_overshoot_us)),
        (
            "quality".to_string(),
            Value::Str(quality.name().to_string()),
        ),
        ("rung".to_string(), num(u64::from(quality.rung()))),
    ])
}

/// Decode a `master` record body. Records written before the anytime
/// supervisor carry no quality field; those infer it from the status
/// (proven optimal → `Optimal`, anything with a plan → `Incumbent`).
pub fn decode_master(body: &Value) -> Option<(MasterOutcome, PlanQuality)> {
    let outcome = MasterOutcome {
        status: status_from(body.get("status")?.as_str()?)?,
        cost: hex_field(body, "cost")?,
        units: units_field(body, "units")?,
        nodes: u64_field(body, "nodes")? as usize,
        cuts_added: u64_field(body, "cuts_added")? as usize,
        best_bound: hex_field(body, "best_bound")?,
        deadline_overshoot_us: u64_field(body, "overshoot_us").unwrap_or(0),
    };
    let quality = body
        .get("quality")
        .and_then(Value::as_str)
        .and_then(PlanQuality::from_name)
        .unwrap_or(if outcome.status == MipStatus::Optimal {
            PlanQuality::Optimal
        } else {
            PlanQuality::Incumbent
        });
    Some((outcome, quality))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::{generator::GeneratorConfig, LinkId, TopologyPreset};

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
        let key = first_stage_key(&a, &cfg);
        let meta = meta_body(&fa, &key);
        assert!(meta_matches(&meta, &fa) && meta_first_stage_matches(&meta, &key));
        assert!(!meta_matches(&meta, "0000000000000000"));
        assert!(!meta_first_stage_matches(&meta, &fa));
        // A `meta` from before the first-stage key carries no claim on it.
        let legacy = Value::Object(vec![("fp".to_string(), Value::Str(fa.clone()))]);
        assert!(meta_matches(&legacy, &fa) && !meta_first_stage_matches(&legacy, &key));
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
        let moved: [fn(&mut NeuroPlanConfig); 9] = [
            |c| *c = c.clone().with_seed(9),
            |c| *c = c.clone().with_workers(1),
            |c| *c = c.clone().with_stage_budget(30.0),
            |c| *c = c.clone().with_max_retries(7),
            |c| c.train.epochs += 1,
            |c| c.train.steps_per_epoch += 1,
            |c| c.max_units_per_step += 1,
            |c| c.final_rollouts += 1,
            |c| c.supervisor.budget.max_epochs = Some(3),
        ];
        for (i, edit) in moved.iter().enumerate() {
            let mut other = cfg.clone();
            edit(&mut other);
            assert_ne!(key, first_stage_key(&net, &other), "config change {i}");
        }
        let backend = |b| first_stage_key(&net, &cfg.clone().with_lp_backend(b));
        assert_ne!(
            backend(np_lp::LpBackend::Dense),
            backend(np_lp::LpBackend::Sparse)
        );
        let b = GeneratorConfig::preset(TopologyPreset::B).generate();
        assert_ne!(key, first_stage_key(&b, &cfg), "topology changes it");
    }

    #[test]
    fn epoch_record_round_trips() {
        let stats = EpochStats {
            epoch: 3,
            mean_return: -0.125,
            completed: 7,
            truncated: 1,
            mean_length: 42.5,
        };
        let p = TrainProgress {
            stats: &stats,
            next_epoch: 4,
            converged_run: 2,
            prev_return: -0.25,
            recovery_nonce: 1,
        };
        let body = epoch_body(&p, "AGENT", "ENV|with|pipes");
        let rec = decode_epoch(&body).expect("round trip");
        assert_eq!(rec.stats.epoch, 3);
        assert_eq!(rec.stats.mean_return.to_bits(), (-0.125f64).to_bits());
        assert_eq!(rec.next_epoch, 4);
        assert_eq!(rec.converged_run, 2);
        assert_eq!(rec.recovery_nonce, 1);
        assert_eq!(rec.agent, "AGENT");
        assert_eq!(rec.env, "ENV|with|pipes");
        assert!(decode_epoch(&Value::Null).is_none());
    }

    #[test]
    fn first_stage_record_round_trips_with_certificates() {
        let first = FirstStage {
            units: vec![1, 0, 3],
            cost: 123.456,
            rl_cost: None,
            reference_cost: 200.0,
            report: TrainReport::default(),
            certificates: vec![MetricCut {
                coeff: vec![(LinkId::new(0), 1.5), (LinkId::new(2), -0.5)],
                rhs: 10.0,
            }],
            stats: np_eval::EvalStats::default(),
        };
        let body = first_stage_body(&first);
        // The bytes older binaries wrote (np-eval pins them).
        assert_eq!(
            body.get("certs"),
            Some(&Value::Array(vec![Value::Str(
                "0000000000002440;0,000000000000f83f;2,000000000000e0bf".into()
            )]))
        );
        let back = decode_first_stage(&body, TrainReport::default()).expect("round trip");
        assert_eq!(back.units, first.units);
        assert_eq!(back.cost.to_bits(), first.cost.to_bits());
        assert_eq!(back.rl_cost, None);
        assert_eq!(back.certificates, first.certificates);
    }

    #[test]
    fn replan_event_record_round_trips() {
        let rec = ReplanEventRecord {
            index: 4,
            class: "link-remove".to_string(),
            event: "link-remove:2".to_string(),
            ancestor_fp: "00112233aabbccdd".to_string(),
            fp: "ffeeddcc44556677".to_string(),
            cost: 1234.5,
            units: vec![0, 3, 7],
            eval: "1|0|2|-|deadbeef;0,3ff0000000000000".to_string(),
            quality: PlanQuality::Incumbent,
            skipped: None,
            churn: 9,
            retained: 5,
            dropped: 2,
            flapped: true,
        };
        let back = decode_replan_event(&replan_event_body(&rec)).expect("round trip");
        assert_eq!(back, rec);
        let skipped = ReplanEventRecord {
            skipped: Some("structurally infeasible".to_string()),
            flapped: false,
            ..rec
        };
        let back = decode_replan_event(&replan_event_body(&skipped)).expect("round trip");
        assert_eq!(back, skipped);
        assert!(decode_replan_event(&Value::Null).is_none());
    }

    #[test]
    fn replan_meta_classifies_exact_ancestor_and_mismatch() {
        let stream = replan_stream_tag(
            &["demand-scale:1.1".to_string()],
            &[1, 2, 3],
            &[0, u64::MAX, 7],
        );
        let meta = replan_meta_body("aaaa000000000000", &stream, 512.25);
        assert!(replan_meta_matches(&meta, "aaaa000000000000", &stream));
        assert!(!replan_meta_matches(&meta, "bbbb000000000000", &stream));
        assert_eq!(
            replan_meta_cost0(&meta).map(f64::to_bits),
            Some(512.25f64.to_bits())
        );
        let fps = vec![
            "1111000000000000".to_string(),
            "2222000000000000".to_string(),
        ];
        assert_eq!(
            classify_replan_meta(&meta, &stream, "aaaa000000000000", &fps),
            MetaMatch::Exact
        );
        assert_eq!(
            classify_replan_meta(&meta, &stream, "2222000000000000", &fps),
            MetaMatch::Ancestor(1)
        );
        assert_eq!(
            classify_replan_meta(&meta, &stream, "9999000000000000", &fps),
            MetaMatch::Mismatch
        );
        // A different stream never matches, even from the exact instance.
        assert_eq!(
            classify_replan_meta(&meta, "other-stream", "aaaa000000000000", &fps),
            MetaMatch::Mismatch
        );
        // The tag is sensitive to every component of the stream spec.
        let other_events =
            replan_stream_tag(&["link-add:0".to_string()], &[1, 2, 3], &[0, u64::MAX, 7]);
        let other_units = replan_stream_tag(
            &["demand-scale:1.1".to_string()],
            &[1, 2],
            &[0, u64::MAX, 7],
        );
        assert_ne!(stream, other_events);
        assert_ne!(stream, other_units);
    }

    #[test]
    fn master_record_round_trips() {
        let m = MasterOutcome {
            status: MipStatus::TimeLimit,
            cost: 99.5,
            units: vec![2, 2, 0],
            nodes: 17,
            cuts_added: 4,
            best_bound: 80.25,
            deadline_overshoot_us: 123,
        };
        let (back, quality) =
            decode_master(&master_body(&m, PlanQuality::Incumbent)).expect("round trip");
        assert_eq!(back.status, m.status);
        assert_eq!(back.cost.to_bits(), m.cost.to_bits());
        assert_eq!(back.units, m.units);
        assert_eq!(back.nodes, 17);
        assert_eq!(back.best_bound.to_bits(), m.best_bound.to_bits());
        assert_eq!(back.deadline_overshoot_us, 123);
        assert_eq!(quality, PlanQuality::Incumbent);
    }

    #[test]
    fn pre_supervisor_master_records_infer_their_quality() {
        // A record written before the anytime supervisor: no quality,
        // rung or overshoot fields.
        let legacy = Value::Object(vec![
            ("status".to_string(), Value::Str("optimal".to_string())),
            ("cost".to_string(), Value::Str(f64_to_hex(10.0))),
            ("units".to_string(), units_value(&[1, 2])),
            ("nodes".to_string(), num(3)),
            ("cuts_added".to_string(), num(0)),
            ("best_bound".to_string(), Value::Str(f64_to_hex(10.0))),
        ]);
        let (back, quality) = decode_master(&legacy).expect("legacy decode");
        assert_eq!(back.deadline_overshoot_us, 0);
        assert_eq!(quality, PlanQuality::Optimal);
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

    #[test]
    fn fingerprint_tracks_resolved_lp_backend() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let cfg = NeuroPlanConfig::quick();
        let dense = fingerprint(&net, &cfg.clone().with_lp_backend(np_lp::LpBackend::Dense));
        let sparse = fingerprint(&net, &cfg.clone().with_lp_backend(np_lp::LpBackend::Sparse));
        assert_ne!(dense, sparse, "backend switch changes the fingerprint");
        // Auto resolves to sparse unless NP_LP_BACKEND says otherwise, so
        // an explicit Sparse must fingerprint identically to the default.
        if np_lp::LpBackend::Auto.resolved() == np_lp::ResolvedBackend::Sparse {
            assert_eq!(sparse, fingerprint(&net, &cfg), "Auto == resolved Sparse");
        }
    }
}
