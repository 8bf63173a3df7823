//! Online re-planning under churn (DESIGN.md §14): apply a stream of
//! [`ChurnEvent`]s to a planned instance and re-plan after every event
//! *incrementally*. The trained policy is never retrained — the master
//! restarts from the carried plan and is seeded with every Benders cut
//! whose validity survived the perturbation. Cut invalidation is exact:
//! the evaluator's per-scenario certificate store is updated surgically
//! by [`np_eval::PlanEvaluator::apply_perturbation`] (demand scaling
//! rescales certificates in place, a link addition drops exactly the
//! scenarios where the new link is alive, a link removal keeps every
//! certificate with remapped coefficients), so re-separation work is
//! spent only on rows a change actually invalidated.
//!
//! Fault tolerance mirrors the main pipeline: every solve runs under the
//! supervisor ladder (master → LP rounding → carried plan), an event
//! whose perturbation would make the instance structurally infeasible is
//! skipped with the previous plan kept, and — with a checkpoint
//! directory — each event appends a `replan_event` record to
//! `<dir>/replan.jsonl` carrying the fingerprint of the instance before
//! and after the event plus the evaluator's certificate snapshot. A
//! killed stream resumes from a chain whose `replan_meta` names its
//! stream and starting instance, replaying only perturbations (no solves,
//! no cut re-derivation) up to the first unrecorded event.

use crate::checkpoint::{self, ReplanEventRecord, ReplanMeta};
use crate::master::{plan_cost_of, MasterConfig};
use crate::pipeline::{Ladder, NeuroPlan, PlanFailure};
use np_chaos::checkpoint::{Chain, Record};
use np_chaos::FaultClass;
use np_churn::ChurnEvent;
use np_eval::{EvalStats, PlanEvaluator};
use np_supervisor::{PlanQuality, SupervisionReport, Supervisor};
use np_telemetry::sys;
use np_topology::{LinkId, Network, PerturbDelta, Perturbation};
use std::convert::Infallible;

/// Knobs of the incremental re-planning loop.
#[derive(Clone, Debug)]
pub struct ReplanConfig {
    /// Relative optimality gap for each per-event master solve. `0.0`
    /// makes every incremental solve prove optimality — the setting the
    /// equivalence suite uses to compare against a cold master.
    pub gap_tol: f64,
    /// `Some(α)`: prune each event's master around the carried plan with
    /// relax factor α (faster, inexact — the optimum may sit outside the
    /// pruned box). `None` (default): full spectrum bounds, the same
    /// search space as a cold master, so incremental equals cold exactly
    /// and is merely warmer.
    pub prune_alpha: Option<f64>,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            gap_tol: MasterConfig::DEFAULT_GAP,
            prune_alpha: None,
        }
    }
}

/// What happened at one event of the stream.
#[derive(Clone, Debug, Default)]
pub struct EventReport {
    /// 0-based position in the stream.
    pub index: usize,
    /// Event class (`demand-scale`, `link-add`, ...).
    pub class: String,
    /// Event display string.
    pub event: String,
    /// `Some(reason)` when the event could not be applied (the instance
    /// and plan are unchanged — the stream keeps going).
    pub skipped: Option<String>,
    /// Plan cost after this event.
    pub cost: f64,
    /// Ladder rung the event's solve settled on.
    pub quality: PlanQuality,
    /// Plan stability: L1 distance in units between the carried plan and
    /// the re-planned one (0 = the old plan survived unchanged).
    pub churn: u64,
    /// Benders certificates that survived this event's perturbation.
    pub certs_retained: u64,
    /// Benders certificates the perturbation invalidated.
    pub certs_dropped: u64,
    /// Whether a chaos link-flap was recovered during this event.
    pub flapped: bool,
    /// Whether this event was restored from a checkpoint instead of
    /// being re-solved.
    pub resumed: bool,
    /// Wall time spent on this event, milliseconds (0 when restored
    /// from a checkpoint — nothing was solved).
    pub millis: f64,
}

/// Outcome of a full churn stream.
#[derive(Clone, Debug)]
pub struct ReplanReport {
    /// Cost of the plan the stream started from.
    pub initial_cost: f64,
    /// Cost of the final plan.
    pub final_cost: f64,
    /// Units per link of the final plan (indexed by the final instance's
    /// link table).
    pub final_units: Vec<u32>,
    /// The instance after every applied event.
    pub net: Network,
    /// Per-event outcomes, in stream order.
    pub events: Vec<EventReport>,
    /// Events restored from a checkpoint instead of re-solved.
    pub resumed: usize,
    /// Per-stage retry/degrade trace.
    pub supervision: SupervisionReport,
    /// Evaluator instrumentation accumulated across the stream
    /// (perturbation surgery counters included).
    pub eval_stats: EvalStats,
}

impl ReplanReport {
    /// Events whose perturbation was applied (not skipped).
    pub fn applied(&self) -> usize {
        self.events.iter().filter(|e| e.skipped.is_none()).count()
    }

    /// Events skipped because their perturbation failed validation.
    pub fn skipped(&self) -> usize {
        self.events.len() - self.applied()
    }
}

impl NeuroPlan {
    /// Plan from scratch, then run the event stream incrementally.
    ///
    /// Note the planning run and the re-planning stream share
    /// [`NeuroPlan::checkpoint_dir`]: the plan writes
    /// `checkpoint.jsonl`, the stream `replan.jsonl`, and a resume
    /// restores both.
    pub fn replan(
        &self,
        net: &Network,
        events: &[ChurnEvent],
        rcfg: &ReplanConfig,
    ) -> Result<ReplanReport, PlanFailure> {
        let planned = self.try_plan(net)?;
        self.replan_from(net, &planned.final_units, events, rcfg)
    }

    /// Run the event stream starting from an existing plan.
    ///
    /// `net`/`initial_units` are the instance and plan the stream starts
    /// from. With a checkpoint + `resume`, a chain recorded for the same
    /// instance, plan, events and knobs is continued; any other chain is
    /// discarded and the stream starts fresh.
    pub fn replan_from(
        &self,
        net: &Network,
        initial_units: &[u32],
        events: &[ChurnEvent],
        rcfg: &ReplanConfig,
    ) -> Result<ReplanReport, PlanFailure> {
        let _replan_span = self.tel.span(sys::PIPELINE, "replan");
        let chaos = np_chaos::global();
        let sup =
            Supervisor::new(self.cfg.supervisor, self.tel.clone()).with_cancel(self.cancel.clone());

        let mut cur = net.clone();
        let mut units = initial_units.to_vec();
        if units.len() != cur.link_ids().count() {
            return Err(PlanFailure::StageExhausted {
                stage: "replan".to_string(),
                reason: "initial plan does not have one entry per link".to_string(),
            });
        }
        let initial_cost = plan_cost_of(&cur, &units);
        let mut cost = initial_cost;
        let mut quality = PlanQuality::Optimal;
        let mut eval_stats = EvalStats::default();
        let mut reports: Vec<EventReport> = Vec::with_capacity(events.len());

        // ---- checkpoint: continue our own recorded chain -------------
        let ckpt_path = self.checkpoint_dir.as_ref().map(|d| d.join("replan.jsonl"));
        let ckpt = ckpt_path.as_deref().map(|p| Chain::new(p, chaos));
        let event_strs: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        // The third slot held a flap-victim seed that was always 0; it
        // stays, so chains recorded with it still resume.
        let knob_bits = [
            rcfg.gap_tol.to_bits(),
            rcfg.prune_alpha.map_or(u64::MAX, f64::to_bits),
            0,
        ];
        let stream = checkpoint::replan_stream_tag(&event_strs, initial_units, &knob_bits);
        let mut start = 0usize;
        let mut eval_blob: Option<String> = None;
        if let Some(chain) = ckpt {
            let fp_now = checkpoint::fingerprint(&cur, &self.cfg);
            let mut kept: Vec<ReplanEventRecord> = Vec::new();
            let mut total_decoded = 0usize;
            // The chain's `replan_meta`, once the chain proves to be ours.
            let mut own_meta: Option<ReplanMeta> = None;
            if self.resume {
                // Appends after a torn tail would be lost to the next read.
                self.chain_io("restart", || chain.cut_torn_tail());
                let records = chain.read();
                let decoded: Vec<ReplanEventRecord> = records
                    .iter()
                    .skip(1)
                    .take_while(|r| r.is::<ReplanEventRecord>())
                    .filter_map(Record::decode)
                    .collect();
                total_decoded = decoded.len();
                let meta: Option<ReplanMeta> = records.first().and_then(Record::decode);
                if meta.as_ref().is_some_and(|m| m.matches(&stream, &fp_now)) {
                    own_meta = meta;
                    for rec in &decoded {
                        if !replay_record(&mut cur, rec, &event_strs, &self.cfg) {
                            break;
                        }
                        units = rec.units.clone();
                        cost = rec.report.cost;
                        quality = rec.report.quality;
                        eval_blob = Some(rec.eval.clone());
                        start = rec.report.index + 1;
                        reports.push(restored(rec));
                        kept.push(rec.clone());
                    }
                } else if !records.is_empty() {
                    eprintln!(
                        "warning: replan checkpoint in {} does not match this \
                         instance/stream; starting fresh",
                        chain.path().display()
                    );
                }
            }
            match own_meta {
                None => {
                    let meta = ReplanMeta { fp: fp_now, stream };
                    self.chain_io("restart", || chain.restart([Record::of(meta)]));
                }
                // Some trailing records were rejected (stale chain after
                // an earlier divergence): rewrite the file — keeping the
                // original meta record, which anchors the chain at the
                // stream's true start — so the next resume never sees
                // duplicate event indices.
                Some(meta) if kept.len() < total_decoded => {
                    let kept = kept.into_iter().map(Record::of);
                    let records = std::iter::once(Record::of(meta)).chain(kept);
                    self.chain_io("restart", || chain.restart(records));
                }
                _ => {}
            }
        }
        let resumed = reports.len();
        self.tel
            .incr(sys::PIPELINE, "replan_resumed_events", resumed as u64);

        // The evaluator is built on the instance as replay left it; the
        // snapshot restores every certificate the recorded run had
        // already derived, so resuming re-separates nothing that is
        // still valid.
        let mut evaluator = PlanEvaluator::with_telemetry(&cur, self.cfg.eval, self.tel.clone());
        if let Some(blob) = eval_blob {
            if !evaluator.restore_state(&blob) {
                eprintln!("warning: checkpointed evaluator state failed to restore; cuts will be re-derived");
            }
        }

        // ---- the live loop -------------------------------------------
        for k in start..events.len() {
            let _event_span = self.tel.span(sys::PIPELINE, "replan_event");
            self.tel.incr(sys::PIPELINE, "replan_events", 1);
            let event_t0 = std::time::Instant::now();
            let afp = ckpt
                .as_ref()
                .map(|_| checkpoint::fingerprint(&cur, &self.cfg));
            // Each perturbation the event commits — a chaos flap's down
            // and up first, then the event's own — is surgery on the
            // evaluator and an incremental re-plan, so the stream
            // continues from a plan feasible at every intermediate state.
            // A refused event is skipped and the plan kept.
            let flap = chaos.should_fire(FaultClass::LinkFlap);
            let mut solved = None;
            let step = apply_event(&mut cur, &events[k], k, flap, |cur, delta| {
                evaluator.apply_perturbation(cur, delta);
                let carried = delta.carry_units(cur, &units);
                let (u, c, q) = self.replan_solve(&sup, cur, &mut evaluator, &carried, rcfg)?;
                units = u;
                solved = Some((carried, c, q));
                Ok(())
            })?;
            if step.flapped {
                self.tel.incr(sys::PIPELINE, "replan_flaps", 1);
            }
            // The last solve is the event's own unless the event was refused.
            let churn = match solved.filter(|_| step.skipped.is_none()) {
                Some((carried, c, q)) => {
                    cost = c;
                    quality = q;
                    units
                        .iter()
                        .zip(&carried)
                        .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                        .sum()
                }
                None => {
                    self.tel.incr(sys::PIPELINE, "replan_skipped", 1);
                    cost = plan_cost_of(&cur, &units);
                    0
                }
            };
            let delta_stats = evaluator.take_stats();
            eval_stats.merge(&delta_stats);

            let mut report = EventReport {
                index: k,
                class: events[k].class().to_string(),
                event: event_strs[k].clone(),
                skipped: step.skipped,
                cost,
                quality,
                churn,
                certs_retained: delta_stats.perturb_certs_retained,
                certs_dropped: delta_stats.perturb_certs_dropped,
                flapped: step.flapped,
                resumed: false,
                millis: 0.0,
            };
            if let (Some(chain), Some(ancestor_fp)) = (ckpt, afp) {
                let rec = ReplanEventRecord {
                    report: report.clone(),
                    ancestor_fp,
                    fp: checkpoint::fingerprint(&cur, &self.cfg),
                    units: units.clone(),
                    eval: evaluator.snapshot_state(),
                };
                self.append(chain, rec);
            }
            report.millis = event_t0.elapsed().as_secs_f64() * 1e3;
            reports.push(report);
        }

        Ok(ReplanReport {
            initial_cost,
            final_cost: cost,
            final_units: units,
            net: cur,
            events: reports,
            resumed,
            supervision: sup.report(),
            eval_stats,
        })
    }

    /// One incremental solve: the §11 ladder, seeded with every
    /// certificate that survived the perturbations so far and started
    /// from the carried plan — but only when that plan still verifies.
    fn replan_solve(
        &self,
        sup: &Supervisor,
        net: &Network,
        evaluator: &mut PlanEvaluator,
        carried: &[u32],
        rcfg: &ReplanConfig,
    ) -> Result<(Vec<u32>, f64, PlanQuality), PlanFailure> {
        let bounds = match rcfg.prune_alpha {
            Some(alpha) => MasterConfig::pruned_bounds(net, carried, alpha),
            None => MasterConfig::spectrum_bounds(net),
        };
        let caps: Vec<f64> = carried
            .iter()
            .map(|&u| f64::from(u) * net.unit_gbps)
            .collect();
        let verifies = evaluator.check(&caps).feasible;
        let seed_cuts = evaluator.certificates();
        self.tel
            .incr(sys::PIPELINE, "replan_seed_cuts", seed_cuts.len() as u64);
        let ladder = Ladder {
            labels: ["replan_master", "replan_lp_round", "replan_heuristic"],
            bounds,
            // An infeasible *pruned* master is not an infeasible instance —
            // the α-box around the carried plan can exclude every feasible
            // point (a demand surge needs more than α× capacity somewhere).
            widen: rcfg.prune_alpha.is_some(),
            carried: verifies.then(|| (carried, plan_cost_of(net, carried))),
            seed_cuts,
            gap_tol: rcfg.gap_tol,
            polish_final: true,
        };
        let (outcome, quality) = self.walk_ladder(sup, net, evaluator, ladder)?;
        Ok((outcome.units, outcome.cost, quality))
    }
}

/// The report of an event restored from its record, not re-solved.
fn restored(rec: &ReplanEventRecord) -> EventReport {
    EventReport {
        resumed: true,
        ..rec.report.clone()
    }
}

/// Re-apply one recorded event's perturbations (flap included, solves
/// excluded) to `cur`, verify-then-commit: `cur` is only mutated when
/// the record's event is this stream's and the replay leads from the
/// recorded ancestor fingerprint to the recorded one. `false` = the chain
/// diverges here; the caller re-solves from this event onward.
fn replay_record(
    cur: &mut Network,
    rec: &ReplanEventRecord,
    event_strs: &[String],
    cfg: &crate::config::NeuroPlanConfig,
) -> bool {
    let k = rec.report.index;
    if k >= event_strs.len() || rec.report.event != event_strs[k] {
        return false;
    }
    if rec.ancestor_fp != checkpoint::fingerprint(cur, cfg) {
        return false;
    }
    let Ok(ev) = ChurnEvent::parse(&rec.report.event) else {
        return false;
    };
    let mut next = cur.clone();
    let Ok(_) = apply_event(&mut next, &ev, k, rec.report.flapped, |_, _| {
        Ok::<_, Infallible>(())
    });
    if checkpoint::fingerprint(&next, cfg) != rec.fp {
        return false;
    }
    *cur = next;
    true
}

/// What [`apply_event`] did.
struct Step {
    /// Whether a flap victim was found, dropped and re-added.
    flapped: bool,
    /// Why the event itself was refused, if it was.
    skipped: Option<String>,
}

/// Apply event `k` to `cur`, every change through np-churn's checked
/// step, calling `on_step` after each one it commits. With `flap`, a
/// victim link is first removed and its exact spec re-added — two steps —
/// and then the event is tried; a refused event leaves `cur` as the flap
/// left it.
fn apply_event<E>(
    cur: &mut Network,
    ev: &ChurnEvent,
    k: usize,
    flap: bool,
    mut on_step: impl FnMut(&Network, &PerturbDelta) -> Result<(), E>,
) -> Result<Step, E> {
    let mut commit = |cur: &mut Network, (next, delta): (Network, PerturbDelta)| {
        *cur = next;
        on_step(cur, &delta).map(|()| delta)
    };
    let victim = if flap { flap_victim(cur, k) } else { None };
    let flapped = victim.is_some();
    if let Some(down) = victim {
        let PerturbDelta::LinkRemove { spec, .. } = commit(cur, down)? else {
            unreachable!("link removal yields a LinkRemove delta")
        };
        let up = np_churn::apply_checked(cur, &Perturbation::LinkAdd { link: spec })
            .expect("re-adding a just-removed link is valid");
        commit(cur, up)?;
    }
    let skipped = match ev.apply_checked(cur) {
        Ok(next) => commit(cur, next).map(|_| None)?,
        Err(reason) => Some(reason),
    };
    Ok(Step { flapped, skipped })
}

/// Deterministic flap victim for event `k`: a seeded starting point in
/// the link table, then the first link whose removal passes the checked
/// step, returned as that step. `None` when no link can be dropped (the
/// flap is then recorded as not having happened).
fn flap_victim(net: &Network, k: usize) -> Option<(Network, PerturbDelta)> {
    let n = net.link_ids().count();
    if n <= 1 {
        return None;
    }
    let mut s = (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let start = (np_churn::splitmix64(&mut s) % n as u64) as usize;
    (0..n).find_map(|j| {
        let link = LinkId::new((start + j) % n);
        np_churn::apply_checked(net, &Perturbation::LinkRemove { link }).ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeuroPlanConfig;
    use crate::pipeline::validate_plan;
    use np_churn::ChurnSpec;
    use np_topology::generator::GeneratorConfig;

    fn planned(seed: u64) -> (Network, Vec<u32>) {
        let net = GeneratorConfig::a_variant(0.5).generate();
        let planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(seed));
        let result = planner.plan(&net);
        (net, result.final_units)
    }

    #[test]
    fn stream_of_every_class_replans_and_validates() {
        let (net, units) = planned(7);
        let spec =
            "demand-scale:1.1; link-add:0; fiber-cost:0:1.5; failure-add:fiber:0; link-remove:1";
        let events = ChurnSpec::parse(spec).unwrap().resolve(&net);
        let planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(7));
        let report = planner
            .replan_from(&net, &units, &events, &ReplanConfig::default())
            .expect("stream replans");
        assert_eq!(report.events.len(), events.len());
        // Every event either applied or recovered by skipping — never a
        // failure — and the final plan verifies on the final instance.
        validate_plan(&report.net, &report.final_units).expect("final plan validates");
        assert!(report.final_cost > 0.0);
        assert!(report.eval_stats.perturb_certs_retained > 0);
    }

    #[test]
    fn infeasible_event_is_skipped_and_stream_recovers() {
        let (net, units) = planned(11);
        // Removing every link one after another must eventually hit an
        // event that would disconnect a demand; the stream skips it and
        // the final plan still validates.
        let n = net.link_ids().count();
        let events: Vec<ChurnEvent> = (0..n)
            .map(|_| ChurnEvent::parse("link-remove:0").unwrap())
            .collect();
        let planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(11));
        let report = planner
            .replan_from(&net, &units, &events, &ReplanConfig::default())
            .expect("stream survives infeasible events");
        assert!(report.skipped() > 0, "some removal must be infeasible");
        assert!(report.net.link_ids().count() >= 1);
        validate_plan(&report.net, &report.final_units).expect("final plan validates");
    }

    #[test]
    fn generated_stream_applies_every_event() {
        let (net, units) = planned(13);
        let events = np_churn::generate_stream(&net, 99, 6);
        let planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(13));
        let report = planner
            .replan_from(&net, &units, &events, &ReplanConfig::default())
            .expect("generated stream replans");
        // Generated streams are pre-validated on a scratch instance, so
        // nothing is skipped.
        assert_eq!(report.skipped(), 0);
        assert_eq!(report.applied(), events.len());
        validate_plan(&report.net, &report.final_units).expect("final plan validates");
    }
}
