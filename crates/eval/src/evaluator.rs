//! Stateful plan evaluation across all scenarios, with certificate reuse
//! and parallel failure groups.

use crate::checker::{check_scenario, CheckConfig, Verdict};
use crate::scenario::{build_all, scenario_at, Proofs, ScenarioCtx};
use crate::stats::EvalStats;
use np_chaos::checkpoint::{f64_to_hex, hex_to_f64};
use np_flow::MetricCut;
use np_telemetry::{sys, Telemetry};
use np_topology::{LinkId, Network, PerturbDelta};
use std::time::Instant;

/// What a caller of [`PlanEvaluator::scan`] passes in: `check` and
/// `separate` differ in these values, not in code.
struct Walk {
    /// Per-scenario verdict pipeline.
    check: CheckConfig,
    /// Answer from a stored certificate while it stays violated.
    reuse_certificates: bool,
    /// Findings after which a walk stops (a structural one always ends it).
    limit: usize,
    /// Panic on a violation the pipeline could not certify instead of
    /// reporting it (the master would loop on it forever).
    certify: bool,
}

/// A scenario a scan found violated, by dense index; `structural` when no
/// capacity fixes it. Its cut, if one was certified, is in its context's
/// proofs.
#[derive(Clone, Copy, Debug)]
struct Finding {
    idx: usize,
    structural: bool,
}

/// Evaluator configuration: which paper optimizations are active. The
/// Fig. 7 harness toggles these to reproduce *Vanilla*, *SA* and
/// *NeuroPlan*.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Per-scenario verdict pipeline configuration.
    pub check: CheckConfig,
    /// Merge flows by `(src, dst)` (the paper's source aggregation; the
    /// exact LP additionally prices all of a source's
    /// commodities off one shortest-path tree).
    pub source_aggregation: bool,
    /// Resume checking from the first previously-failed scenario
    /// (valid because the RL action space only *adds* capacity).
    pub stateful: bool,
    /// Re-evaluate stored infeasibility certificates (metric cuts are
    /// valid for every capacity vector, so this never lies).
    pub reuse_certificates: bool,
    /// Worker threads for scanning many scenarios at once (1 = serial).
    pub parallel_workers: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            check: CheckConfig::default(),
            source_aggregation: true,
            stateful: true,
            reuse_certificates: true,
            parallel_workers: 1,
        }
    }
}

impl EvalConfig {
    /// The paper's *Vanilla* evaluator: per-flow commodities, full rescan
    /// every step, no certificate reuse.
    pub fn vanilla() -> Self {
        EvalConfig {
            source_aggregation: false,
            stateful: false,
            reuse_certificates: false,
            ..Default::default()
        }
    }

    /// The paper's *SA* evaluator: source aggregation only.
    pub fn sa_only() -> Self {
        EvalConfig {
            stateful: false,
            reuse_certificates: false,
            ..Default::default()
        }
    }
}

/// Result of evaluating a plan against every scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryCheck {
    /// Whether every scenario passed.
    pub feasible: bool,
    /// Dense index (0 = no-failure) of the first violated scenario.
    pub first_violated: Option<usize>,
    /// The violated scenario admits no fix by adding capacity.
    pub structural: bool,
}

/// Outcome of a separation round for the ILP master.
#[derive(Clone, Debug, PartialEq)]
pub enum Separation {
    /// The candidate capacities satisfy every scenario.
    Feasible,
    /// Violated metric cuts (at least one) over link capacities in Gbps.
    Cuts(Vec<MetricCut>),
    /// Some scenario is structurally unfixable: the planning instance
    /// itself is infeasible.
    StructurallyInfeasible(usize),
}

/// The plan evaluator of Fig. 3.
///
/// Construction precomputes every scenario's structure; each call to
/// [`PlanEvaluator::check`] patches capacities in and runs the verdict
/// pipeline with the configured optimizations.
pub struct PlanEvaluator {
    cfg: EvalConfig,
    ctxs: Vec<ScenarioCtx>,
    cursor: usize,
    /// Aggregated instrumentation (reset with [`PlanEvaluator::take_stats`]).
    pub stats: EvalStats,
    tel: Telemetry,
    /// Snapshot of `stats` at the last telemetry publish, so only deltas
    /// are emitted (counters are monotone between publishes).
    published: EvalStats,
}

impl PlanEvaluator {
    /// Build an evaluator for a planning instance.
    pub fn new(net: &Network, cfg: EvalConfig) -> Self {
        Self::with_telemetry(net, cfg, Telemetry::noop())
    }

    /// Build an evaluator that reports its [`EvalStats`] counters through
    /// `tel` under the `eval` subsystem. Serial and parallel evaluation
    /// publish through the same merged stats block, so worker count never
    /// changes the counter names or their meanings.
    pub fn with_telemetry(net: &Network, cfg: EvalConfig, tel: Telemetry) -> Self {
        Self::of(build_all(net, cfg.source_aggregation), cfg, tel)
    }

    /// An evaluator over the given scenario contexts.
    fn of(ctxs: Vec<ScenarioCtx>, cfg: EvalConfig, tel: Telemetry) -> Self {
        PlanEvaluator {
            cfg,
            ctxs,
            cursor: 0,
            stats: EvalStats::default(),
            tel,
            published: EvalStats::default(),
        }
    }

    /// Swap the telemetry sink (e.g. attach one after construction).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        self.published = self.stats.clone();
    }

    /// Emit the counter deltas accumulated since the last publish.
    fn publish_stats(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        for ((name, now), (_, before)) in self
            .stats
            .counter_fields()
            .iter()
            .zip(self.published.counter_fields())
        {
            self.tel.incr(sys::EVAL, name, now.saturating_sub(before));
        }
        // Stage times (profiling only) flow as deferred leaf spans, never
        // counters, so counter streams are identical with profiling off.
        let mwu_us = self.stats.mwu_us.saturating_sub(self.published.mwu_us);
        if mwu_us > 0 {
            self.tel.record_span(sys::EVAL, "mwu", mwu_us);
        }
        let lp_us = self
            .stats
            .exact_lp_us
            .saturating_sub(self.published.exact_lp_us);
        if lp_us > 0 {
            self.tel.record_span(sys::EVAL, "exact_lp", lp_us);
        }
        self.published = self.stats.clone();
    }

    /// Number of scenarios (no-failure + failures).
    pub fn num_scenarios(&self) -> usize {
        self.ctxs.len()
    }

    /// Start a fresh trajectory: rewind the stateful cursor. Stored
    /// certificates stay — they are valid for any capacities.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Collect and clear the accumulated statistics.
    pub fn take_stats(&mut self) -> EvalStats {
        self.publish_stats();
        self.published = EvalStats::default();
        std::mem::take(&mut self.stats)
    }

    /// Evaluate per-link capacities (Gbps, indexed by `LinkId`) against
    /// all scenarios, stopping at the first violated one. A stateful
    /// evaluator resumes from where the last check stopped.
    pub fn check(&mut self, caps_gbps: &[f64]) -> TrajectoryCheck {
        let _check_span = self.tel.span(sys::EVAL, "check");
        let start = if self.cfg.stateful { self.cursor } else { 0 };
        self.stats.stateful_skips += start as u64;
        let walk = Walk {
            check: self.cfg.check,
            reuse_certificates: self.cfg.reuse_certificates,
            limit: 1,
            certify: false,
        };
        let first = self.scan(start, caps_gbps, &walk).pop();
        if self.cfg.stateful {
            self.cursor = first.map_or(self.ctxs.len(), |f| f.idx);
        }
        TrajectoryCheck {
            feasible: first.is_none(),
            first_violated: first.map(|f| f.idx),
            structural: first.is_some_and(|f| f.structural),
        }
    }

    /// Convenience: evaluate a network's current capacities.
    pub fn check_network(&mut self, net: &Network) -> TrajectoryCheck {
        self.check(&caps_of(net))
    }

    /// Benders separation for the ILP master: scan **all** scenarios under
    /// the candidate capacities and return violated cuts (up to
    /// `max_cuts`, at least one). Lets every check reach the exact LP
    /// whatever the RL loop's setting, so the master's acceptance is
    /// never approximate, and always reuses stored certificates. The
    /// returned [`Separation`] — cuts, their order, or the structural
    /// index — is identical at every worker count.
    pub fn separate(&mut self, caps_gbps: &[f64], max_cuts: usize) -> Separation {
        let _separate_span = self.tel.span(sys::EVAL, "separate");
        let walk = Walk {
            check: CheckConfig {
                allow_exact_lp: true,
                ..self.cfg.check
            },
            reuse_certificates: true,
            limit: max_cuts.max(1),
            certify: true,
        };
        let found = self.scan(0, caps_gbps, &walk);
        let cut = |f: &Finding| self.certificate(f.idx).expect("certified, so stored");
        match found.last() {
            None => Separation::Feasible,
            Some(last) if last.structural => Separation::StructurallyInfeasible(last.idx),
            Some(_) => Separation::Cuts(found.iter().map(cut).collect()),
        }
    }

    /// The one scenario walk (DESIGN.md §9): scenarios `start..` in fixed
    /// contiguous chunks — `np_pool::chunk_len` of them on the pool when
    /// there are at least two per worker, otherwise one chunk on the
    /// caller's thread — each stopping as `walk` says; worker stats and
    /// findings merge in chunk order and the findings are cut off where a
    /// single in-order walk would have stopped. A walk that may reach the
    /// exact LP undoes its checks past that point, so it leaves the state
    /// the one-worker walk leaves and later rounds take the same routes
    /// and certify the same cuts at any worker count; an approximate walk
    /// keeps what it learned there (a certificate or witness never changes
    /// a verdict).
    fn scan(&mut self, start: usize, caps: &[f64], walk: &Walk) -> Vec<Finding> {
        let t0 = Instant::now();
        let workers = self.cfg.parallel_workers;
        let ctxs = &mut self.ctxs[start..];
        let found = if workers > 1 && ctxs.len() >= 2 * workers {
            let chunk = np_pool::chunk_len(ctxs.len(), workers);
            let tasks: Vec<_> = ctxs
                .chunks_mut(chunk)
                .enumerate()
                .map(|(w, ctxs)| {
                    move || {
                        let mut st = EvalStats::default();
                        let base = start + w * chunk;
                        // Only the first chunk's checks are surely ones a
                        // single walk makes too.
                        let mut undo = (w > 0 && walk.check.allow_exact_lp).then(Vec::new);
                        let found = walk_chunk(ctxs, base, caps, walk, &mut st, undo.as_mut());
                        (found, st, undo)
                    }
                })
                .collect();
            let mut merged = Vec::new();
            let mut undo = Vec::new();
            for (found, st, saved) in np_pool::run_tasks_telemetry(workers, tasks, &self.tel) {
                self.stats.merge(&st);
                merged.extend(found);
                undo.extend(saved.into_iter().flatten());
            }
            let structural = merged.iter().position(|f| f.structural);
            merged.truncate(structural.map_or(walk.limit, |p| walk.limit.min(p + 1)));
            let stop = merged
                .last()
                .filter(|f| f.structural || merged.len() == walk.limit);
            if let Some(stop) = stop {
                for (idx, before) in undo.into_iter().filter(|(idx, _)| *idx > stop.idx) {
                    *ctxs[idx - start].proofs.get_mut() = before;
                }
            }
            merged
        } else {
            walk_chunk(ctxs, start, caps, walk, &mut self.stats, None)
        };
        self.stats.elapsed += t0.elapsed();
        self.publish_stats();
        found
    }

    /// The stateful scan cursor: the next scenario index a stateful
    /// [`PlanEvaluator::check`] will start from. Exposed so equivalence
    /// tests can assert serial and parallel scans leave identical state.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// A child evaluator over the same instance for one parallel actor:
    /// the parent's contexts with their cuts but neither a path LP nor a
    /// witness, and a silent sink. The child always evaluates serially —
    /// when actors run in parallel the actor level owns the thread
    /// budget, and nesting worker pools would oversubscribe cores.
    pub fn fork(&self) -> PlanEvaluator {
        let ctxs = self.ctxs.iter().map(ScenarioCtx::forked).collect();
        let cfg = EvalConfig {
            parallel_workers: 1,
            ..self.cfg
        };
        PlanEvaluator::of(ctxs, cfg, Telemetry::noop())
    }

    /// Merge a child evaluator's work back after a parallel phase: context
    /// by context its cut where this evaluator has none, and its stats.
    /// Absorbing children in a fixed order keeps both the cuts and the
    /// published counters independent of worker count. The child's work
    /// is published here, while the span that ran the parallel phase is
    /// still live — published later, its stage times would be charged to
    /// whatever span is live then and counted twice. The child's silent
    /// sink recorded no `check` spans, so under profiling the rest of its
    /// scan time (greedy routing, witness and cut reuse: everything but
    /// the MWU and the exact LP) follows as an `eval.fork_checks` leaf
    /// span.
    pub fn absorb(&mut self, child: &mut PlanEvaluator) {
        for (mine, theirs) in self.ctxs.iter_mut().zip(&mut child.ctxs) {
            let mine = &mut mine.proofs.get_mut().cut;
            if mine.is_none() {
                *mine = theirs.proofs.get_mut().cut.take();
            }
        }
        let st = std::mem::take(&mut child.stats);
        self.stats.merge(&st);
        self.publish_stats();
        if np_telemetry::profiling() {
            let scan_us = u64::try_from(st.elapsed.as_micros()).unwrap_or(u64::MAX);
            let rest_us = scan_us.saturating_sub(st.mwu_us + st.exact_lp_us);
            if rest_us > 0 {
                self.tel.record_span(sys::EVAL, "fork_checks", rest_us);
            }
        }
    }

    /// A copy of the stored certificate for a scenario, if any
    /// (interpretability: operators can inspect *why* a scenario failed).
    pub fn certificate(&self, scenario_idx: usize) -> Option<MetricCut> {
        self.ctxs[scenario_idx].proofs.borrow().cut.clone()
    }

    /// Every stored certificate, in scenario order: free, already-validated
    /// rows for a master.
    pub fn certificates(&self) -> Vec<MetricCut> {
        let cut = |c: &ScenarioCtx| c.proofs.borrow().cut.clone();
        self.ctxs.iter().filter_map(cut).collect()
    }

    /// Serialize the evaluator state a checkpoint must carry: the
    /// stateful cursor and each scenario's cut (certificates feed the
    /// master's seed cuts, so resuming without them would change the
    /// second stage). Floats travel as little-endian hex for bit-exact
    /// restoration.
    pub fn snapshot_state(&self) -> String {
        let mut s = format!("1|{}|{}", self.cursor, self.ctxs.len());
        for ctx in &self.ctxs {
            s.push('|');
            match &ctx.proofs.borrow().cut {
                None => s.push('-'),
                Some(c) => s.push_str(&encode_cert(c)),
            }
        }
        s
    }

    /// Restore state captured by [`PlanEvaluator::snapshot_state`].
    /// Returns `false` (leaving the evaluator untouched) if the blob's
    /// version or scenario count does not match this instance.
    pub fn restore_state(&mut self, blob: &str) -> bool {
        let parts: Vec<&str> = blob.split('|').collect();
        if parts.len() < 3 || parts[0] != "1" {
            return false;
        }
        let (Ok(cursor), Ok(n)) = (parts[1].parse::<usize>(), parts[2].parse::<usize>()) else {
            return false;
        };
        if n != self.ctxs.len() || parts.len() != 3 + n || cursor > n {
            return false;
        }
        let cuts: Option<Vec<_>> = parts[3..]
            .iter()
            .map(|&p| match p {
                "-" => Some(None),
                text => decode_cert(text).map(Some),
            })
            .collect();
        let Some(cuts) = cuts else {
            return false;
        };
        for (ctx, cut) in self.ctxs.iter_mut().zip(cuts) {
            ctx.proofs.get_mut().cut = cut;
        }
        self.cursor = cursor;
        true
    }

    /// Carry the evaluator across a perturbation instead of rebuilding it
    /// from scratch. `net` must be the *post*-perturbation network and
    /// `delta` the value [`Network::apply_perturbation`] returned for it.
    ///
    /// The exact cut-validity rules (DESIGN.md §14):
    ///
    /// * **demand-scale f** — every context survives (commodity demands
    ///   and witness flows scale in place; the persistent exact LP keeps
    ///   its paths and basis and reads the new demands into its λ column
    ///   at the next check) and every certificate survives with
    ///   `rhs *= f`: the rhs `Σ d·dist` is linear in demand at a fixed
    ///   length function.
    /// * **link-add** — exactly the scenarios in which the new link is
    ///   *alive* are rebuilt and their certificates dropped (the new
    ///   link can shorten metric distances, so the old bound may be
    ///   loose); scenarios where it is dead keep everything.
    /// * **link-remove** — *no* certificate is invalidated: a feasible
    ///   flow on the reduced link set extends with zero capacity on the
    ///   removed link, so the inequality still holds with the removed
    ///   coefficient dropped. Contexts that contained the link are
    ///   rebuilt; the rest just renumber their link tags and keep their
    ///   exact LPs (rows are per arc, not per link) and witnesses.
    /// * **failure-add** — one new context is appended (certificate
    ///   `None`); every existing scenario and certificate is untouched.
    /// * **fiber-cost** — feasibility does not mention costs; no-op.
    pub fn apply_perturbation(&mut self, net: &Network, delta: &PerturbDelta) {
        let _perturb_span = self.tel.span(sys::EVAL, "perturb");
        let sa = self.cfg.source_aggregation;
        match delta {
            PerturbDelta::DemandScale { factor } => {
                for ctx in &mut self.ctxs {
                    for c in &mut ctx.commodities {
                        c.demand *= factor;
                    }
                    let proofs = ctx.proofs.get_mut();
                    for f in proofs.witness.iter_mut().flatten() {
                        *f *= factor;
                    }
                    self.stats.perturb_ctx_reused += 1;
                    if let Some(cut) = &mut proofs.cut {
                        cut.scale_demand(*factor);
                        self.stats.perturb_certs_retained += 1;
                    }
                }
            }
            PerturbDelta::LinkAdd { link } => {
                for (idx, ctx) in self.ctxs.iter_mut().enumerate() {
                    let scenario = scenario_at(idx);
                    let had_cut = ctx.proofs.get_mut().cut.is_some();
                    if net.link_alive(*link, scenario) {
                        *ctx = ScenarioCtx::build(net, scenario, sa);
                        self.stats.perturb_ctx_rebuilt += 1;
                        self.stats.perturb_certs_dropped += u64::from(had_cut);
                    } else {
                        self.stats.perturb_ctx_reused += 1;
                        self.stats.perturb_certs_retained += u64::from(had_cut);
                    }
                }
            }
            PerturbDelta::LinkRemove { removed, remap, .. } => {
                let map_total =
                    |l: LinkId| remap[l.index()].expect("remap is total over surviving links");
                for (idx, ctx) in self.ctxs.iter_mut().enumerate() {
                    let cut = ctx.proofs.get_mut().cut.take();
                    if ctx.arc_link.contains(removed) {
                        *ctx = ScenarioCtx::build(net, scenario_at(idx), sa);
                        self.stats.perturb_ctx_rebuilt += 1;
                    } else {
                        ctx.graph.retag_links(map_total);
                        for l in &mut ctx.arc_link {
                            *l = map_total(*l);
                        }
                        self.stats.perturb_ctx_reused += 1;
                    }
                    self.stats.perturb_certs_retained += u64::from(cut.is_some());
                    ctx.proofs.get_mut().cut = cut.map(|c| c.remap_links(|l| remap[l.index()]));
                }
            }
            PerturbDelta::FailureAdd { failure } => {
                self.ctxs.push(ScenarioCtx::build(net, Some(*failure), sa));
                self.stats.perturb_ctx_rebuilt += 1;
            }
            PerturbDelta::FiberCostChange { .. } => {}
        }
        // A replan resumed at this event starts from fresh contexts, so no
        // LP carried across it may choose a scenario's route (§17).
        for ctx in &mut self.ctxs {
            if let Some(lp) = &mut ctx.proofs.get_mut().lp {
                lp.warm = false;
            }
        }
        // A previously-verified prefix may have flipped either way —
        // restart the stateful scan.
        self.cursor = 0;
        self.publish_stats();
    }
}

/// Walk one contiguous chunk whose first scenario has dense index `base`:
/// a stored cut that is still violated answers without a check, anything
/// else is refreshed, checked, and its cut (if any) stored. With `undo`,
/// each checked scenario's proofs are saved there first, by dense index
/// (DESIGN.md §9).
fn walk_chunk(
    ctxs: &mut [ScenarioCtx],
    base: usize,
    caps: &[f64],
    walk: &Walk,
    stats: &mut EvalStats,
    mut undo: Option<&mut Vec<(usize, Proofs)>>,
) -> Vec<Finding> {
    let mut found = Vec::new();
    for (k, ctx) in ctxs.iter_mut().enumerate() {
        let idx = base + k;
        let proofs = ctx.proofs.get_mut();
        let holds = |c: &MetricCut| c.is_violated(caps_fn(caps));
        let stored = walk.reuse_certificates && proofs.cut.as_ref().is_some_and(holds);
        let structural = if stored {
            stats.cut_reuse_hits += 1;
            false
        } else {
            if let Some(undo) = &mut undo {
                undo.push((idx, proofs.clone()));
            }
            ctx.refresh(caps_fn(caps));
            match check_scenario(ctx, &walk.check, stats) {
                Verdict::Feasible => continue,
                Verdict::StructurallyInfeasible => true,
                Verdict::Infeasible(None) if walk.certify => uncertified(idx),
                Verdict::Infeasible(None) => false,
                Verdict::Infeasible(cut) => {
                    ctx.proofs.get_mut().cut = cut;
                    false
                }
            }
        };
        found.push(Finding { idx, structural });
        if structural || found.len() >= walk.limit {
            break;
        }
    }
    found
}

/// The pipeline ends in the exact LP, whose dual always yields a cut
/// on truly infeasible scenarios, and which has already answered an
/// unverifiable dual by rebuilding itself from nothing and solving
/// again with exact pricing (`lp_cold_retries`); reaching here means
/// that failed too. Escalate by failing loudly rather than looping
/// forever in the master.
fn uncertified(idx: usize) -> ! {
    panic!(
        "separator could not certify infeasibility of scenario {idx}; \
         numerical breakdown in the LP duals"
    );
}

/// The text form of a certificate wherever one is persisted (evaluator
/// snapshots, `first_stage` checkpoint records): `hex(rhs);link,hex(w);…`,
/// floats as little-endian hex so they restore bit for bit.
pub fn encode_cert(c: &MetricCut) -> String {
    let mut s = f64_to_hex(c.rhs);
    for (l, w) in &c.coeff {
        s.push_str(&format!(";{},{}", l.index(), f64_to_hex(*w)));
    }
    s
}

/// Inverse of [`encode_cert`]; `None` on malformed text.
pub fn decode_cert(s: &str) -> Option<MetricCut> {
    let mut fields = s.split(';');
    let rhs = fields.next().and_then(hex_to_f64)?;
    let mut coeff = Vec::new();
    for f in fields {
        let (i, w) = f.split_once(',')?;
        coeff.push((LinkId::new(i.parse().ok()?), hex_to_f64(w)?));
    }
    Some(MetricCut { coeff, rhs })
}

/// Helper for tests and harnesses: capacities of a network as a dense
/// Gbps vector.
pub fn caps_of(net: &Network) -> Vec<f64> {
    net.link_ids().map(|l| net.capacity_gbps(l)).collect()
}

/// Helper: capacity lookup closure over a dense Gbps vector.
pub fn caps_fn(caps: &[f64]) -> impl Fn(LinkId) -> f64 + '_ {
    move |l| caps[l.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::exact_lp_verdict;
    use np_topology::{
        generator::{preset_network, GeneratorConfig},
        TopologyPreset,
    };

    fn abundant(net: &Network) -> Vec<f64> {
        net.link_ids().map(|_| 1e6).collect()
    }

    #[test]
    fn abundant_capacity_passes_everything() {
        let net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let r = ev.check(&abundant(&net));
        assert!(r.feasible);
        assert_eq!(r.first_violated, None);
    }

    #[test]
    fn dark_network_fails_at_the_first_scenario() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let caps = vec![0.0; net.links().len()];
        let r = ev.check(&caps);
        assert!(!r.feasible);
        assert_eq!(r.first_violated, Some(0));
        assert!(!r.structural, "capacity can fix a dark network");
    }

    #[test]
    fn stateful_cursor_skips_verified_scenarios() {
        let net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let good = abundant(&net);
        assert!(ev.check(&good).feasible);
        let before = ev.stats.clone();
        // A second check of the same plan does zero scenario work.
        assert!(ev.check(&good).feasible);
        assert_eq!(ev.stats.scenario_checks, before.scenario_checks);
        assert!(ev.stats.stateful_skips > before.stateful_skips);
        // After reset the scan starts over.
        ev.reset();
        assert!(ev.check(&good).feasible);
        assert!(ev.stats.scenario_checks > before.scenario_checks);
    }

    #[test]
    fn certificates_short_circuit_repeat_failures() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let caps = vec![0.0; net.links().len()];
        assert!(!ev.check(&caps).feasible);
        let checks_before = ev.stats.scenario_checks;
        assert!(!ev.check(&caps).feasible);
        assert_eq!(
            ev.stats.scenario_checks, checks_before,
            "second failure must come from the stored certificate"
        );
        assert!(ev.stats.cut_reuse_hits >= 1);
        assert!(ev.certificate(0).is_some());
    }

    #[test]
    fn vanilla_and_neuroplan_configs_agree_on_verdicts() {
        let net = preset_network(TopologyPreset::A);
        let mut fast = PlanEvaluator::new(&net, EvalConfig::default());
        let mut slow = PlanEvaluator::new(&net, EvalConfig::vanilla());
        for scale in [0.0, 0.5, 20.0] {
            fast.reset();
            slow.reset();
            let caps: Vec<f64> = net
                .link_ids()
                .map(|l| net.capacity_gbps(l) * scale)
                .collect();
            assert_eq!(
                fast.check(&caps).feasible,
                slow.check(&caps).feasible,
                "configs disagree at scale {scale}"
            );
        }
    }

    #[test]
    fn parallel_workers_match_serial_verdicts() {
        let net = preset_network(TopologyPreset::B);
        let mut serial = PlanEvaluator::new(&net, EvalConfig::default());
        let mut parallel = PlanEvaluator::new(
            &net,
            EvalConfig {
                parallel_workers: 4,
                ..EvalConfig::default()
            },
        );
        for scale in [0.3, 2.0, 50.0] {
            serial.reset();
            parallel.reset();
            let caps: Vec<f64> = net
                .link_ids()
                .map(|l| (net.capacity_gbps(l) + 10.0) * scale)
                .collect();
            let a = serial.check(&caps);
            let b = parallel.check(&caps);
            assert_eq!(a.feasible, b.feasible, "scale {scale}");
            assert_eq!(a.first_violated, b.first_violated, "scale {scale}");
        }
    }

    /// A capped round at four workers checks scenarios past the point where
    /// one in-order walk stops. Those checks are undone: the evaluator
    /// keeps the one-worker run's certificates, path LPs (and whether each
    /// may skip a fine pass, §17 "Escalation") and witnesses (§9). The
    /// walks round no node cuts, so that those checks reach the LP (§17,
    /// "Rounding").
    #[test]
    fn checks_past_a_capped_walk_leave_the_one_worker_state() {
        let net = preset_network(TopologyPreset::B);
        let n = net.links().len();
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let (mut lo, mut hi) = (0.0f64, 1e6f64);
        while hi - lo > 1e-3 {
            let mid = 0.5 * (lo + hi);
            ev.reset();
            if ev.check(&vec![mid; n]).feasible {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let mut extra_lp_calls = 0;
        for pct in (60..76).step_by(2) {
            let caps = vec![hi * f64::from(pct) / 100.0; n];
            let [one, four] = [1, 4].map(|workers| {
                let cfg = EvalConfig {
                    check: CheckConfig {
                        round_node_cuts: false,
                        ..CheckConfig::default()
                    },
                    parallel_workers: workers,
                    ..EvalConfig::default()
                };
                let mut ev = PlanEvaluator::new(&net, cfg);
                let sep = ev.separate(&caps, 1);
                let kept: Vec<_> = ev
                    .ctxs
                    .iter()
                    .map(|c| {
                        let proofs = c.proofs.borrow();
                        (proofs.lp.as_ref().map(|p| p.warm), proofs.witness.clone())
                    })
                    .collect();
                (sep, ev.snapshot_state(), kept, ev.stats.lp_calls)
            });
            let what = format!("{pct} % of the boundary");
            assert_eq!(one.0, four.0, "{what}: separated differently");
            assert_eq!(one.1, four.1, "{what}: certificates differ");
            assert_eq!(one.2, four.2, "{what}: path LPs or witnesses differ");
            extra_lp_calls += four.3 - one.3;
        }
        assert!(extra_lp_calls > 0, "no check past the stop reached the LP");
    }

    #[test]
    fn separation_returns_feasible_or_violated_cuts() {
        let net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        match ev.separate(&abundant(&net), 8) {
            Separation::Feasible => {}
            other => panic!("abundant capacity must separate feasible, got {other:?}"),
        }
        let zeros = vec![0.0; net.links().len()];
        match ev.separate(&zeros, 8) {
            Separation::Cuts(cuts) => {
                assert!(!cuts.is_empty());
                for cut in &cuts {
                    assert!(cut.is_violated(|l| zeros[l.index()]));
                }
            }
            other => panic!("dark capacities must yield cuts, got {other:?}"),
        }
    }

    #[test]
    fn state_snapshot_roundtrips_cursor_and_certificates() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let caps = vec![0.0; net.links().len()];
        assert!(!ev.check(&caps).feasible, "dark network must fail");
        assert!(ev.certificate(0).is_some());
        let blob = ev.snapshot_state();

        let mut fresh = PlanEvaluator::new(&net, EvalConfig::default());
        assert!(fresh.restore_state(&blob), "snapshot must restore");
        assert_eq!(fresh.cursor(), ev.cursor());
        assert_eq!(fresh.snapshot_state(), blob, "round-trip is exact");
        assert_eq!(fresh.certificate(0), ev.certificate(0));
        // The restored certificate short-circuits exactly like the
        // original: the repeat failure does zero new scenario checks.
        assert!(!fresh.check(&caps).feasible);
        assert!(fresh.stats.cut_reuse_hits >= 1);
        assert_eq!(fresh.stats.scenario_checks, 0);
    }

    /// Both persisted forms — a snapshot's certificate slots and the
    /// `certs` of a `first_stage` record — are this text, recorded on the
    /// commit that still had one encoder per form: chains and `eval`
    /// blobs written by older binaries must keep resuming.
    #[test]
    fn certificate_text_is_the_bytes_older_binaries_wrote() {
        let cut = MetricCut {
            coeff: vec![(LinkId::new(0), 1.5), (LinkId::new(2), -0.5)],
            rhs: 10.0,
        };
        let text = "0000000000002440;0,000000000000f83f;2,000000000000e0bf";
        assert_eq!(encode_cert(&cut), text);
        assert_eq!(decode_cert(text), Some(cut.clone()));
        for bad in [
            "",
            "zz",
            "0000000000002440;0",
            "0000000000002440;x,000000000000f83f",
        ] {
            assert_eq!(decode_cert(bad), None, "{bad:?}");
        }
        let net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let n = ev.num_scenarios();
        assert!(ev.restore_state(&format!("1|0|{n}|-|{text}{}", "|-".repeat(n - 2))));
        assert_eq!(ev.certificates(), [cut]);
        assert_eq!(ev.snapshot_state().split('|').nth(4), Some(text));
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let net_a = preset_network(TopologyPreset::A);
        let net_b = preset_network(TopologyPreset::B);
        let ev_b = PlanEvaluator::new(&net_b, EvalConfig::default());
        let mut ev_a = PlanEvaluator::new(&net_a, EvalConfig::default());
        if ev_a.num_scenarios() != ev_b.num_scenarios() {
            assert!(!ev_a.restore_state(&ev_b.snapshot_state()));
        }
        assert!(!ev_a.restore_state("garbage"));
        assert!(!ev_a.restore_state("2|0|0"));
    }

    /// What the RL walk cannot certify — the `K_{2,3}` context
    /// of the checker's tests, where no node cut is violated but the exact
    /// LP refutes the demands — `check` reports as a violation without a
    /// certificate and `separate`'s walk refuses on the spot: the panic
    /// names the scenario's dense index and no later scenario of the chunk
    /// is checked first.
    #[test]
    fn an_uncertified_violation_is_reported_or_refused_inside_the_walk() {
        use crate::checker::tests::k23;
        let caps = vec![1.333; 6];
        let mut hard = k23(1.0);
        hard.refresh(caps_fn(&caps));
        assert!(!exact_lp_verdict(&hard).is_feasible());
        // Feasible, uncertifiable, short at a node cut.
        let walk = |base, certify, st: &mut EvalStats| {
            let mut ctxs = vec![k23(0.5), k23(1.0), k23(2.0)];
            let walk = Walk {
                check: CheckConfig {
                    allow_exact_lp: false,
                    ..CheckConfig::default()
                },
                reuse_certificates: true,
                limit: usize::MAX,
                certify,
            };
            let found = walk_chunk(&mut ctxs, base, &caps, &walk, st, None);
            (found, ctxs)
        };
        let (found, ctxs) = walk(0, false, &mut EvalStats::default());
        let k = found
            .iter()
            .position(|f| !f.structural && ctxs[f.idx].proofs.borrow().cut.is_none())
            .expect("MWU and rounding leave the K_{2,3} scenario uncertified");
        assert_eq!(found[k].idx, 1);
        assert!(k + 1 < found.len(), "the reporting walk went on past it");

        let mut st = EvalStats::default();
        let base = 3;
        let refusal =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| walk(base, true, &mut st)))
                .expect_err("a certifying walk must refuse");
        assert_eq!(
            refusal
                .downcast_ref::<String>()
                .expect("a formatted message"),
            &format!(
                "separator could not certify infeasibility of scenario {}; \
                 numerical breakdown in the LP duals",
                base + found[k].idx
            )
        );
        assert_eq!(st.scenario_checks as usize, found[k].idx + 1);
    }

    /// The cut text of every scenario in a snapshot, `-` where it has none.
    fn snapshot_cuts(ev: &PlanEvaluator) -> Vec<String> {
        let blob = ev.snapshot_state();
        blob.split('|').skip(3).map(str::to_owned).collect()
    }

    /// A fork starts from its parent's cuts and nothing else a check has
    /// proved; absorbing children in order keeps the parent's cut where it
    /// has one and otherwise takes the first child's that has one.
    #[test]
    fn forks_carry_the_cuts_and_absorb_keeps_the_first_found() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        let n = net.links().len();
        // Every context holds a path LP and a witness, and scenario 0 a cut.
        let mut parent = evaluator_with_warm_lps(&net);
        assert!(parent.check(&abundant(&net)).feasible);
        parent.reset();
        assert!(!parent.check(&vec![0.0; n]).feasible);
        assert!(parent.ctxs.iter().all(|c| {
            let proofs = c.proofs.borrow();
            proofs.lp.is_some() && proofs.witness.is_some()
        }));
        let mine = snapshot_cuts(&parent);
        assert_ne!(mine[0], "-", "the dark check stocks scenario 0's cut");
        assert!(mine[1..].iter().all(|c| c == "-"));
        let mut children = [parent.fork(), parent.fork()];
        for child in &children {
            assert_eq!(child.snapshot_state(), parent.snapshot_state());
            assert!(child
                .ctxs
                .iter()
                .all(|c| c.proofs.borrow().lp.is_none() && c.proofs.borrow().witness.is_none()));
        }
        // The first child separates a few scenarios at no capacity; the
        // second separates every scenario with only the links of the
        // first child's cuts lit, so those cuts no longer hold.
        let _ = children[0].separate(&vec![0.0; n], 3);
        let mut lit = vec![0.0; n];
        for cut in children[0].certificates() {
            for (l, _) in cut.coeff {
                lit[l.index()] = 1e3;
            }
        }
        let _ = children[1].separate(&lit, usize::MAX);
        let [first, second] = children.each_ref().map(snapshot_cuts);
        // Every rule decides somewhere: the parent's cut against a child's,
        // the first child's against the second's, and the second's alone.
        assert!(second[0] != "-" && second[0] != mine[0]);
        let both = |i: &usize| first[*i] != "-" && second[*i] != "-";
        assert!((1..mine.len()).any(|i| both(&i) && first[i] != second[i]));
        assert!((1..mine.len()).any(|i| first[i] == "-" && second[i] != "-"));
        let taken = |i: usize| {
            [&mine[i], &first[i], &second[i]]
                .into_iter()
                .find(|c| *c != "-")
                .unwrap_or(&mine[i])
                .clone()
        };
        let expected: Vec<String> = (0..mine.len()).map(taken).collect();
        for child in &mut children {
            parent.absorb(child);
        }
        assert_eq!(snapshot_cuts(&parent), expected);
        assert_eq!(
            parent.snapshot_state(),
            format!("1|0|{}|{}", expected.len(), expected.join("|"))
        );
    }

    #[test]
    fn take_stats_resets_counters() {
        let net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        ev.check(&abundant(&net));
        let st = ev.take_stats();
        assert!(st.scenario_checks > 0);
        assert_eq!(ev.stats, EvalStats::default());
    }

    use np_topology::Perturbation;

    /// Verdicts of the carried evaluator must match a cold rebuild on
    /// the perturbed instance for every capacity vector tried.
    fn assert_matches_cold(ev: &mut PlanEvaluator, net: &Network) {
        let mut cold = PlanEvaluator::new(net, EvalConfig::default());
        assert_eq!(ev.num_scenarios(), cold.num_scenarios());
        for scale in [0.0, 0.4, 3.0, 1e4] {
            ev.reset();
            cold.reset();
            let caps: Vec<f64> = net
                .link_ids()
                .map(|l| (net.capacity_gbps(l) + 5.0) * scale)
                .collect();
            let a = ev.check(&caps);
            let b = cold.check(&caps);
            assert_eq!(a.feasible, b.feasible, "scale {scale}");
            assert_eq!(a.first_violated, b.first_violated, "scale {scale}");
            assert_eq!(a.structural, b.structural, "scale {scale}");
        }
    }

    #[test]
    fn demand_scale_rescales_certificates_in_place() {
        let mut net = GeneratorConfig::a_variant(0.0).generate();
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let caps = vec![0.0; net.links().len()];
        assert!(!ev.check(&caps).feasible);
        let rhs_before = ev.certificate(0).expect("cert").rhs;
        let delta = net
            .apply_perturbation(&Perturbation::DemandScale { factor: 2.0 })
            .unwrap();
        ev.apply_perturbation(&net, &delta);
        let cert = ev.certificate(0).expect("cert survives");
        assert!((cert.rhs - 2.0 * rhs_before).abs() < 1e-9);
        assert!(ev.stats.perturb_certs_retained > 0);
        assert_eq!(ev.stats.perturb_certs_dropped, 0);
        assert_eq!(ev.stats.perturb_ctx_rebuilt, 0);
        assert_matches_cold(&mut ev, &net);
    }

    #[test]
    fn link_add_invalidates_exactly_alive_scenarios() {
        let mut net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        // Fail everything to stock the certificate store.
        let zeros = vec![0.0; net.links().len()];
        let _ = ev.separate(&zeros, usize::MAX);
        let certs_before: Vec<bool> = (0..ev.num_scenarios())
            .map(|i| ev.certificate(i).is_some())
            .collect();
        assert!(certs_before.iter().any(|&c| c), "separation stocks certs");
        // A parallel twin of link 0 is always a valid add.
        let mut twin = net.link(LinkId::new(0)).clone();
        twin.capacity_units = 0;
        twin.min_units = 0;
        let delta = net
            .apply_perturbation(&Perturbation::LinkAdd { link: twin })
            .unwrap();
        let new_link = match &delta {
            np_topology::PerturbDelta::LinkAdd { link } => *link,
            other => panic!("{other:?}"),
        };
        ev.apply_perturbation(&net, &delta);
        assert_eq!(ev.num_scenarios(), certs_before.len());
        for (idx, &had_cert) in certs_before.iter().enumerate() {
            let alive = net.link_alive(new_link, scenario_at(idx));
            if alive {
                assert!(
                    ev.certificate(idx).is_none(),
                    "scenario {idx}: new link alive, cert must be dropped"
                );
            } else {
                assert_eq!(
                    ev.certificate(idx).is_some(),
                    had_cert,
                    "scenario {idx}: new link dead, cert must be untouched"
                );
            }
        }
        assert_matches_cold(&mut ev, &net);
    }

    #[test]
    fn link_remove_keeps_every_certificate_remapped() {
        let mut net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let zeros = vec![0.0; net.links().len()];
        let _ = ev.separate(&zeros, usize::MAX);
        let had_cert: usize = (0..ev.num_scenarios())
            .filter(|&i| ev.certificate(i).is_some())
            .count();
        assert!(had_cert > 0);
        let victim = LinkId::new(net.links().len() / 2);
        let delta = net
            .apply_perturbation(&Perturbation::LinkRemove { link: victim })
            .unwrap();
        ev.apply_perturbation(&net, &delta);
        let still: usize = (0..ev.num_scenarios())
            .filter(|&i| ev.certificate(i).is_some())
            .count();
        assert_eq!(still, had_cert, "link removal never invalidates a cut");
        assert_eq!(ev.stats.perturb_certs_dropped, 0);
        // Remapped certificates only mention surviving link ids.
        for i in 0..ev.num_scenarios() {
            if let Some(c) = ev.certificate(i) {
                for &(l, _) in &c.coeff {
                    assert!(l.index() < net.links().len(), "stale id {l} in cert {i}");
                }
            }
        }
        assert_matches_cold(&mut ev, &net);
    }

    /// Every scenario's persistent exact LP, driven through capacities on
    /// both sides of the boundary, must answer like one built from
    /// nothing on the perturbed instance.
    fn assert_exact_lps_match_fresh(ev: &mut PlanEvaluator, net: &Network) {
        let mut fresh = build_all(net, true);
        assert_eq!(ev.ctxs.len(), fresh.len());
        for scale in [0.3, 0.8, 1.0, 1.3, 4.0] {
            let cap = |l: LinkId| (net.capacity_gbps(l) + 40.0) * scale;
            for (i, (kept, new)) in ev.ctxs.iter_mut().zip(&mut fresh).enumerate() {
                kept.refresh(cap);
                new.refresh(cap);
                new.proofs.get_mut().lp = None; // cold every time
                kept.proofs.get_mut().witness = None;
                let (a, b) = (exact_lp_verdict(kept), exact_lp_verdict(new));
                assert_eq!(a.is_feasible(), b.is_feasible(), "scenario {i} x{scale}");
                if let Verdict::Infeasible(Some(cut)) = &a {
                    assert!(cut.is_violated(cap), "scenario {i} x{scale}: stale cut");
                }
                // A witness the LP just stored must fit arc by arc.
                let witness = kept.proofs.get_mut().witness.take();
                for (arc, f) in kept.graph.arcs().iter().zip(witness.iter().flatten()) {
                    assert!(
                        a.is_feasible() && *f <= arc.cap + 1e-9,
                        "scenario {i} x{scale}"
                    );
                }
            }
        }
    }

    /// An evaluator whose every context holds a converged exact LP.
    fn evaluator_with_warm_lps(net: &Network) -> PlanEvaluator {
        let mut ev = PlanEvaluator::new(net, EvalConfig::default());
        for ctx in &mut ev.ctxs {
            ctx.refresh(|l| net.capacity_gbps(l) + 40.0);
            exact_lp_verdict(ctx);
            assert!(ctx.proofs.get_mut().lp.is_some());
        }
        ev
    }

    #[test]
    fn persistent_lps_survive_demand_scale_and_link_removal() {
        let mut net = preset_network(TopologyPreset::A);
        let mut ev = evaluator_with_warm_lps(&net);
        // A link some failure kills: the scenarios where it is dead never
        // held it, so they are retagged, not rebuilt.
        let victim = net.impact(np_topology::FailureId::new(0)).dead_links[0];
        for perturbation in [
            Perturbation::DemandScale { factor: 1.7 },
            Perturbation::LinkRemove { link: victim },
            Perturbation::DemandScale { factor: 0.4 },
        ] {
            let delta = net.apply_perturbation(&perturbation).unwrap();
            ev.apply_perturbation(&net, &delta);
            let kept = ev
                .ctxs
                .iter()
                .filter(|c| c.proofs.borrow().lp.is_some())
                .count();
            // A kept LP is no longer warm: until it answers again the fine
            // MWU pass runs, as it does in a replan resumed at this event.
            assert!(ev
                .ctxs
                .iter()
                .all(|c| !c.proofs.borrow().lp.as_ref().is_some_and(|p| p.warm)));
            assert_eq!(
                kept as u64,
                std::mem::take(&mut ev.stats.perturb_ctx_reused),
                "{perturbation:?}: exactly the reused contexts keep their LP"
            );
            assert!(kept > 0, "{perturbation:?} must carry some LPs over");
            assert_exact_lps_match_fresh(&mut ev, &net);
        }
    }

    #[test]
    fn failure_add_appends_one_unproven_scenario() {
        let mut net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        let n = ev.num_scenarios();
        let failure = np_topology::Failure {
            name: "perturb:extra".into(),
            kind: net.failures()[0].kind.clone(),
        };
        let delta = net
            .apply_perturbation(&Perturbation::FailureAdd { failure })
            .unwrap();
        ev.apply_perturbation(&net, &delta);
        assert_eq!(ev.num_scenarios(), n + 1);
        assert!(ev.certificate(n).is_none());
        assert_matches_cold(&mut ev, &net);
    }

    #[test]
    fn fiber_cost_change_is_invisible_to_the_evaluator() {
        let mut net = preset_network(TopologyPreset::A);
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        ev.check(&abundant(&net));
        let stats_before = ev.stats.clone();
        let delta = net
            .apply_perturbation(&Perturbation::FiberCostChange {
                fiber: np_topology::FiberId::new(0),
                factor: 2.5,
            })
            .unwrap();
        ev.apply_perturbation(&net, &delta);
        assert_eq!(
            ev.stats.perturb_ctx_rebuilt,
            stats_before.perturb_ctx_rebuilt
        );
        assert_matches_cold(&mut ev, &net);
    }
}
