//! The NeuroPlan planning service behind the `neuroplan serve` daemon.
//!
//! [`NeuroPlanService`] implements [`np_serve::PlanService`]: it turns a
//! JSON request spec into a planning run, threading the daemon's three
//! robustness hooks into the existing pipeline machinery —
//!
//! * **Crash safety / resume.** Every request plans under its own
//!   checkpoint chain at `<state_dir>/req-<id>/`, always opened in
//!   resume mode: a fresh request finds no records and starts clean, a
//!   journal-replayed or worker-death-retried request continues from
//!   whatever epochs the dead run flushed — the same bit-identical
//!   resume contract the CLI `--resume` path has (DESIGN.md §10). The
//!   chain is there to resume from and goes once the request has closed
//!   ([`PlanService::closed`]): a state directory holds the chains of
//!   the requests in flight and no others.
//! * **Cancellation.** The daemon's per-request token goes straight
//!   into [`NeuroPlan::with_cancel`], so `cancel` frees the worker at
//!   the next supervisor stage / trainer epoch boundary.
//! * **Warm cache.** The daemon's LRU holds typed [`CacheEntry`] values.
//!   Results are cached under the same [`checkpoint::fingerprint`] that
//!   keys checkpoint chains. A repeat request skips the solve entirely —
//!   its plan's certificate is verified against the instance, or, on the
//!   plan's first repeat, one evaluator validation pass runs and leaves a
//!   decoded certificate in the entry ([`NeuroPlanService::repeat`]) —
//!   and, needing no worker, is answered at admission through
//!   [`PlanService::warm`]. A hit keeps, under `spec-` and the spec's
//!   canonical text, the fingerprint and the instance this spec
//!   generated, so a later repeat neither generates nor hashes it again
//!   and is still checked on the instance it names. A perturbed request
//!   (`events` in the spec) reuses the cached base plan as the carried
//!   plan of the incremental replan path instead of re-planning from
//!   scratch.
//! * **First-stage reuse.** The same cache keeps each trained
//!   [`FirstStage`] under its [`checkpoint::first_stage_key`]. A request
//!   that misses on the plan but hits there — only second-stage settings
//!   such as `alpha` differ — has its chain seeded with that
//!   `first_stage` record, and the resume above runs the second stage
//!   alone, to the plan a from-scratch run reaches, bit for bit.
//!
//! ## Request spec
//!
//! A JSON object read by [`PlanSpec::from_json`]; [`crate::spec::FIELDS`]
//! is the list of keys, types and ranges (`neuroplan` alone prints it).
//! `neuroplan request` builds the same object from the same-named flags.
//!
//! The result body carries `units`, `cost` (plus `cost_hex` for
//! bit-exact comparison), `quality`, the `fingerprint`, and whether the
//! run was served `"cold"` or `"warm"`; a cold result whose first stage
//! was not trained for it adds `"first_stage": "reused"`.

use crate::certificate::{verify, Certificate};
use crate::checkpoint;
use crate::pipeline::{certify, validate_plan, FirstStage, NeuroPlan, PlanFailure};
use crate::replan::ReplanReport;
use crate::spec::PlanSpec;
use np_chaos::checkpoint::f64_to_hex;
use np_serve::{lock, PlanService, RequestCtx, ServiceFailure};
use np_telemetry::{sys, Telemetry};
use np_topology::Network;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;

/// The planner-backed [`PlanService`].
pub struct NeuroPlanService {
    /// Daemon state directory; per-request checkpoint chains live in
    /// `req-<id>/` subdirectories.
    pub state_dir: PathBuf,
    /// Telemetry shared with the daemon (counters under `serve`).
    pub tel: Telemetry,
}

impl NeuroPlanService {
    /// A service writing per-request checkpoints under `state_dir`.
    pub fn new(state_dir: impl Into<PathBuf>, tel: Telemetry) -> NeuroPlanService {
        NeuroPlanService {
            state_dir: state_dir.into(),
            tel,
        }
    }
}

/// What [`NeuroPlanService`] keeps in the daemon's warm cache, ready to
/// use: nothing is parsed on a hit (DESIGN.md §15).
#[derive(Clone, Debug)]
pub enum CacheEntry {
    /// An answered spec, under `spec-` and its canonical text: the
    /// fingerprint it plans under and the instance it generated.
    Spec {
        /// [`checkpoint::fingerprint`] of the instance and the spec's
        /// planner configuration.
        fp: Arc<str>,
        /// The instance, which a repeat of the spec is checked on.
        net: Arc<Network>,
    },
    /// A base (event-free) plan, under its fingerprint.
    Plan(Arc<CachedPlan>),
    /// A trained first stage, under its first-stage key.
    FirstStage(Arc<FirstStage>),
}

/// A cached base plan.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// Units per link.
    pub units: Vec<u32>,
    /// Its cost.
    pub cost: f64,
    /// Its quality's wire name.
    pub quality: &'static str,
    /// What proves it on the instance.
    pub proof: Proof,
}

/// The certificate a cached plan keeps for its repeats.
#[derive(Clone, Debug, PartialEq)]
pub enum Proof {
    /// No repeat has asked for one yet.
    Unasked,
    /// One that [`verify`] accepted when it was stored.
    Held(Certificate),
    /// The evaluator had none to give: every repeat validates.
    Unavailable,
}

fn bad(msg: impl Into<String>) -> ServiceFailure {
    ServiceFailure::Failed(msg.into())
}

/// The result members every surface reports — `units`, `cost`,
/// `cost_hex`, `quality`; the CLI and the daemon add their own around
/// them.
pub fn plan_body(units: &[u32], cost: f64, quality: &str) -> [(String, Value); 4] {
    [
        ("units".to_string(), json!(units)),
        ("cost".to_string(), json!(cost)),
        // Bit-exact cost for cross-process comparisons.
        ("cost_hex".to_string(), json!(f64_to_hex(cost))),
        ("quality".to_string(), json!(quality)),
    ]
}

/// Quality of a re-planned stream: that of its last applied event.
fn stream_quality(report: &ReplanReport) -> &'static str {
    (report.events.iter().rev())
        .find(|e| e.skipped.is_none())
        .map_or("optimal", |e| e.quality.name())
}

/// The cache key of an answered spec: `spec-` and its canonical text.
fn spec_key(spec: &PlanSpec) -> String {
    let text = serde_json::to_string(&spec.to_json()).expect("a JSON value serializes");
    format!("spec-{text}")
}

/// The instance a request names and its fingerprint, with whether they
/// were generated here (`true`) or kept under its `spec-` key.
struct Instance {
    net: Arc<Network>,
    fp: Arc<str>,
    generated: bool,
}

/// The result body of request `id`; `served` closes it: how the plan was
/// produced.
fn result_body(
    id: u64,
    fp: &str,
    units: &[u32],
    cost: f64,
    quality: &str,
    served: &[(&str, &str)],
) -> Value {
    let [units, cost, cost_hex, quality] = plan_body(units, cost, quality);
    let id = ("id".to_string(), json!(id));
    let fp = ("fingerprint".to_string(), json!(fp));
    // Exactly sized: the daemon keeps the last few thousand it served.
    let mut members = Vec::with_capacity(6 + served.len());
    members.extend([id, units, cost, cost_hex, quality, fp]);
    members.extend(served.iter().map(|(k, v)| (k.to_string(), json!(*v))));
    Value::Object(members)
}

const WARM: [(&str, &str); 1] = [("cache", "warm")];

impl NeuroPlanService {
    /// Where request `id` keeps its checkpoint chain while it runs.
    fn req_dir(&self, id: u64) -> PathBuf {
        self.state_dir.join(format!("req-{id}"))
    }

    /// The instance `spec` names: the one kept under `key` when the spec
    /// was answered before (an uncounted lookup), else generated and
    /// fingerprinted here.
    fn instance(
        &self,
        ctx: &RequestCtx<'_, CacheEntry>,
        spec: &PlanSpec,
        key: &str,
    ) -> Result<Instance, String> {
        if let Some(CacheEntry::Spec { fp, net }) = lock(ctx.cache).get_uncounted(key) {
            let (net, fp) = (net.clone(), fp.clone());
            return Ok(Instance {
                net,
                fp,
                generated: false,
            });
        }
        self.tel.incr(sys::SERVE, "instances_generated", 1);
        let net = spec.network()?;
        let fp = checkpoint::fingerprint(&net, &spec.config()).into();
        Ok(Instance {
            net: Arc::new(net),
            fp,
            generated: true,
        })
    }

    /// Whether `cert` proves `units` on `net`.
    fn verifies(&self, net: &Network, units: &[u32], cert: &Certificate) -> bool {
        self.tel.incr(sys::SERVE, "verifies", 1);
        verify(net, units, cert).is_ok()
    }

    /// The warm hit, on either lane: `plan` is the plan cached under the
    /// fingerprint of the event-free spec kept or to be kept under `key`.
    /// The plan is checked, never trusted, outside the cache lock and on
    /// the instance the spec names: by its certificate, an O(witness)
    /// pass, when the entry holds one that verifies; otherwise by an
    /// evaluator validation pass, after which the entry gets a fresh
    /// certificate — or [`Proof::Unavailable`], and validation it stays.
    /// A cached plan that no longer validates is no answer. An answer
    /// keeps the spec's instance under `key` if it is not kept yet.
    fn repeat(
        &self,
        ctx: &RequestCtx<'_, CacheEntry>,
        key: &str,
        at: Instance,
        plan: &CachedPlan,
    ) -> Option<Value> {
        let (net, units) = (&*at.net, &plan.units[..]);
        let proved = match &plan.proof {
            Proof::Held(cert) => self.verifies(net, units, cert),
            _ => false,
        };
        if !proved {
            validate_plan(net, units).ok()?;
            if plan.proof != Proof::Unavailable {
                let fresh = certify(net, units).filter(|c| self.verifies(net, units, c));
                let proof = fresh.map_or(Proof::Unavailable, Proof::Held);
                let certified = CachedPlan {
                    units: plan.units.clone(),
                    proof,
                    ..*plan
                };
                lock(ctx.cache).replace(&at.fp, CacheEntry::Plan(Arc::new(certified)));
            }
        }
        self.tel.incr(sys::SERVE, "warm_hits", 1);
        let body = result_body(ctx.id, &at.fp, units, plan.cost, plan.quality, &WARM);
        if at.generated {
            let (fp, net) = (at.fp, at.net);
            lock(ctx.cache).put(key, CacheEntry::Spec { fp, net });
        }
        Some(body)
    }
}

impl PlanService for NeuroPlanService {
    type Entry = CacheEntry;

    /// A repeat of a cached, event-free request: everything else solves
    /// (`events` re-plans, a new fingerprint plans at least a second
    /// stage) and belongs to a worker.
    fn warm(&self, spec: &Value, ctx: &RequestCtx<'_, CacheEntry>) -> Option<Value> {
        // Asked of the wire object: resolving a churn stream to learn
        // that there is one costs more than the answer.
        if spec.get("events").is_some() {
            return None;
        }
        let spec = PlanSpec::from_json(spec).ok()?;
        let key = spec_key(&spec);
        let at = self.instance(ctx, &spec, &key).ok()?;
        let plan = {
            let mut cache = lock(ctx.cache);
            // A miss is not counted here: the worker that plans the
            // request looks the fingerprint up again, and counts it once.
            if !cache.contains(&at.fp) {
                return None;
            }
            match cache.get(&at.fp)? {
                CacheEntry::Plan(plan) => plan,
                _ => return None,
            }
        };
        self.repeat(ctx, &key, at, &plan)
    }

    fn execute(
        &self,
        spec: &Value,
        ctx: &RequestCtx<'_, CacheEntry>,
    ) -> Result<Value, ServiceFailure> {
        let spec = PlanSpec::from_json(spec).map_err(bad)?;
        let key = spec_key(&spec);
        let at = self.instance(ctx, &spec, &key).map_err(bad)?;
        let (net, fp) = (at.net.clone(), at.fp.clone());
        let events = spec.events(&net);
        let done = |units: &[u32], cost: f64, quality: &str, served: &[(&str, &str)]| {
            Ok(result_body(ctx.id, &fp, units, cost, quality, served))
        };

        // Warm path: a cached plan for this exact fingerprint — cached
        // after admission, or the request is a journal replay.
        let cached = match lock(ctx.cache).get(&fp) {
            Some(CacheEntry::Plan(plan)) => Some(plan),
            _ => None,
        };
        if let (Some(plan), None) = (&cached, &events) {
            if let Some(body) = self.repeat(ctx, &key, at, plan) {
                return Ok(body);
            }
        }
        let cfg = spec.config();
        let planner =
            NeuroPlan::with_telemetry(cfg, self.tel.clone()).with_cancel(ctx.cancel.clone());
        let fail = |what: &str, e: PlanFailure| match e {
            PlanFailure::Cancelled => ServiceFailure::Cancelled,
            other => bad(format!("{what} failed: {other}")),
        };
        let rcfg = spec.replan_config();
        if let (Some(plan), Some(events)) = (&cached, &events) {
            // Perturbed repeat: carry the cached plan into the
            // incremental replan path.
            self.tel.incr(sys::SERVE, "warm_hits", 1);
            let report = planner
                .replan_from(&net, &plan.units, events, &rcfg)
                .map_err(|e| fail("replan", e))?;
            let quality = stream_quality(&report);
            return done(&report.final_units, report.final_cost, quality, &WARM);
        }

        // Cold path: the full pipeline under this request's own
        // checkpoint chain. Resume mode is unconditional — an empty
        // chain starts fresh, a replayed one continues bit-identically.
        let planner = planner.with_checkpoint(self.req_dir(ctx.id), true);
        // A first stage trained for this (instance, training config, seed)
        // under other second-stage settings seeds the chain, and the
        // resume runs the second stage alone. The lookup serves one and
        // is not counted: the counts are of plan lookups.
        let fs_key = checkpoint::first_stage_key(&net, &planner.cfg);
        let first = match lock(ctx.cache).get_uncounted(&fs_key) {
            Some(CacheEntry::FirstStage(first)) => Some(FirstStage::clone(first)),
            _ => None,
        };
        let seeded = first.is_some_and(|first| planner.seed_first_stage(&fp, &fs_key, first));
        if seeded {
            self.tel.incr(sys::SERVE, "first_stage_hits", 1);
        }
        let result = planner.try_plan(&net).map_err(|e| fail("plan", e))?;
        // Read off the chain the plan came from, not off `seeded`: a
        // request replayed after a restart finds its seeded chain in
        // place and must report what it reported before.
        let cold = [("cache", "cold"), ("first_stage", "reused")];
        let cold = &cold[..1 + usize::from(result.first_stage_reused())];
        let (units, cost) = (&result.final_units, result.final_cost);
        let quality = result.quality.name();
        // Keep the plan warm for repeats and perturbations, and its first
        // stage for other second-stage settings. Only the base
        // (event-free) plan is cached: it is what both warm paths start
        // from.
        let plan = CachedPlan {
            units: units.clone(),
            cost,
            quality,
            proof: Proof::Unasked,
        };
        {
            let mut cache = lock(ctx.cache);
            if !seeded {
                let first = Arc::new(result.first_stage());
                cache.put(&fs_key, CacheEntry::FirstStage(first));
            }
            cache.put(&fp, CacheEntry::Plan(Arc::new(plan)));
        }
        let Some(events) = events else {
            return done(units, cost, quality, cold);
        };
        let report = planner
            .replan_from(&net, units, &events, &rcfg)
            .map_err(|e| fail("plan", e))?;
        let quality = stream_quality(&report);
        done(&report.final_units, report.final_cost, quality, cold)
    }

    /// The result is in the journal: nothing will resume this request's
    /// chain again. First-stage reuse reads the LRU, never a chain.
    fn closed(&self, id: u64) {
        let _ = std::fs::remove_dir_all(self.req_dir(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_augment;
    use np_chaos::CancelToken;
    use np_eval::EvalConfig;
    use np_serve::WarmCache;
    use std::sync::Mutex;

    fn ctx(cache: &Mutex<WarmCache<CacheEntry>>, id: u64) -> RequestCtx<'_, CacheEntry> {
        RequestCtx {
            id,
            resume: false,
            cancel: CancelToken::new(),
            cache,
        }
    }

    fn tiny_spec() -> Value {
        // Preset A is the smallest paper WAN; quick config keeps the
        // solve in test-friendly time.
        json!({ "preset": "a", "seed": 3 })
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("np-svc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_then_warm_round_trip_is_bit_identical() {
        let cache = Mutex::new(WarmCache::new(4));
        let dir = tmp("warm");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let spec = tiny_spec();

        // Nothing is cached: the admission lane has no answer, and leaves
        // the counting of the miss to the worker.
        assert_eq!(svc.warm(&spec, &ctx(&cache, 1)), None);
        assert_eq!(cache.lock().unwrap().stats(), (0, 0, 0));

        let t0 = std::time::Instant::now();
        let cold = svc.execute(&spec, &ctx(&cache, 1)).expect("cold plan");
        let cold_time = t0.elapsed();
        assert_eq!(cold.get("cache").and_then(|v| v.as_str()), Some("cold"));

        let t1 = std::time::Instant::now();
        let warm = svc.execute(&spec, &ctx(&cache, 2)).expect("warm plan");
        let warm_time = t1.elapsed();
        assert_eq!(warm.get("cache").and_then(|v| v.as_str()), Some("warm"));
        assert_eq!(
            serde_json::to_string(warm.get("units").unwrap()).unwrap(),
            serde_json::to_string(cold.get("units").unwrap()).unwrap(),
            "the warm plan is the cached plan"
        );
        assert_eq!(
            warm.get("cost_hex").and_then(|v| v.as_str()),
            cold.get("cost_hex").and_then(|v| v.as_str()),
            "bit-identical cost"
        );
        assert!(
            warm_time < cold_time,
            "warm ({warm_time:?}) must beat cold ({cold_time:?})"
        );

        // The admission lane gives the worker's warm answer, and only
        // that: whatever has to solve is `None` there.
        assert_eq!(svc.warm(&spec, &ctx(&cache, 2)), Some(warm));
        let churned = json!({ "preset": "a", "seed": 3, "events": "seed=1,n=2" });
        assert_eq!(svc.warm(&churned, &ctx(&cache, 3)), None);
        assert_eq!(svc.warm(&at_alpha(1.25), &ctx(&cache, 3)), None);
        assert_eq!(svc.warm(&json!({ "preset": "zz" }), &ctx(&cache, 3)), None);
        assert_eq!(cache.lock().unwrap().stats().0, 2, "two hits, both warm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The plan cached under `fp`.
    fn plan_in(cache: &Mutex<WarmCache<CacheEntry>>, fp: &str) -> CachedPlan {
        match cache.lock().unwrap().get_uncounted(fp) {
            Some(CacheEntry::Plan(plan)) => CachedPlan::clone(plan),
            other => panic!("no plan under {fp}: {other:?}"),
        }
    }

    /// The fingerprint and instance kept for `spec`.
    fn kept(cache: &Mutex<WarmCache<CacheEntry>>, spec: &PlanSpec) -> (String, Arc<Network>) {
        match cache.lock().unwrap().get_uncounted(&spec_key(spec)) {
            Some(CacheEntry::Spec { fp, net }) => (fp.to_string(), net.clone()),
            other => panic!("no instance kept for {spec:?}: {other:?}"),
        }
    }

    /// Whatever the plan entry holds — no certificate, its own, a broken
    /// one, none to be had, units that are not the plan's — a repeat is
    /// answered as a validation of the entry's units answers it: warm, or
    /// not at all.
    #[test]
    fn a_repeat_answers_what_validation_answers_whatever_the_entry_holds() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("certified");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let spec = tiny_spec();
        svc.execute(&spec, &ctx(&cache, 1)).expect("cold");
        let parsed = PlanSpec::from_json(&spec).unwrap();
        let net = parsed.network().unwrap();
        let fp = checkpoint::fingerprint(&net, &parsed.config());
        let entry = || plan_in(&cache, &fp);
        assert_eq!(
            entry().proof,
            Proof::Unasked,
            "a cold plan is cached uncertified"
        );

        // The first repeat validates and certifies; the spec is kept with
        // its fingerprint and instance.
        let warm = svc.warm(&spec, &ctx(&cache, 2)).expect("warm");
        let Proof::Held(cert) = entry().proof else {
            panic!("certified on the first repeat")
        };
        let units = entry().units;
        assert_eq!(verify(&net, &units, &cert), Ok(()));
        let (kept_fp, kept_net) = kept(&cache, &parsed);
        assert_eq!(kept_fp, fp);
        assert_eq!(kept_net.to_json(), net.to_json());
        let answer = || svc.warm(&spec, &ctx(&cache, 2));
        let store = |plan: CachedPlan| {
            let plan = CacheEntry::Plan(Arc::new(plan));
            assert!(cache.lock().unwrap().replace(&fp, plan));
        };
        let original = entry();
        assert_eq!(answer(), Some(warm.clone()));

        // No certificate, or one that proves nothing: validated, then
        // certified anew.
        let mut short = cert.clone();
        short.scenarios[0].pop();
        for proof in [
            Proof::Unasked,
            Proof::Held(short),
            Proof::Held(Certificate::default()),
        ] {
            store(CachedPlan {
                proof,
                ..original.clone()
            });
            assert_eq!(answer(), Some(warm.clone()));
            assert_eq!(entry().proof, Proof::Held(cert.clone()), "certified again");
        }
        // None to be had: validation every time.
        store(CachedPlan {
            proof: Proof::Unavailable,
            ..original.clone()
        });
        assert_eq!(answer(), Some(warm.clone()));
        assert_eq!(entry().proof, Proof::Unavailable);

        // Units that are not the plan's, under the plan's certificate.
        let mut variants = vec![vec![0; units.len()], units[1..].to_vec()];
        for l in 0..units.len() {
            for delta in [-1i64, 1] {
                let mut changed = units.clone();
                changed[l] = (i64::from(changed[l]) + delta).max(0) as u32;
                variants.push(changed);
            }
        }
        let (mut warm_answers, mut refusals) = (0, 0);
        for changed in variants {
            store(CachedPlan {
                units: changed.clone(),
                ..original.clone()
            });
            let got = answer();
            match validate_plan(&net, &changed) {
                Ok(()) => {
                    let got = got.expect("a plan that validates is answered");
                    assert_eq!(got.get("units"), Some(&json!(changed)));
                    warm_answers += 1;
                }
                Err(e) => {
                    assert_eq!(got, None, "{e}");
                    refusals += 1;
                }
            }
        }
        assert!(
            warm_answers > 0 && refusals > 0,
            "{warm_answers} / {refusals}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A repeat on either lane is checked by `verify` every time, on an
    /// instance generated once for its spec, whatever the order of the
    /// spec's keys.
    #[test]
    fn a_warm_hit_is_checked_on_its_own_specs_instance_every_time() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("kept");
        let tel = Telemetry::memory();
        let svc = NeuroPlanService::new(dir.clone(), tel.clone());
        let cold = svc.execute(&tiny_spec(), &ctx(&cache, 1)).expect("cold");
        let count = |name| tel.counter(sys::SERVE, name);
        let (generated, verified) = (count("instances_generated"), count("verifies"));
        for k in 0..100u64 {
            let spec = match k {
                50 => json!({ "seed": 3, "preset": "a" }),
                _ => tiny_spec(),
            };
            let c = ctx(&cache, 2 + k);
            let warm = match k % 10 {
                9 => svc.execute(&spec, &c).expect("worker lane"),
                _ => svc.warm(&spec, &c).expect("admission lane"),
            };
            assert_eq!(text(&warm, "cache"), Some("warm"));
            assert_eq!(identity(&warm), identity(&cold));
        }
        assert!(count("instances_generated") - generated <= 1);
        assert_eq!(count("verifies") - verified, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the cache keeps for a spec is the instance the spec
    /// generates, whichever generator it names.
    #[test]
    fn the_kept_instance_is_the_one_the_spec_generates() {
        for spec in [
            tiny_spec(),
            json!({ "preset": "a", "seed": 5, "fill": 0.5 }),
            json!({ "preset": "a", "long_term": true }),
            json!({ "family": "ba", "size_tier": "a", "seed": 2 }),
        ] {
            let cache = Mutex::new(WarmCache::new(8));
            let svc = NeuroPlanService::new(tmp("instance"), Telemetry::noop());
            let parsed = PlanSpec::from_json(&spec).unwrap();
            let net = parsed.network().unwrap();
            // A feasible plan to repeat, without planning one.
            let mut planned = net.clone();
            greedy_augment(&mut planned, EvalConfig::default()).expect("greedy plan");
            let units = planned.links().iter().map(|l| l.capacity_units).collect();
            let plan = CachedPlan {
                units,
                cost: 0.0,
                quality: "optimal",
                proof: Proof::Unasked,
            };
            let fp = checkpoint::fingerprint(&net, &parsed.config());
            cache
                .lock()
                .unwrap()
                .put(&fp, CacheEntry::Plan(Arc::new(plan)));
            assert!(svc.warm(&spec, &ctx(&cache, 1)).is_some(), "{spec:?}");
            let (kept_fp, kept_net) = kept(&cache, &parsed);
            assert_eq!(kept_fp, fp, "{spec:?}");
            assert_eq!(kept_net.to_json(), net.to_json(), "{spec:?}");
        }
    }

    /// `cache_hits` and `cache_misses` count plan lookups: the first-stage
    /// lookup of a cold plan is not one.
    #[test]
    fn the_cache_counts_plan_lookups_only() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("counts");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let stats = || {
            let (hits, misses, _) = cache.lock().unwrap().stats();
            (hits, misses)
        };
        svc.execute(&tiny_spec(), &ctx(&cache, 1)).expect("cold");
        assert_eq!(stats(), (0, 1), "the cold plan");
        let reused = svc
            .execute(&at_alpha(1.25), &ctx(&cache, 2))
            .expect("reused");
        assert_eq!(text(&reused, "first_stage"), Some("reused"));
        assert_eq!(stats(), (0, 2), "a new alpha");
        svc.warm(&tiny_spec(), &ctx(&cache, 3)).expect("warm");
        assert_eq!(stats(), (1, 2), "a repeat");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn text<'a>(result: &'a Value, key: &str) -> Option<&'a str> {
        result.get(key).and_then(|v| v.as_str())
    }

    /// What must be equal bit for bit between two plans of one spec.
    fn identity(result: &Value) -> (String, Option<&str>, Option<&str>) {
        let units = serde_json::to_string(result.get("units").unwrap()).unwrap();
        (units, text(result, "cost_hex"), text(result, "quality"))
    }

    fn at_alpha(alpha: f64) -> Value {
        json!({ "preset": "a", "seed": 3, "alpha": alpha })
    }

    /// `execute` on a cache of its own: nothing to reuse.
    fn from_scratch(svc: &NeuroPlanService, spec: &Value, id: u64) -> Value {
        let fresh = Mutex::new(WarmCache::new(8));
        let scratch = svc.execute(spec, &ctx(&fresh, id)).expect("from scratch");
        assert_eq!(scratch.get("first_stage"), None);
        scratch
    }

    #[test]
    fn a_new_alpha_reuses_the_trained_first_stage_bit_for_bit() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("alpha");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let trained = svc.execute(&at_alpha(1.5), &ctx(&cache, 1)).expect("cold");
        assert_eq!(text(&trained, "cache"), Some("cold"));
        assert_eq!(
            trained.get("first_stage"),
            None,
            "a trained result is unchanged"
        );
        for (k, alpha) in [1.25, 1.5 - 3e-12, 2.0].into_iter().enumerate() {
            let reused = svc
                .execute(&at_alpha(alpha), &ctx(&cache, 2 + k as u64))
                .expect("reused");
            assert_eq!(text(&reused, "cache"), Some("cold"), "alpha {alpha}");
            assert_eq!(
                text(&reused, "first_stage"),
                Some("reused"),
                "alpha {alpha}"
            );
            // The same spec where nothing is cached trains its own policy.
            let scratch = from_scratch(&svc, &at_alpha(alpha), 10 + k as u64);
            assert_eq!(identity(&reused), identity(&scratch), "alpha {alpha}");
            assert_eq!(
                text(&reused, "fingerprint"),
                text(&scratch, "fingerprint"),
                "alpha {alpha}"
            );
        }
        // Neither key covers the thread budget: a thread count trains and
        // plans the same bits as none. A cached spec at another worker
        // count is a plan-cache hit, and at a new alpha the first stage
        // trained without `workers` serves any count.
        let workers =
            |n: u64, alpha: f64| json!({ "preset": "a", "seed": 3, "alpha": alpha, "workers": n });
        let hit = svc
            .execute(&workers(1, 1.5), &ctx(&cache, 20))
            .expect("warm");
        assert_eq!(text(&hit, "cache"), Some("warm"));
        assert_eq!(identity(&hit), identity(&trained));
        for (k, (n, alpha)) in [(1, 1.75), (4, 3.0)].into_iter().enumerate() {
            let id = 21 + 2 * k as u64;
            let reused = svc
                .execute(&workers(n, alpha), &ctx(&cache, id))
                .expect("reused");
            assert_eq!(text(&reused, "first_stage"), Some("reused"), "{n} workers");
            let scratch = from_scratch(&svc, &workers(n, alpha), id + 1);
            assert_eq!(identity(&reused), identity(&scratch), "{n} workers");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reused_first_stage_says_so_again_after_a_restart() {
        use crate::checkpoint::MasterRecord;
        use np_chaos::checkpoint::Chain;

        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("restart");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        svc.execute(&at_alpha(1.5), &ctx(&cache, 1)).expect("cold");
        let before = svc.execute(&at_alpha(1.25), &ctx(&cache, 2));
        let before = serde_json::to_string(&before.expect("reused")).unwrap();
        assert!(before.contains(r#""first_stage":"reused""#), "{before}");

        // A new daemon on the state directory replays the request: nothing
        // is cached, its seeded chain is where the dead daemon left it —
        // finished, or (the `master` record dropped) killed mid-solve.
        for killed_mid_solve in [false, true] {
            let file = dir.join("req-2").join("checkpoint.jsonl");
            let chain = Chain::new(&file, np_chaos::global());
            if killed_mid_solve {
                let records = chain.read();
                let kept = records.into_iter().filter(|r| !r.is::<MasterRecord>());
                chain.restart(kept).unwrap();
                assert_eq!(chain.read().len(), 2, "meta + first_stage");
            }
            let restarted = NeuroPlanService::new(dir.clone(), Telemetry::noop());
            let empty = Mutex::new(WarmCache::new(8));
            let replayed = RequestCtx {
                resume: true,
                ..ctx(&empty, 2)
            };
            let after = restarted
                .execute(&at_alpha(1.25), &replayed)
                .expect("replayed");
            assert_eq!(serde_json::to_string(&after).unwrap(), before);
        }
        // A chain that trained its own first stage never claims otherwise.
        let restarted = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let empty = Mutex::new(WarmCache::new(8));
        let own = restarted
            .execute(&at_alpha(1.5), &ctx(&empty, 1))
            .expect("own");
        assert_eq!(own.get("first_stage"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_closed_request_leaves_no_chain_and_reuse_does_not_need_one() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("closed");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        svc.execute(&at_alpha(1.5), &ctx(&cache, 1)).expect("cold");
        std::fs::create_dir_all(dir.join("req-2")).unwrap();
        assert!(dir.join("req-1").join("checkpoint.jsonl").exists());
        svc.closed(1);
        svc.closed(7);
        assert!(!dir.join("req-1").exists(), "the closed request's chain");
        assert!(dir.join("req-2").exists(), "and no other");
        // The first stage it trained serves another alpha from the LRU.
        let reused = svc
            .execute(&at_alpha(1.25), &ctx(&cache, 3))
            .expect("reused");
        assert_eq!(text(&reused, "first_stage"), Some("reused"));
        let scratch = from_scratch(&svc, &at_alpha(1.25), 4);
        assert_eq!(identity(&reused), identity(&scratch));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_alpha_sweep_trains_once_even_in_a_small_cache() {
        // Ten plans pass through four slots; the first stage stays because
        // every reuse refreshes it.
        let cache = Mutex::new(WarmCache::new(4));
        let dir = tmp("sweep");
        let tel = Telemetry::memory();
        let svc = NeuroPlanService::new(dir.clone(), tel.clone());
        let mut epochs = 0;
        for k in 0..10u64 {
            let spec = at_alpha(1.25 + 0.05 * k as f64);
            let result = svc.execute(&spec, &ctx(&cache, 1 + k)).expect("plan");
            assert_eq!(text(&result, "cache"), Some("cold"));
            if k == 0 {
                epochs = tel.counter(sys::RL, "epochs");
                assert!(epochs > 0, "the first request trains");
            }
        }
        assert_eq!(tel.counter(sys::RL, "epochs"), epochs, "trained once");
        assert_eq!(tel.counter(sys::SERVE, "first_stage_hits"), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The agent's shape is a training input: another one is neither a
    /// repeat nor a second-stage variant of the default one.
    #[test]
    fn another_agent_shape_plans_cold_and_trains_its_own_first_stage() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("shape");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let shallow = json!({ "preset": "a", "seed": 3, "gnn_layers": 0 });
        for (id, spec) in [(1, tiny_spec()), (2, shallow)] {
            assert_eq!(svc.warm(&spec, &ctx(&cache, id)), None);
            let result = svc.execute(&spec, &ctx(&cache, id)).expect("plan");
            assert_eq!(text(&result, "cache"), Some("cold"), "{spec:?}");
            assert_eq!(result.get("first_stage"), None, "{spec:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cold_request_with_events_caches_its_base_plan() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("events");
        let tel = Telemetry::memory();
        let svc = NeuroPlanService::new(dir.clone(), tel.clone());
        let churned = json!({ "preset": "a", "seed": 3, "events": "seed=1,n=5" });
        let cold = svc.execute(&churned, &ctx(&cache, 1)).expect("cold");
        assert_eq!(text(&cold, "cache"), Some("cold"));
        let epochs = tel.counter(sys::RL, "epochs");
        let again = svc.execute(&churned, &ctx(&cache, 2)).expect("again");
        assert_eq!(text(&again, "cache"), Some("warm"));
        assert_eq!(identity(&again), identity(&cold));
        let base = svc.execute(&tiny_spec(), &ctx(&cache, 3)).expect("base");
        assert_eq!(text(&base, "cache"), Some("warm"));
        assert_eq!(tel.counter(sys::RL, "epochs"), epochs, "trained once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_before_start_reports_cancelled() {
        let cache = Mutex::new(WarmCache::new(4));
        let dir = tmp("cancel");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let cancel = CancelToken::new();
        cancel.cancel();
        let c = RequestCtx {
            id: 1,
            resume: false,
            cancel,
            cache: &cache,
        };
        match svc.execute(&tiny_spec(), &c) {
            Err(ServiceFailure::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
