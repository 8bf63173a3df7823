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
//! * **Warm cache.** Results are cached under the same
//!   [`checkpoint::fingerprint`] that keys checkpoint chains. A repeat
//!   request skips the solve entirely — its plan's certificate is
//!   verified against the instance, or, on the plan's first repeat, one
//!   evaluator validation pass runs and leaves a certificate in the
//!   entry ([`NeuroPlanService::repeat`]) — and, needing no worker, is
//!   answered at admission through [`PlanService::warm`], which also
//!   remembers the fingerprint of every spec it answered under `spec-`
//!   and the spec's canonical text; a perturbed request
//!   (`events` in the spec) reuses the cached base plan as the carried
//!   plan of the incremental replan path (PR 8) instead of re-planning
//!   from scratch.
//! * **First-stage reuse.** The same cache keeps each trained first
//!   stage under its [`checkpoint::first_stage_key`]. A request that
//!   misses on the plan but hits there — only second-stage settings
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
use crate::NeuroPlanConfig;
use np_chaos::checkpoint::{body_of, f64_to_hex, read_body};
use np_serve::{lock, PlanService, RequestCtx, ServiceFailure};
use np_telemetry::{sys, Telemetry};
use np_topology::Network;
use serde_json::{json, Value};
use std::path::PathBuf;

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

fn bad(msg: impl Into<String>) -> ServiceFailure {
    ServiceFailure::Failed(msg.into())
}

fn units_of(blob: &Value) -> Option<Vec<u32>> {
    blob.get("units")?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|u| u as u32))
        .collect()
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

/// What both lanes read off a wire spec before deciding anything: the
/// request, its instance, its planner configuration and the fingerprint
/// of the pair.
fn read(spec: &Value) -> Result<(PlanSpec, Network, NeuroPlanConfig, String), String> {
    let spec = PlanSpec::from_json(spec)?;
    let net = spec.network()?;
    let cfg = spec.config();
    let fp = checkpoint::fingerprint(&net, &cfg);
    Ok((spec, net, cfg, fp))
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

    /// The warm hit, on either lane: `blob` is the plan cached under `fp`,
    /// the fingerprint of an event-free request for `net`. The plan is
    /// checked, never trusted: by its certificate, an O(witness) pass,
    /// when the entry holds one that verifies on `net`; otherwise by an
    /// evaluator validation pass, after which the entry gets a fresh
    /// certificate — or `null`, none to be had, and validation it stays.
    /// A cached plan that no longer validates is no answer.
    fn repeat(&self, ctx: &RequestCtx<'_>, net: &Network, fp: &str, blob: &Value) -> Option<Value> {
        let units = units_of(blob)?;
        let cert = blob.get("cert");
        let proved = cert.and_then(|v| v.as_str()).and_then(Certificate::decode);
        if proved.is_none_or(|cert| verify(net, &units, &cert).is_err()) {
            validate_plan(net, &units).ok()?;
            if !cert.is_some_and(Value::is_null) {
                let fresh = certify(net, &units).filter(|c| verify(net, &units, c).is_ok());
                lock(ctx.cache).replace(fp, with_cert(blob, fresh.map(|c| c.encode())));
            }
        }
        self.tel.incr(sys::SERVE, "warm_hits", 1);
        let cost = blob.get("cost").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let quality = blob.get("quality").and_then(|v| v.as_str());
        let quality = quality.unwrap_or("incumbent");
        Some(result_body(ctx.id, fp, &units, cost, quality, &WARM))
    }
}

/// A plan entry `blob` carrying the certificate text `cert`, or `null`
/// when there is none to be had (DESIGN.md §15).
fn with_cert(blob: &Value, cert: Option<String>) -> Value {
    let mut members = blob.as_object().cloned().unwrap_or_default();
    members.retain(|(key, _)| key != "cert");
    members.push(("cert".to_string(), cert.map_or(Value::Null, Value::Str)));
    Value::Object(members)
}

impl PlanService for NeuroPlanService {
    /// A repeat of a cached, event-free request: everything else solves
    /// (`events` re-plans, a new fingerprint plans at least a second
    /// stage) and belongs to a worker.
    fn warm(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Option<Value> {
        // Asked of the wire object: resolving a churn stream to learn
        // that there is one costs more than the answer.
        if spec.get("events").is_some() {
            return None;
        }
        let spec = PlanSpec::from_json(spec).ok()?;
        // Generated on every request: the plan is checked on it.
        let net = spec.network().ok()?;
        // The fingerprint of a spec this lane has answered is a lookup
        // (not a counted one), not a hash of the whole instance.
        let key = format!("spec-{}", serde_json::to_string(&spec.to_json()).ok()?);
        let answered = lock(ctx.cache).get_uncounted(&key).cloned();
        let fp = match answered.as_ref().and_then(|v| v.as_str()) {
            Some(fp) => fp.to_string(),
            None => checkpoint::fingerprint(&net, &spec.config()),
        };
        let blob = {
            let mut cache = lock(ctx.cache);
            // A miss is not counted here: the worker that plans the
            // request looks the fingerprint up again, and counts it once.
            if !cache.contains(&fp) {
                return None;
            }
            cache.get(&fp)?
        };
        let body = self.repeat(ctx, &net, &fp, &blob)?;
        if answered.is_none() {
            lock(ctx.cache).put(&key, Value::Str(fp));
        }
        Some(body)
    }

    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Result<Value, ServiceFailure> {
        let (spec, net, cfg, fp) = read(spec).map_err(bad)?;
        let events = spec.events(&net);
        let done = |units: &[u32], cost: f64, quality: &str, served: &[(&str, &str)]| {
            Ok(result_body(ctx.id, &fp, units, cost, quality, served))
        };

        // Warm path: a cached plan for this exact fingerprint — cached
        // after admission, or the request is a journal replay.
        let cached = lock(ctx.cache).get(&fp);
        if let (Some(blob), None) = (&cached, &events) {
            if let Some(body) = self.repeat(ctx, &net, &fp, blob) {
                return Ok(body);
            }
        }
        let carried = cached.as_ref().and_then(units_of);
        let planner =
            NeuroPlan::with_telemetry(cfg, self.tel.clone()).with_cancel(ctx.cancel.clone());
        let fail = |what: &str, e: PlanFailure| match e {
            PlanFailure::Cancelled => ServiceFailure::Cancelled,
            other => bad(format!("{what} failed: {other}")),
        };
        let rcfg = spec.replan_config();
        if let (Some(units), Some(events)) = (&carried, &events) {
            // Perturbed repeat: carry the cached plan into the
            // incremental replan path.
            self.tel.incr(sys::SERVE, "warm_hits", 1);
            let report = planner
                .replan_from(&net, units, events, &rcfg)
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
        // resume runs the second stage alone.
        let key = checkpoint::first_stage_key(&net, &planner.cfg);
        let first = lock(ctx.cache).get(&key);
        let first = first.and_then(|body| read_body::<FirstStage>(&body));
        let seeded = first.is_some_and(|first| planner.seed_first_stage(&fp, &key, first));
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
        let blob = json!({"units": units, "cost": cost, "quality": quality});
        {
            let mut cache = lock(ctx.cache);
            if !seeded {
                cache.put(&key, body_of(result.first_stage()));
            }
            cache.put(&fp, blob);
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
    use np_chaos::CancelToken;
    use np_serve::WarmCache;
    use std::sync::Mutex;

    fn ctx(cache: &Mutex<WarmCache>, id: u64) -> RequestCtx<'_> {
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

    /// Whatever the plan entry holds — no certificate, its own, a broken
    /// one, `null`, units that are not the plan's — a repeat is answered as
    /// a validation of the entry's units answers it: warm, or not at all.
    #[test]
    fn a_repeat_answers_what_validation_answers_whatever_the_entry_holds() {
        let cache = Mutex::new(WarmCache::new(8));
        let dir = tmp("certified");
        let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
        let spec = tiny_spec();
        let cold = svc.execute(&spec, &ctx(&cache, 1)).expect("cold");
        let parsed = PlanSpec::from_json(&spec).unwrap();
        let net = parsed.network().unwrap();
        let fp = checkpoint::fingerprint(&net, &parsed.config());
        let entry = || cache.lock().unwrap().get_uncounted(&fp).cloned().unwrap();
        let cert_of = |blob: &Value| blob.get("cert").and_then(|v| v.as_str()).map(String::from);
        assert_eq!(cert_of(&entry()), None, "a cold plan is cached uncertified");

        // The first repeat validates and certifies; the spec is remembered.
        let warm = svc.warm(&spec, &ctx(&cache, 2)).expect("warm");
        let text = cert_of(&entry()).expect("certified on the first repeat");
        let cert = Certificate::decode(&text).expect("a certificate");
        let units = units_of(&cold).unwrap();
        assert_eq!(verify(&net, &units, &cert), Ok(()));
        let key = format!("spec-{}", serde_json::to_string(&parsed.to_json()).unwrap());
        let remembered = cache.lock().unwrap().get_uncounted(&key).cloned();
        assert_eq!(remembered, Some(Value::Str(fp.clone())));
        let answer = || svc.warm(&spec, &ctx(&cache, 2));
        let store = |blob: Value| assert!(cache.lock().unwrap().replace(&fp, blob));
        let original = entry();
        assert_eq!(answer(), Some(warm.clone()));

        // A certificate that proves nothing: validated, then certified anew.
        let mut short = cert.clone();
        short.scenarios[0].pop();
        for bad in [
            "garbage".to_string(),
            short.encode(),
            Certificate::default().encode(),
        ] {
            store(with_cert(&original, Some(bad)));
            assert_eq!(answer(), Some(warm.clone()));
            assert_eq!(cert_of(&entry()), Some(text.clone()), "certified again");
        }
        // `null`: no certificate to be had, validation every time.
        store(with_cert(&original, None));
        assert_eq!(answer(), Some(warm.clone()));
        assert_eq!(entry().get("cert"), Some(&Value::Null));

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
            let mut members = original.as_object().unwrap().clone();
            members.retain(|(k, _)| k != "units");
            members.push(("units".to_string(), json!(changed)));
            store(Value::Object(members));
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
        // Neither key covers the thread budget: the plan is the same at
        // every worker count, though the certificates a first stage
        // harvests are not (a wider evaluator checks more scenarios per
        // step). A first stage trained on one worker serves four.
        let workers =
            |n: u64, alpha: f64| json!({ "preset": "a", "seed": 3, "alpha": alpha, "workers": n });
        svc.execute(&workers(1, 1.5), &ctx(&cache, 20))
            .expect("cold");
        let reused = svc
            .execute(&workers(4, 2.0), &ctx(&cache, 21))
            .expect("reused");
        assert_eq!(text(&reused, "first_stage"), Some("reused"));
        let scratch = from_scratch(&svc, &workers(4, 2.0), 22);
        assert_eq!(
            identity(&reused),
            identity(&scratch),
            "across worker counts"
        );
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
