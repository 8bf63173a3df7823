//! The traced run: the workload's own round under a memory telemetry
//! sink (for the program's deterministic counters), the plan path
//! replayed as consecutive public calls (stage spans), and isolated
//! timed loops on each layer's public functions (layer probes).
//!
//! Every span is recorded here, around a call into a layer; nothing
//! inside the planner crates is changed and `set_profiling` is never
//! called. End-to-end metrics never come from this run.

use crate::stats::percentile;
use crate::trace::Recorder;
use crate::workloads::{
    self, check_plan, check_primed, check_result, check_stream, check_warm, preset_instance,
    primed_daemon, replan_setup, round, spec, timed_plan, timed_stream, warm_specs, Reply, Run,
    Workload,
};
use neuroplan::master::{lp_round_plan, polish_units};
use neuroplan::pipeline::FirstStage;
use neuroplan::{
    checkpoint, solve_master, MasterConfig, NeuroPlan, NeuroPlanConfig, NeuroPlanService,
    PlanQuality, PlanningEnv,
};
use np_chaos::checkpoint::{append_record, read_records};
use np_chaos::{CancelToken, Chaos};
use np_eval::checker::exact_lp_verdict;
use np_eval::scenario::build_all;
use np_eval::{check_scenario, CheckConfig, EvalConfig, PlanEvaluator, ScenarioCtx, Separation};
use np_flow::mwu::{max_concurrent_flow, MwuConfig};
use np_flow::MetricCut;
use np_lp::{solve_lp, solve_mip, IncrementalLp, MipConfig, Model, Sense, SimplexConfig, VarId};
use np_neural::{Adam, Gcn, Matrix, Mlp};
use np_rl::{ActorCritic, EpochBuffer, GraphEnv, TrainConfig};
use np_serve::journal::{self, Journal};
use np_serve::{proto, PlanService, RequestCtx, WarmCache};
use np_telemetry::Telemetry;
use np_topology::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Run the workload traced; the recorder then holds every per-layer
/// metric.
///
/// Counts come from the workload's own round, run under a memory
/// telemetry sink: a workload that never enters a layer reports that
/// layer's counts as 0, which is the honest reading of "bypassed". Times
/// come from the stage replay and the probes, which every workload runs
/// on its own instance.
pub fn traced(run: &mut Run) -> Recorder {
    let started = Instant::now();
    let mut rec = Recorder::default();
    let tel = Telemetry::memory();
    workloads::warm_up();
    let net = preset_instance(run.workload.preset(run.smoke));
    let cfg = run.config(workloads::PLANNER_SEED);

    let mut traced_plan_s = None;
    for bypassed in [
        "core.degraded_plans",
        "core.replan_churn_units",
        "core.replan_degraded_events",
        "core.replan_skipped_events",
    ] {
        rec.count(bypassed, 0.0);
    }
    let serves = matches!(run.workload, Workload::ServeColdA | Workload::ServeWarmA);
    match run.workload {
        Workload::PlanWanB | Workload::PlanWanC => {
            let (result, wall) = timed_plan(&net, cfg.clone(), tel.clone());
            check_plan(run, "traced-plan", &net, &result.final_units);
            rec.count(
                "core.degraded_plans",
                f64::from(result.quality != PlanQuality::Optimal),
            );
            traced_plan_s = Some(wall);
        }
        Workload::ReplanWanB => replan_round(run, &mut rec, &tel),
        Workload::ServeColdA | Workload::ServeWarmA => serve_session(run, &mut rec, &tel, true),
    }
    harvest_counters(&mut rec, &tel);

    let staged = replay(run, &mut rec, &net, &cfg, traced_plan_s);

    if !serves {
        serve_session(run, &mut rec, &Telemetry::noop(), false);
    }
    if run.workload != Workload::ReplanWanB {
        replan_probe(run, &mut rec, &net, &cfg, &staged);
    }
    let events = rec.durations_ns("core.replan_event_ms");
    rec.count(
        "core.replan_event_max_ms",
        events.iter().copied().fold(0.0, f64::max) / 1e6,
    );
    // The probes share what is left of `--seconds` (at least 3 s, or
    // one call each under `--smoke`).
    let left = (run.seconds - started.elapsed().as_secs_f64()).max(3.0);
    let mut probe = Probe {
        rec: &mut rec,
        slice: if run.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(left / 48.0)
        },
    };
    probe_neural(&mut probe, &net, &cfg);
    probe_rl(&mut probe, &net, &cfg, staged.first.reference_cost);
    probe_core(&mut probe, run, &net, &cfg, &staged);
    probe_eval(&mut probe, &net, &cfg, &staged);
    probe_flow(&mut probe, &net, &staged);
    probe_lp(&mut probe, &net);
    probe_serve(&mut probe, run);
    probe_chaos_pool_telemetry(&mut probe, run);

    // What the wire, journal and queue add to a warm request on top of
    // the service call itself.
    let warm_us = rec
        .median_in("serve.warm_ms", "us")
        .expect("serve session ran");
    let service_us = rec
        .median_in("core.service_warm_us", "us")
        .expect("service probe ran");
    rec.count("serve.overhead_us", warm_us - service_us);
    rec
}

/// Copy the program's own deterministic counters out of the memory sink
/// the traced round ran under.
fn harvest_counters(rec: &mut Recorder, tel: &Telemetry) {
    // Most metrics carry the counter's own `sys.name`.
    const SAME_NAME: [&str; 18] = [
        "rl.env_steps",
        "rl.epochs",
        "rl.trajectories_completed",
        "lp.simplex_iterations",
        "lp.refactorizations",
        "lp.warm_start_pivots",
        "lp.cold_solves",
        "eval.scenario_checks",
        "eval.stateful_skips",
        "eval.cut_reuse_hits",
        "eval.witness_reuse_hits",
        "eval.greedy_attempts",
        "eval.greedy_hits",
        "eval.mwu_calls",
        "eval.lp_calls",
        "eval.perturb_certs_retained",
        "eval.perturb_certs_dropped",
        "serve.sheds",
    ];
    const RENAMED: [(&str, &str); 3] = [
        ("lp.bb_nodes", "core.master_nodes"),
        ("master.cuts_added", "core.master_cuts_added"),
        ("master.cut_rounds", "core.master_cut_rounds"),
    ];
    let same = SAME_NAME.iter().map(|&metric| (metric, metric));
    for (counter, metric) in same.chain(RENAMED) {
        let (sys, name) = counter.split_once('.').expect("counters are `sys.name`");
        rec.count(metric, tel.counter(sys, name) as f64);
    }
    let c = |sys: &str, name: &str| tel.counter(sys, name) as f64;
    let share = |part: f64, rest: f64| {
        if part + rest > 0.0 {
            part / (part + rest)
        } else {
            0.0
        }
    };
    // Useful outcomes over attempts, where a layer can waste work.
    rec.count(
        "eval.greedy_hit_ratio",
        share(
            c("eval", "greedy_hits"),
            c("eval", "greedy_attempts") - c("eval", "greedy_hits"),
        ),
    );
    rec.count(
        "eval.skip_ratio",
        share(c("eval", "stateful_skips"), c("eval", "scenario_checks")),
    );
    rec.count(
        "eval.cert_retention",
        share(
            c("eval", "perturb_certs_retained"),
            c("eval", "perturb_certs_dropped"),
        ),
    );
}

// --------------------------------------------------------------------
// Traced rounds
// --------------------------------------------------------------------

/// Every applied event of a stream as a `core.replan_event_ms` span
/// (the program's own per-event clock: single events cannot be timed
/// from outside the call).
fn record_events(rec: &mut Recorder, op_id: &str, report: &neuroplan::ReplanReport) {
    for e in report.events.iter().filter(|e| e.skipped.is_none()) {
        rec.push_measured("core.replan_event_ms", op_id, e.millis * 1e6);
    }
}

fn replan_round(run: &mut Run, rec: &mut Recorder, tel: &Telemetry) {
    let inst = replan_setup(run, tel.clone());
    let (mut churn, mut degraded, mut skipped) = (0u64, 0u64, 0u64);
    for (stream_seed, events) in &inst.streams {
        let op_id = format!("stream-{stream_seed}");
        let (report, _) = timed_stream(&inst, events);
        if let Some(r) = check_stream(run, &op_id, report) {
            record_events(rec, &op_id, &r);
            for e in r.events.iter().filter(|e| e.skipped.is_none()) {
                churn += e.churn;
                degraded += u64::from(e.quality != PlanQuality::Optimal);
            }
            skipped += r.skipped() as u64;
        }
    }
    rec.count("core.replan_churn_units", churn as f64);
    rec.count("core.replan_degraded_events", degraded as f64);
    rec.count("core.replan_skipped_events", skipped as f64);
}

/// On the other workloads: one short pinned stream from the staged plan
/// on the workload's own instance.
fn replan_probe(
    run: &mut Run,
    rec: &mut Recorder,
    net: &Network,
    cfg: &NeuroPlanConfig,
    staged: &Staged,
) {
    let events = np_churn::generate_stream(net, 0, 2);
    let report = NeuroPlan::new(cfg.clone())
        .replan_from(
            net,
            &staged.units,
            &events,
            &neuroplan::ReplanConfig::default(),
        )
        .map_err(|e| e.to_string());
    if let Some(r) = check_stream(run, "replan-probe", report) {
        record_events(rec, "replan-probe", &r);
    }
}

/// One fixed session against an in-process daemon on preset A: prime the
/// warm fingerprints, one pass of never-seen fingerprints, a thousand
/// warm repeats, one perturbed request per cached base. Every workload
/// runs it for the client-side spans; on the serve workloads it is the
/// workload's own round, runs under the harvested telemetry sink, and
/// also yields the serve counts (`own_round`).
fn serve_session(run: &mut Run, rec: &mut Recorder, tel: &Telemetry, own_round: bool) {
    // Elsewhere than on the serve workloads the session is a probe and
    // makes do with one fingerprint per client.
    let seeds = workloads::serve_seeds(run.smoke || !own_round);
    let dir = run.fresh_state_dir();
    let (daemon, primed) = primed_daemon(seeds, dir, tel.clone());
    let hexes = check_primed(run, seeds, &primed, &mut Vec::new());
    let mut degraded = primed
        .iter()
        .filter(|r| quality_of(r) != Some("optimal"))
        .count();

    // cold: never-seen fingerprints over the warm instances.
    let block = (run.seed % 1000) * 1000 + 1;
    let specs: Vec<Value> = seeds
        .iter()
        .enumerate()
        .map(|(k, &s)| spec(s, block + k as u64))
        .collect();
    let (replies, _) = round(&daemon.addr, &specs, 1);
    for (k, (&seed, reply)) in seeds.iter().zip(&replies).enumerate() {
        let op_id = format!("cold-req-{k}");
        push_client_spans(rec, "serve.cold_ms", &op_id, reply);
        degraded += usize::from(quality_of(reply) != Some("optimal"));
        let checked = check_result(reply, "cold", Some(&workloads::spec_instance(seed)));
        run.check(&op_id, checked.map(|_| ()));
    }
    let cold_requests = (primed.len() + specs.len()) as f64;
    let chains_mb = dir_mb(&daemon.dir) - file_mb(&daemon.dir.join(journal::JOURNAL_FILE));

    // warm: repeats of the primed fingerprints, two clients.
    let warm = warm_specs(
        seeds,
        if run.smoke {
            200
        } else {
            workloads::WARM_ROUND
        },
    );
    let (replies, warm_s) = round(&daemon.addr, &warm, 2);
    rec.count("serve.warm_rps", replies.len() as f64 / warm_s);
    let mut warm_ms = Vec::new();
    for (k, reply) in replies.iter().enumerate() {
        let op_id = format!("warm-req-{k}");
        push_client_spans(rec, "serve.warm_ms", &op_id, reply);
        warm_ms.push(reply.latency_ns as f64 / 1e6);
        run.check(&op_id, check_warm(reply, &hexes[k % hexes.len()]));
    }
    // Too slow a tail to hold a bound, so it lives here and not among
    // the end-to-end metrics. The fallback (a sample too small for a
    // p99, as under `--smoke`) is the maximum.
    let tail =
        percentile(&warm_ms, 99.0).unwrap_or_else(|| warm_ms.iter().copied().fold(0.0, f64::max));
    rec.count("serve.warm_p99_ms", tail);

    // perturbed: the cached base plan carried into an incremental replan.
    let perturbed: Vec<Value> = specs
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let mut fields = s.as_object().expect("spec is an object").clone();
            fields.push(("events".to_string(), Value::Str(format!("seed={k},n=5"))));
            Value::Object(fields)
        })
        .collect();
    let (replies, _) = round(&daemon.addr, &perturbed, 1);
    for (k, reply) in replies.iter().enumerate() {
        let op_id = format!("perturbed-req-{k}");
        push_client_spans(rec, "serve.perturbed_ms", &op_id, reply);
        run.check(&op_id, check_result(reply, "warm", None).map(|_| ()));
    }

    let stats = np_serve::Client::connect(&daemon.addr)
        .and_then(|mut c| c.stats())
        .expect("daemon stats");
    let stat = |key: &str| stats.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    let own = |value: f64| if own_round { value } else { 0.0 };
    rec.count("serve.cache_hits", own(stat("cache_hits")));
    rec.count("serve.cache_misses", own(stat("cache_misses")));
    rec.count("serve.state_mb", own(dir_mb(&daemon.dir)));
    rec.count(
        "serve.checkpoint_mb_per_cold",
        own(chains_mb / cold_requests),
    );
    if own_round {
        rec.count("core.degraded_plans", degraded as f64);
    }
    daemon.stop();
}

fn quality_of(reply: &Reply) -> Option<&str> {
    reply
        .body
        .as_ref()
        .ok()?
        .get("result")?
        .get("quality")?
        .as_str()
}

/// One request as spans: the whole request under `phase`, and its three
/// kinds of round trip.
fn push_client_spans(rec: &mut Recorder, phase: &'static str, op_id: &str, reply: &Reply) {
    rec.push_measured(phase, op_id, reply.latency_ns as f64);
    rec.push_measured("serve.submit_rtt_us", op_id, reply.submit_ns as f64);
    for &ns in &reply.status_ns {
        rec.push_measured("serve.status_rtt_us", op_id, ns as f64);
    }
    rec.push_measured("serve.result_rtt_us", op_id, reply.result_ns as f64);
}

fn dir_mb(dir: &std::path::Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_mb(&e.path()),
            _ => file_mb(&e.path()),
        })
        .sum()
}

fn file_mb(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0))
}

// --------------------------------------------------------------------
// Stage spans: the plan path as consecutive public calls
// --------------------------------------------------------------------

pub struct Staged {
    pub first: FirstStage,
    /// Final units of the staged plan.
    pub units: Vec<u32>,
}

fn replay(
    run: &mut Run,
    rec: &mut Recorder,
    net: &Network,
    cfg: &NeuroPlanConfig,
    traced_plan_s: Option<f64>,
) -> Staged {
    let op = "replay";
    let preset = run.workload.preset(run.smoke);
    rec.time("topology.generate_ms", op, |_| preset_instance(preset));
    rec.time("topology.transform_us", op, |_| {
        np_topology::transform(net).normalized_adjacency()
    });
    let greedy = rec.time("core.greedy_ms", op, |_| workloads::greedy_cost(net, cfg));
    rec.time("core.env_build_ms", op, |_| {
        PlanningEnv::new(net.clone(), cfg.eval, cfg.max_units_per_step, greedy)
    });
    let planner = NeuroPlan::new(cfg.clone());
    let first = rec.time("core.first_stage_ms", op, |_| planner.first_stage(net));
    let seed_cuts = first.certificates.clone();
    let mut stats = first.stats.clone();
    let (master, _) = rec.time("core.second_stage_ms", op, |_| {
        planner.second_stage(net, &first.units, first.cost, seed_cuts, &mut stats)
    });
    let (cost, units) = if master.has_plan() && master.cost < first.cost {
        (master.cost, master.units.clone())
    } else {
        (first.cost, first.units.clone())
    };
    let valid = rec.time("core.validate_ms", op, |_| {
        workloads::validated(net, &units)
    });
    run.check("replay-validate", valid);
    rec.time("core.fingerprint_us", op, |_| {
        checkpoint::fingerprint(net, cfg)
    });

    // The same plan as one `plan()` call, untraced and traced.
    let (plain, plain_s) = timed_plan(net, cfg.clone(), Telemetry::noop());
    check_plan(run, "replay-plan", net, &plain.final_units);
    let traced_s =
        traced_plan_s.unwrap_or_else(|| timed_plan(net, cfg.clone(), Telemetry::memory()).1);
    rec.count("telemetry.trace_overhead", traced_s / plain_s - 1.0);
    // `plan()` is first stage + second stage (+ a budgeted polish): the
    // two stage spans are the ones that partition it.
    let staged_s = (rec.durations_ns("core.first_stage_ms")[0]
        + rec.durations_ns("core.second_stage_ms")[0])
        / 1e9;
    rec.count("core.stage_coverage", staged_s / plain_s);
    // The unsupervised public `second_stage` polishes inside the master,
    // `plan()` in a stage of its own; any cost gap is reported, not hidden.
    rec.count(
        "core.staged_cost_delta",
        (cost - plain.final_cost).abs() / plain.final_cost,
    );
    Staged { first, units }
}

// --------------------------------------------------------------------
// Layer probes
// --------------------------------------------------------------------

/// Timed loops over one public call each. A probe repeats its call until
/// its time slice is used up (always at least once), so `--seconds`
/// buys more samples per median, never different work.
struct Probe<'a> {
    rec: &'a mut Recorder,
    slice: Duration,
}

impl Probe<'_> {
    /// Time `call(input)` once per input, stopping when the slice is
    /// used up.
    fn each<I, T>(
        &mut self,
        name: &'static str,
        inputs: impl IntoIterator<Item = I>,
        mut call: impl FnMut(I) -> T,
    ) {
        let t = Instant::now();
        for input in inputs {
            self.rec.time(name, "probe", |_| call(input));
            if t.elapsed() >= self.slice {
                break;
            }
        }
    }

    /// Time `call()` repeatedly (at most 10 000 times).
    fn repeat<T>(&mut self, name: &'static str, mut call: impl FnMut() -> T) {
        self.each(name, 0..10_000, |_| call());
    }

    /// For calls too short to time singly: time batches of `n` and
    /// record the per-call share.
    fn batches(&mut self, name: &'static str, n: u32, mut call: impl FnMut()) {
        let t = Instant::now();
        loop {
            let b = Instant::now();
            for _ in 0..n {
                call();
            }
            self.rec
                .push_measured(name, "probe", b.elapsed().as_nanos() as f64 / f64::from(n));
            if t.elapsed() >= self.slice {
                break;
            }
        }
    }
}

fn caps_of(net: &Network, units: &[u32], factor: f64) -> Vec<f64> {
    units
        .iter()
        .map(|&u| f64::from(u) * net.unit_gbps * factor)
        .collect()
}

/// Every scenario's context, refreshed to `units` x `factor`.
fn scenarios_at(net: &Network, units: &[u32], factor: f64) -> Vec<ScenarioCtx> {
    let caps = caps_of(net, units, factor);
    let mut ctxs = build_all(net, true);
    for ctx in &mut ctxs {
        ctx.refresh(np_eval::evaluator::caps_fn(&caps));
    }
    ctxs
}

fn probe_neural(p: &mut Probe, net: &Network, cfg: &NeuroPlanConfig) {
    let mut rng = StdRng::seed_from_u64(7);
    let n = net.links().len();
    let h = cfg.agent.gnn_hidden;
    let x = Matrix::kaiming(n, h, &mut rng);
    let w = Matrix::kaiming(h, h, &mut rng);
    p.repeat("neural.matmul_us", || std::hint::black_box(&x).matmul(&w));

    let adj = {
        let g = np_topology::transform(net);
        np_neural::Csr::from_triples(g.num_nodes(), &g.normalized_adjacency())
    };
    let mut gcn = Gcn::new(adj, h, h, &mut rng);
    p.repeat("neural.gcn_forward_us", || {
        gcn.forward(std::hint::black_box(&x))
    });
    p.repeat("neural.gcn_backward_us", || {
        gcn.backward(std::hint::black_box(&x))
    });

    let mut widths = vec![h];
    widths.extend_from_slice(&cfg.agent.mlp_hidden);
    widths.push(cfg.max_units_per_step);
    let mut mlp = Mlp::new(&widths, &mut rng);
    let grad = Matrix::kaiming(n, cfg.max_units_per_step, &mut rng);
    p.repeat("neural.mlp_forward_us", || {
        mlp.forward(std::hint::black_box(&x))
    });
    p.repeat("neural.mlp_backward_us", || {
        mlp.backward(std::hint::black_box(&grad))
    });
    let mut adam = Adam::new(cfg.agent.actor_lr);
    p.repeat("neural.adam_step_us", || adam.step(&mut mlp.params_mut()));
}

/// A harness-driven rollout over the planning environment, then the two
/// updates on the buffer it filled: one epoch of Algorithm 1, call by
/// call.
fn probe_rl(p: &mut Probe, net: &Network, cfg: &NeuroPlanConfig, norm: f64) {
    let new_env = || {
        PlanningEnv::new(
            net.clone(),
            cfg.eval,
            cfg.max_units_per_step,
            norm.max(1e-6),
        )
    };
    let new_agent = |env: &PlanningEnv| {
        ActorCritic::new(
            env.adjacency().clone(),
            env.feature_dim(),
            cfg.max_units_per_step,
            &cfg.agent,
        )
    };
    let mut env = new_env();
    let mut agent = new_agent(&env);
    let mut buf = EpochBuffer::new();
    let mut obs = env.reset();
    let mut traj_len = 0;
    for _ in 0..cfg.train.steps_per_epoch {
        let (action, _, value) = p.rec.time("rl.act_us", "probe", |_| {
            agent.act(&obs.features, &obs.action_mask)
        });
        let (next, reward, done) = p
            .rec
            .time("core.env_step_us", "probe", |_| env.step(action));
        buf.push(
            obs.features.clone(),
            obs.action_mask.clone(),
            action,
            reward,
            value,
        );
        obs = next;
        traj_len += 1;
        if done || traj_len >= cfg.train.max_traj_len || !obs.has_valid_action() {
            let bootstrap = if done {
                0.0
            } else {
                agent.value(&obs.features)
            };
            buf.finish_path(bootstrap, cfg.train.gamma, cfg.train.lam);
            obs = env.reset();
            traj_len = 0;
        }
    }
    if traj_len > 0 {
        buf.finish_path(agent.value(&obs.features), cfg.train.gamma, cfg.train.lam);
    }
    buf.normalize_advantages();
    // Per-call medians hide a heavy tail (most env steps re-check a stored
    // certificate in microseconds, a few run MWU); the totals over the
    // rollout are what an epoch pays.
    for (total, calls) in [
        ("rl.rollout_act_ms", "rl.act_us"),
        ("core.rollout_env_ms", "core.env_step_us"),
    ] {
        let sum: f64 = p.rec.durations_ns(calls).iter().sum();
        p.rec.push_measured(total, "probe", sum);
    }
    p.repeat("rl.update_policy_ms", || agent.update_policy(buf.steps()));
    p.repeat("rl.update_value_ms", || agent.update_value(buf.steps()));

    let one_epoch = TrainConfig {
        epochs: 1,
        ..cfg.train.clone()
    };
    p.repeat("rl.train_epoch_ms", || {
        let mut env = new_env();
        let mut agent = new_agent(&env);
        np_rl::train(&mut env, &mut agent, &one_epoch)
    });
    p.repeat("rl.agent_export_ms", || agent.export_state());
    let blob = agent.export_state();
    p.repeat("rl.agent_import_ms", || {
        assert!(agent.import_state(&blob), "agent state round-trips")
    });
}

fn master_config(
    cfg: &NeuroPlanConfig,
    upper_bounds: Vec<u32>,
    warm_units: Option<Vec<u32>>,
) -> MasterConfig {
    MasterConfig {
        upper_bounds,
        cutoff: None,
        node_limit: cfg.mip_node_limit,
        time_limit_secs: cfg.mip_time_limit_secs,
        max_cuts_per_round: 8,
        seed_cuts: Vec::new(),
        granularity: 1,
        gap_tol: MasterConfig::DEFAULT_GAP,
        warm_units,
        polish_final: false,
        lp_backend: cfg.lp_backend,
    }
}

fn probe_core(p: &mut Probe, run: &mut Run, net: &Network, cfg: &NeuroPlanConfig, staged: &Staged) {
    let exact = EvalConfig::default();
    let spectrum = MasterConfig::spectrum_bounds(net);
    let warm_master = master_config(cfg, spectrum, Some(staged.first.units.clone()));
    p.repeat("core.solve_master_ms", || {
        solve_master(net, &mut PlanEvaluator::new(net, exact), &warm_master)
    });
    let pruned = MasterConfig::pruned_bounds(net, &staged.first.units, cfg.relax_factor);
    let rounding = master_config(cfg, pruned, None);
    p.repeat("core.lp_round_ms", || {
        lp_round_plan(
            net,
            &mut PlanEvaluator::new(net, exact),
            &rounding,
            &mut || false,
            &Telemetry::noop(),
        )
    });
    p.repeat("core.polish_ms", || {
        polish_units(
            net,
            &mut PlanEvaluator::new(net, exact),
            &mut staged.first.units.clone(),
        )
    });

    // The service called directly: no wire, journal or queue.
    let dir = run.fresh_state_dir();
    let service = NeuroPlanService::new(&dir, Telemetry::noop());
    let cache = Mutex::new(WarmCache::new(8));
    let request = spec(workloads::serve_seeds(run.smoke)[0], 0);
    let mut next_id = 0;
    let mut execute = || {
        next_id += 1;
        let ctx = RequestCtx {
            id: next_id,
            resume: false,
            cancel: CancelToken::new(),
            cache: &cache,
        };
        service
            .execute(&request, &ctx)
            .expect("service executes the pinned spec")
    };
    p.rec.time("core.service_cold_ms", "probe", |_| execute());
    p.repeat("core.service_warm_us", &mut execute);
    let _ = std::fs::remove_dir_all(&dir);
}

fn probe_eval(p: &mut Probe, net: &Network, cfg: &NeuroPlanConfig, staged: &Staged) {
    const FACTORS: [f64; 5] = [0.6, 0.8, 0.9, 1.0, 1.2];
    let exact = EvalConfig::default();
    p.repeat("eval.build_ms", || PlanEvaluator::new(net, exact));

    // `check` as the RL loop calls it (the planner's own evaluator
    // configuration), from a reset cursor each time.
    let mut rl_eval = PlanEvaluator::new(net, cfg.eval);
    let grid: Vec<Vec<f64>> = FACTORS
        .iter()
        .map(|&f| caps_of(net, &staged.first.units, f))
        .collect();
    p.each("eval.check_us", grid.iter().cycle().take(500), |caps| {
        rl_eval.reset();
        rl_eval.check(caps)
    });

    // `separate` on a fresh evaluator (cold) and again on the same one
    // (certificates and witnesses in place).
    for caps in &grid {
        let mut evaluator = PlanEvaluator::new(net, exact);
        p.rec.time("eval.separate_cold_ms", "probe", |_| {
            evaluator.separate(caps, 8)
        });
        p.rec.time("eval.separate_warm_ms", "probe", |_| {
            evaluator.separate(caps, 8)
        });
    }

    let ctxs = scenarios_at(net, &staged.units, 1.0);
    let mut stats = np_eval::EvalStats::default();
    let check = CheckConfig::default();
    p.each(
        "eval.check_scenario_us",
        ctxs.iter().cycle().take(2000),
        |ctx| check_scenario(ctx, &check, &mut stats),
    );

    // The exact LP, first call (cold two-phase solve) against second
    // call (dual simplex from the stored basis), per scenario.
    for ctx in scenarios_at(net, &staged.units, 0.9).iter().take(4) {
        p.rec
            .time("eval.exact_lp_cold_ms", "probe", |_| exact_lp_verdict(ctx));
        p.rec
            .time("eval.exact_lp_warm_ms", "probe", |_| exact_lp_verdict(ctx));
    }

    // Perturbation surgery on a warmed evaluator, along one pinned
    // churn stream; the network-side half of each event is
    // `topology.perturb_us`.
    let mut evaluator = PlanEvaluator::new(net, exact);
    evaluator.separate(&caps_of(net, &staged.units, 0.8), 8);
    let mut cur = net.clone();
    for event in np_churn::generate_stream(net, 0, 8) {
        let Ok(perturbation) = event.to_perturbation(&cur) else {
            continue;
        };
        let delta = p.rec.time("topology.perturb_us", "probe", |_| {
            cur.apply_perturbation(&perturbation)
        });
        if let Ok(delta) = delta {
            p.rec.time("eval.apply_perturbation_us", "probe", |_| {
                evaluator.apply_perturbation(&cur, &delta)
            });
        }
    }
    p.repeat("churn.generate_stream_ms", || {
        np_churn::generate_stream(net, 0, 12)
    });

    let mut evaluator = PlanEvaluator::new(net, exact);
    evaluator.separate(&caps_of(net, &staged.units, 0.8), 8);
    p.repeat("eval.snapshot_ms", || evaluator.snapshot_state());
    let blob = evaluator.snapshot_state();
    p.repeat("eval.restore_ms", || {
        assert!(
            evaluator.restore_state(&blob),
            "evaluator state round-trips"
        )
    });
}

fn probe_flow(p: &mut Probe, net: &Network, staged: &Staged) {
    let mwu = MwuConfig {
        epsilon: CheckConfig::default().fine_eps,
        target_lambda: Some(1.0),
        ..MwuConfig::default()
    };
    let feasible = scenarios_at(net, &staged.units, 1.0);
    p.each("flow.mwu_feasible_ms", &feasible, |ctx| {
        max_concurrent_flow(&ctx.graph, &ctx.commodities, &mwu)
    });
    p.each(
        "flow.greedy_route_us",
        feasible.iter().cycle().take(2000),
        |ctx| np_flow::greedy::route(&ctx.graph, &ctx.commodities),
    );
    let base = &feasible[0];
    let lengths: Vec<f64> = base
        .graph
        .arcs()
        .iter()
        .map(|a| 1.0 / a.cap.max(1e-9))
        .collect();
    let sources = base.sources();
    p.each(
        "flow.dijkstra_us",
        sources.iter().cycle().take(5000),
        |&src| np_flow::dijkstra::shortest_paths(&base.graph, src, &lengths),
    );

    let infeasible = scenarios_at(net, &staged.units, 0.8);
    let mut duals = Vec::new();
    p.each("flow.mwu_infeasible_ms", &infeasible, |ctx| {
        let flow = max_concurrent_flow(&ctx.graph, &ctx.commodities, &mwu);
        duals.push((ctx, flow.lengths));
    });
    p.each(
        "flow.extract_cut_us",
        duals.iter().cycle().take(2000),
        |(ctx, lengths)| np_flow::metric::extract_cut(&ctx.graph, &ctx.commodities, lengths),
    );
}

/// A master-shaped LP built here: one variable per link (added units,
/// bounded by spectrum, priced at the link's unit cost), one row per
/// metric cut harvested with `separate`.
fn probe_lp(p: &mut Probe, net: &Network) {
    let base: Vec<u32> = net.link_ids().map(|l| net.base_units(l)).collect();
    let spectrum = MasterConfig::spectrum_bounds(net);
    let model_with = |integer: bool| {
        let mut model = Model::new("bench-master");
        let vars: Vec<VarId> = net
            .link_ids()
            .map(|l| {
                let span = f64::from(spectrum[l.index()].max(base[l.index()]) - base[l.index()]);
                model.add_var(
                    format!("a_{}", l.index()),
                    0.0,
                    span,
                    net.unit_cost(l),
                    integer,
                )
            })
            .collect();
        (model, vars)
    };
    let row_of = |cut: &MetricCut, vars: &[VarId]| {
        let mut rhs = cut.rhs;
        let mut coeffs = Vec::with_capacity(cut.coeff.len());
        for &(l, w) in &cut.coeff {
            rhs -= w * f64::from(base[l.index()]) * net.unit_gbps;
            coeffs.push((vars[l.index()], w * net.unit_gbps));
        }
        let max = coeffs
            .iter()
            .map(|&(_, w): &(VarId, f64)| w.abs())
            .fold(1e-12, f64::max);
        for (_, w) in &mut coeffs {
            *w /= max;
        }
        (coeffs, rhs / max)
    };

    // Cutting-plane rounds: every re-solve after appended rows is one
    // `lp.warm_resolve_us` sample.
    let (model, vars) = model_with(false);
    let mut lp = IncrementalLp::new(model, SimplexConfig::default());
    let mut evaluator = PlanEvaluator::new(net, EvalConfig::default());
    let mut rows: Vec<(Vec<(VarId, f64)>, f64)> = Vec::new();
    let mut solution = lp.solve();
    for _ in 0..40 {
        let caps: Vec<f64> = solution
            .x
            .iter()
            .zip(&base)
            .map(|(a, &b)| (f64::from(b) + a.max(0.0)) * net.unit_gbps)
            .collect();
        let Separation::Cuts(cuts) = evaluator.separate(&caps, 8) else {
            break;
        };
        let fresh: Vec<_> = cuts
            .iter()
            .map(|c| row_of(c, &vars))
            .filter(|(_, rhs)| *rhs > 1e-9)
            .collect();
        if fresh.is_empty() {
            break;
        }
        solution = p.rec.time("lp.warm_resolve_us", "probe", |_| {
            for (k, (coeffs, rhs)) in fresh.iter().enumerate() {
                lp.add_row(
                    format!("cut_{}_{k}", rows.len()),
                    coeffs.clone(),
                    Sense::Ge,
                    *rhs,
                );
            }
            lp.solve()
        });
        rows.extend(fresh);
    }
    p.rec.count("lp.warm_pivots", lp.stats.warm_pivots as f64);

    let with_rows = |integer: bool| {
        let (mut model, _) = model_with(integer);
        for (k, (coeffs, rhs)) in rows.iter().enumerate() {
            model.add_constr(format!("cut_{k}"), coeffs.clone(), Sense::Ge, *rhs);
        }
        model
    };
    let relaxed = with_rows(false);
    p.rec.count(
        "lp.cold_pivots",
        solve_lp(&relaxed, &SimplexConfig::default()).iterations as f64,
    );
    p.repeat("lp.solve_cold_us", || {
        solve_lp(&relaxed, &SimplexConfig::default())
    });
    let integral = with_rows(true);
    let mip = MipConfig {
        node_limit: 2_000,
        gap_tol: MasterConfig::DEFAULT_GAP,
        ..MipConfig::default()
    };
    p.rec.count(
        "lp.mip_nodes",
        solve_mip(&integral, &mip, None).nodes as f64,
    );
    p.repeat("lp.mip_ms", || solve_mip(&integral, &mip, None));
}

fn probe_serve(p: &mut Probe, run: &mut Run) {
    let small = proto::obj(vec![
        ("op", Value::Str("submit".into())),
        ("spec", spec(4, 1)),
    ]);
    let large = json!({"ok": true, "result": json!({"units": vec![7u32; 16_000]})});
    for (name, frame) in [
        ("serve.wire_small_us", &small),
        ("serve.wire_large_us", &large),
    ] {
        p.repeat(name, || {
            let mut wire = Vec::new();
            proto::write_frame(&mut wire, frame).expect("frame fits");
            proto::read_frame(&mut wire.as_slice()).expect("frame reads back")
        });
    }

    let dir = run.fresh_state_dir();
    let chaos = Chaos::disabled();
    let journal = Journal::in_dir(&dir).expect("journal directory");
    let request = spec(4, 1);
    let result = json!({"id": 1, "units": vec![3u32; 20], "cost": 1234.5, "quality": "optimal", "cache": "warm"});
    // One admission plus one terminal record: what a request costs the
    // journal. 5 000 untimed ones make the 10 000-record replay input.
    let append = |id: u64| {
        journal
            .submitted(id, &request, &chaos)
            .expect("journal append");
        journal
            .terminal(journal::K_DONE, id, result.clone(), &chaos)
            .expect("journal append");
    };
    let filled = if run.smoke { 100 } else { 5_000 };
    (1..=filled).for_each(append);
    p.repeat("serve.journal_replay_ms", || {
        journal::replay(journal.path())
    });
    p.each(
        "serve.journal_append_us",
        filled + 1..=filled + 2_000,
        append,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut cache = WarmCache::new(64);
    let blob = json!({"units": vec![3u32; 20], "cost": 1234.5, "quality": "optimal"});
    let keys: Vec<String> = (0..64).map(|k| format!("{k:016x}")).collect();
    let mut k = 0;
    p.batches("serve.cache_put_us", 64, || {
        k += 1;
        cache.put(&keys[k % keys.len()], blob.clone());
    });
    p.batches("serve.cache_get_us", 64, || {
        k += 1;
        std::hint::black_box(cache.get(&keys[k % keys.len()]));
    });
}

fn probe_chaos_pool_telemetry(p: &mut Probe, run: &mut Run) {
    let dir = run.fresh_state_dir();
    let chaos = Chaos::disabled();
    for (name, bytes) in [
        ("chaos.append_small_us", 1 << 10),
        ("chaos.append_large_us", 256 << 10),
    ] {
        let path = dir.join(format!("{name}.jsonl"));
        let body = json!({"blob": "x".repeat(bytes)});
        p.each(name, 0..200, |_| {
            append_record(&path, "bench", body.clone(), &chaos).expect("append")
        });
    }
    // A 5 MB chain, the size of one cold request's checkpoint chain.
    let chain = dir.join("chain.jsonl");
    let body = json!({"blob": "x".repeat(256 << 10)});
    for _ in 0..20 {
        append_record(&chain, "bench", body.clone(), &chaos).expect("append");
    }
    p.repeat("chaos.read_records_ms", || {
        assert_eq!(read_records(&chain).len(), 20)
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Nothing at `workers = 1` depends on the pool; recorded so a later
    // parallel workload has a base.
    p.repeat("pool.dispatch_us", || {
        np_pool::run_tasks(2, (0..64).map(|_| || ()).collect::<Vec<_>>())
    });

    let noop = Telemetry::noop();
    p.batches("telemetry.span_noop_ns", 10_000, || {
        drop(noop.span("bench", "probe"))
    });
    let memory = Telemetry::memory();
    p.batches("telemetry.span_memory_ns", 10_000, || {
        drop(memory.span("bench", "probe"))
    });
}
