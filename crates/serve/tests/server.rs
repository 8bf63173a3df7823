//! End-to-end tests of the daemon over real sockets, with a mock
//! planning service. The robustness pillars each get a pinned path:
//! admission control sheds, cancel frees the worker, shutdown leaves
//! in-flight work resumable, and every serve fault class recovers.

use np_chaos::{CancelToken, Chaos, FaultPlan};
use np_serve::client::submit_id;
use np_serve::{Client, PlanService, RequestCtx, Server, ServerConfig, ServiceFailure};
use np_telemetry::{sys, Telemetry};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-serve-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tag: &str) -> Value {
    Value::Object(vec![("tag".to_string(), Value::Str(tag.to_string()))])
}

/// A service that "solves" by sleeping in cancellable slices, then
/// echoes the spec. Records the `resume` flag of every run it sees.
struct SliceService {
    /// Total simulated solve time.
    work: Duration,
    /// `(id, resumed)` for every run started.
    runs: Mutex<Vec<(u64, bool)>>,
    started: AtomicU64,
}

impl SliceService {
    fn new(work: Duration) -> SliceService {
        SliceService {
            work,
            runs: Mutex::new(Vec::new()),
            started: AtomicU64::new(0),
        }
    }
}

impl PlanService for SliceService {
    type Entry = ();

    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_, ()>) -> Result<Value, ServiceFailure> {
        self.runs.lock().unwrap().push((ctx.id, ctx.resume));
        self.started.fetch_add(1, Ordering::SeqCst);
        // Stage boundaries every 5ms: this is where cancel is observed.
        let slices = (self.work.as_millis() / 5).max(1);
        for _ in 0..slices {
            if ctx.cancel.is_cancelled() {
                return Err(ServiceFailure::Cancelled);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if ctx.cancel.is_cancelled() {
            return Err(ServiceFailure::Cancelled);
        }
        Ok(Value::Object(vec![
            ("echo".to_string(), spec.clone()),
            ("id".to_string(), Value::Num(ctx.id as f64)),
        ]))
    }
}

fn start(
    name: &str,
    workers: usize,
    queue_capacity: usize,
    service: Arc<SliceService>,
) -> (Server<Arc<SliceService>>, String) {
    start_in(
        &tmp(name),
        workers,
        queue_capacity,
        service,
        Chaos::disabled(),
    )
}

fn start_in<S: PlanService>(
    dir: &Path,
    workers: usize,
    queue_capacity: usize,
    service: S,
    chaos: Chaos,
) -> (Server<S>, String) {
    start_observed(
        dir,
        workers,
        queue_capacity,
        service,
        chaos,
        Telemetry::noop(),
    )
}

fn start_observed<S: PlanService>(
    dir: &Path,
    workers: usize,
    queue_capacity: usize,
    service: S,
    chaos: Chaos,
    tel: Telemetry,
) -> (Server<S>, String) {
    let cfg = ServerConfig {
        workers,
        queue_capacity,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::local(dir.to_path_buf())
    };
    let server = Server::start_with_chaos(cfg, service, tel, CancelToken::new(), chaos)
        .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

#[test]
fn submit_poll_result_round_trip() {
    let svc = Arc::new(SliceService::new(Duration::from_millis(10)));
    let (server, addr) = start("roundtrip", 1, 8, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();
    let reply = c.submit(&spec("alpha")).unwrap();
    let id = submit_id(&reply).expect("admitted");
    let result = c.wait(id, Duration::from_secs(5)).unwrap();
    assert_eq!(
        result.get("state").and_then(|v| v.as_str()),
        Some("done"),
        "{result:?}"
    );
    let echoed = result.get("result").and_then(|r| r.get("echo")).unwrap();
    assert_eq!(echoed.get("tag").and_then(|v| v.as_str()), Some("alpha"));
    // Status for an unknown id is a clean 404, not a hang.
    let missing = c.status(999).unwrap();
    assert_eq!(missing.get("code").and_then(|v| v.as_u64()), Some(404));
    server.shutdown_and_wait();
}

#[test]
fn admission_control_sheds_with_429() {
    // One slow worker + capacity 2: the queue fills, the rest shed.
    let svc = Arc::new(SliceService::new(Duration::from_millis(400)));
    let (server, addr) = start("shed", 1, 2, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();
    let mut admitted = Vec::new();
    let mut shed = 0;
    for i in 0..8 {
        let reply = c.submit(&spec(&format!("r{i}"))).unwrap();
        match submit_id(&reply) {
            Some(id) => admitted.push(id),
            None => {
                assert_eq!(
                    reply.get("code").and_then(|v| v.as_u64()),
                    Some(429),
                    "sheds are explicit: {reply:?}"
                );
                shed += 1;
            }
        }
    }
    assert!(shed >= 4, "most of the burst must shed (shed {shed})");
    assert!(!admitted.is_empty());
    // The admitted ones all finish: shedding protects, not poisons.
    for id in admitted {
        let result = c.wait(id, Duration::from_secs(10)).unwrap();
        assert_eq!(result.get("state").and_then(|v| v.as_str()), Some("done"));
    }
    server.shutdown_and_wait();
}

#[test]
fn cancel_frees_the_worker_within_one_boundary() {
    let svc = Arc::new(SliceService::new(Duration::from_secs(30)));
    let (server, addr) = start("cancel-running", 1, 8, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();
    let long = submit_id(&c.submit(&spec("long")).unwrap()).unwrap();
    // Wait until it is actually running, then cancel it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let st = c.status(long).unwrap();
        if st.get("state").and_then(|v| v.as_str()) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let ack = c.cancel(long).unwrap();
    assert_eq!(ack.get("cancelling").and_then(|v| v.as_bool()), Some(true));
    let result = c.wait(long, Duration::from_secs(5)).unwrap();
    assert_eq!(
        result.get("state").and_then(|v| v.as_str()),
        Some("cancelled"),
        "a 30s solve ended in ms: the worker freed at a slice boundary"
    );
    // The freed worker picks up new work immediately.
    let quick_svc_run = submit_id(&c.submit(&spec("after")).unwrap()).unwrap();
    // (Still the 30s service — cancel this one too, proving the worker
    // was live enough to start it.)
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let st = c.status(quick_svc_run).unwrap();
        if st.get("state").and_then(|v| v.as_str()) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "worker never freed");
        std::thread::sleep(Duration::from_millis(5));
    }
    c.cancel(quick_svc_run).unwrap();
    server.shutdown_and_wait();
}

#[test]
fn cancel_of_a_queued_request_never_runs_it() {
    let svc = Arc::new(SliceService::new(Duration::from_millis(300)));
    let (server, addr) = start("cancel-queued", 1, 8, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();
    let head = submit_id(&c.submit(&spec("head")).unwrap()).unwrap();
    let queued = submit_id(&c.submit(&spec("queued")).unwrap()).unwrap();
    let ack = c.cancel(queued).unwrap();
    assert_eq!(
        ack.get("state").and_then(|v| v.as_str()),
        Some("cancelled"),
        "a queued cancel is terminal immediately"
    );
    let result = c.wait(head, Duration::from_secs(10)).unwrap();
    assert_eq!(result.get("state").and_then(|v| v.as_str()), Some("done"));
    // The cancelled request was never started by the service.
    let runs = svc.runs.lock().unwrap();
    assert!(
        runs.iter().all(|(id, _)| *id != queued),
        "cancelled-in-queue must not reach the service: {runs:?}"
    );
    server.shutdown_and_wait();
}

#[test]
fn concurrent_submit_cancel_races_stay_consistent() {
    let svc = Arc::new(SliceService::new(Duration::from_millis(20)));
    let (server, addr) = start("races", 4, 64, Arc::clone(&svc));
    let mut handles = Vec::new();
    for t in 0..4 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut ids = Vec::new();
            for i in 0..10 {
                let reply = c.submit(&spec(&format!("t{t}-{i}"))).unwrap();
                let id = submit_id(&reply).expect("capacity 64 admits all");
                // Cancel every other request, racing the workers.
                if i % 2 == 0 {
                    let _ = c.cancel(id).unwrap();
                }
                ids.push(id);
            }
            ids
        }));
    }
    let all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(all.len(), 40);
    // Every request reaches a terminal state; ids are unique.
    let mut seen = std::collections::HashSet::new();
    let mut c = Client::connect(&addr).unwrap();
    for id in all {
        assert!(seen.insert(id), "duplicate id {id}");
        let result = c.wait(id, Duration::from_secs(20)).unwrap();
        let state = result.get("state").and_then(|v| v.as_str()).unwrap();
        assert!(
            state == "done" || state == "cancelled",
            "id {id} ended {state}"
        );
    }
    server.shutdown_and_wait();
}

#[test]
fn shutdown_leaves_in_flight_work_resumable() {
    let dir = tmp("resume");
    let svc = Arc::new(SliceService::new(Duration::from_secs(30)));
    let (server, addr) = start_in(&dir, 1, 8, Arc::clone(&svc), Chaos::disabled());
    let mut c = Client::connect(&addr).unwrap();
    let id = submit_id(&c.submit(&spec("survivor")).unwrap()).unwrap();
    // Let it start, then shut the daemon down mid-solve.
    std::thread::sleep(Duration::from_millis(30));
    drop(c);
    server.shutdown_and_wait();

    // Restart over the same state dir with a fast service: the journal
    // replays the pending request with `resume` set.
    let svc2 = Arc::new(SliceService::new(Duration::from_millis(10)));
    let (server2, addr2) = start_in(&dir, 1, 8, Arc::clone(&svc2), Chaos::disabled());
    let mut c2 = Client::connect(&addr2).unwrap();
    let result = c2.wait(id, Duration::from_secs(10)).unwrap();
    assert_eq!(result.get("state").and_then(|v| v.as_str()), Some("done"));
    let runs = svc2.runs.lock().unwrap();
    assert_eq!(
        runs.as_slice(),
        &[(id, true)],
        "replayed request keeps its id and carries the resume flag"
    );
    drop(runs);
    server2.shutdown_and_wait();
}

#[test]
fn finished_results_survive_a_restart() {
    let dir = tmp("retrieve");
    let svc = Arc::new(SliceService::new(Duration::from_millis(5)));
    let (server, addr) = start_in(&dir, 1, 8, Arc::clone(&svc), Chaos::disabled());
    let mut c = Client::connect(&addr).unwrap();
    let id = submit_id(&c.submit(&spec("keep")).unwrap()).unwrap();
    let before = c.wait(id, Duration::from_secs(5)).unwrap();
    drop(c);
    server.shutdown_and_wait();

    let svc2 = Arc::new(SliceService::new(Duration::from_millis(5)));
    let (server2, addr2) = start_in(&dir, 1, 8, Arc::clone(&svc2), Chaos::disabled());
    let mut c2 = Client::connect(&addr2).unwrap();
    let after = c2.result(id).unwrap();
    assert_eq!(
        serde_json::to_string(&after).unwrap(),
        serde_json::to_string(&before).unwrap(),
        "a journaled result is byte-identical across restarts"
    );
    assert!(
        svc2.runs.lock().unwrap().is_empty(),
        "a finished request is never re-executed"
    );
    server2.shutdown_and_wait();
}

#[test]
fn worker_death_requeues_once_with_resume() {
    let plan = FaultPlan::parse("worker-death@0").unwrap();
    let svc = Arc::new(SliceService::new(Duration::from_millis(10)));
    let (server, addr) = start_in(&tmp("wdeath"), 1, 8, Arc::clone(&svc), Chaos::new(plan));
    let mut c = Client::connect(&addr).unwrap();
    let id = submit_id(&c.submit(&spec("victim")).unwrap()).unwrap();
    let result = c.wait(id, Duration::from_secs(10)).unwrap();
    assert_eq!(result.get("state").and_then(|v| v.as_str()), Some("done"));
    let runs = svc.runs.lock().unwrap();
    assert_eq!(
        runs.as_slice(),
        &[(id, true)],
        "the retry after the injected death carries resume"
    );
    drop(runs);
    server.shutdown_and_wait();
}

#[test]
fn worker_death_twice_fails_cleanly() {
    let plan = FaultPlan::parse("worker-death@0-1").unwrap();
    let svc = Arc::new(SliceService::new(Duration::from_millis(10)));
    let (server, addr) = start_in(&tmp("wdeath2"), 1, 8, Arc::clone(&svc), Chaos::new(plan));
    let mut c = Client::connect(&addr).unwrap();
    let id = submit_id(&c.submit(&spec("victim")).unwrap()).unwrap();
    let result = c.wait(id, Duration::from_secs(10)).unwrap();
    assert_eq!(
        result.get("state").and_then(|v| v.as_str()),
        Some("failed"),
        "two deaths exhaust the retry: explicit failure, no infinite loop"
    );
    assert!(
        svc.runs.lock().unwrap().is_empty(),
        "both claims died before reaching the service"
    );
    server.shutdown_and_wait();
}

#[test]
fn client_disconnect_keeps_the_request_running() {
    // The first response frame is dropped on the floor (the "client"
    // vanished); the request still runs and a reconnect retrieves it.
    let plan = FaultPlan::parse("client-disconnect@0").unwrap();
    let svc = Arc::new(SliceService::new(Duration::from_millis(20)));
    let (server, addr) = start_in(&tmp("cdisc"), 1, 8, Arc::clone(&svc), Chaos::new(plan));
    let mut c = Client::connect(&addr).unwrap();
    // The submit is processed, but its response never arrives: the
    // read fails with EOF.
    let submit_err = c.submit(&spec("ghost"));
    assert!(submit_err.is_err(), "connection dropped before the reply");
    drop(c);
    // Reconnect: the request was admitted (journal-first) and ran.
    let mut c2 = Client::connect(&addr).unwrap();
    let result = c2.wait(1, Duration::from_secs(10)).unwrap();
    assert_eq!(result.get("state").and_then(|v| v.as_str()), Some("done"));
    server.shutdown_and_wait();
}

#[test]
fn slow_client_is_shed_without_disturbing_solves() {
    let plan = FaultPlan::parse("slow-client@1").unwrap();
    let svc = Arc::new(SliceService::new(Duration::from_millis(100)));
    let (server, addr) = start_in(&tmp("slow"), 1, 8, Arc::clone(&svc), Chaos::new(plan));
    // Connection A submits fine (occurrence 0 of the read-loop check),
    // then stalls: its next read (occurrence 1) sheds the connection.
    let mut a = Client::connect(&addr).unwrap();
    let id = submit_id(&a.submit(&spec("work")).unwrap()).unwrap();
    let stalled = a.status(id);
    assert!(stalled.is_err(), "the stalled connection was shed");
    // Connection B is unaffected, and so is the solve.
    let mut b = Client::connect(&addr).unwrap();
    let result = b.wait(id, Duration::from_secs(10)).unwrap();
    assert_eq!(result.get("state").and_then(|v| v.as_str()), Some("done"));
    server.shutdown_and_wait();
}

#[test]
fn two_daemons_cannot_share_a_state_dir() {
    let dir = tmp("locked");
    let svc = Arc::new(SliceService::new(Duration::from_millis(5)));
    let (server, _) = start_in(&dir, 1, 8, Arc::clone(&svc), Chaos::disabled());
    let cfg = ServerConfig::local(dir.clone());
    let second = Server::start_with_chaos(
        cfg,
        Arc::clone(&svc),
        Telemetry::noop(),
        CancelToken::new(),
        Chaos::disabled(),
    );
    match second {
        Err(e) => assert!(
            e.to_string().contains("locked by pid"),
            "the lock error names the owner: {e}"
        ),
        Ok(_) => panic!("second daemon must not start over a live state dir"),
    }
    server.shutdown_and_wait();
}

/// A service with both lanes. `warm` answers every spec tagged `warm…`
/// at once; `execute` reports the id it was handed and parks until the
/// test opens the gate, so a test decides what the worker and the queue
/// hold without sleeping.
struct LaneService {
    open: Mutex<bool>,
    gate: Condvar,
    started: Mutex<mpsc::Sender<u64>>,
    /// One panic still to inject on each lane.
    warm_panics: AtomicBool,
    execute_panics: AtomicBool,
    warm_answers: AtomicU64,
}

impl LaneService {
    fn new(panics: bool) -> (Arc<LaneService>, mpsc::Receiver<u64>) {
        let (started, starts) = mpsc::channel();
        let svc = LaneService {
            open: Mutex::new(false),
            gate: Condvar::new(),
            started: Mutex::new(started),
            warm_panics: AtomicBool::new(panics),
            execute_panics: AtomicBool::new(panics),
            warm_answers: AtomicU64::new(0),
        };
        (Arc::new(svc), starts)
    }

    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.gate.notify_all();
    }

    fn body(lane: &str, spec: &Value, id: u64) -> Value {
        Value::Object(vec![
            ("lane".to_string(), Value::Str(lane.to_string())),
            ("echo".to_string(), spec.clone()),
            ("id".to_string(), Value::Num(id as f64)),
        ])
    }
}

impl PlanService for LaneService {
    type Entry = ();

    fn warm(&self, spec: &Value, ctx: &RequestCtx<'_, ()>) -> Option<Value> {
        if self.warm_panics.swap(false, Ordering::SeqCst) {
            // The worst place for it: the shared cache's lock is held.
            let _cache = ctx.cache.lock().unwrap();
            panic!("injected: the inline attempt dies holding the cache lock");
        }
        let tag = spec.get("tag").and_then(|v| v.as_str())?;
        tag.starts_with("warm").then(|| {
            self.warm_answers.fetch_add(1, Ordering::SeqCst);
            LaneService::body("inline", spec, ctx.id)
        })
    }

    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_, ()>) -> Result<Value, ServiceFailure> {
        if self.execute_panics.swap(false, Ordering::SeqCst) {
            panic!("injected: the worker dies in the service");
        }
        let _ = self.started.lock().unwrap().send(ctx.id);
        let mut open = self.open.lock().unwrap();
        while !*open {
            if ctx.cancel.is_cancelled() {
                return Err(ServiceFailure::Cancelled);
            }
            open = self
                .gate
                .wait_timeout(open, Duration::from_millis(5))
                .unwrap()
                .0;
        }
        Ok(LaneService::body("worker", spec, ctx.id))
    }
}

fn text<'a>(reply: &'a Value, key: &str) -> Option<&'a str> {
    reply.get(key).and_then(|v| v.as_str())
}

fn number(reply: &Value, key: &str) -> Option<u64> {
    reply.get(key).and_then(|v| v.as_u64())
}

#[test]
fn a_warm_answer_passes_a_busy_worker_and_a_full_queue() {
    let (svc, starts) = LaneService::new(false);
    let tel = Telemetry::memory();
    let dir = tmp("lanes");
    let (server, addr) =
        start_observed(&dir, 1, 1, Arc::clone(&svc), Chaos::disabled(), tel.clone());
    let mut c = Client::connect(&addr).unwrap();
    // The only worker holds `running`, the only queue slot holds `waiting`.
    let running = submit_id(&c.submit(&spec("cold-running")).unwrap()).unwrap();
    assert_eq!(starts.recv_timeout(Duration::from_secs(5)), Ok(running));
    let waiting = c.submit(&spec("cold-waiting")).unwrap();
    assert_eq!(text(&waiting, "state"), Some("queued"));

    // A request the service can answer is answered in the submit reply.
    let reply = c.submit(&spec("warm-1")).unwrap();
    assert_eq!(text(&reply, "state"), Some("done"), "{reply:?}");
    let id = submit_id(&reply).expect("answered, not shed");
    let result = c.result(id).unwrap();
    let body = result.get("result").expect("a result body");
    assert_eq!(text(body, "lane"), Some("inline"));
    assert_eq!(number(body, "id"), Some(id));
    assert_eq!(tel.counter(sys::SERVE, "sheds"), 0);
    assert_eq!(tel.counter(sys::SERVE, "inline_hits"), 1);
    let stats = c.stats().unwrap();
    assert_eq!(number(&stats, "inline_hits"), Some(1));
    assert_eq!(number(&stats, "queued"), Some(1), "it took no queue slot");
    assert_eq!(number(&stats, "running"), Some(1), "and no worker");
    assert_eq!(number(&stats, "done"), Some(1));

    // One that needs a worker still meets the bound.
    let shed = c.submit(&spec("cold-excess")).unwrap();
    assert_eq!(number(&shed, "code"), Some(429), "{shed:?}");
    assert_eq!(tel.counter(sys::SERVE, "sheds"), 1);

    // Cancelling an answered request is the idempotent terminal reply.
    let ack = c.cancel(id).unwrap();
    assert_eq!(text(&ack, "state"), Some("done"));
    assert_eq!(ack.get("cancelling").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(
        serde_json::to_string(&c.result(id).unwrap()).unwrap(),
        serde_json::to_string(&result).unwrap(),
        "and leaves its result alone"
    );

    svc.open_gate();
    for id in [running, submit_id(&waiting).unwrap()] {
        let result = c.wait(id, Duration::from_secs(10)).unwrap();
        assert_eq!(text(&result, "state"), Some("done"));
        let body = result.get("result").unwrap();
        assert_eq!(text(body, "lane"), Some("worker"));
    }
    server.shutdown_and_wait();
}

#[test]
fn an_inline_answer_survives_a_restart() {
    let dir = tmp("inline-replay");
    let (svc, _starts) = LaneService::new(false);
    let (server, addr) = start_in(&dir, 1, 8, Arc::clone(&svc), Chaos::disabled());
    let mut c = Client::connect(&addr).unwrap();
    let reply = c.submit(&spec("warm-keep")).unwrap();
    assert_eq!(text(&reply, "state"), Some("done"));
    let id = submit_id(&reply).unwrap();
    let before = c.result(id).unwrap();
    drop(c);
    server.shutdown_and_wait();

    // The journal holds the two records a worker's run leaves.
    let records = np_chaos::checkpoint::read_records(&dir.join("journal.jsonl"));
    let kinds: Vec<&str> = records.iter().map(|r| r.kind.as_str()).collect();
    assert_eq!(kinds, ["submitted", "done"]);

    let (svc2, _starts2) = LaneService::new(false);
    let (server2, addr2) = start_in(&dir, 1, 8, Arc::clone(&svc2), Chaos::disabled());
    let mut c2 = Client::connect(&addr2).unwrap();
    assert_eq!(
        serde_json::to_string(&c2.result(id).unwrap()).unwrap(),
        serde_json::to_string(&before).unwrap(),
        "byte-identical across restarts, like a worker's result"
    );
    assert_eq!(
        svc2.warm_answers.load(Ordering::SeqCst),
        0,
        "served from the journal, not answered again"
    );
    // Ids keep counting from the highest the journal has seen.
    let next = c2.submit(&spec("warm-next")).unwrap();
    assert_eq!(submit_id(&next), Some(id + 1));
    assert_eq!(text(&next, "state"), Some("done"));
    server2.shutdown_and_wait();
}

#[test]
fn a_service_without_a_warm_lane_sees_the_daemon_it_always_saw() {
    // `SliceService` has no `warm`. Replies and journal of this session
    // were recorded on the commit before the fast lane existed.
    let dir = tmp("no-lane");
    let svc = Arc::new(SliceService::new(Duration::from_millis(5)));
    let (server, addr) = start_in(&dir, 1, 8, Arc::clone(&svc), Chaos::disabled());
    let mut c = Client::connect(&addr).unwrap();
    let replies = [
        c.submit(&spec("a")).unwrap(),
        c.wait(1, Duration::from_secs(5)).unwrap(),
        c.submit(&spec("b")).unwrap(),
        c.wait(2, Duration::from_secs(5)).unwrap(),
        c.cancel(1).unwrap(),
        c.status(2).unwrap(),
    ];
    assert_eq!(number(&c.stats().unwrap(), "inline_hits"), Some(0));
    drop(c);
    server.shutdown_and_wait();
    let recorded = [
        r#"{"ok":true,"id":1,"state":"queued"}"#,
        r#"{"ok":true,"id":1,"state":"done","result":{"echo":{"tag":"a"},"id":1}}"#,
        r#"{"ok":true,"id":2,"state":"queued"}"#,
        r#"{"ok":true,"id":2,"state":"done","result":{"echo":{"tag":"b"},"id":2}}"#,
        r#"{"ok":true,"id":1,"state":"done","cancelling":false}"#,
        r#"{"ok":true,"id":2,"state":"done"}"#,
    ];
    for (reply, recorded) in replies.iter().zip(recorded) {
        assert_eq!(serde_json::to_string(reply).unwrap(), recorded);
    }
    let journal = concat!(
        r#"{"sum":"b016a1be9ead2d49","rec":{"v":1,"kind":"submitted","body":{"id":1,"spec":{"tag":"a"}}}}"#,
        "\n",
        r#"{"sum":"ad1a4b3e7aebfd86","rec":{"v":1,"kind":"done","body":{"id":1,"payload":{"echo":{"tag":"a"},"id":1}}}}"#,
        "\n",
        r#"{"sum":"3d10162a5358b59f","rec":{"v":1,"kind":"submitted","body":{"id":2,"spec":{"tag":"b"}}}}"#,
        "\n",
        r#"{"sum":"e193a1013257b711","rec":{"v":1,"kind":"done","body":{"id":2,"payload":{"echo":{"tag":"b"},"id":2}}}}"#,
        "\n",
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("journal.jsonl")).unwrap(),
        journal
    );
}

#[test]
fn a_panic_on_either_lane_costs_one_attempt_not_the_daemon() {
    let (svc, starts) = LaneService::new(true);
    let tel = Telemetry::memory();
    let dir = tmp("lane-panics");
    let (server, addr) =
        start_observed(&dir, 1, 8, Arc::clone(&svc), Chaos::disabled(), tel.clone());
    svc.open_gate();
    let mut c = Client::connect(&addr).unwrap();
    // The inline attempt panics: the request is queued like any other.
    // Its first worker panics in `execute`: one retry, with resume.
    let reply = c.submit(&spec("warm-unlucky")).unwrap();
    assert_eq!(text(&reply, "state"), Some("queued"), "{reply:?}");
    let id = submit_id(&reply).unwrap();
    let result = c.wait(id, Duration::from_secs(10)).unwrap();
    assert_eq!(text(&result, "state"), Some("done"), "{result:?}");
    assert_eq!(text(result.get("result").unwrap(), "lane"), Some("worker"));
    assert_eq!(starts.try_iter().collect::<Vec<_>>(), vec![id]);
    assert_eq!(tel.counter(sys::SERVE, "inline_panics"), 1);
    assert_eq!(tel.counter(sys::SERVE, "worker_deaths"), 1);
    // The first panic poisoned the cache lock; every op that takes it
    // still answers, and both lanes serve as if nothing had happened.
    let stats = c.stats().unwrap();
    assert_eq!(number(&stats, "done"), Some(1), "{stats:?}");
    let reply = c.submit(&spec("warm-after")).unwrap();
    assert_eq!(text(&reply, "state"), Some("done"));
    let cold = submit_id(&c.submit(&spec("cold-after")).unwrap()).unwrap();
    let result = c.wait(cold, Duration::from_secs(10)).unwrap();
    assert_eq!(text(&result, "state"), Some("done"));
    server.shutdown_and_wait();
}
