//! np-serve: the crash-safe planning-as-a-service substrate.
//!
//! This crate is the daemon machinery with the planner abstracted out:
//! a length-prefixed JSON-over-TCP protocol ([`proto`]), a journaled
//! request queue with admission control ([`journal`], [`Server`]), a
//! warm-result LRU ([`cache`]), and a blocking [`Client`]. The actual
//! planning is behind the [`PlanService`] trait, which the `neuroplan`
//! crate implements — keeping this layer free of the planner (and the
//! planner's tests free of sockets).
//!
//! Robustness contract, in order of importance:
//!
//! 1. **Crash safety.** Admission is durable before the client hears
//!    "queued" (journal-first), terminals are durable before they are
//!    observable, and a daemon killed with `kill -9` replays the
//!    journal on restart: finished requests stay retrievable, in-flight
//!    ones re-enqueue with `resume` set so the service continues them
//!    bit-identically from their own checkpoints.
//! 2. **Admission control.** The queue is bounded; beyond it, submits
//!    are shed with an explicit 429-style rejection instead of latency
//!    collapse. The bound is on requests that need a worker: one the
//!    service can answer without solving ([`PlanService::warm`]) is
//!    answered by its connection thread at admission and never queues.
//! 3. **Cancellation.** `cancel` flips the request's
//!    [`np_chaos::CancelToken`]; the planning stack polls it at stage
//!    and epoch boundaries, so the worker frees within one boundary.
//! 4. **Chaos.** The `client-disconnect`, `slow-client`, and
//!    `worker-death` fault classes fire inside the daemon's own code
//!    paths, and the recovery path of each is a pinned test.

pub mod cache;
pub mod client;
pub mod journal;
pub mod proto;

pub use cache::WarmCache;
pub use client::Client;

use np_chaos::{CancelToken, DirLock, FaultClass};
use np_telemetry::{sys, Telemetry};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How a request run can end, as reported by the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceFailure {
    /// The run failed for keeps (infeasible, budget exhausted, ...).
    Failed(String),
    /// The run observed its cancel token and stopped.
    Cancelled,
}

/// Everything a service run needs from the daemon.
pub struct RequestCtx<'a> {
    /// The request id (stable across daemon restarts).
    pub id: u64,
    /// Set when this run is a journal-replay continuation — the service
    /// must resume from its checkpoints instead of starting fresh.
    pub resume: bool,
    /// Fires on client `cancel` or daemon shutdown; the service is
    /// expected to thread it into its planning stack.
    pub cancel: CancelToken,
    /// The warm-result LRU, shared across requests. Keyed by whatever
    /// fingerprint the service chooses.
    pub cache: &'a Mutex<WarmCache>,
}

/// The planning backend. One call per request; must be safe to invoke
/// from several worker threads at once.
pub trait PlanService: Send + Sync + 'static {
    /// Run the request to completion (or cancellation). The returned
    /// value is the result body handed verbatim to clients and the
    /// journal, so it must be self-contained JSON.
    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Result<Value, ServiceFailure>;

    /// The result body of a request that needs no solve (a cached plan
    /// that still validates), or `None` for one that has to run. The
    /// daemon calls this on the submitting connection's thread before the
    /// request is admitted: `Some` is journaled and answered there, `None`
    /// goes to the queue and [`PlanService::execute`]. Must return within
    /// the time of a cache lookup and a check, and must not solve.
    fn warm(&self, _spec: &Value, _ctx: &RequestCtx<'_>) -> Option<Value> {
        None
    }
}

/// Shared services work unchanged (tests hold one side to observe).
impl<T: PlanService> PlanService for Arc<T> {
    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Result<Value, ServiceFailure> {
        self.as_ref().execute(spec, ctx)
    }

    fn warm(&self, spec: &Value, ctx: &RequestCtx<'_>) -> Option<Value> {
        self.as_ref().warm(spec, ctx)
    }
}

/// Lock `m`, taking the guard back from a panic that poisoned it. The
/// data behind the daemon's locks (request table, queue, counters, the
/// LRU map) is valid between any two statements of a critical section,
/// so what a panic leaves behind is usable, and one panic must not turn
/// every later op into another.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Worker threads executing plan requests.
    pub workers: usize,
    /// Admission bound: queued (not yet running) requests beyond this
    /// are shed with a 429.
    pub queue_capacity: usize,
    /// Warm-cache entries to keep.
    pub cache_capacity: usize,
    /// State directory: journal, directory lock, and (by service
    /// convention) per-request checkpoint chains live here.
    pub state_dir: PathBuf,
    /// Per-connection read timeout; a client that stalls longer is shed.
    pub read_timeout: Duration,
}

impl ServerConfig {
    /// Localhost daemon on an ephemeral port with small-test defaults.
    pub fn local(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 8,
            state_dir: state_dir.into(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Request lifecycle states, as reported on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl ReqState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            ReqState::Queued => "queued",
            ReqState::Running => "running",
            ReqState::Done => "done",
            ReqState::Failed => "failed",
            ReqState::Cancelled => "cancelled",
        }
    }

    /// Whether the request can no longer change state.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            ReqState::Done | ReqState::Failed | ReqState::Cancelled
        )
    }
}

struct Request {
    /// What the worker runs; `Null` once terminal (the journal keeps it).
    spec: Value,
    state: ReqState,
    /// Result body (Done) or error string (Failed).
    outcome: Option<Value>,
    /// Fired on cancel or shutdown; threaded into the service run.
    stop: CancelToken,
    /// Distinguishes a client cancel (terminal, journaled) from a
    /// shutdown interruption (left pending so the next start resumes).
    user_cancelled: bool,
    /// Replay/worker-death continuations set this.
    resume: bool,
    /// A worker-death retry has already been spent.
    requeued: bool,
}

impl Request {
    fn new(spec: Value, state: ReqState, outcome: Option<Value>) -> Request {
        Request {
            spec,
            state,
            outcome,
            stop: CancelToken::new(),
            user_cancelled: false,
            resume: false,
            requeued: false,
        }
    }
}

struct State {
    queue: VecDeque<u64>,
    requests: HashMap<u64, Request>,
    next_id: u64,
    draining: bool,
    running: usize,
    /// Requests answered at admission, which no worker ever saw.
    inline_hits: u64,
}

struct Inner<S: PlanService> {
    service: S,
    cfg: ServerConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    journal: journal::Journal,
    cache: Mutex<WarmCache>,
    tel: Telemetry,
    chaos: np_chaos::Chaos,
    shutdown: CancelToken,
}

/// A running daemon: bound listener, worker pool, journal, lock.
pub struct Server<S: PlanService> {
    inner: Arc<Inner<S>>,
    addr: std::net::SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    _lock: DirLock,
}

impl<S: PlanService> Server<S> {
    /// Start the daemon: lock the state directory, replay the journal,
    /// bind, and spawn the worker pool and accept loop. `shutdown` is
    /// the daemon-wide stop token — wire a signal handler's token here
    /// for graceful SIGINT/SIGTERM.
    pub fn start(
        cfg: ServerConfig,
        service: S,
        tel: Telemetry,
        shutdown: CancelToken,
    ) -> std::io::Result<Server<S>> {
        Self::start_with_chaos(cfg, service, tel, shutdown, np_chaos::global().clone())
    }

    /// [`Server::start`] with an explicit fault plan instead of the
    /// process-global one — lets tests inject `worker-death` and friends
    /// per server instance.
    pub fn start_with_chaos(
        cfg: ServerConfig,
        service: S,
        tel: Telemetry,
        shutdown: CancelToken,
        chaos: np_chaos::Chaos,
    ) -> std::io::Result<Server<S>> {
        let lock = DirLock::acquire(&cfg.state_dir)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::AddrInUse, e.to_string()))?;
        let journal = journal::Journal::in_dir(&cfg.state_dir)?;

        // Journal replay: finished requests stay retrievable, in-flight
        // ones re-enqueue with resume set.
        let (replayed, next_id) = journal::replay(journal.path());
        let mut state = State {
            queue: VecDeque::new(),
            requests: HashMap::new(),
            next_id,
            draining: false,
            running: 0,
            inline_hits: 0,
        };
        let mut resumed = 0u64;
        for r in replayed {
            let (req_state, outcome, pending) = match &r.terminal {
                None => (ReqState::Queued, None, true),
                Some((journal::K_DONE, payload)) => (ReqState::Done, Some(payload.clone()), false),
                Some((journal::K_CANCELLED, _)) => (ReqState::Cancelled, None, false),
                Some((_, payload)) => (ReqState::Failed, Some(payload.clone()), false),
            };
            // Only a request that will run again needs its spec.
            let spec = if pending { r.spec } else { Value::Null };
            state.requests.insert(
                r.id,
                Request {
                    resume: pending,
                    ..Request::new(spec, req_state, outcome)
                },
            );
            if pending {
                state.queue.push_back(r.id);
                resumed += 1;
            }
        }
        if resumed > 0 {
            tel.incr(sys::SERVE, "journal_resumes", resumed);
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let cache = WarmCache::new(cfg.cache_capacity);
        let inner = Arc::new(Inner {
            service,
            cfg,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            journal,
            cache: Mutex::new(cache),
            tel,
            chaos,
            shutdown,
        });

        let mut threads = Vec::new();
        // Shutdown watcher: the daemon-wide token may be fired by a
        // signal handler (which can only set atomics), so someone has to
        // turn it into per-request interrupts and worker wakeups.
        {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("np-serve-shutdown".to_string())
                    .spawn(move || {
                        while !inn.shutdown.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        inn.interrupt();
                    })
                    .expect("spawn shutdown watcher"),
            );
        }
        for w in 0..inner.cfg.workers.max(1) {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("np-serve-worker-{w}"))
                    .spawn(move || worker_loop(&inn))
                    .expect("spawn worker"),
            );
        }
        {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("np-serve-accept".to_string())
                    .spawn(move || accept_loop(&inn, listener))
                    .expect("spawn accept loop"),
            );
            // handle_conn threads are detached: each holds its own Arc
            // clone and exits on EOF, timeout, or shutdown-induced
            // connection teardown.
        }
        Ok(Server {
            inner,
            addr,
            threads,
            _lock: lock,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Block until the daemon-wide shutdown token fires and every
    /// worker has wound down.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Trigger shutdown and wait for the pool to wind down. In-flight
    /// runs are interrupted at their next stage boundary and left
    /// *pending* in the journal, so the next start resumes them — a
    /// graceful shutdown is deliberately a flushed, resumable crash.
    pub fn shutdown_and_wait(self) {
        self.inner.shutdown.cancel();
        self.inner.interrupt();
        self.wait();
    }
}

impl<S: PlanService> Inner<S> {
    /// After the shutdown token fired: interrupt running solves and wake
    /// the workers parked on the queue.
    fn interrupt(&self) {
        for req in lock(&self.state).requests.values() {
            if req.state == ReqState::Running {
                req.stop.cancel();
            }
        }
        self.work_cv.notify_all();
    }

    /// Close request `id`. Journal-first: the terminal record is durable
    /// before the state flips, so before any client can observe it. The
    /// spec was needed to run the request and stays in the journal; a
    /// closed request keeps only its outcome.
    fn close(&self, id: u64, req: &mut Request, state: ReqState, outcome: Option<Value>) {
        let (kind, counter) = match state {
            ReqState::Done => (journal::K_DONE, "completions"),
            ReqState::Failed => (journal::K_FAILED, "failures"),
            _ => (journal::K_CANCELLED, "cancels"),
        };
        let payload = outcome.clone().unwrap_or(Value::Null);
        let _ = self.journal.terminal(kind, id, payload, &self.chaos);
        req.state = state;
        req.outcome = outcome;
        req.spec = Value::Null;
        self.tel.incr(sys::SERVE, counter, 1);
    }
}

fn worker_loop<S: PlanService>(inn: &Inner<S>) {
    let chaos = &inn.chaos;
    loop {
        let (id, spec, stop, resume) = {
            let mut st = lock(&inn.state);
            loop {
                if inn.shutdown.is_cancelled() {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let req = st.requests.get_mut(&id).expect("queued id exists");
                    // A cancel that raced the dequeue: already terminal.
                    if req.state != ReqState::Queued {
                        continue;
                    }
                    req.state = ReqState::Running;
                    let claimed = (id, req.spec.clone(), req.stop.clone(), req.resume);
                    st.running += 1;
                    break claimed;
                }
                st = inn
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };

        // The worker-death fault class: the worker dies right after
        // claiming a request. catch_unwind plays the role of a pool
        // respawn; the request gets exactly one resume retry.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if chaos.should_fire(FaultClass::WorkerDeath) {
                panic!("np-chaos: injected worker death");
            }
            let ctx = RequestCtx {
                id,
                resume,
                cancel: stop.clone(),
                cache: &inn.cache,
            };
            inn.service.execute(&spec, &ctx)
        }));

        let mut st = lock(&inn.state);
        st.running -= 1;
        let req = st.requests.get_mut(&id).expect("running id exists");
        match run {
            Ok(Ok(body)) => inn.close(id, req, ReqState::Done, Some(body)),
            Ok(Err(ServiceFailure::Cancelled)) => {
                if req.user_cancelled {
                    inn.close(id, req, ReqState::Cancelled, None);
                } else {
                    // Shutdown interruption: no terminal record, so the
                    // next start replays this request with resume set.
                    req.state = ReqState::Queued;
                    req.resume = true;
                    inn.tel.incr(sys::SERVE, "interrupted", 1);
                }
            }
            Ok(Err(ServiceFailure::Failed(msg))) => {
                inn.close(id, req, ReqState::Failed, Some(Value::Str(msg)));
            }
            Err(_panic) => {
                inn.tel.incr(sys::SERVE, "worker_deaths", 1);
                if !req.requeued {
                    // One resume retry: the run continues from its own
                    // checkpoints, exactly like a daemon restart.
                    req.requeued = true;
                    req.resume = true;
                    req.state = ReqState::Queued;
                    st.queue.push_back(id);
                    inn.work_cv.notify_one();
                } else {
                    let why = Value::Str("worker died twice; giving up".to_string());
                    inn.close(id, req, ReqState::Failed, Some(why));
                }
            }
        }
    }
}

fn accept_loop<S: PlanService>(inn: &Arc<Inner<S>>, listener: TcpListener) {
    loop {
        if inn.shutdown.is_cancelled() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inn = Arc::clone(inn);
                let spawned = std::thread::Builder::new()
                    .name("np-serve-conn".to_string())
                    .spawn(move || handle_conn(&inn, stream));
                let _ = spawned;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return,
        }
    }
}

fn handle_conn<S: PlanService>(inn: &Inner<S>, mut stream: TcpStream) {
    let chaos = &inn.chaos;
    let _ = stream.set_read_timeout(Some(inn.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        // The slow-client fault class: the peer stalls mid-exchange.
        // Recovery path = the shed below, without waiting out the real
        // socket timeout (chaos makes the stall deterministic).
        if chaos.should_fire(FaultClass::SlowClient) {
            inn.tel.incr(sys::SERVE, "slow_clients_shed", 1);
            return;
        }
        let frame = match proto::read_frame(&mut stream) {
            Ok(f) => f,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A real stalled client: shed it to free the thread.
                inn.tel.incr(sys::SERVE, "slow_clients_shed", 1);
                return;
            }
            Err(_) => return, // EOF or a broken frame: connection over.
        };
        let (resp, hangup_after) = handle_op(inn, &frame);
        // The client-disconnect fault class: the peer vanished before
        // the response went out. The request (if any) keeps running;
        // the outcome stays retrievable through the journal-backed
        // request table on the next connection.
        if chaos.should_fire(FaultClass::ClientDisconnect) {
            inn.tel.incr(sys::SERVE, "client_disconnects", 1);
            return;
        }
        if proto::write_frame(&mut stream, &resp).is_err() {
            return;
        }
        if hangup_after {
            let _ = stream.flush();
            return;
        }
    }
}

/// Dispatch one request frame. Returns the response and whether the
/// connection should close after sending it (shutdown acks do).
fn handle_op<S: PlanService>(inn: &Inner<S>, frame: &Value) -> (Value, bool) {
    let op = frame.get("op").and_then(|v| v.as_str()).unwrap_or("");
    match op {
        "submit" => (op_submit(inn, frame), false),
        "status" => (op_status(inn, frame), false),
        "result" => (op_result(inn, frame), false),
        "cancel" => (op_cancel(inn, frame), false),
        "stats" => (op_stats(inn), false),
        "shutdown" => {
            inn.shutdown.cancel();
            inn.interrupt();
            (proto::ok(vec![]), true)
        }
        _ => (
            proto::err(proto::code::BAD_REQUEST, &format!("unknown op `{op}`")),
            false,
        ),
    }
}

fn op_submit<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(spec) = frame.get("spec") else {
        return proto::err(proto::code::BAD_REQUEST, "submit requires a `spec`");
    };
    let id = {
        let mut st = lock(&inn.state);
        if inn.shutdown.is_cancelled() || st.draining {
            return proto::err(proto::code::SHUTTING_DOWN, "daemon is shutting down");
        }
        let id = st.next_id;
        st.next_id += 1;
        id
    };
    // The fast lane: what the service can answer without solving is
    // answered here, on the connection's thread and outside the state
    // lock, so a repeat neither waits behind queued solves nor wakes a
    // worker. Nothing is journaled yet, so a panic in the attempt leaves
    // no request without an owner: it falls through to the queue, where
    // the worker's own containment and retry apply.
    let ctx = RequestCtx {
        id,
        resume: false,
        cancel: CancelToken::new(),
        cache: &inn.cache,
    };
    let attempt = std::panic::AssertUnwindSafe(|| inn.service.warm(spec, &ctx));
    let answer = std::panic::catch_unwind(attempt).unwrap_or_else(|_panic| {
        inn.tel.incr(sys::SERVE, "inline_panics", 1);
        None
    });

    let mut st = lock(&inn.state);
    // Admission control bounds the requests that need a worker: an
    // answered one takes no queue slot, the excess of the rest is shed
    // explicitly.
    if answer.is_none() && st.queue.len() >= inn.cfg.queue_capacity {
        inn.tel.incr(sys::SERVE, "sheds", 1);
        return proto::err(proto::code::OVERLOADED, "queue full; retry with backoff");
    }
    // Journal-first admission, on both lanes: every record of the reply
    // below is appended before it. If this append fails, the client hears
    // an error and the daemon keeps no ghost request.
    if let Err(e) = inn.journal.submitted(id, spec, &inn.chaos) {
        return proto::err(
            proto::code::BAD_REQUEST,
            &format!("journal write failed: {e}"),
        );
    }
    inn.tel.incr(sys::SERVE, "submits", 1);
    let state = match answer {
        Some(body) => {
            let mut req = Request::new(Value::Null, ReqState::Queued, None);
            inn.close(id, &mut req, ReqState::Done, Some(body));
            st.requests.insert(id, req);
            st.inline_hits += 1;
            inn.tel.incr(sys::SERVE, "inline_hits", 1);
            ReqState::Done
        }
        None => {
            let req = Request::new(spec.clone(), ReqState::Queued, None);
            st.requests.insert(id, req);
            st.queue.push_back(id);
            ReqState::Queued
        }
    };
    drop(st);
    if state == ReqState::Queued {
        inn.work_cv.notify_one();
    }
    proto::ok(vec![
        ("id", Value::Num(id as f64)),
        ("state", Value::Str(state.name().into())),
    ])
}

fn op_status<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "status requires an `id`");
    };
    let st = lock(&inn.state);
    match st.requests.get(&id) {
        Some(req) => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str(req.state.name().into())),
        ]),
        None => proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}")),
    }
}

fn op_result<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "result requires an `id`");
    };
    let st = lock(&inn.state);
    let Some(req) = st.requests.get(&id) else {
        return proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}"));
    };
    match req.state {
        ReqState::Done => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str("done".into())),
            ("result", req.outcome.clone().unwrap_or(Value::Null)),
        ]),
        ReqState::Failed => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str("failed".into())),
            ("error", req.outcome.clone().unwrap_or(Value::Null)),
        ]),
        ReqState::Cancelled => proto::ok(vec![
            ("id", Value::Num(id as f64)),
            ("state", Value::Str("cancelled".into())),
        ]),
        _ => proto::err(
            proto::code::NOT_READY,
            &format!("request {id} is {}", req.state.name()),
        ),
    }
}

fn op_cancel<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "cancel requires an `id`");
    };
    let mut st = lock(&inn.state);
    let Some(req) = st.requests.get_mut(&id) else {
        return proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}"));
    };
    let state = match req.state {
        ReqState::Queued => {
            // Never ran: terminal immediately, drop it from the queue.
            req.user_cancelled = true;
            inn.close(id, req, ReqState::Cancelled, None);
            st.queue.retain(|&q| q != id);
            ReqState::Cancelled
        }
        ReqState::Running => {
            // Cooperative: the worker observes the token at its next
            // stage/epoch boundary and writes the terminal itself.
            req.user_cancelled = true;
            req.stop.cancel();
            ReqState::Running
        }
        s => s, // already terminal: idempotent
    };
    proto::ok(vec![
        ("id", Value::Num(id as f64)),
        ("state", Value::Str(state.name().into())),
        ("cancelling", Value::Bool(state == ReqState::Running)),
    ])
}

fn op_stats<S: PlanService>(inn: &Inner<S>) -> Value {
    let st = lock(&inn.state);
    let (hits, misses, evictions) = lock(&inn.cache).stats();
    let count = |s: ReqState| st.requests.values().filter(|r| r.state == s).count() as f64;
    proto::ok(vec![
        ("queued", Value::Num(st.queue.len() as f64)),
        ("running", Value::Num(st.running as f64)),
        ("done", Value::Num(count(ReqState::Done))),
        ("failed", Value::Num(count(ReqState::Failed))),
        ("cancelled", Value::Num(count(ReqState::Cancelled))),
        ("queue_capacity", Value::Num(inn.cfg.queue_capacity as f64)),
        ("workers", Value::Num(inn.cfg.workers as f64)),
        ("cache_hits", Value::Num(hits as f64)),
        ("inline_hits", Value::Num(st.inline_hits as f64)),
        ("cache_misses", Value::Num(misses as f64)),
        ("cache_evictions", Value::Num(evictions as f64)),
    ])
}
