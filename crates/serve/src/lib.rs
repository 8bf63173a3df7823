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
//!    journal on restart: finished requests stay retrievable within the
//!    retention window (the newest 1024 closes per lane; an older id
//!    answers `410`), in-flight ones re-enqueue with `resume`
//!    set so the service continues them bit-identically from their own
//!    checkpoints. Table, journal and state directory are bounded by
//!    what is retained, not by what was ever served.
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

use journal::Totals;
use np_chaos::{CancelToken, DirLock, FaultClass};
use np_telemetry::{sys, Telemetry};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
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

/// Everything a service run needs from the daemon; `V` is the
/// service's cache entry ([`PlanService::Entry`]).
pub struct RequestCtx<'a, V> {
    /// The request id (stable across daemon restarts).
    pub id: u64,
    /// Set when this run is a journal-replay continuation — the service
    /// must resume from its checkpoints instead of starting fresh.
    pub resume: bool,
    /// Fires on client `cancel` or daemon shutdown; the service is
    /// expected to thread it into its planning stack.
    pub cancel: CancelToken,
    /// The warm-result LRU, shared across requests. Keyed by whatever
    /// fingerprint the service chooses, holding what the service keeps.
    pub cache: &'a Mutex<WarmCache<V>>,
}

/// The planning backend. One call per request; must be safe to invoke
/// from several worker threads at once.
pub trait PlanService: Send + Sync + 'static {
    /// What the service keeps in the warm cache, as it will use it: the
    /// daemon only stores, evicts and counts entries.
    type Entry: Clone + Send + 'static;

    /// Run the request to completion (or cancellation). The returned
    /// value is the result body handed verbatim to clients and the
    /// journal, so it must be self-contained JSON.
    fn execute(
        &self,
        spec: &Value,
        ctx: &RequestCtx<'_, Self::Entry>,
    ) -> Result<Value, ServiceFailure>;

    /// The result body of a request that needs no solve (a cached plan
    /// that still validates), or `None` for one that has to run. The
    /// daemon calls this on the submitting connection's thread before the
    /// request is admitted: `Some` is journaled and answered there, `None`
    /// goes to the queue and [`PlanService::execute`]. Must return within
    /// the time of a cache lookup and a check, and must not solve.
    fn warm(&self, _spec: &Value, _ctx: &RequestCtx<'_, Self::Entry>) -> Option<Value> {
        None
    }

    /// Request `id` has closed: its terminal record is durable and its
    /// clients can see the outcome, so whatever the service kept to be
    /// able to resume it (a checkpoint chain) can go. Called once per
    /// request that queued — on the thread that closed it, outside the
    /// daemon's locks — and again at start for every closed request the
    /// journal still holds, in case the daemon died in between. A
    /// request [`PlanService::warm`] answered never ran and is not
    /// announced.
    fn closed(&self, _id: u64) {}
}

/// Shared services work unchanged (tests hold one side to observe).
impl<T: PlanService> PlanService for Arc<T> {
    type Entry = T::Entry;

    fn execute(
        &self,
        spec: &Value,
        ctx: &RequestCtx<'_, Self::Entry>,
    ) -> Result<Value, ServiceFailure> {
        self.as_ref().execute(spec, ctx)
    }

    fn warm(&self, spec: &Value, ctx: &RequestCtx<'_, Self::Entry>) -> Option<Value> {
        self.as_ref().warm(spec, ctx)
    }

    fn closed(&self, id: u64) {
        self.as_ref().closed(id)
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

/// Terminal requests the table keeps per lane. Everything a request
/// costs the daemon — table entry, journal records, replay time — is
/// bounded by this and the requests in flight, for any uptime.
///
/// The two lanes are bounded apart so that repeats cannot push a solved
/// plan out: a request that queued outlives 1024 later *queued* closes
/// (solves, and the cancels of queued requests), however many requests
/// were answered at admission meanwhile. For those 1024 is a time
/// bound: their client read `done` in the submit reply and fetches the
/// result at once, and even one on [`Client::wait`]'s slowest poll (200
/// ms) is inside the window at the ~3.4k warm requests/s one daemon
/// has been measured to answer (680 closes per poll).
const RETAINED: usize = 1024;

/// Which of the two retention rings a closed request is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// It took a queue slot: a worker closed it, or a cancel did.
    Queued = 0,
    /// It was answered at admission.
    Answered = 1,
}

struct Request {
    /// What the worker runs, and what a compaction writes back.
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
    /// The ring it goes to when it closes.
    lane: Lane,
}

impl Request {
    fn new(spec: Value) -> Request {
        Request {
            spec,
            state: ReqState::Queued,
            outcome: None,
            stop: CancelToken::new(),
            user_cancelled: false,
            resume: false,
            requeued: false,
            lane: Lane::Queued,
        }
    }

    /// The terminal kind and payload of a closed request's record.
    fn terminal(&self) -> Option<(&'static str, &Value)> {
        let kind = match self.state {
            ReqState::Done => journal::K_DONE,
            ReqState::Failed => journal::K_FAILED,
            ReqState::Cancelled => journal::K_CANCELLED,
            ReqState::Queued | ReqState::Running => return None,
        };
        Some((kind, self.outcome.as_ref().unwrap_or(&Value::Null)))
    }

    /// Journal lines this request accounts for: its `submitted`, and
    /// its terminal record once closed.
    fn lines(&self) -> usize {
        1 + usize::from(self.state.terminal())
    }
}

struct State {
    queue: VecDeque<u64>,
    /// Every request in flight and the newest closed ones (`rings`).
    requests: HashMap<u64, Request>,
    next_id: u64,
    draining: bool,
    running: usize,
    /// The closed requests in the table, oldest close first, by
    /// [`Lane`]: at most [`RETAINED`] each.
    rings: [VecDeque<u64>; 2],
    /// Outcomes of every request ever closed; `answered` counts those
    /// answered at admission, which no worker ever saw.
    closed: Totals,
    /// Outcomes of those among them that have left the table.
    expired: Totals,
    /// Journal lines of the requests in the table.
    live_lines: usize,
    /// Every other line of the journal.
    dead_lines: usize,
}

impl State {
    /// Put request `id`, just closed under terminal kind `kind`, in its
    /// lane's ring. The ring's oldest request leaves the table when that
    /// makes one too many.
    fn retain(&mut self, id: u64, lane: Lane, kind: &str) {
        let answered = lane == Lane::Answered;
        self.closed.count(kind, answered);
        let ring = &mut self.rings[lane as usize];
        ring.push_back(id);
        if ring.len() <= RETAINED {
            return;
        }
        let oldest = ring.pop_front().and_then(|id| self.requests.remove(&id));
        let oldest = oldest.expect("a ring holds ids of the table");
        let (kind, _) = oldest.terminal().expect("a ring holds closed requests");
        self.expired.count(kind, answered);
        self.live_lines -= oldest.lines();
        self.dead_lines += oldest.lines();
    }

    /// Why `id` is not in the table: it was issued and has expired since
    /// (410), or it never was (404).
    fn missing(&self, id: u64) -> Value {
        if (1..self.next_id).contains(&id) {
            let msg = format!("request {id} expired: it closed longer ago than results are kept");
            proto::err(proto::code::GONE, &msg)
        } else {
            proto::err(proto::code::NOT_FOUND, &format!("unknown request {id}"))
        }
    }
}

struct Inner<S: PlanService> {
    service: S,
    cfg: ServerConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    journal: journal::Journal,
    cache: Mutex<WarmCache<S::Entry>>,
    tel: Telemetry,
    chaos: np_chaos::Chaos,
    shutdown: CancelToken,
}

/// A running daemon: bound listener, worker pool, journal, lock.
pub struct Server<S: PlanService> {
    inner: Arc<Inner<S>>,
    addr: SocketAddr,
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
        let dir_lock = DirLock::acquire(&cfg.state_dir)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::AddrInUse, e.to_string()))?;
        let journal = journal::Journal::in_dir(&cfg.state_dir)?;
        // A tail torn by a death mid-append would swallow what this daemon
        // appends next.
        np_chaos::checkpoint::Chain::new(journal.path(), &chaos).cut_torn_tail()?;

        // Journal replay: in-flight requests re-enqueue with resume set,
        // closed ones go through the rings in the order they closed —
        // the table a daemon that never stopped would hold.
        let replay = journal::Replay::of(journal.path());
        let mut state = State {
            queue: VecDeque::new(),
            requests: HashMap::new(),
            next_id: replay.next_id(),
            draining: false,
            running: 0,
            rings: Default::default(),
            closed: replay.head.expired,
            expired: replay.head.expired,
            live_lines: 0,
            dead_lines: replay.lines,
        };
        for r in replay.requests {
            let mut req = Request::new(r.spec);
            match r.terminal {
                None => {
                    req.resume = true;
                    state.queue.push_back(r.id);
                }
                Some((kind, payload)) => {
                    req.state = match kind {
                        journal::K_DONE => ReqState::Done,
                        journal::K_CANCELLED => ReqState::Cancelled,
                        _ => ReqState::Failed,
                    };
                    // A cancel has no payload to keep.
                    req.outcome = (kind != journal::K_CANCELLED).then_some(payload);
                    if r.answered {
                        req.lane = Lane::Answered;
                    }
                }
            }
            state.live_lines += req.lines();
            state.dead_lines -= req.lines();
            state.requests.insert(r.id, req);
        }
        if !state.queue.is_empty() {
            tel.incr(sys::SERVE, "journal_resumes", state.queue.len() as u64);
        }
        for &id in &replay.closed {
            let req = &state.requests[&id];
            let (lane, (kind, _)) = (req.lane, req.terminal().expect("closed"));
            // The daemon may have died before it could say so.
            if lane == Lane::Queued {
                service.closed(id);
            }
            state.retain(id, lane, kind);
        }

        let listener = TcpListener::bind(&cfg.addr)?;
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
        // A journal from before compaction, or one a dying daemon left
        // more than half stale, is cut down before it is served from.
        inner.compact_if_due(&mut lock(&inner.state));

        let mut threads = Vec::new();
        // Shutdown watcher: the daemon-wide token may be fired by a
        // signal handler (which can only set atomics), so someone has to
        // turn it into per-request interrupts and worker wakeups, and
        // wake the accept loop, blocked in `accept`, with a self-connect.
        {
            let inn = Arc::clone(&inner);
            let mut wake = addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            threads.push(
                std::thread::Builder::new()
                    .name("np-serve-shutdown".to_string())
                    .spawn(move || {
                        while !inn.shutdown.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        inn.interrupt();
                        let _ = TcpStream::connect(wake);
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
            _lock: dir_lock,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
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
    /// before the state flips, so before any client can observe it. This
    /// is also where the table and the journal are kept bounded: the
    /// closed request may push the oldest of its lane out of the table,
    /// and the records of those pushed out, out of the journal.
    fn close(&self, st: &mut State, id: u64, state: ReqState, outcome: Option<Value>) {
        let (kind, counter) = match state {
            ReqState::Done => (journal::K_DONE, "completions"),
            ReqState::Failed => (journal::K_FAILED, "failures"),
            _ => (journal::K_CANCELLED, "cancels"),
        };
        let req = st.requests.get_mut(&id).expect("closing id exists");
        let payload = outcome.clone().unwrap_or(Value::Null);
        let _ = match req.lane {
            Lane::Queued => self.journal.terminal(kind, id, payload, &self.chaos),
            Lane::Answered => self.journal.answered(id, payload, &self.chaos),
        };
        req.state = state;
        req.outcome = outcome;
        let lane = req.lane;
        st.live_lines += 1;
        st.retain(id, lane, kind);
        self.tel.incr(sys::SERVE, counter, 1);
        self.compact_if_due(st);
    }

    /// Rewrite the journal to the requests in the table once the records
    /// of the others outnumber theirs, which makes a rewrite of `n`
    /// records happen once in `n / 2` closes at most. The caller holds
    /// the state lock, under which every journal write happens, so this
    /// is the only writer; a failed (or killed) rewrite leaves the old
    /// journal in place and the next close tries again.
    fn compact_if_due(&self, st: &mut State) {
        if st.dead_lines <= st.live_lines {
            return;
        }
        let head = journal::Head {
            floor: st.next_id,
            expired: st.expired,
        };
        // Each ring in its own order, which is all a replay needs to
        // rebuild it, then what is in flight in admission order.
        let mut pending: Vec<u64> = (st.requests.iter())
            .filter(|(_, r)| !r.state.terminal())
            .map(|(&id, _)| id)
            .collect();
        pending.sort_unstable();
        let ids = st.rings.iter().flatten().chain(&pending);
        let kept = ids.map(|&id| {
            let req = &st.requests[&id];
            journal::Kept {
                id,
                spec: &req.spec,
                terminal: req.terminal(),
                answered: req.lane == Lane::Answered,
            }
        });
        if let Ok(lines) = self.journal.compact(head, kept, &self.chaos) {
            st.live_lines = lines - 1;
            st.dead_lines = 0;
            self.tel.incr(sys::SERVE, "compactions", 1);
        }
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
            Ok(Ok(body)) => inn.close(&mut st, id, ReqState::Done, Some(body)),
            Ok(Err(ServiceFailure::Cancelled)) => {
                if req.user_cancelled {
                    inn.close(&mut st, id, ReqState::Cancelled, None);
                } else {
                    // Shutdown interruption: no terminal record, so the
                    // next start replays this request with resume set.
                    req.state = ReqState::Queued;
                    req.resume = true;
                    inn.tel.incr(sys::SERVE, "interrupted", 1);
                }
            }
            Ok(Err(ServiceFailure::Failed(msg))) => {
                inn.close(&mut st, id, ReqState::Failed, Some(Value::Str(msg)));
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
                    inn.close(&mut st, id, ReqState::Failed, Some(why));
                }
            }
        }
        // Still in the table: the newest close of its lane.
        let closed = st.requests[&id].state.terminal();
        drop(st);
        if closed {
            inn.service.closed(id);
        }
    }
}

/// Blocks in `accept`; after shutdown the watcher's self-connect is the
/// connection that wakes it to return.
fn accept_loop<S: PlanService>(inn: &Arc<Inner<S>>, listener: TcpListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        if inn.shutdown.is_cancelled() {
            return;
        }
        let inn = Arc::clone(inn);
        let spawned = std::thread::Builder::new()
            .name("np-serve-conn".to_string())
            .spawn(move || handle_conn(&inn, stream));
        let _ = spawned;
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
    st.live_lines += 1;
    let mut req = Request::new(spec.clone());
    let state = match answer {
        Some(body) => {
            req.lane = Lane::Answered;
            st.requests.insert(id, req);
            inn.close(&mut st, id, ReqState::Done, Some(body));
            inn.tel.incr(sys::SERVE, "inline_hits", 1);
            ReqState::Done
        }
        None => {
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
        None => st.missing(id),
    }
}

fn op_result<S: PlanService>(inn: &Inner<S>, frame: &Value) -> Value {
    let Some(id) = frame.get("id").and_then(|v| v.as_u64()) else {
        return proto::err(proto::code::BAD_REQUEST, "result requires an `id`");
    };
    let st = lock(&inn.state);
    let Some(req) = st.requests.get(&id) else {
        return st.missing(id);
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
        return st.missing(id);
    };
    let state = match req.state {
        ReqState::Queued => {
            // Not running: terminal immediately, drop it from the queue.
            req.user_cancelled = true;
            inn.close(&mut st, id, ReqState::Cancelled, None);
            st.queue.retain(|&q| q != id);
            drop(st);
            inn.service.closed(id);
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
    // Counters only: nothing here grows with the table. The outcome
    // counts are of every request ever closed; `retained` of them (and
    // of those in flight) are in the table, `expired` no longer.
    proto::ok(vec![
        ("queued", Value::Num(st.queue.len() as f64)),
        ("running", Value::Num(st.running as f64)),
        ("done", Value::Num(st.closed.done as f64)),
        ("failed", Value::Num(st.closed.failed as f64)),
        ("cancelled", Value::Num(st.closed.cancelled as f64)),
        ("retained", Value::Num(st.requests.len() as f64)),
        ("expired", Value::Num(st.expired.sum() as f64)),
        ("queue_capacity", Value::Num(inn.cfg.queue_capacity as f64)),
        ("workers", Value::Num(inn.cfg.workers as f64)),
        ("cache_hits", Value::Num(hits as f64)),
        ("inline_hits", Value::Num(st.closed.answered as f64)),
        ("cache_misses", Value::Num(misses as f64)),
        ("cache_evictions", Value::Num(evictions as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Idle;

    impl PlanService for Idle {
        type Entry = ();

        fn execute(&self, _: &Value, _: &RequestCtx<'_, ()>) -> Result<Value, ServiceFailure> {
            Ok(Value::Null)
        }
    }

    /// The accept loop blocks in `accept`; on a daemon bound to the
    /// unspecified address the watcher's wake-up goes to loopback, and
    /// the daemon winds down.
    #[test]
    fn a_daemon_bound_to_every_interface_shuts_down() {
        let dir = std::env::temp_dir().join(format!("np-serve-any-{}", std::process::id()));
        let cfg = ServerConfig {
            addr: "0.0.0.0:0".to_string(),
            ..ServerConfig::local(&dir)
        };
        let shutdown = CancelToken::new();
        let chaos = np_chaos::Chaos::disabled();
        let server = Server::start_with_chaos(cfg, Idle, Telemetry::noop(), shutdown, chaos)
            .expect("server starts");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown_and_wait();
            let _ = tx.send(());
        });
        let stopped = rx.recv_timeout(Duration::from_secs(10));
        assert!(stopped.is_ok(), "the daemon did not wind down");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
