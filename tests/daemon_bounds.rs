//! The daemon stays the same size: table, journal and id space on
//! counts, with a stub service whose worker lane the test gates.
//!
//! `np-serve` keeps every request in flight and the newest `RETAINED`
//! closed ones per lane (queued / answered at admission), rewrites the
//! journal to those once the records of the others outnumber theirs,
//! and answers `stats` from counters. Nothing here sleeps or reads a
//! clock: the bounds are on counts, and every one of them is a number
//! that 5 000 does not appear in.

use np_chaos::checkpoint::{read_records, Chain};
use np_chaos::{CancelToken, Chaos, FaultClass, FaultPlan};
use np_serve::client::submit_id;
use np_serve::journal::{self, Head, Journal, Kept, Replay, Totals};
use np_serve::{Client, PlanService, RequestCtx, Server, ServerConfig, ServiceFailure};
use np_telemetry::Telemetry;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// `np_serve`'s private retention bound, per lane.
const RETAINED: u64 = 1024;

/// What the journal may hold on a daemon that admits `open` requests at
/// a time (workers + queue): at most two records for each request in
/// the table, no more stale ones than those (the close that makes them
/// more compacts), and the head.
fn journal_bound(open: u64) -> u64 {
    2 * 2 * (2 * RETAINED + open) + 1
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-bounds-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tag: &str) -> Value {
    Value::Object(vec![("tag".to_string(), Value::Str(tag.to_string()))])
}

/// Both lanes. `warm` answers every spec tagged `warm…` at once;
/// `execute` reports the id it was handed and parks until the test
/// hands out a permit, so the test decides when a worker-lane request
/// closes.
struct GatedService {
    permits: Mutex<usize>,
    gate: Condvar,
    started: Mutex<mpsc::Sender<u64>>,
    closed: Mutex<Vec<u64>>,
}

impl GatedService {
    fn new() -> (Arc<GatedService>, mpsc::Receiver<u64>) {
        let (started, starts) = mpsc::channel();
        let svc = GatedService {
            permits: Mutex::new(0),
            gate: Condvar::new(),
            started: Mutex::new(started),
            closed: Mutex::new(Vec::new()),
        };
        (Arc::new(svc), starts)
    }

    fn release(&self, n: usize) {
        *self.permits.lock().unwrap() += n;
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

impl PlanService for GatedService {
    type Entry = ();

    fn warm(&self, spec: &Value, ctx: &RequestCtx<'_, ()>) -> Option<Value> {
        let tag = spec.get("tag").and_then(|v| v.as_str())?;
        (tag.starts_with("warm")).then(|| GatedService::body("inline", spec, ctx.id))
    }

    fn execute(&self, spec: &Value, ctx: &RequestCtx<'_, ()>) -> Result<Value, ServiceFailure> {
        let _ = self.started.lock().unwrap().send(ctx.id);
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            if ctx.cancel.is_cancelled() {
                return Err(ServiceFailure::Cancelled);
            }
            let poll = Duration::from_millis(5);
            permits = self.gate.wait_timeout(permits, poll).unwrap().0;
        }
        *permits -= 1;
        Ok(GatedService::body("worker", spec, ctx.id))
    }

    fn closed(&self, id: u64) {
        self.closed.lock().unwrap().push(id);
    }
}

/// A daemon on `dir`, and the token that stops it: a server that is
/// dropped instead (a `kill`: nothing flushed, nothing said) leaves its
/// threads behind until that fires.
fn start(
    dir: &Path,
    workers: usize,
    queue_capacity: usize,
    service: Arc<GatedService>,
) -> (Server<Arc<GatedService>>, String, CancelToken) {
    let cfg = ServerConfig {
        workers,
        queue_capacity,
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::local(dir.to_path_buf())
    };
    let stop = CancelToken::new();
    let server = Server::start_with_chaos(
        cfg,
        service,
        Telemetry::noop(),
        stop.clone(),
        Chaos::disabled(),
    )
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr, stop)
}

fn text<'a>(reply: &'a Value, key: &str) -> Option<&'a str> {
    reply.get(key).and_then(|v| v.as_str())
}

fn number(reply: &Value, key: &str) -> u64 {
    let n = reply.get(key).and_then(|v| v.as_u64());
    n.unwrap_or_else(|| panic!("no `{key}` in {reply:?}"))
}

fn bytes(reply: &Value) -> String {
    serde_json::to_string(reply).unwrap()
}

fn journal_lines(dir: &Path) -> u64 {
    let text = std::fs::read(dir.join(journal::JOURNAL_FILE)).unwrap_or_default();
    text.iter().filter(|&&b| b == b'\n').count() as u64
}

/// One `stats` sample of a daemon that admits `open` requests at a time:
/// the table and the journal are inside their bounds whatever has been
/// served.
fn sample(c: &mut Client, dir: &Path, open: u64) -> Value {
    let stats = c.stats().unwrap();
    let in_flight = number(&stats, "queued") + number(&stats, "running");
    assert!(in_flight <= open, "{stats:?}");
    assert!(
        number(&stats, "retained") <= 2 * RETAINED + in_flight,
        "{stats:?}"
    );
    let lines = journal_lines(dir);
    assert!(lines <= journal_bound(open), "{lines} lines, {stats:?}");
    stats
}

/// What a client can learn about every id up to `last`, in flight
/// requests told apart from closed ones only.
fn table(c: &mut Client, last: u64) -> Vec<String> {
    (0..=last + 1)
        .map(|id| {
            let status = bytes(&c.status(id).unwrap());
            status.replace("running", "queued")
        })
        .collect()
}

/// The counters of `stats` a restart restores.
fn restored(stats: &Value) -> Vec<(&'static str, u64)> {
    let keys = [
        "done",
        "failed",
        "cancelled",
        "retained",
        "expired",
        "inline_hits",
    ];
    let mut counts: Vec<_> = keys.iter().map(|&k| (k, number(stats, k))).collect();
    let in_flight = number(stats, "queued") + number(stats, "running");
    counts.push(("in flight", in_flight));
    counts
}

#[test]
fn five_thousand_repeats_leave_a_daemon_of_the_same_size() {
    const FLOOD: usize = 5_000;
    const SOLVES: usize = 40;
    const OPEN: u64 = 2 + 64;
    let dir = tmp("flood");
    let (svc, starts) = GatedService::new();
    let (server, addr, stop) = start(&dir, 2, 64, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();

    // The first solve, closed before any repeat.
    let first = submit_id(&c.submit(&spec("cold-0")).unwrap()).unwrap();
    assert_eq!(starts.recv_timeout(Duration::from_secs(10)), Ok(first));
    svc.release(1);
    let first_result = bytes(&c.wait(first, Duration::from_secs(10)).unwrap());
    assert!(
        first_result.contains(r#""lane":"worker""#),
        "{first_result}"
    );

    // Two connections of repeats; the other solves are admitted and
    // closed in between, a `stats` sample each.
    let answered = AtomicUsize::new(0);
    let mut solves = vec![first];
    std::thread::scope(|scope| {
        for conn in 0..2 {
            let (addr, answered) = (&addr, &answered);
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for k in 0..FLOOD / 2 {
                    let reply = c.submit(&spec(&format!("warm-{conn}-{k}"))).unwrap();
                    assert_eq!(text(&reply, "state"), Some("done"), "{reply:?}");
                    if k % 64 == 0 {
                        let id = submit_id(&reply).unwrap();
                        let result = bytes(&c.result(id).unwrap());
                        assert!(result.contains(r#""lane":"inline""#), "{result}");
                    }
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for k in 1..SOLVES {
            while answered.load(Ordering::SeqCst) < k * FLOOD / SOLVES {
                std::thread::yield_now();
            }
            let reply = c.submit(&spec(&format!("cold-{k}"))).unwrap();
            solves.push(submit_id(&reply).expect("admitted"));
            svc.release(1);
            sample(&mut c, &dir, OPEN);
        }
    });
    for &id in &solves {
        let result = c.wait(id, Duration::from_secs(10)).unwrap();
        assert_eq!(text(&result, "state"), Some("done"), "{result:?}");
    }

    let stats = sample(&mut c, &dir, OPEN);
    let submitted = (FLOOD + SOLVES) as u64;
    assert_eq!(number(&stats, "done"), submitted, "{stats:?}");
    assert_eq!(number(&stats, "failed") + number(&stats, "cancelled"), 0);
    assert_eq!(number(&stats, "retained"), RETAINED + SOLVES as u64);
    assert_eq!(number(&stats, "expired"), FLOOD as u64 - RETAINED);
    assert_eq!(number(&stats, "inline_hits"), FLOOD as u64);
    // Two rings: thousands of repeats later, the first solve is where it
    // was; the repeats before the newest thousand have expired.
    assert_eq!(bytes(&c.result(first).unwrap()), first_result);
    let mut closed = svc.closed.lock().unwrap().clone();
    closed.sort_unstable();
    assert_eq!(closed, solves, "every solve announced closed, no repeat");
    let evicted = (1..=submitted).find(|id| !solves.contains(id)).unwrap();
    let never = submitted + 1;
    for (id, code) in [(evicted, 410), (never, 404), (0, 404), (u64::MAX, 404)] {
        for reply in [c.status(id), c.result(id), c.cancel(id)] {
            let reply = reply.unwrap();
            assert_eq!(number(&reply, "code"), code, "id {id}: {reply:?}");
            assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(false));
        }
    }

    // Two more solves stay open across the restart.
    let open: Vec<u64> = (0..2)
        .map(|k| submit_id(&c.submit(&spec(&format!("cold-open-{k}"))).unwrap()).unwrap())
        .collect();
    for _ in &open {
        starts.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let last = open[1];
    let before = (restored(&sample(&mut c, &dir, OPEN)), table(&mut c, last));
    let newest = last - 2;
    let kept: Vec<String> = [first, newest - 500, newest]
        .iter()
        .map(|&id| bytes(&c.result(id).unwrap()))
        .collect();

    // `kill`: the server is dropped, not shut down. Its journal is all
    // the next one has.
    drop(c);
    drop(server);
    let (svc2, starts2) = GatedService::new();
    let (server2, addr2, _stop2) = start(&dir, 2, 64, Arc::clone(&svc2));
    let mut c = Client::connect(&addr2).unwrap();
    for _ in &open {
        starts2.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let after = (restored(&sample(&mut c, &dir, OPEN)), table(&mut c, last));
    assert_eq!(after.0, before.0);
    assert_eq!(after.1, before.1, "every id answers as it did");
    for (id, result) in [first, newest - 500, newest].iter().zip(&kept) {
        assert_eq!(&bytes(&c.result(*id).unwrap()), result, "id {id}");
    }
    let mut swept = svc2.closed.lock().unwrap().clone();
    swept.sort_unstable();
    assert_eq!(swept, solves, "the chains of closed solves, swept again");
    // The open ones run to their end on the new daemon, and ids go on.
    svc2.release(2);
    for &id in &open {
        let result = c.wait(id, Duration::from_secs(10)).unwrap();
        assert_eq!(text(&result, "state"), Some("done"), "{result:?}");
    }
    let next = c.submit(&spec("warm-next")).unwrap();
    assert_eq!(submit_id(&next), Some(last + 1));
    server2.shutdown_and_wait();
    stop.cancel();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ids_never_go_backwards_across_a_compaction() {
    // One worker holds id 1; 2..=LAST wait behind it. Cancelled from the
    // highest id down, the highest ones are the first to leave the
    // table, then the journal, while lower ids are still open.
    const LAST: u64 = 2_300;
    let dir = tmp("floor");
    let (svc, starts) = GatedService::new();
    let (server, addr, stop) = start(&dir, 1, LAST as usize, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();
    for id in 1..=LAST {
        let reply = c.submit(&spec("cold")).unwrap();
        assert_eq!(submit_id(&reply), Some(id), "{reply:?}");
    }
    assert_eq!(starts.recv_timeout(Duration::from_secs(10)), Ok(1));
    for id in (2..=LAST).rev() {
        let ack = c.cancel(id).unwrap();
        assert_eq!(text(&ack, "state"), Some("cancelled"), "{ack:?}");
    }
    let stats = sample(&mut c, &dir, LAST);
    assert_eq!(number(&stats, "cancelled"), LAST - 1);
    assert_eq!(number(&stats, "retained"), RETAINED + 1);
    assert_eq!(number(&c.status(LAST).unwrap(), "code"), 410);

    // The journal starts over from a head record that remembers how far
    // the ids went, and holds no id above the ones still in the table.
    let records = read_records(&dir.join(journal::JOURNAL_FILE));
    let head: Head = records[0].decode().expect("a head record first");
    assert_eq!(head.floor, LAST + 1);
    let replay = Replay::of(&dir.join(journal::JOURNAL_FILE));
    let highest = replay.requests.iter().map(|r| r.id).max().unwrap();
    assert!(highest < LAST - RETAINED, "{highest}");
    assert_eq!(replay.next_id(), LAST + 1);

    drop(c);
    drop(server);
    let (svc2, starts2) = GatedService::new();
    let (server2, addr2, _stop2) = start(&dir, 1, 8, Arc::clone(&svc2));
    let mut c = Client::connect(&addr2).unwrap();
    assert_eq!(starts2.recv_timeout(Duration::from_secs(10)), Ok(1));
    let after = c.stats().unwrap();
    assert_eq!(restored(&after), restored(&stats));
    let next = c.submit(&spec("warm-next")).unwrap();
    assert_eq!(submit_id(&next), Some(LAST + 1), "{next:?}");
    assert_eq!(number(&c.status(LAST).unwrap(), "code"), 410);
    svc2.release(1);
    server2.shutdown_and_wait();
    stop.cancel();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn what_a_daemon_admits_after_a_torn_journal_tail_survives_the_next_restart() {
    let dir = tmp("torn");
    let j = Journal::in_dir(&dir).unwrap();
    let quiet = Chaos::disabled();
    let first = spec("cold-0");
    j.submitted(1, &first, &quiet).unwrap();
    let done = GatedService::body("worker", &first, 1);
    j.terminal(journal::K_DONE, 1, done, &quiet).unwrap();
    let whole = std::fs::read(j.path()).unwrap();

    // A start over a journal without a tear leaves it as it was.
    let (svc, _starts) = GatedService::new();
    let (server, _addr, stop) = start(&dir, 1, 8, svc);
    assert_eq!(std::fs::read(j.path()).unwrap(), whole);
    drop(server);
    stop.cancel();

    // The daemon died half-way through its next append.
    let mut torn = whole.clone();
    torn.extend_from_slice(br#"{"sum":"0123456789abcdef","rec":{"v":1,"ki"#);
    std::fs::write(j.path(), &torn).unwrap();
    let (svc, starts) = GatedService::new();
    let (server, addr, stop) = start(&dir, 1, 8, Arc::clone(&svc));
    let mut c = Client::connect(&addr).unwrap();
    let solve = submit_id(&c.submit(&spec("cold-1")).unwrap()).unwrap();
    assert_eq!(starts.recv_timeout(Duration::from_secs(10)), Ok(solve));
    svc.release(1);
    c.wait(solve, Duration::from_secs(10)).unwrap();
    let repeat = c.submit(&spec("warm-1")).unwrap();
    assert_eq!(text(&repeat, "state"), Some("done"), "{repeat:?}");
    let ids = [1, solve, submit_id(&repeat).unwrap()];
    let answers = |c: &mut Client| -> Vec<String> {
        let replies = ids.iter().flat_map(|&id| [c.status(id), c.result(id)]);
        replies.map(|reply| bytes(&reply.unwrap())).collect()
    };
    let before = answers(&mut c);
    assert!(
        before.iter().all(|a| a.contains(r#""ok":true"#)),
        "{before:?}"
    );

    drop(c);
    drop(server);
    let (svc2, _starts2) = GatedService::new();
    let (server2, addr2, _stop2) = start(&dir, 1, 8, svc2);
    let mut c = Client::connect(&addr2).unwrap();
    assert_eq!(answers(&mut c), before, "every id answers as it did");
    server2.shutdown_and_wait();
    stop.cancel();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_compaction_killed_at_any_record_leaves_the_old_journal_or_the_new() {
    let dir = tmp("killed");
    let j = Journal::in_dir(&dir).unwrap();
    let quiet = Chaos::disabled();
    let x = spec("x");
    let done = Value::Str("plan".to_string());
    for id in 1..=6 {
        j.submitted(id, &x, &quiet).unwrap();
    }
    j.terminal(journal::K_DONE, 2, done.clone(), &quiet)
        .unwrap();
    j.answered(5, done.clone(), &quiet).unwrap();
    j.terminal(journal::K_CANCELLED, 1, Value::Null, &quiet)
        .unwrap();
    let old_bytes = std::fs::read(j.path()).unwrap();
    let old = format!("{:?}", Replay::of(j.path()));

    // Requests 1 and 3 are dropped; 2 and 5 stay closed, 4 and 6 open.
    let head = Head {
        floor: 7,
        expired: Totals {
            cancelled: 1,
            ..Totals::default()
        },
    };
    let kept = || {
        let request = |id, terminal, answered| Kept {
            id,
            spec: &x,
            terminal,
            answered,
        };
        [
            request(2, Some((journal::K_DONE, &done)), false),
            request(5, Some((journal::K_DONE, &done)), true),
            request(4, None, false),
            request(6, None, false),
        ]
    };
    let records = journal::compaction(head, kept()).count();
    assert_eq!(records, 7, "the head, two records closed, one open");
    for k in 0..records {
        let kill = Chaos::new(FaultPlan::parse(&format!("kill@{k}")).unwrap());
        let died = std::panic::catch_unwind(|| {
            let dying = journal::compaction(head, kept()).inspect(|_| {
                assert!(!kill.should_fire(FaultClass::Kill), "killed at record {k}");
            });
            Chain::new(j.path(), &quiet).restart(dying)
        });
        assert!(died.is_err(), "kill@{k} fires");
        assert_eq!(std::fs::read(j.path()).unwrap(), old_bytes, "kill@{k}");
        assert_eq!(format!("{:?}", Replay::of(j.path())), old, "kill@{k}");
    }
    // Left alone, it is the new journal: whatever the dead ones left
    // beside it is written over.
    assert_eq!(j.compact(head, kept(), &quiet).unwrap(), records);
    let new = Replay::of(j.path());
    assert_eq!(new.head, head);
    assert_eq!(new.lines, records);
    assert_eq!(new.closed, [2, 5]);
    let ids: Vec<u64> = new.requests.iter().map(|r| r.id).collect();
    assert_eq!(ids, [2, 5, 4, 6]);
    assert_eq!(new.next_id(), 7);
    let _ = std::fs::remove_dir_all(&dir);
}
