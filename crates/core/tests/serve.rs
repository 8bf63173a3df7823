//! End-to-end daemon tests that drive the real `neuroplan` binary as a
//! subprocess: round trips, cancellation, SIGTERM exit codes, and the
//! headline robustness claim — `kill -9` the daemon mid-solve, restart
//! it on the same state dir, and get the *bit-identical* plan back.
//!
//! These tests use debug-build timings (the quick preset-d spec below
//! runs for seconds), so "kill while running" windows are wide. Every assertion
//! is also valid if a race makes the solve finish first: a journaled
//! `done` terminal must survive restart byte-for-byte too.

use serde_json::{json, Value};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_neuroplan");

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A daemon subprocess plus the ephemeral address scraped from its
/// startup banner.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(state_dir: &Path, workers: usize) -> Daemon {
        let mut child = Command::new(BIN)
            .arg("serve")
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--workers", &workers.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn client(&self) -> np_serve::Client {
        np_serve::Client::connect(&self.addr).expect("connect")
    }

    /// SIGKILL — no flush, no journal terminal, no lock release.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    /// Cooperative shutdown over the protocol; waits for exit.
    fn shutdown(&mut self) {
        let _ = self.client().shutdown();
        self.child.wait().expect("daemon exit");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A relay in front of the daemon at `addr` for one connection: its
/// address, and (once that connection has closed) the `op` of every
/// frame the client sent.
fn counting_proxy(addr: &str) -> (String, std::thread::JoinHandle<Vec<String>>) {
    use np_serve::proto::{read_frame, write_frame};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy = listener.local_addr().expect("proxy address").to_string();
    let mut upstream = std::net::TcpStream::connect(addr).expect("connect upstream");
    let relay = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("one client");
        let mut ops = Vec::new();
        while let Ok(frame) = read_frame(&mut client) {
            let op = frame.get("op").and_then(|v| v.as_str()).unwrap_or("?");
            ops.push(op.to_string());
            write_frame(&mut upstream, &frame).expect("relay request");
            let reply = read_frame(&mut upstream).expect("daemon reply");
            write_frame(&mut client, &reply).expect("relay reply");
        }
        ops
    });
    (proxy, relay)
}

/// Spec that solves in well under a second even in debug builds.
fn fast_spec(seed: u64) -> Value {
    json!({"preset": "a", "seed": seed})
}

/// Spec that solves in ~3 s in debug builds (twice that with four of
/// them on two cores) — wide enough to land a cancel or a `kill -9`
/// while the worker is mid-solve — and whose second stage needs about a
/// tenth of the debug `quick()` master time limit (10 s). That margin is
/// what the bit-identity claims below rest on: a master that runs into
/// its wall-clock limit returns whatever incumbent it has by then.
/// Quick preset C sat right on that limit once the exact LP got
/// cheaper — proved optimal on an idle machine, cut off at the
/// first-stage incumbent with four solves competing for the cores.
fn slow_spec() -> Value {
    json!({"preset": "d", "seed": 3, "fill": 0.9})
}

fn state_of(status: &Value) -> String {
    status
        .get("state")
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_string()
}

/// Poll until the request leaves the queue (or is already terminal).
fn wait_until_active(client: &mut np_serve::Client, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = state_of(&client.status(id).expect("status"));
        if state != "queued" {
            return state;
        }
        assert!(Instant::now() < deadline, "request {id} never left queue");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The (units, cost_hex) pair that must be bit-stable across restarts.
fn plan_identity(result: &Value) -> (String, String) {
    let body = result.get("result").expect("result body");
    let units = serde_json::to_string(body.get("units").expect("units")).expect("json");
    let cost_hex = body
        .get("cost_hex")
        .and_then(|v| v.as_str())
        .expect("cost_hex")
        .to_string();
    (units, cost_hex)
}

#[test]
fn daemon_round_trip_over_the_binary() {
    let dir = tmp("round-trip");
    let mut daemon = Daemon::start(&dir, 1);
    let mut client = daemon.client();

    let reply = client.submit(&fast_spec(3)).expect("submit");
    let id = np_serve::client::submit_id(&reply).expect("admitted");
    let result = client.wait(id, Duration::from_secs(120)).expect("wait");

    assert_eq!(state_of(&result), "done");
    let (units, cost_hex) = plan_identity(&result);
    assert!(!units.is_empty() && !cost_hex.is_empty());

    // The same request again needs no worker: the submit reply already
    // says `done`, and the result is the cold plan served warm.
    let again = client.submit(&fast_spec(3)).expect("repeat");
    assert_eq!(state_of(&again), "done", "{again:?}");
    let id = np_serve::client::submit_id(&again).expect("admitted");
    let warm = client.result(id).expect("result");
    let served = warm.get("result").and_then(|r| r.get("cache"));
    assert_eq!(served.and_then(|v| v.as_str()), Some("warm"));
    assert_eq!(plan_identity(&warm), (units, cost_hex));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("inline_hits").and_then(|v| v.as_u64()), Some(1));

    // `request --do run` of the repeat is those two frames and no more:
    // the submit reply said `done`, so nothing is left to poll for.
    let (proxy, frames) = counting_proxy(&daemon.addr);
    let run = Command::new(BIN)
        .args(["request", "--addr", &proxy, "--do", "run"])
        .args(["--preset", "a", "--seed", "3"])
        .output()
        .expect("run request");
    assert!(run.status.success(), "{run:?}");
    let printed = String::from_utf8(run.stdout).expect("text");
    let printed: Value = serde_json::from_str(&printed).expect("a result frame");
    assert_eq!(plan_identity(&printed), plan_identity(&warm));
    let ops = frames.join().expect("proxy");
    assert_eq!(ops, ["submit", "result"], "a repeat costs two frames");
    // The same through the library, by what the daemon was asked.
    let again = client.submit(&fast_spec(3)).expect("repeat");
    let outcome = client.outcome(&again, Duration::from_secs(60));
    assert_eq!(
        plan_identity(&outcome.expect("outcome")),
        plan_identity(&warm)
    );

    // An id the daemon never issued is unknown, not expired; the CLI
    // tells the two apart by exit code.
    let unknown = client.status(1_000_000).expect("status");
    assert_eq!(unknown.get("code").and_then(|v| v.as_u64()), Some(404));
    let asked = Command::new(BIN)
        .args(["request", "--addr", &daemon.addr, "--do", "result"])
        .args(["--id", "1000000"])
        .output()
        .expect("run request");
    assert_eq!(asked.status.code(), Some(1), "{asked:?}");

    // A repeat from before the newest 1024 has expired: `410`, which
    // the CLI reports as such (exit 3, no envelope on stdout).
    for _ in 0..1_024 {
        let reply = client.submit(&fast_spec(3)).expect("repeat");
        assert_eq!(state_of(&reply), "done", "{reply:?}");
    }
    let expired = client.result(id).expect("result");
    assert_eq!(expired.get("code").and_then(|v| v.as_u64()), Some(410));
    let asked = Command::new(BIN)
        .args(["request", "--addr", &daemon.addr, "--do", "result"])
        .args(["--id", &id.to_string()])
        .output()
        .expect("run request");
    assert_eq!(asked.status.code(), Some(3), "{asked:?}");
    assert!(asked.stdout.is_empty(), "{asked:?}");
    let said = String::from_utf8_lossy(&asked.stderr);
    assert!(said.contains(&format!("request {id} expired")), "{said}");

    // Whatever solves still queues: a churn stream over the cached plan,
    // and a new alpha (its second stage).
    for spec in [
        json!({"preset": "a", "seed": 3, "events": "seed=1,n=2"}),
        json!({"preset": "a", "seed": 3, "alpha": 1.25}),
    ] {
        let reply = client.submit(&spec).expect("submit");
        assert_eq!(state_of(&reply), "queued", "{reply:?}");
        let id = np_serve::client::submit_id(&reply).expect("admitted");
        let result = client.wait(id, Duration::from_secs(120)).expect("wait");
        assert_eq!(state_of(&result), "done");
    }
    daemon.shutdown();
    // Three solves ran, each under a chain of its own; a closed request
    // has nothing to resume, so none is left.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("state dir")
        .map(|entry| entry.expect("entry").file_name())
        .filter(|name| name.to_string_lossy().starts_with("req-"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn cancel_over_the_binary_frees_the_worker() {
    let dir = tmp("cancel");
    let mut daemon = Daemon::start(&dir, 1);
    let mut client = daemon.client();

    let reply = client.submit(&slow_spec()).expect("submit");
    let id = np_serve::client::submit_id(&reply).expect("admitted");
    assert_eq!(wait_until_active(&mut client, id), "running");

    client.cancel(id).expect("cancel");
    let cancelled_at = Instant::now();
    let result = client.wait(id, Duration::from_secs(60)).expect("wait");
    assert_eq!(state_of(&result), "cancelled");

    // The single worker must be free again: a fresh fast request has to
    // run to completion, not starve behind a zombie solve.
    let reply = client.submit(&fast_spec(4)).expect("submit follow-up");
    let id = np_serve::client::submit_id(&reply).expect("admitted");
    let result = client.wait(id, Duration::from_secs(120)).expect("wait");
    assert_eq!(state_of(&result), "done");

    // Cooperative cancellation means "next stage boundary", not "after
    // the full solve" — far sooner than the ~10s the solve would take.
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(45),
        "cancel took {:?}",
        cancelled_at.elapsed()
    );
    daemon.shutdown();
}

/// kill -9 mid-solve, restart on the same state dir, and the journal
/// replay must finish the request with the exact plan a never-killed
/// daemon produces.
fn kill_nine_recovers(name: &str, workers: usize, submissions: usize) {
    // Reference: the same spec on a pristine daemon, run to completion.
    let ref_dir = tmp(&format!("{name}-ref"));
    let mut reference = Daemon::start(&ref_dir, 1);
    let mut client = reference.client();
    let reply = client.submit(&slow_spec()).expect("submit");
    let id = np_serve::client::submit_id(&reply).expect("admitted");
    let expected = plan_identity(&client.wait(id, Duration::from_secs(300)).expect("wait"));
    reference.shutdown();

    // Victim: same spec (several copies under 4 workers), killed hard.
    let dir = tmp(name);
    let mut victim = Daemon::start(&dir, workers);
    let mut client = victim.client();
    let mut ids = Vec::new();
    for _ in 0..submissions {
        let reply = client.submit(&slow_spec()).expect("submit");
        ids.push(np_serve::client::submit_id(&reply).expect("admitted"));
    }
    assert_eq!(wait_until_active(&mut client, ids[0]), "running");
    std::thread::sleep(Duration::from_millis(1500));
    victim.kill9();

    // Restart on the same dir: the stale lock must be broken, the
    // journal replayed, and every admitted request must still reach
    // `done` with the reference plan, bit for bit.
    let mut revived = Daemon::start(&dir, workers);
    let mut client = revived.client();
    for id in ids {
        let result = client.wait(id, Duration::from_secs(600)).expect("wait");
        assert_eq!(state_of(&result), "done", "request {id} after restart");
        assert_eq!(plan_identity(&result), expected, "request {id} diverged");
    }
    revived.shutdown();
}

#[test]
fn kill_nine_then_restart_is_bit_identical_one_worker() {
    kill_nine_recovers("kill9-w1", 1, 1);
}

#[test]
fn kill_nine_then_restart_is_bit_identical_four_workers() {
    kill_nine_recovers("kill9-w4", 4, 4);
}

#[test]
fn finished_result_survives_kill_nine() {
    let dir = tmp("done-survives");
    let mut daemon = Daemon::start(&dir, 1);
    let mut client = daemon.client();
    let reply = client.submit(&fast_spec(7)).expect("submit");
    let id = np_serve::client::submit_id(&reply).expect("admitted");
    let first = plan_identity(&client.wait(id, Duration::from_secs(120)).expect("wait"));
    daemon.kill9();

    let mut revived = Daemon::start(&dir, 1);
    let mut client = revived.client();
    let result = client.result(id).expect("result");
    assert_eq!(state_of(&result), "done");
    assert_eq!(plan_identity(&result), first);

    // A journaled terminal is served from the journal — no re-solve, so
    // the answer is available instantly and the queue stays empty.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("queued").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(stats.get("running").and_then(|v| v.as_u64()), Some(0));
    revived.shutdown();
}

#[test]
fn sigterm_mid_plan_exits_with_the_signal_code() {
    let dir = tmp("sigterm-plan");
    let out = dir.join("plan.json");
    let mut child = Command::new(BIN)
        .args(["plan", "--preset", "c", "--seed", "3", "--default"])
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn plan");
    // Signal once the plan has written its chain's first record: the
    // handler is installed by then and the whole first and second stage
    // are still ahead, however fast the instance plans.
    let chain = dir.join("ckpt").join("checkpoint.jsonl");
    let waited = Instant::now();
    while !std::fs::metadata(&chain).is_ok_and(|m| m.len() > 0) {
        assert!(
            waited.elapsed() < Duration::from_secs(60),
            "the plan wrote no checkpoint record"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    let start = Instant::now();
    let status = child.wait().expect("plan exit");
    // 128 + SIGTERM(15): the CLI flushed and exited at a stage boundary
    // instead of being torn down by the default signal disposition.
    assert_eq!(status.code(), Some(143), "expected graceful signal exit");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "exit took {:?} after SIGTERM",
        start.elapsed()
    );
    let mut stderr = String::new();
    use std::io::Read as _;
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        stderr.contains("interrupted by signal 15"),
        "stderr was: {stderr}"
    );
    assert!(!out.exists(), "no plan should be written after SIGTERM");
}

#[test]
fn sigterm_stops_the_daemon_resumably() {
    let dir = tmp("sigterm-daemon");
    let mut daemon = Daemon::start(&dir, 1);
    let mut client = daemon.client();
    let reply = client.submit(&slow_spec()).expect("submit");
    let id = np_serve::client::submit_id(&reply).expect("admitted");
    assert_eq!(wait_until_active(&mut client, id), "running");

    let term = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(143), "daemon signal exit code");

    // Graceful shutdown journals *no* terminal for the in-flight run,
    // so a restart resumes it to completion.
    let mut revived = Daemon::start(&dir, 1);
    let mut client = revived.client();
    let result = client.wait(id, Duration::from_secs(600)).expect("wait");
    assert_eq!(state_of(&result), "done");
    revived.shutdown();
}
