//! Deterministic fuzz of the length-prefixed wire protocol, the last
//! external surface that took input on trust: seeded random bytes and
//! well-formed frames with hostile members, through `proto::read_frame`
//! and through a live daemon. Never a panic, never an allocation above
//! `MAX_FRAME` (this binary's allocator keeps the largest request it has
//! seen, the daemon's threads included), and always either a typed
//! error envelope or a clean hang-up — after which the daemon answers a
//! well-formed `stats` as if nothing had happened.

use np_chaos::{CancelToken, Chaos};
use np_serve::proto::{self, MAX_FRAME};
use np_serve::{Client, PlanService, RequestCtx, Server, ServerConfig, ServiceFailure};
use np_telemetry::Telemetry;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The system allocator, remembering the largest single request.
struct Peak;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Peak = Peak;

/// splitmix64: the whole run is a function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.below(from.len())]
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Answers at admission whatever is not an object with a `cold` member;
/// that, a worker fails at once.
struct EchoService;

impl PlanService for EchoService {
    type Entry = ();

    fn warm(&self, spec: &Value, _ctx: &RequestCtx<'_, ()>) -> Option<Value> {
        spec.get("cold").is_none().then(|| spec.clone())
    }

    fn execute(&self, _spec: &Value, _ctx: &RequestCtx<'_, ()>) -> Result<Value, ServiceFailure> {
        Err(ServiceFailure::Failed("cold".to_string()))
    }
}

fn object(members: Vec<(&str, Value)>) -> Value {
    proto::obj(members)
}

fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::Null, |inner, k| match k % 2 {
        0 => Value::Array(vec![inner]),
        _ => object(vec![("spec", inner)]),
    })
}

/// A value of every JSON type, and the numbers an id must not be.
fn hostile(rng: &mut Rng) -> Value {
    let numbers = [
        -1.0,
        -0.0,
        0.5,
        18_446_744_073_709_551_616.0,
        1e300,
        -1e300,
        f64::MIN_POSITIVE,
        9_007_199_254_740_993.0,
    ];
    match rng.below(12) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Num(*rng.pick(&numbers)),
        3 => Value::Num(rng.below(6_000) as f64),
        4 => Value::Str(String::new()),
        5 => Value::Str(rng.below(6_000).to_string()),
        6 => Value::Str("\u{0}\"\\\u{fffd}\u{1f980}".repeat(rng.below(4))),
        7 => Value::Array(vec![]),
        8 => Value::Array(vec![Value::Num(1.0), Value::Null]),
        9 => object(vec![]),
        10 => object(vec![("cold", Value::Bool(true)), ("op", Value::Null)]),
        _ => nested(10),
    }
}

/// A frame the protocol can carry, with members it must refuse or take
/// at face value: any `op` but `shutdown`, any `id`, any `spec`, each
/// possibly missing.
fn hostile_frame(rng: &mut Rng) -> Value {
    let ops = [
        "submit", "submit", "status", "result", "cancel", "stats", "", "Submit", "status ", "nope",
    ];
    let mut members = Vec::new();
    match rng.below(10) {
        0 => {}
        1 => members.push(("op", hostile(rng))),
        _ => members.push(("op", Value::Str(rng.pick(&ops).to_string()))),
    }
    if rng.below(5) != 0 {
        members.push(("id", hostile(rng)));
    }
    if rng.below(3) != 0 {
        members.push(("spec", hostile(rng)));
    }
    if rng.below(4) == 0 {
        members.push(("shutdown", hostile(rng)));
    }
    // Not always an object either.
    match rng.below(20) {
        0 => hostile(rng),
        _ => object(members),
    }
}

/// A byte string no client should send: noise, or a frame damaged in its
/// prefix, its length or its payload.
fn hostile_bytes(rng: &mut Rng) -> Vec<u8> {
    let prefixed = |len: u32, body: &[u8]| [&len.to_be_bytes()[..], body].concat();
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, &hostile_frame(rng)).unwrap();
    let body = frame[4..].to_vec();
    match rng.below(10) {
        // Noise of any length, torn prefixes included.
        0 | 1 => {
            let len = rng.below(64);
            rng.bytes(len)
        }
        // A prefix that promises what never comes.
        2 => prefixed(MAX_FRAME as u32, &body),
        3 => prefixed(MAX_FRAME as u32 + 1, &body),
        4 => prefixed(u32::MAX - rng.below(1 << 20) as u32, &body),
        5 => prefixed(body.len() as u32 + 1 + rng.below(100) as u32, &body),
        // A whole frame that is not JSON, or not text.
        6 => {
            let noise = rng.bytes(body.len());
            prefixed(noise.len() as u32, &noise)
        }
        7 => {
            let mut damaged = body.clone();
            let at = rng.below(damaged.len());
            damaged[at] ^= 1 << rng.below(8);
            prefixed(damaged.len() as u32, &damaged)
        }
        8 => prefixed(body.len() as u32 / 2, &body[..body.len() / 2]),
        // Nesting that a recursive parser must refuse to follow.
        _ => {
            let deep = "[".repeat(1_000 + rng.below(200_000));
            prefixed(deep.len() as u32, deep.as_bytes())
        }
    }
}

/// `reply` is what the daemon may say: `ok`, and a typed error when not.
fn assert_envelope(reply: &Value, sent: &dyn std::fmt::Debug) {
    match reply.get("ok").and_then(|v| v.as_bool()) {
        Some(true) => {}
        Some(false) => {
            let code = reply.get("code").and_then(|v| v.as_u64());
            let known = [400, 404, 409, 410, 429, 503];
            assert!(code.is_some_and(|c| known.contains(&c)), "{reply:?}");
            let why = reply.get("error").and_then(|v| v.as_str());
            assert!(why.is_some_and(|w| !w.is_empty()), "{reply:?}");
        }
        None => panic!("{sent:?} was answered {reply:?}"),
    }
}

#[test]
fn hostile_input_yields_typed_errors_or_a_hang_up() {
    let dir = std::env::temp_dir().join(format!("np-serve-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::local(dir.clone())
    };
    let server = Server::start_with_chaos(
        cfg,
        EchoService,
        Telemetry::noop(),
        CancelToken::new(),
        Chaos::disabled(),
    )
    .expect("server starts");
    let addr = server.addr().to_string();
    let mut rng = Rng(0x5eed_0023);

    // Byte strings: through the reader all of them, one in forty also
    // down a connection of its own.
    let mut sampled = Vec::new();
    for k in 0..20_000 {
        let bytes = hostile_bytes(&mut rng);
        // An `Err` or (noise that happens to be a frame) a value.
        let _ = proto::read_frame(&mut Cursor::new(&bytes));
        if k % 40 == 0 {
            sampled.push(bytes);
        }
    }
    // Fifty connections at a time: the accept loop polls, and takes
    // whatever has queued up in one go.
    for batch in sampled.chunks(50) {
        let streams: Vec<TcpStream> = (batch.iter())
            .map(|_| TcpStream::connect(&addr).unwrap())
            .collect();
        for (mut stream, bytes) in streams.into_iter().zip(batch) {
            // A daemon that has heard enough may hang up on the rest (a
            // reset, when bytes it never read are still in flight).
            // What comes back before that is whole envelopes.
            let _ = stream.write_all(bytes);
            let _ = stream.shutdown(Shutdown::Write);
            let mut back = Vec::new();
            let _ = stream.read_to_end(&mut back);
            let mut back = Cursor::new(back);
            while (back.position() as usize) < back.get_ref().len() {
                let reply = proto::read_frame(&mut back).expect("a whole frame");
                assert_envelope(&reply, bytes);
            }
        }
    }

    // Frames: each one is answered, on one connection, by an envelope.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut answered = [0u32; 2];
    for _ in 0..20_000 {
        let frame = hostile_frame(&mut rng);
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &frame).unwrap();
        let read_back = proto::read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(read_back, frame, "a frame reads back as written");
        stream.write_all(&wire).unwrap();
        let reply = proto::read_frame(&mut stream).expect("the connection is still up");
        assert_envelope(&reply, &frame);
        answered[usize::from(reply.get("ok") == Some(&Value::Bool(true)))] += 1;
    }
    assert!(answered.iter().all(|&n| n > 2_000), "{answered:?}");

    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= MAX_FRAME, "an allocation of {largest} bytes");
    assert!(largest > MAX_FRAME / 2, "a frame at the limit was buffered");

    // And the daemon is the daemon it was: it answers, and its one
    // worker gets to the end of the queue.
    let mut client = Client::connect(&addr).unwrap();
    let count = |stats: &Value, key: &str| stats.get(key).and_then(|v| v.as_u64()).unwrap();
    let stats = loop {
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("ok"), Some(&Value::Bool(true)), "{stats:?}");
        if count(&stats, "queued") + count(&stats, "running") == 0 {
            break stats;
        }
        std::thread::yield_now();
    };
    assert!(count(&stats, "done") > 1_000, "{stats:?}");
    assert!(count(&stats, "failed") > 100, "{stats:?}");
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}
