//! An enabled sink's memory does not grow with the events it sees: after
//! every name has been seen once, further counter bumps, metrics, live
//! spans and recorded spans leave the heap where it was, on the
//! in-memory sink and on the JSONL sink alike. A daemon running with
//! `--telemetry` or `--profile` would otherwise keep every event of its
//! uptime. Nor does a memory sink allocate at all for an event whose
//! name it has seen. Live bytes and allocations are counted by a wrapping
//! global allocator, per thread, so the test harness's own threads do not
//! interfere.

use np_telemetry::{sys, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + delta));
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the only addition is a thread-local byte count, which neither
// allocates (const-initialized `Cell`) nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROUNDS: usize = 100_000;
const SLACK_BYTES: i64 = 64 * 1024;

/// One call of each recording API on fixed names.
fn one_round(tel: &Telemetry) {
    tel.incr(sys::LP, "bb_nodes", 1);
    tel.record(sys::RL, "mean_return", -1.5);
    drop(tel.span(sys::EVAL, "check"));
    tel.record_span(sys::LP, "factorize", 3);
}

/// Bytes the sink still holds after `ROUNDS` more rounds than the first.
fn retained_growth(tel: &Telemetry) -> i64 {
    one_round(tel);
    let before = LIVE_BYTES.with(Cell::get);
    for _ in 0..ROUNDS {
        one_round(tel);
    }
    LIVE_BYTES.with(Cell::get) - before
}

#[test]
fn memory_sink_keeps_totals_not_events() {
    let tel = Telemetry::memory();
    let grown = retained_growth(&tel);
    assert!(
        grown <= SLACK_BYTES,
        "memory sink retained {grown} B over {ROUNDS} rounds"
    );
    assert_eq!(tel.counter(sys::LP, "bb_nodes"), ROUNDS as u64 + 1);
}

#[test]
fn jsonl_sink_keeps_totals_not_events() {
    let path = std::env::temp_dir().join(format!(
        "np-telemetry-retained-heap-{}.jsonl",
        std::process::id()
    ));
    let tel = Telemetry::jsonl(&path).expect("open sink");
    let grown = retained_growth(&tel);
    drop(tel);
    let lines = std::fs::read_to_string(&path).map(|t| t.lines().count());
    std::fs::remove_file(&path).ok();
    assert!(
        grown <= SLACK_BYTES,
        "JSONL sink retained {grown} B over {ROUNDS} rounds"
    );
    assert_eq!(lines.expect("sink file reads"), 4 * (ROUNDS + 1));
}

#[test]
fn memory_sink_allocates_nothing_for_a_seen_name() {
    let tel = Telemetry::memory();
    one_round(&tel);
    let allocs = |f: &dyn Fn()| {
        let before = ALLOCS.with(Cell::get);
        for _ in 0..1_000 {
            f();
        }
        ALLOCS.with(Cell::get) - before
    };
    assert_eq!(allocs(&|| tel.incr(sys::LP, "bb_nodes", 1)), 0, "incr");
    assert_eq!(allocs(&|| drop(tel.span(sys::EVAL, "check"))), 0, "span");
    assert_eq!(
        allocs(&|| tel.record_span(sys::LP, "factorize", 3)),
        0,
        "record_span"
    );
    assert_eq!(
        allocs(&|| tel.record(sys::RL, "mean_return", -1.5)),
        0,
        "record"
    );
}
