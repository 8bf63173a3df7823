//! Unified telemetry for the NeuroPlan pipeline.
//!
//! Every subsystem (LP solver, Benders master, evaluator, RL trainer)
//! reports through the same [`Telemetry`] handle: monotonically
//! increasing **counters**, point-in-time **metrics**, and wall-clock
//! **spans**. The handle is cheap to clone (an `Arc` internally) and a
//! disabled handle is a single `Option` check per call, so instrumented
//! hot paths cost nothing when telemetry is off — the micro-benchmarks
//! run with the no-op handle.
//!
//! Sinks:
//! - [`Telemetry::noop`] — discard everything (the default everywhere);
//! - [`Telemetry::memory`] — keep running totals only: each counter's
//!   sum and each span's count, duration and self time. Its memory grows
//!   with the number of distinct names, never with the number of
//!   events, so a long-running daemon can keep one;
//! - [`Telemetry::jsonl`] — append one JSON object per event to a file
//!   (the `--telemetry <path>` CLI flag), *and* keep the same totals so
//!   a run can render a summary afterwards. The file is the only event
//!   log; metrics ([`Telemetry::record`]) have no total and reach only
//!   the file. Past 64 MiB the file moves to `<path>.1` and `<path>`
//!   starts again, so a daemon's log stays bounded on disk.
//!
//! The JSONL schema is flat and stable (guarded by a golden test in
//! `tests/serialization.rs`):
//!
//! ```json
//! {"t_us":12,"sys":"lp","event":"counter","name":"bb_nodes","value":3}
//! {"t_us":34,"sys":"rl","event":"metric","name":"mean_return","value":-1.5}
//! {"t_us":56,"sys":"eval","event":"span","name":"check","dur_us":420,"self_us":420}
//! ```
//!
//! Spans carry both an inclusive duration (`dur_us`) and a
//! **parent-exclusive self time** (`self_us`): the part of `dur_us` not
//! covered by spans nested inside it on the same thread. Aggregating
//! `self_us` instead of `dur_us` is what makes the `--profile`
//! breakdown sum to ≤ total wall even though `span("plan")` encloses
//! `span("lp")`. Recorded spans ([`Telemetry::record_span`] /
//! [`Telemetry::record_span_parts`]) charge their *self* time to the
//! enclosing live span, clipped to the wall that span has not yet
//! handed to other children.
//!
//! The `lp` subsystem additionally reports the sparse revised simplex's
//! performance counters (DESIGN.md §12): `lp.refactorizations` (basis
//! factorizations), `lp.eta_len` (summed per-solve peak eta-file
//! lengths), `lp.warm_start_pivots` (pivots spent in warm-started
//! re-optimizations), and `lp.cold_solves` (LPs solved without a
//! reusable basis). Warm-start effectiveness is the ratio of
//! `warm_start_pivots` to `simplex_iterations`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, Once, Weak};
use std::time::Instant;

pub mod profile;

/// Process-global profiling switch, flipped by the CLI's `--profile`
/// flag (and by benches). When on, the solver layers that normally skip
/// stage timing (LP factorize/ftran-btran/pricing laps, evaluator MWU
/// and exact-LP spans) read the clock and emit their breakdowns. The
/// flag changes *timing collection only* — never arithmetic — so plan
/// costs and telemetry counters are identical with it on or off (pinned
/// by `tests/profile_invariants.rs`).
static PROFILING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Turn the process-global profiling switch on or off.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Is the process-global profiling switch on?
pub fn profiling() -> bool {
    PROFILING.load(std::sync::atomic::Ordering::Relaxed)
}

/// Subsystem labels used across the workspace, so call sites and tests
/// can't drift apart on spelling.
pub mod sys {
    pub const LP: &str = "lp";
    pub const MASTER: &str = "master";
    pub const EVAL: &str = "eval";
    pub const RL: &str = "rl";
    pub const PIPELINE: &str = "pipeline";
    pub const POOL: &str = "pool";
    pub const SUPERVISOR: &str = "supervisor";
    pub const SERVE: &str = "serve";
}

/// One telemetry event, as written to the JSONL sink. Only a sink with
/// a JSONL writer builds one.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the handle was created.
    pub t_us: u64,
    /// Emitting subsystem (see [`sys`]).
    pub sys: String,
    /// Counter / metric / span payload.
    pub kind: EventKind,
    /// Event name within the subsystem.
    pub name: String,
}

/// The payload of an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A monotone count increment (the delta, not the running total).
    Counter(u64),
    /// A point-in-time measurement.
    Metric(f64),
    /// A completed wall-clock span: inclusive duration plus the
    /// parent-exclusive self time (`self_us ≤ dur_us`).
    Span { dur_us: u64, self_us: u64 },
}

impl Event {
    fn kind_str(&self) -> &'static str {
        match self.kind {
            EventKind::Counter(_) => "counter",
            EventKind::Metric(_) => "metric",
            EventKind::Span { .. } => "span",
        }
    }
}

// The serde impl is written out by hand (not derived) so the on-disk
// schema is explicit here and cannot drift with derive behavior.
impl serde::Serialize for Event {
    fn to_value(&self) -> serde::Value {
        let mut obj: Vec<(String, serde::Value)> = vec![
            ("t_us".into(), serde::Value::Num(self.t_us as f64)),
            ("sys".into(), serde::Value::Str(self.sys.clone())),
            ("event".into(), serde::Value::Str(self.kind_str().into())),
            ("name".into(), serde::Value::Str(self.name.clone())),
        ];
        match &self.kind {
            EventKind::Counter(v) => obj.push(("value".into(), serde::Value::Num(*v as f64))),
            EventKind::Metric(v) => obj.push(("value".into(), serde::Value::Num(*v))),
            EventKind::Span { dur_us, self_us } => {
                obj.push(("dur_us".into(), serde::Value::Num(*dur_us as f64)));
                obj.push(("self_us".into(), serde::Value::Num(*self_us as f64)));
            }
        }
        serde::Value::Object(obj)
    }
}

/// Totals by subsystem, then by name. A lookup borrows both `&str`s, so
/// only the first event of a name allocates.
type Totals<T> = BTreeMap<String, BTreeMap<String, T>>;

/// The total of `sys/name`, inserted as `T::default()` on first sight.
fn total<'a, T: Default>(map: &'a mut Totals<T>, sys: &str, name: &str) -> &'a mut T {
    if !map.contains_key(sys) {
        map.insert(sys.to_string(), BTreeMap::new());
    }
    let names = map.get_mut(sys).expect("inserted above");
    if !names.contains_key(name) {
        names.insert(name.to_string(), T::default());
    }
    names.get_mut(name).expect("inserted above")
}

/// Every total of `map` with its (sys, name), ordered by (sys, name).
fn flatten<T>(map: &Totals<T>) -> impl Iterator<Item = (&String, &String, &T)> {
    (map.iter()).flat_map(|(s, names)| names.iter().map(move |(n, t)| (s, n, t)))
}

/// In-memory totals, kept whenever telemetry is enabled.
#[derive(Default)]
struct Store {
    /// Running totals per (sys, name).
    counters: Totals<u64>,
    /// Span count, total duration, and total self time per (sys, name).
    spans: Totals<(u64, u64, u64)>,
}

// Per-thread stack of live `SpanGuard`s: each entry is the span's start
// and its child-time accumulator. When a guard drops it subtracts the
// accumulated child time from its own duration (→ self time) and
// charges its full duration to the parent entry. Replayed/deferred
// spans (`record_span`) charge only their *self* time to the top entry,
// because a flat replay stream contains every descendant and each one
// charges the same enclosing span — and never more than the wall that
// span has left, so time measured on parallel workers (CPU-seconds) is
// clipped to wall and self times keep summing to at most the wall.
thread_local! {
    static SPAN_STACK: RefCell<Vec<(Instant, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Push a live span started at `start`; returns the entry's depth
/// (stack length after the push) so a non-LIFO drop can still find it.
fn stack_push(start: Instant) -> usize {
    SPAN_STACK.with(|s| {
        let mut st = s.borrow_mut();
        st.push((start, 0));
        st.len()
    })
}

/// Pop the entry pushed at `depth`, merging any abandoned deeper
/// entries, then charge `dur_us` to the new top (the parent). Returns
/// the accumulated child time for the popped entry.
fn stack_pop_and_charge(depth: usize, dur_us: u64) -> u64 {
    SPAN_STACK.with(|s| {
        let mut st = s.borrow_mut();
        let mut child_us = 0;
        while st.len() >= depth {
            child_us += st.pop().expect("len >= depth >= 1").1;
        }
        if let Some((_, top)) = st.last_mut() {
            *top = top.saturating_add(dur_us);
        }
        child_us
    })
}

/// Charge a leaf/replayed span's self time to the enclosing live span
/// on this thread, if any; returns the part of it that span had room
/// for (all of it when nothing is live).
fn stack_charge(self_us: u64) -> u64 {
    SPAN_STACK.with(|s| match s.borrow_mut().last_mut() {
        None => self_us,
        Some((start, child_us)) => {
            let elapsed = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let charged = self_us.min(elapsed.saturating_sub(*child_us));
            *child_us += charged;
            charged
        }
    })
}

/// The size past which a JSONL sink's file is rotated: at most two files
/// of about this size are on disk, however long the sink lives.
const JSONL_ROTATE_BYTES: u64 = 64 << 20;

/// A JSONL sink's file. Once a whole line takes it past `cap` bytes it is
/// flushed and renamed to `<path>.1` (replacing an older one), and a new
/// `path` is opened, so lines stay whole and only the newest rotation is
/// kept.
struct Log {
    file: BufWriter<File>,
    path: PathBuf,
    written: u64,
    cap: u64,
}

impl Log {
    fn write_line(&mut self, line: &str) {
        let _ = self.file.write_all(line.as_bytes());
        let _ = self.file.write_all(b"\n");
        self.written += line.len() as u64 + 1;
        if self.written > self.cap {
            self.rotate();
        }
    }

    /// Best effort, as every write here: where the rename or the reopen
    /// fails, lines go on to the file already open, and the next attempt
    /// comes another `cap` bytes later.
    fn rotate(&mut self) {
        self.written = 0;
        let _ = self.file.flush();
        let mut old = self.path.clone().into_os_string();
        old.push(".1");
        if std::fs::rename(&self.path, old).is_ok() {
            if let Ok(file) = File::create(&self.path) {
                self.file = BufWriter::new(file);
            }
        }
    }
}

struct Inner {
    start: Instant,
    store: Mutex<Store>,
    writer: Option<Mutex<Log>>,
}

/// The telemetry handle threaded through the pipeline. Cloning shares
/// the sink; the no-op handle carries no allocation at all.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(noop)"),
            Some(i) => write!(
                f,
                "Telemetry(enabled, jsonl: {})",
                if i.writer.is_some() { "yes" } else { "no" }
            ),
        }
    }
}

impl Telemetry {
    /// A handle that discards everything. `Default` is the same thing.
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// A handle that keeps counter and span totals in memory and no
    /// event log — the sink of tests and of `--profile`.
    pub fn memory() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                store: Mutex::new(Store::default()),
                writer: None,
            })),
        }
    }

    /// A handle that appends JSONL to `path` (truncating any existing
    /// file) and also keeps the in-memory totals.
    ///
    /// The sink is crash-safe: a process-wide panic hook flushes every
    /// live JSONL writer the moment a panic starts (before any unwind
    /// that might be cut short by an abort), and dropping the last
    /// handle flushes on the way out — so a crashed run still leaves a
    /// parseable telemetry file up to its final buffered event. Past
    /// 64 MiB the file is rotated to `<path>.1`.
    pub fn jsonl(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::jsonl_rotating_at(path.as_ref(), JSONL_ROTATE_BYTES)
    }

    /// [`Telemetry::jsonl`] with the rotation size `cap` in bytes.
    pub(crate) fn jsonl_rotating_at(path: &Path, cap: u64) -> io::Result<Self> {
        let file = File::create(path)?;
        let log = Log {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            written: 0,
            cap,
        };
        let inner = Arc::new(Inner {
            start: Instant::now(),
            store: Mutex::new(Store::default()),
            writer: Some(Mutex::new(log)),
        });
        register_for_panic_flush(&inner);
        Ok(Telemetry { inner: Some(inner) })
    }

    /// Whether events are recorded at all. Call sites with non-trivial
    /// payload construction should check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to counter `sys/name` (emits one counter event).
    #[inline]
    pub fn incr(&self, sys: &str, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        if delta == 0 {
            return;
        }
        inner.emit(sys, name, EventKind::Counter(delta));
    }

    /// Record a point-in-time measurement. Metrics have no total: only
    /// a JSONL sink keeps them, as lines of its file.
    #[inline]
    pub fn record(&self, sys: &str, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.emit(sys, name, EventKind::Metric(value));
    }

    /// Record a completed span with an explicit duration. This is how
    /// parallel phases replay per-worker buffers into a shared sink in a
    /// deterministic order (the duration was measured on the worker,
    /// only the emission is deferred), and how accumulated stage timers
    /// (e.g. the simplex's factorize/ftran/pricing clocks) surface as
    /// spans. The span is treated as a leaf: `self_us = dur_us`, and
    /// that self time is charged to the enclosing live span so the
    /// parent's own self time stays exclusive.
    #[inline]
    pub fn record_span(&self, sys: &str, name: &str, dur_us: u64) {
        self.record_span_parts(sys, name, dur_us, dur_us);
    }

    /// Record a completed span with explicit duration *and* self time
    /// (a replayed span that already excluded its nested children).
    /// Charges `self_us` to the enclosing live span on this thread —
    /// clipped, in the charge and in the recorded event alike, to the
    /// wall that span has not yet handed to other children.
    #[inline]
    pub fn record_span_parts(&self, sys: &str, name: &str, dur_us: u64, self_us: u64) {
        let Some(inner) = &self.inner else { return };
        let self_us = stack_charge(self_us);
        inner.emit(sys, name, EventKind::Span { dur_us, self_us });
    }

    /// Start a wall-clock span; the event is emitted when the guard
    /// drops. On a no-op handle this doesn't even read the clock.
    /// Both labels are `'static` ([`sys`] constants and literals), so
    /// the guard copies no string.
    #[inline]
    pub fn span(&self, sys: &'static str, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard {
                tel: Telemetry::noop(),
                sys,
                name,
                start: None,
                depth: 0,
            },
            Some(_) => {
                let start = Instant::now();
                SpanGuard {
                    tel: self.clone(),
                    sys,
                    name,
                    start: Some(start),
                    depth: stack_push(start),
                }
            }
        }
    }

    /// Flush the JSONL writer (no-op for other sinks).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush_writer();
        }
    }

    /// Running total of counter `sys/name`; 0 when disabled or unseen.
    pub fn counter(&self, sys: &str, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| lock(&i.store).counters.get(sys)?.get(name).copied())
            .unwrap_or(0)
    }

    /// All counter totals, ordered by (sys, name).
    pub fn counters(&self) -> Vec<(String, String, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => flatten(&lock(&i.store).counters)
                .map(|(s, n, v)| (s.clone(), n.clone(), *v))
                .collect(),
        }
    }

    /// Span aggregates as (sys, name, count, total_us, self_us), ordered
    /// by (sys, name). The self-time column is what the `--profile`
    /// breakdown consumes: it sums to ≤ total wall on serial streams.
    pub fn spans_self(&self) -> Vec<(String, String, u64, u64, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => flatten(&lock(&i.store).spans)
                .map(|(s, n, (c, t, se))| (s.clone(), n.clone(), *c, *t, *se))
                .collect(),
        }
    }

    /// Microseconds since this handle was created; 0 when disabled.
    pub fn elapsed_us(&self) -> u64 {
        self.inner.as_ref().map(|i| i.now_us()).unwrap_or(0)
    }

    /// A human-readable per-subsystem breakdown of counters and span
    /// times; empty string when disabled.
    pub fn render_summary(&self) -> String {
        if self.inner.is_none() {
            return String::new();
        }
        let mut out = String::new();
        let spans = self.spans_self();
        if !spans.is_empty() {
            out.push_str("phase times:\n");
            for (sys, name, count, total_us, self_us) in &spans {
                writeln!(
                    out,
                    "  {sys:<8} {name:<28} {:>10.3} ms  self {:>10.3} ms  ({count} span{})",
                    *total_us as f64 / 1e3,
                    *self_us as f64 / 1e3,
                    if *count == 1 { "" } else { "s" }
                )
                .unwrap();
            }
        }
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (sys, name, value) in &counters {
                writeln!(out, "  {sys:<8} {name:<28} {value:>10}").unwrap();
            }
        }
        out
    }
}

impl Inner {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Add the event to the totals and, on a JSONL sink, write its line.
    /// Only a name's first event and a JSONL line allocate.
    fn emit(&self, sys: &str, name: &str, kind: EventKind) {
        match kind {
            EventKind::Counter(delta) => {
                *total(&mut lock(&self.store).counters, sys, name) += delta;
            }
            EventKind::Span { dur_us, self_us } => {
                let mut store = lock(&self.store);
                let slot = total(&mut store.spans, sys, name);
                slot.0 += 1;
                slot.1 += dur_us;
                slot.2 += self_us;
            }
            EventKind::Metric(_) => {}
        }
        if let Some(w) = &self.writer {
            let event = Event {
                t_us: self.now_us(),
                sys: sys.to_string(),
                kind,
                name: name.to_string(),
            };
            let line = serde_json::to_string(&event).expect("event serializes");
            lock(w).write_line(&line);
        }
    }

    fn flush_writer(&self) {
        if let Some(w) = &self.writer {
            let _ = lock(w).file.flush();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // `BufWriter` flushes on drop too, but only best-effort and only
        // if the drop actually runs; doing it explicitly keeps the
        // guarantee independent of the writer's internals.
        self.flush_writer();
    }
}

/// Live JSONL sinks, flushed by the panic hook. Weak references so a
/// finished run's sink can actually drop (and flush) normally.
static SINKS: Mutex<Vec<Weak<Inner>>> = Mutex::new(Vec::new());
static PANIC_HOOK: Once = Once::new();

fn register_for_panic_flush(inner: &Arc<Inner>) {
    let mut sinks = lock(&SINKS);
    sinks.retain(|w| w.strong_count() > 0);
    sinks.push(Arc::downgrade(inner));
    drop(sinks);
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            for w in lock(&SINKS).iter() {
                if let Some(inner) = w.upgrade() {
                    inner.flush_writer();
                }
            }
            prev(info);
        }));
    });
}

/// Lock ignoring poisoning: telemetry must never compound a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Emits a span event when dropped. Obtained from [`Telemetry::span`].
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    tel: Telemetry,
    sys: &'static str,
    name: &'static str,
    start: Option<Instant>,
    /// Position of this guard's child-time accumulator in the
    /// per-thread span stack (stack length right after the push).
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let Some(inner) = &self.tel.inner else { return };
        let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let child_us = stack_pop_and_charge(self.depth, dur_us);
        let self_us = dur_us.saturating_sub(child_us);
        inner.emit(self.sys, self.name, EventKind::Span { dur_us, self_us });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let tel = Telemetry::noop();
        tel.incr(sys::LP, "bb_nodes", 3);
        tel.record(sys::RL, "mean_return", 1.0);
        drop(tel.span(sys::EVAL, "check"));
        assert!(!tel.is_enabled());
        assert!(tel.counters().is_empty());
        assert!(tel.spans_self().is_empty());
        assert_eq!(tel.counter(sys::LP, "bb_nodes"), 0);
    }

    #[test]
    fn memory_sink_aggregates_counters() {
        let tel = Telemetry::memory();
        tel.incr(sys::LP, "bb_nodes", 3);
        tel.incr(sys::LP, "bb_nodes", 4);
        tel.incr(sys::EVAL, "scenario_checks", 1);
        tel.incr(sys::EVAL, "zero_delta", 0); // dropped
        assert_eq!(tel.counter(sys::LP, "bb_nodes"), 7);
        assert_eq!(tel.counter(sys::EVAL, "scenario_checks"), 1);
        let names: Vec<(String, String)> =
            tel.counters().into_iter().map(|(s, n, _)| (s, n)).collect();
        assert_eq!(
            names,
            [
                (sys::EVAL.to_string(), "scenario_checks".to_string()),
                (sys::LP.to_string(), "bb_nodes".to_string()),
            ]
        );
    }

    #[test]
    fn clones_share_the_sink() {
        let tel = Telemetry::memory();
        let clone = tel.clone();
        clone.incr(sys::MASTER, "cut_rounds", 2);
        assert_eq!(tel.counter(sys::MASTER, "cut_rounds"), 2);
    }

    #[test]
    fn spans_accumulate_count_and_duration() {
        let tel = Telemetry::memory();
        for _ in 0..3 {
            let _s = tel.span(sys::PIPELINE, "first_stage");
        }
        let spans = tel.spans_self();
        assert_eq!(spans.len(), 1);
        let (s, n, count, _total, _self) = &spans[0];
        assert_eq!(
            (s.as_str(), n.as_str(), *count),
            (sys::PIPELINE, "first_stage", 3)
        );
        let summary = tel.render_summary();
        assert!(summary.contains("first_stage"), "{summary}");
    }

    #[test]
    fn replayed_spans_merge_with_live_spans() {
        let tel = Telemetry::memory();
        drop(tel.span(sys::EVAL, "check"));
        tel.record_span(sys::EVAL, "check", 250);
        let spans = tel.spans_self();
        assert_eq!(spans.len(), 1);
        let (_, _, count, total_us, _) = &spans[0];
        assert_eq!(*count, 2);
        assert!(*total_us >= 250);
    }

    #[test]
    fn jsonl_sink_writes_one_event_per_line() {
        let path =
            std::env::temp_dir().join(format!("np-telemetry-test-{}.jsonl", std::process::id()));
        let tel = Telemetry::jsonl(&path).unwrap();
        tel.incr(sys::LP, "bb_nodes", 5);
        tel.record(sys::RL, "mean_return", -2.5);
        drop(tel.span(sys::EVAL, "check"));
        tel.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let events: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        fn kind(e: &serde_json::Value) -> Option<&str> {
            e.get("event")?.as_str()
        }
        let value = |e: &serde_json::Value| e.get("value")?.as_f64();
        assert_eq!(events.len(), 3);
        assert_eq!(
            (kind(&events[0]), value(&events[0])),
            (Some("counter"), Some(5.0))
        );
        assert_eq!(
            (kind(&events[1]), value(&events[1])),
            (Some("metric"), Some(-2.5))
        );
        assert_eq!(kind(&events[2]), Some("span"));
        // And the live aggregation is available alongside the file.
        assert_eq!(tel.counter(sys::LP, "bb_nodes"), 5);
    }

    #[test]
    fn panic_hook_flushes_the_buffered_tail() {
        let path = std::env::temp_dir().join(format!(
            "np-telemetry-panic-test-{}.jsonl",
            std::process::id()
        ));
        let tel = Telemetry::jsonl(&path).unwrap();
        tel.incr(sys::LP, "bb_nodes", 9);
        // No flush: the event sits in the BufWriter. A panic anywhere in
        // the process must push it to disk via the hook.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let result = std::panic::catch_unwind(|| panic!("injected test panic"));
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let events: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(events.len(), 1, "buffered tail survived the panic");
        assert_eq!(
            events[0].get("event").and_then(|k| k.as_str()),
            Some("counter")
        );
        assert_eq!(events[0].get("value").and_then(|v| v.as_u64()), Some(9));
    }

    /// Past its cap the live file moves to `<path>.1`, replacing the
    /// older one: the two files hold the newest events, in order, as
    /// whole lines, and neither grows much past the cap.
    #[test]
    fn jsonl_sink_rotates_past_its_cap() {
        let path = std::env::temp_dir().join(format!(
            "np-telemetry-rotate-test-{}.jsonl",
            std::process::id()
        ));
        let old = path.with_extension("jsonl.1");
        let cap = 2_000;
        let tel = Telemetry::jsonl_rotating_at(&path, cap).unwrap();
        let n = 500u64;
        for i in 1..=n {
            tel.incr(sys::EVAL, "scenario_checks", i);
        }
        tel.flush();
        let (older, live) = (
            std::fs::read_to_string(&old).unwrap(),
            std::fs::read_to_string(&path).unwrap(),
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&old).ok();
        let longest = older.lines().map(|l| l.len() as u64 + 1).max().unwrap();
        assert!(older.len() as u64 > cap && older.len() as u64 <= cap + longest);
        assert!(live.len() as u64 <= cap);
        assert!(older.ends_with('\n') && live.ends_with('\n'));
        let values: Vec<u64> = (older.lines().chain(live.lines()))
            .map(|l| {
                let e: serde_json::Value = serde_json::from_str(l).unwrap();
                e.get("value").and_then(|v| v.as_u64()).unwrap()
            })
            .collect();
        // The newest events, consecutive, and fewer than were written:
        // the earlier rotations were replaced.
        let first = n + 1 - values.len() as u64;
        assert!(first > 1, "{} lines kept of {n}", values.len());
        assert!(values.iter().copied().eq(first..=n));
        // The totals do not rotate.
        assert_eq!(tel.counter(sys::EVAL, "scenario_checks"), n * (n + 1) / 2);
    }

    #[test]
    fn dropping_the_last_handle_flushes() {
        let path = std::env::temp_dir().join(format!(
            "np-telemetry-drop-test-{}.jsonl",
            std::process::id()
        ));
        let tel = Telemetry::jsonl(&path).unwrap();
        tel.incr(sys::EVAL, "scenario_checks", 1);
        drop(tel);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 1);
    }

    /// Busy-wait so nested spans accrue measurable, deterministic-enough
    /// durations without `thread::sleep` flakiness.
    fn spin_us(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_parent_exclusive_self_time() {
        let tel = Telemetry::memory();
        {
            let _plan = tel.span(sys::PIPELINE, "plan");
            spin_us(2_000);
            {
                let _lp = tel.span(sys::LP, "solve_mip");
                spin_us(3_000);
                drop(tel.span(sys::LP, "factorize")); // zero-length leaf
            }
            spin_us(1_000);
        }
        let by_name: BTreeMap<String, (u64, u64)> = tel
            .spans_self()
            .into_iter()
            .map(|(_, n, _, t, s)| (n, (t, s)))
            .collect();
        let (plan_total, plan_self) = by_name["plan"];
        let (lp_total, lp_self) = by_name["solve_mip"];
        // The inner span's full duration is excluded from the outer's
        // self time, so the self times sum to ≤ the outer total (= the
        // stream's total wall).
        assert!(plan_self <= plan_total - lp_total + 10);
        assert!(lp_self <= lp_total);
        let self_sum: u64 = tel.spans_self().iter().map(|(_, _, _, _, s)| *s).sum();
        assert!(
            self_sum <= plan_total,
            "self times {self_sum} exceed wall {plan_total}"
        );
        // And the breakdown still accounts for the bulk of the wall.
        assert!(self_sum + 500 >= plan_total, "{self_sum} vs {plan_total}");
    }

    #[test]
    fn deferred_spans_charge_the_enclosing_live_span() {
        let tel = Telemetry::memory();
        {
            let _mip = tel.span(sys::LP, "solve_mip");
            spin_us(1_000);
            // A stage timer accumulated elsewhere, surfaced as a leaf
            // span: its time must come out of solve_mip's self time.
            tel.record_span(sys::LP, "factorize", 700);
        }
        let by_name: BTreeMap<String, (u64, u64)> = tel
            .spans_self()
            .into_iter()
            .map(|(_, n, _, t, s)| (n, (t, s)))
            .collect();
        let (mip_total, mip_self) = by_name["solve_mip"];
        assert_eq!(by_name["factorize"], (700, 700));
        assert!(mip_self <= mip_total - 700 + 10);
    }

    #[test]
    fn deferred_spans_are_clipped_to_the_wall_the_live_span_has_left() {
        // Four workers' worth of stage time surfacing inside a span that
        // lasted a quarter as long: the breakdown is a wall breakdown,
        // so what does not fit is dropped, not counted beyond the wall.
        let tel = Telemetry::memory();
        {
            let _phase = tel.span(sys::RL, "forward");
            spin_us(1_000);
            tel.record_span(sys::EVAL, "mwu", 4_000_000);
            tel.record_span(sys::EVAL, "exact_lp", 500);
        }
        let by_name: BTreeMap<String, (u64, u64)> = tel
            .spans_self()
            .into_iter()
            .map(|(_, n, _, t, s)| (n, (t, s)))
            .collect();
        let (phase_total, phase_self) = by_name["forward"];
        let (mwu_total, mwu_self) = by_name["mwu"];
        assert_eq!(mwu_total, 4_000_000, "the measured duration is kept");
        assert!((1_000..=phase_total).contains(&mwu_self), "{mwu_self}");
        assert!(by_name["exact_lp"].1 <= phase_total - mwu_self);
        let self_sum: u64 = by_name.values().map(|&(_, s)| s).sum();
        assert!(self_sum <= phase_total, "{self_sum} vs {phase_total}");
        assert!(phase_self <= phase_total - mwu_self);
        // Outside any live span there is no wall to clip to.
        tel.record_span(sys::EVAL, "mwu", 7);
        assert_eq!(
            tel.spans_self().iter().find(|s| s.1 == "mwu").unwrap().4,
            mwu_self + 7
        );
    }

    #[test]
    fn recorded_nested_spans_charge_only_their_self_time() {
        // A recorded parent span (dur 100, self 40) and its child
        // (dur 60): recording them inside a live span must subtract 100
        // (their span-covered wall), not 160.
        let target = Telemetry::memory();
        {
            let _outer = tel_span_with_spin(&target, 2_000);
            target.record_span_parts(sys::EVAL, "check", 60, 60);
            target.record_span_parts(sys::EVAL, "separate", 100, 40);
        }
        let by_name: BTreeMap<String, (u64, u64)> = target
            .spans_self()
            .into_iter()
            .map(|(_, n, _, t, s)| (n, (t, s)))
            .collect();
        let (outer_total, outer_self) = by_name["outer"];
        assert_eq!(by_name["check"], (60, 60));
        assert_eq!(by_name["separate"], (100, 40));
        assert!(outer_self <= outer_total - 100 + 10);
    }

    fn tel_span_with_spin(tel: &Telemetry, us: u64) -> SpanGuard {
        let g = tel.span(sys::PIPELINE, "outer");
        spin_us(us);
        g
    }
}
