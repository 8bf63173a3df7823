//! The traced run's span store.
//!
//! Spans are recorded by the harness around each call into a layer —
//! nothing inside the planner crates is touched — kept in memory, and
//! turned into per-layer metrics (median duration per span name) when
//! the run ends. A span's name *is* its metric's name; `BENCHMARK.json`
//! gives the unit the median is reported in.

use crate::stats::median;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the span that was open when this one
/// started; spans of one operation share `op_id`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: f64,
    pub end_ns: f64,
    pub parent: Option<usize>,
    pub op_id: String,
}

/// In-memory span store plus the counts taken at the same boundaries.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> f64 {
        self.t0.elapsed().as_nanos() as f64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: &str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0.0,
            end_ns: 0.0,
            parent: self.open.last().copied(),
            op_id: op_id.to_string(),
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Record a span measured elsewhere: a client thread's own clock, or
    /// the per-call share of a timed batch.
    pub fn push_measured(&mut self, name: &'static str, op_id: &str, dur_ns: f64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns - dur_ns,
            end_ns,
            parent: self.open.last().copied(),
            op_id: op_id.to_string(),
        });
    }

    /// Set a count or ratio metric.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Median duration of `name` in `unit`; `None` when the span never
    /// ran.
    pub fn median_in(&self, name: &str, unit: &str) -> Option<f64> {
        let d = self.durations_ns(name);
        (!d.is_empty()).then(|| median(&d) / ns_per_unit(unit))
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] = (own[parent] - (s.end_ns - s.start_ns)).max(0.0);
            }
        }
        own
    }

    /// The value of metric `name`: a count set with [`Recorder::count`],
    /// else the median duration of the spans of that name in `unit`.
    pub fn metric(&self, name: &str, unit: &str) -> Option<f64> {
        match self.counts.get(name) {
            Some(&v) => Some(v),
            None => self.median_in(name, unit),
        }
    }

    /// Every name this recorder holds a value for.
    #[cfg(test)]
    pub fn names(&self) -> std::collections::BTreeSet<&'static str> {
        self.counts
            .keys()
            .copied()
            .chain(self.spans.iter().map(|s| s.name))
            .collect()
    }

    /// The raw trace, one object per span, for `--trace-out`.
    pub fn to_json(&self) -> Value {
        let self_ns = self.self_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                json!({
                    "name": s.name,
                    "start_us": s.start_ns / 1e3,
                    "end_us": s.end_ns / 1e3,
                    "self_us": self_ns / 1e3,
                    "parent": s.parent.map(|p| p as f64),
                    "op_id": s.op_id
                })
            })
            .collect();
        Value::Array(spans)
    }
}

/// Nanoseconds per time unit.
pub fn ns_per_unit(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        other => panic!("`{other}` is not a time unit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.time("outer_us", "op", |rec| {
            rec.time("inner_us", "op", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = rec.durations_ns("outer_us")[0];
        let inner = rec.durations_ns("inner_us")[0];
        assert!(outer >= inner);
        assert_eq!(rec.self_ns(), [outer - inner, inner]);
        let trace = rec.to_json();
        let spans = trace.as_array().unwrap();
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert!(spans[0].get("parent").unwrap().is_null());
    }

    #[test]
    fn a_metric_is_a_count_or_a_span_median() {
        let mut rec = Recorder::default();
        rec.push_measured("a.call_us", "op", 4_000.0);
        rec.push_measured("a.call_us", "op", 2_000.0);
        rec.push_measured("a.call_us", "op", 9_000.0);
        rec.count("a.calls", 3.0);
        assert_eq!(rec.metric("a.call_us", "us"), Some(4.0));
        assert_eq!(rec.metric("a.call_us", "ms"), Some(0.004));
        assert_eq!(rec.metric("a.calls", "count"), Some(3.0));
        assert_eq!(rec.metric("a.missing_us", "us"), None);
        assert_eq!(
            rec.names().into_iter().collect::<Vec<_>>(),
            ["a.call_us", "a.calls"]
        );
    }
}
