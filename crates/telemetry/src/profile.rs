//! Per-stage self-time wall breakdown built from span aggregates.
//!
//! [`ProfileReport::from_telemetry`] turns the spans recorded by any
//! enabled [`Telemetry`](crate::Telemetry) handle into a breakdown
//! sorted by **self time** (parent-exclusive, see the crate docs), the
//! quantity that actually sums to ≤ total wall. The
//! report renders two ways:
//!
//! - [`ProfileReport::to_json`] — the stable `np-profile-v1` schema
//!   the CLI writes to `--profile-out` (golden-tested in
//!   `tests/profile_schema.rs`);
//! - [`ProfileReport::render_table`] — the sorted stderr table behind
//!   the CLI's `--profile` flag.

use crate::Telemetry;

/// One `(sys, name)` row of the breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Emitting subsystem (see [`crate::sys`]).
    pub sys: String,
    /// Span name within the subsystem.
    pub name: String,
    /// Number of spans aggregated into this row.
    pub count: u64,
    /// Inclusive duration total (child time counted in every ancestor).
    pub total_us: u64,
    /// Parent-exclusive self-time total.
    pub self_us: u64,
}

/// A sorted self-time breakdown plus the wall it is measured against.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Total wall time of the profiled region, microseconds.
    pub total_wall_us: u64,
    /// Rows sorted by descending self time (ties: by sys/name).
    pub entries: Vec<ProfileEntry>,
}

impl ProfileReport {
    /// Build a report from the span aggregates of `tel`, measured
    /// against `total_wall_us` (the caller clocks the region; pass
    /// `tel.elapsed_us()` when the handle's lifetime *is* the region).
    pub fn from_telemetry(tel: &Telemetry, total_wall_us: u64) -> ProfileReport {
        let mut entries: Vec<ProfileEntry> = tel
            .spans_self()
            .into_iter()
            .map(|(sys, name, count, total_us, self_us)| ProfileEntry {
                sys,
                name,
                count,
                total_us,
                self_us,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.self_us
                .cmp(&a.self_us)
                .then_with(|| a.sys.cmp(&b.sys))
                .then_with(|| a.name.cmp(&b.name))
        });
        ProfileReport {
            total_wall_us,
            entries,
        }
    }

    /// Sum of all self times — ≤ `total_wall_us` when the profiled
    /// region is covered by a live span: live spans nest, and deferred
    /// or replayed spans (worker CPU-seconds included) are clipped to
    /// the wall their enclosing live span has left.
    pub fn self_total_us(&self) -> u64 {
        self.entries.iter().map(|e| e.self_us).sum()
    }

    /// The `np-profile-v1` JSON document.
    pub fn to_json(&self) -> serde::Value {
        use serde::Value;
        let wall = self.total_wall_us.max(1) as f64;
        let stages: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("sys".into(), Value::Str(e.sys.clone())),
                    ("name".into(), Value::Str(e.name.clone())),
                    ("count".into(), Value::Num(e.count as f64)),
                    ("total_us".into(), Value::Num(e.total_us as f64)),
                    ("self_us".into(), Value::Num(e.self_us as f64)),
                    ("share_of_wall".into(), Value::Num(e.self_us as f64 / wall)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::Str("np-profile-v1".into())),
            (
                "total_wall_us".into(),
                Value::Num(self.total_wall_us as f64),
            ),
            (
                "self_us_total".into(),
                Value::Num(self.self_total_us() as f64),
            ),
            (
                "coverage".into(),
                Value::Num(self.self_total_us() as f64 / wall),
            ),
            ("stages".into(), Value::Array(stages)),
        ])
    }

    /// The sorted fixed-width table printed to stderr under `--profile`.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall_ms = self.total_wall_us as f64 / 1e3;
        writeln!(out, "profile: total wall {wall_ms:.3} ms").unwrap();
        writeln!(
            out,
            "  {:<10} {:<28} {:>8} {:>12} {:>12} {:>7}",
            "sys", "stage", "count", "total ms", "self ms", "wall%"
        )
        .unwrap();
        let wall = self.total_wall_us.max(1) as f64;
        for e in &self.entries {
            writeln!(
                out,
                "  {:<10} {:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                e.sys,
                e.name,
                e.count,
                e.total_us as f64 / 1e3,
                e.self_us as f64 / 1e3,
                100.0 * e.self_us as f64 / wall,
            )
            .unwrap();
        }
        let covered = 100.0 * self.self_total_us() as f64 / wall;
        writeln!(
            out,
            "  {:<10} {:<28} {:>8} {:>12} {:>12.3} {:>6.1}%",
            "—",
            "(self-time sum)",
            "",
            "",
            self.self_total_us() as f64 / 1e3,
            covered,
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys;

    #[test]
    fn report_sorts_by_self_time_and_sums_coverage() {
        let tel = Telemetry::memory();
        tel.record_span_parts(sys::LP, "factorize", 400, 400);
        tel.record_span_parts(sys::EVAL, "mwu", 900, 900);
        tel.record_span_parts(sys::PIPELINE, "plan", 2_000, 700);
        let report = ProfileReport::from_telemetry(&tel, 2_000);
        let order: Vec<&str> = report.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, ["mwu", "plan", "factorize"]);
        assert_eq!(report.self_total_us(), 2_000);
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(|v| v.as_str()),
            Some("np-profile-v1")
        );
        assert_eq!(json.get("coverage").and_then(|v| v.as_f64()), Some(1.0));
        let stages = json.get("stages").unwrap();
        let first = stages.as_array().unwrap().first().unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("mwu"));
        let table = report.render_table();
        assert!(table.contains("factorize"), "{table}");
        assert!(table.contains("wall%"), "{table}");
    }
}
