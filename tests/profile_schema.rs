//! Golden-schema pin for the `np-profile-v1` report that `--profile-out`
//! writes.
//!
//! The profile document is an interface: CI's `profile-smoke` job and
//! downstream dashboards read it by field name. This test serializes a
//! fully-populated report and compares it to the canonical golden
//! string, character for character — a rename, a removal, a type change
//! or a reorder all fail here. If the failure is deliberate, bump the
//! schema string (`np-profile-v1` → `-v2`) *and* update the golden text.

use np_telemetry::profile::ProfileReport;
use np_telemetry::{sys, Telemetry};

/// A deterministic report: two stages with a parent/child relationship
/// recorded as pre-split (total, self) pairs, measured against 2 ms.
fn sample_report() -> ProfileReport {
    let tel = Telemetry::memory();
    tel.record_span_parts(sys::EVAL, "mwu", 900, 900);
    tel.record_span_parts(sys::LP, "solve_mip", 2_000, 1_100);
    ProfileReport::from_telemetry(&tel, 2_000)
}

#[test]
fn golden_serialization_is_stable() {
    let golden = r#"{
  "schema": "np-profile-v1",
  "total_wall_us": 2000,
  "self_us_total": 2000,
  "coverage": 1,
  "stages": [
    {
      "sys": "lp",
      "name": "solve_mip",
      "count": 1,
      "total_us": 2000,
      "self_us": 1100,
      "share_of_wall": 0.55
    },
    {
      "sys": "eval",
      "name": "mwu",
      "count": 1,
      "total_us": 900,
      "self_us": 900,
      "share_of_wall": 0.45
    }
  ]
}"#;
    let rendered = serde_json::to_string_pretty(&sample_report().to_json()).expect("json");
    assert_eq!(
        rendered, golden,
        "the np-profile-v1 layout drifted; restore it or bump the schema"
    );
}

/// The structural invariants the CI smoke job checks on a *live*
/// document: schema tag, stage ordering by self time, and coverage =
/// self-sum / wall ≤ 1 on a serial stream.
#[test]
fn report_invariants_hold_on_sample() {
    let report = sample_report();
    assert!(report.self_total_us() <= report.total_wall_us);
    let selfs: Vec<u64> = report.entries.iter().map(|e| e.self_us).collect();
    let mut sorted = selfs.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(
        selfs, sorted,
        "stages must be sorted by descending self time"
    );
    let json = report.to_json();
    assert_eq!(
        json.get("schema").and_then(|v| v.as_str()),
        Some("np-profile-v1")
    );
}
