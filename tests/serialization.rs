//! Persistence: planning instances round-trip through JSON and stay
//! solvable — the workflow for sharing reproducible planning problems —
//! and the telemetry JSONL schema stays stable across releases.

use np_eval::{EvalConfig, PlanEvaluator};
use np_telemetry::{Event, EventKind, Telemetry};
use np_topology::{generator::GeneratorConfig, Network, TopologyPreset};

#[test]
fn generated_networks_roundtrip_through_json() {
    for preset in [TopologyPreset::A, TopologyPreset::B] {
        let net = GeneratorConfig::preset(preset).generate();
        let json = net.to_json();
        let back = Network::from_json(&json).expect("roundtrip");
        assert_eq!(back.links(), net.links());
        assert_eq!(back.flows(), net.flows());
        assert_eq!(back.failures(), net.failures());
        assert_eq!(back.to_json(), json, "serialization is canonical");
    }
}

#[test]
fn deserialized_instances_evaluate_identically() {
    let net = GeneratorConfig::a_variant(0.5).generate();
    let back = Network::from_json(&net.to_json()).unwrap();
    // Derived caches (unit costs, failure impacts) must be rebuilt
    // correctly: evaluation and costs agree exactly.
    for l in net.link_ids() {
        assert_eq!(net.unit_cost(l), back.unit_cost(l));
    }
    let mut ev1 = PlanEvaluator::new(&net, EvalConfig::default());
    let mut ev2 = PlanEvaluator::new(&back, EvalConfig::default());
    let caps: Vec<f64> = net
        .link_ids()
        .map(|l| net.capacity_gbps(l) + 100.0)
        .collect();
    let a = ev1.check(&caps);
    let b = ev2.check(&caps);
    assert_eq!(a.feasible, b.feasible);
    assert_eq!(a.first_violated, b.first_violated);
}

#[test]
fn greedy_plan_on_deserialized_instance_matches() {
    let net = GeneratorConfig::a_variant(0.0).generate();
    let back = Network::from_json(&net.to_json()).unwrap();
    let mut n1 = net.clone();
    let mut n2 = back.clone();
    let c1 = neuroplan::greedy_augment(&mut n1, EvalConfig::default()).unwrap();
    let c2 = neuroplan::greedy_augment(&mut n2, EvalConfig::default()).unwrap();
    assert!(
        (c1 - c2).abs() < 1e-9,
        "identical instances plan identically"
    );
    assert_eq!(n1.snapshot(), n2.snapshot());
}

/// The on-disk contract of `--telemetry <path>`. If this test fails, the
/// JSONL schema changed and every downstream consumer of telemetry files
/// breaks: bump deliberately, never accidentally.
#[test]
fn telemetry_jsonl_schema_is_golden() {
    let golden = [
        (
            Event {
                t_us: 12,
                sys: "lp".into(),
                kind: EventKind::Counter(3),
                name: "bb_nodes".into(),
            },
            r#"{"t_us":12,"sys":"lp","event":"counter","name":"bb_nodes","value":3}"#,
        ),
        (
            Event {
                t_us: 34,
                sys: "rl".into(),
                kind: EventKind::Metric(-1.5),
                name: "mean_return".into(),
            },
            r#"{"t_us":34,"sys":"rl","event":"metric","name":"mean_return","value":-1.5}"#,
        ),
        (
            Event {
                t_us: 56,
                sys: "eval".into(),
                kind: EventKind::Span {
                    dur_us: 420,
                    self_us: 420,
                },
                name: "check".into(),
            },
            r#"{"t_us":56,"sys":"eval","event":"span","name":"check","dur_us":420,"self_us":420}"#,
        ),
    ];
    for (event, expected) in &golden {
        assert_eq!(
            &serde_json::to_string(event).unwrap(),
            expected,
            "telemetry JSONL schema drifted"
        );
    }
}

#[test]
fn jsonl_sink_writes_parseable_schema_conformant_lines() {
    let dir = std::env::temp_dir().join(format!("np-tel-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let tel = Telemetry::jsonl(&path).expect("open sink");
    tel.incr("lp", "bb_nodes", 7);
    tel.record("rl", "mean_return", 0.25);
    drop(tel.span("eval", "check"));
    tel.flush();

    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "one JSONL line per event");
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
        let obj = v.as_object().expect("flat object");
        // Golden field set: exactly the documented keys, in order.
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        match v.get("event").and_then(|e| e.as_str()) {
            Some("span") => {
                assert_eq!(keys, ["t_us", "sys", "event", "name", "dur_us", "self_us"]);
            }
            Some("counter" | "metric") => {
                assert_eq!(keys, ["t_us", "sys", "event", "name", "value"])
            }
            other => panic!("unknown event kind {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
