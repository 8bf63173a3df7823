//! One `PlanSpec` for flags, wire JSON and the daemon.
//!
//! * every row of `spec::FIELDS` survives flags → spec → JSON text →
//!   spec unchanged, at the edges of its range;
//! * the fingerprints of the spec shapes that `benchmark/`, the CI
//!   `serve-smoke` job and `crates/core/tests/serve.rs` send are pinned:
//!   those naming `workers` to the values recorded on the commit before
//!   `PlanSpec` (through its `network_of` + `config_of`), so warm-cache
//!   keys and checkpoint chains written by older binaries still resolve,
//!   the others to the values of the one (4-actor) trainer;
//! * bad input is the same typed error on both surfaces, and the
//!   `neuroplan` binary refuses it with exit 2 before writing anything.

use neuroplan::spec::{Field, Kind, FIELDS};
use neuroplan::{checkpoint, NeuroPlanService, PlanSpec};
use neuroplan_suite::neuroplan_bin;
use np_chaos::checkpoint::body_of;
use np_chaos::CancelToken;
use np_serve::{PlanService, RequestCtx, ServiceFailure, WarmCache};
use np_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

fn flags(args: &[&str]) -> Result<PlanSpec, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    PlanSpec::from_flags(&args, "").map(|(spec, _)| spec)
}

/// Through real wire text, not just the `Value` tree.
fn over_the_wire(spec: &PlanSpec) -> Result<PlanSpec, String> {
    let text = serde_json::to_string(&spec.to_json()).expect("json");
    PlanSpec::from_json(&serde_json::from_str(&text).expect("wire text parses"))
}

/// Valid values of a row, including both ends of its range.
fn samples(field: &Field) -> Vec<String> {
    let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match field.kind {
        Kind::Switch => own(&[""]),
        Kind::Choice(names, _) => names.split('|').map(str::to_string).collect(),
        Kind::Real(lo, hi) => vec![
            lo.to_string(),
            hi.to_string(),
            (lo + (hi.min(2.0) - lo) * (0.5 - 1e-12)).to_string(),
        ],
        Kind::Int(lo, hi) => vec![
            lo.to_string(),
            7.clamp(lo, hi).to_string(),
            (1u64 << 53).min(hi).to_string(),
            ((1u64 << 53) + 1).min(hi).to_string(),
            hi.to_string(),
        ],
        Kind::Workers => own(&["1", "4", "auto"]),
        Kind::Events => own(&["seed=3,n=5", "demand-scale:1.2; link-remove:3"]),
    }
}

#[test]
fn every_row_round_trips_from_flags_through_json() {
    let mut everything: Vec<(&str, String)> = Vec::new();
    for field in FIELDS {
        let flag = format!("--{}", field.key.replace('_', "-"));
        for sample in samples(field) {
            let mut args = vec![flag.as_str()];
            if !matches!(field.kind, Kind::Switch) {
                args.push(&sample);
            }
            let spec = flags(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_ne!(spec, PlanSpec::default(), "{args:?} was dropped");
            assert_eq!(over_the_wire(&spec), Ok(spec), "{args:?}");
            everything.extend(args.iter().map(|a| (field.key, a.to_string())));
        }
    }
    // All rows at once (later values win), once per generator: the keys
    // only the other one reads conflict with it.
    for other in [
        &["family", "size_tier", "failure_model"][..],
        &["preset", "long_term"],
    ] {
        let args: Vec<String> = (everything.iter())
            .filter(|(key, _)| !other.contains(key))
            .map(|(_, arg)| arg.clone())
            .collect();
        let (spec, _) = PlanSpec::from_flags(&args, "").expect("all rows together");
        assert_eq!(over_the_wire(&spec), Ok(spec.clone()));
        assert_eq!(
            spec.to_json().as_object().map(Vec::len),
            Some(FIELDS.len() - other.len())
        );
    }
}

#[test]
fn seeds_beyond_2_pow_53_plan_the_same_instance_on_both_surfaces() {
    let seed = u64::MAX - 1;
    let spec = flags(&[
        "--preset",
        "a",
        "--seed",
        &seed.to_string(),
        "--workers",
        "3",
    ])
    .unwrap();
    let wire = serde_json::to_string(&spec.to_json()).unwrap();
    assert_eq!(
        wire,
        format!(r#"{{"preset":"a","seed":"{seed}","workers":3}}"#)
    );
    let back = over_the_wire(&spec).unwrap();
    assert_eq!(back.config().seed, seed);
    assert_eq!(back.config().eval.parallel_workers, 3);
    assert_eq!(
        back.network().unwrap().to_json(),
        spec.network().unwrap().to_json()
    );
    // Small integers stay plain numbers: what the benchmark and CI send.
    let small = flags(&["--preset", "a", "--seed", "3"]).unwrap();
    assert_eq!(
        serde_json::to_string(&small.to_json()).unwrap(),
        r#"{"preset":"a","seed":3}"#
    );
    assert_eq!(
        PlanSpec::from_json(&json!({"preset": "a", "seed": "3"})),
        Ok(small)
    );
}

/// `(wire spec, fingerprint)`, printed by a release build of the commit
/// before `PlanSpec`'s `service::{network_of, config_of}` (the CLI shapes
/// by its `planner_config` call sequence) under the sparse LP backend.
/// `quick()` has those budgets in every build. The rows without
/// `workers` were re-recorded when the single-stream trainer went: a
/// request without `workers` now trains the 4-actor policy, so `a/4`
/// equals its `workers: 1` form above.
#[rustfmt::skip]
const PINNED: &[(&str, &str)] = &[
    // benchmark/src/workloads.rs::spec, jitter 0 and 1
    (r#"{"preset":"a","seed":4,"workers":1,"alpha":1.5}"#, "7165e7090ec8138b"),
    (r#"{"preset":"a","seed":5,"workers":1,"alpha":1.5}"#, "2322d2367a72a97d"),
    (r#"{"preset":"a","seed":9,"workers":1,"alpha":1.499999999999}"#, "cb3d9b03d75d474c"),
    // crates/core/tests/serve.rs and the CI serve-smoke job
    (r#"{"preset":"a","seed":3}"#, "d331f838a308bae2"),
    (r#"{"preset":"a","seed":4}"#, "7165e7090ec8138b"),
    (r#"{"preset":"a","seed":7}"#, "391f8ddb47e3ca53"),
    (r#"{"preset":"c","seed":3}"#, "080b37beb168d49f"),
    (r#"{"preset":"c","seed":9}"#, "a9242f77e2242529"),
    (r#"{"preset":"d","seed":3,"fill":0.9}"#, "24edeb50c9554070"),
    // CLI checkpoint chains: plan-golden, the supervisor suite, a family
    (r#"{"preset":"b","quick":true,"workers":1}"#, "39ac8d37c084c41e"),
    (r#"{"preset":"a","fill":0.5,"seed":5,"alpha":2,"workers":4,"stage_budget":30,"max_retries":1,"no_degrade":true}"#,
     "290dab68dfc2dea4"),
    (r#"{"family":"clos","size_tier":"a","failure_model":"full","seed":3,"default":true}"#,
     "9e872f2334c290cf"),
];

#[test]
fn fingerprints_equal_the_parent_commits() {
    assert_eq!(
        1.5 - 1e-12,
        1.499999999999,
        "the benchmark's jittered alpha"
    );
    for (wire, want) in PINNED {
        let spec = PlanSpec::from_json(&serde_json::from_str(wire).expect("json"))
            .unwrap_or_else(|e| panic!("{wire}: {e}"));
        let net = spec.network().expect("instance");
        let cfg = spec.config();
        assert_eq!(&checkpoint::fingerprint(&net, &cfg), want, "{wire}");
    }
}

/// The `first_stage` record of a request — units, cost and every
/// certificate in hex, so equal text is equal bits — trained once per
/// distinct input: `first_stage` is a function of the instance and the
/// config, so rows that reach neither cost nothing.
fn first_stage_of(
    trained: &mut Vec<(String, String)>,
    net: &np_topology::Network,
    cfg: neuroplan::NeuroPlanConfig,
) -> String {
    let inputs = format!("{}\n{cfg:?}", net.to_json());
    if let Some((_, record)) = trained.iter().find(|(i, _)| *i == inputs) {
        return record.clone();
    }
    let first = neuroplan::NeuroPlan::new(cfg).first_stage(net);
    let record = serde_json::to_string(&body_of(first)).expect("json");
    trained.push((inputs, record.clone()));
    record
}

/// The first-stage key can never cover too little: whatever one row of
/// `FIELDS` changes about a request, either the key changes or the first
/// stage does not. A row added later that shapes training without
/// entering `checkpoint::first_stage_key` fails here. `workers` is a
/// thread budget only, so each of its samples must keep the key and
/// train the same record.
#[test]
fn no_row_changes_the_first_stage_behind_the_keys_back() {
    let mut trained = Vec::new();
    let mut reruns = 0;
    let mut check = |base: &[&str], varied: &[&str]| {
        let [(net, cfg), (varied_net, varied_cfg)] = [base, varied].map(|args| {
            let spec = flags(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            (spec.network().expect("instance"), spec.config())
        });
        let key = checkpoint::first_stage_key(&net, &cfg);
        let rerun = key == checkpoint::first_stage_key(&varied_net, &varied_cfg);
        if rerun {
            reruns += 1;
            assert_eq!(
                first_stage_of(&mut trained, &net, cfg),
                first_stage_of(&mut trained, &varied_net, varied_cfg),
                "{varied:?} keeps the key of {base:?}"
            );
        }
        rerun
    };
    for field in FIELDS {
        let base: &[&str] = match field.key {
            "family" | "size_tier" | "failure_model" => {
                &["--family", "wan", "--size-tier", "a", "--seed", "3"]
            }
            _ => &["--preset", "a", "--seed", "3"],
        };
        let flag = format!("--{}", field.key.replace('_', "-"));
        for sample in samples(field) {
            // Tier A: the larger instances only make the same point slower.
            if matches!(field.key, "preset" | "size_tier") && sample.as_str() > "c" {
                continue;
            }
            let mut varied: Vec<&str> = (base.chunks(2))
                .filter(|pair| pair[0] != flag)
                .flatten()
                .copied()
                .collect();
            varied.push(&flag);
            if !matches!(field.kind, Kind::Switch) {
                varied.push(&sample);
            }
            let rerun = check(base, &varied);
            assert!(rerun || field.key != "workers", "{varied:?} moved the key");
        }
    }
    assert!(reruns >= 7, "alpha, no_degrade and workers share the key");
}

#[test]
fn the_first_stage_key_moves_with_training_inputs_only() {
    let key = |wire: &str| {
        let spec = PlanSpec::from_json(&serde_json::from_str(wire).expect("json")).expect(wire);
        checkpoint::first_stage_key(&spec.network().expect("instance"), &spec.config())
    };
    let base = key(r#"{"preset":"a","seed":4,"workers":1,"alpha":1.5}"#);
    for same in [
        r#"{"preset":"a","seed":4,"alpha":1.5}"#,
        r#"{"preset":"a","seed":4,"workers":1,"alpha":1.499999999999}"#,
        r#"{"preset":"a","seed":4,"workers":1,"alpha":2,"no_degrade":true}"#,
        r#"{"preset":"a","seed":4,"workers":4,"quick":true,"events":"seed=1,n=5"}"#,
    ] {
        assert_eq!(key(same), base, "{same}");
    }
    for moved in [
        r#"{"preset":"b","seed":4,"workers":1,"alpha":1.5}"#,
        r#"{"preset":"a","seed":5,"workers":1,"alpha":1.5}"#,
        r#"{"preset":"a","seed":4,"workers":1,"alpha":1.5,"default":true}"#,
        r#"{"preset":"a","seed":4,"workers":1,"alpha":1.5,"stage_budget":30}"#,
        r#"{"preset":"a","seed":4,"workers":1,"alpha":1.5,"max_retries":7}"#,
        r#"{"preset":"a","seed":4,"workers":1,"alpha":1.5,"fill":0.9}"#,
    ] {
        assert_ne!(key(moved), base, "{moved}");
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-spec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Specs the daemon must fail with `ServiceFailure::Failed` before it
/// plans anything (the first four were `service.rs`'s own table).
fn bad_specs() -> Vec<Value> {
    vec![
        json!({}),
        json!({"preset": "z"}),
        json!({"family": "nope"}),
        json!({"preset": "a", "alpha": 0.5}),
        json!({"preset": "a", "aplha": 2}),
        json!({"preset": "a", "family": "ba"}),
        // keys the named generator never reads
        json!({"preset": "a", "size_tier": "c"}),
        json!({"preset": "a", "failure_model": "none"}),
        json!({"family": "ba", "long_term": true}),
        json!({"preset": "a", "prune_alpha": 0.99}),
        json!({"preset": "a", "gap": -1e-9}),
        json!({"preset": "a", "stage_budget": -1}),
        json!({"preset": "a", "stage_budget": f64::NAN}),
        json!({"preset": "a", "fill": 1.0000001}),
        // every knob in range, yet the baseline overflows a fiber's spectrum
        json!({"preset": "e", "seed": 4, "fill": 1}),
        json!({"preset": "a", "seed": 1.5}),
        json!({"preset": "a", "seed": -1}),
        json!({"preset": "a", "seed": 1e19}),
        json!({"preset": "a", "seed": "18446744073709551616"}),
        json!({"preset": "a", "seed": "seven"}),
        json!({"preset": "a", "max_retries": 4294967296u64}),
        // agent shapes and actions outside Table 2's span
        json!({"preset": "a", "mlp_hidden": 0}),
        json!({"preset": "a", "mlp_hidden": 513}),
        json!({"preset": "a", "units_per_step": 0}),
        json!({"preset": "a", "units_per_step": 17}),
        json!({"preset": "a", "gnn_layers": 5}),
        json!({"preset": "a", "mlp_hidden": "wide"}),
        json!({"preset": "a", "workers": "many"}),
        json!({"preset": "a", "workers": -2}),
        json!({"preset": "a", "default": 1}),
        json!({"preset": 7}),
        json!({"preset": "a", "alpha": "1.5"}),
        json!({"preset": "a", "events": "bogus:1"}),
        json!({"preset": "a", "events": "seed=1,n=99999999999"}),
        json!({"preset": "a", "events": json!(["demand-scale:1.2"])}),
        json!(["preset", "a"]),
        json!("preset=a"),
        json!(null),
    ]
}

#[test]
fn bad_specs_are_typed_failures_and_nothing_is_planned() {
    let dir = tmp("bad");
    let svc = NeuroPlanService::new(dir.clone(), Telemetry::noop());
    let cache = Mutex::new(WarmCache::new(4));
    for spec in bad_specs() {
        let parsed = PlanSpec::from_json(&spec).and_then(|s| s.network());
        assert!(parsed.is_err(), "{spec:?} was accepted");
        let ctx = RequestCtx {
            id: 1,
            resume: false,
            cancel: CancelToken::new(),
            cache: &cache,
        };
        match svc.execute(&spec, &ctx) {
            Err(ServiceFailure::Failed(msg)) => assert_eq!(Err(msg), parsed.map(|_| ())),
            other => panic!("{spec:?}: expected Failed, got {other:?}"),
        }
    }
    assert!(!dir.exists(), "a rejected spec left state behind");
}

#[test]
fn bad_flags_are_errors() {
    for args in [
        &["--preset", "a", "--alpha", "0.5"][..],
        &["--preset", "a", "--alpha", "inf"],
        &["--preset", "a", "--aplha", "2"],
        &["--preset", "a", "--stage-budget", "nan"],
        &["--preset", "a", "--fill", "-0.1"],
        &["--preset", "a", "--seed", "1e3"],
        &["--preset", "a", "--seed"],
        &["--preset", "a", "--lp-backend", "dense"],
        &["--preset", "a", "--family", "ba"],
        &["--preset", "a", "--out", "plan.json"],
        &["--preset", "a", "stray"],
    ] {
        assert!(flags(args).is_err(), "{args:?} was accepted");
    }
    // Run-scoped flags are the caller's: named ones come back, switches
    // take no value.
    let args: Vec<String> = ["--resume", "--preset", "a", "--out", "plan.json"]
        .iter()
        .map(|a| a.to_string())
        .collect();
    let (spec, run) = PlanSpec::from_flags(&args, "--out <file> --resume").expect("run flags");
    assert_eq!(Ok(spec), flags(&["--preset", "a"]));
    assert_eq!(run.get("out").map(String::as_str), Some("plan.json"));
    assert_eq!(run.get("resume").map(String::as_str), Some("true"));
}

/// A random JSON value: mostly scalars near the interesting edges.
fn hostile(rng: &mut StdRng, depth: usize) -> Value {
    const NUMS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        1e308,
        -1e308,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        1.8446744073709552e19,
        5e-324,
        4_294_967_296.0,
    ];
    const TEXT: [&str; 10] = [
        "",
        "a",
        "A",
        "auto",
        "clos",
        "seed=1",
        "seed=1,n=0",
        "18446744073709551615",
        "demand-scale:nan",
        "\u{0}\u{1F600}",
    ];
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Num(NUMS[rng.gen_range(0..NUMS.len())]),
        3 => Value::Num(f64::from_bits(rng.gen())),
        4 => Value::Str(TEXT[rng.gen_range(0..TEXT.len())].to_string()),
        5 => Value::Str("x".repeat(rng.gen_range(0..70_000))),
        6 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| hostile(rng, depth - 1))
                .collect(),
        ),
        _ => hostile_object(rng, depth - 1),
    }
}

fn hostile_object(rng: &mut StdRng, depth: usize) -> Value {
    let members = (0..rng.gen_range(0..5)).map(|_| {
        let key = match rng.gen_range(0..10) {
            0 => "sede".to_string(),
            _ => FIELDS[rng.gen_range(0..FIELDS.len())].key.to_string(),
        };
        (key, hostile(rng, depth))
    });
    Value::Object(members.collect())
}

#[test]
fn hostile_json_yields_only_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0x5bec);
    let mut accepted = 0;
    for round in 0..20_000 {
        let value = match round % 20 {
            0 => hostile(&mut rng, 2),
            _ => hostile_object(&mut rng, 2),
        };
        // Must return, never panic; what it accepts must hold up.
        if let Ok(spec) = PlanSpec::from_json(&value) {
            accepted += 1;
            let cfg = spec.config();
            assert!(cfg.relax_factor >= 1.0 && cfg.relax_factor.is_finite());
            assert!(cfg.supervisor.budget.wall_secs >= 0.0);
            let rcfg = spec.replan_config();
            assert!(rcfg.gap_tol >= 0.0 && rcfg.prune_alpha.is_none_or(|a| a >= 1.0));
            assert_eq!(over_the_wire(&spec), Ok(spec), "{value:?}");
        }
    }
    assert!(accepted > 100, "the generator never produced a valid spec");
}

#[test]
fn the_cli_refuses_bad_requests_before_doing_anything() {
    let bin = neuroplan_bin();
    let dir = tmp("cli");
    std::fs::create_dir_all(&dir).unwrap();
    let (ckpt, out) = (dir.join("ckpt"), dir.join("plan.json"));
    for bad in [
        &["--alpha", "0.5"][..],
        &["--aplha", "2"],
        &["--stage-budget", "nan"],
        &["--lp-backend", "dense"],
        &["--seed", "18446744073709551616"],
        &["--size-tier", "c"],
        &["--mlp-hidden", "0"],
        &["--units-per-step", "17"],
    ] {
        for cmd in ["plan", "replan", "generate", "request"] {
            let mut run = Command::new(bin);
            run.args([cmd, "--preset", "a", "--quick"]).args(bad);
            match cmd {
                "plan" | "replan" => run.arg("--checkpoint-dir").arg(&ckpt),
                "request" => run.args(["--addr", "127.0.0.1:1"]),
                _ => &mut run,
            };
            let done = run
                .arg("--out")
                .arg(&out)
                .output()
                .expect("spawn neuroplan");
            let stderr = String::from_utf8_lossy(&done.stderr);
            assert_eq!(done.status.code(), Some(2), "{cmd} {bad:?}: {stderr}");
            assert!(
                !ckpt.exists() && !out.exists(),
                "{cmd} {bad:?} wrote something"
            );
        }
    }
    // Only `replan` reads a stream: `plan` used to drop it and plan anyway.
    let done = Command::new(bin)
        .args(["plan", "--preset", "a", "--quick", "--events", "seed=1,n=2"])
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn neuroplan");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(2), "plan --events: {stderr}");
    assert!(stderr.contains("`events` needs `replan`"), "{stderr}");
    assert!(
        !ckpt.exists() && !out.exists(),
        "plan --events wrote something"
    );
    // A topology file is planned as it is: a generator's keys beside it
    // used to be dropped without a word.
    let topo = dir.join("topo.json");
    let generated = Command::new(bin)
        .args(["generate", "--preset", "a", "--out"])
        .arg(&topo)
        .output()
        .expect("spawn neuroplan");
    assert!(generated.status.success());
    for (key, extra) in [
        ("fill", &["--fill", "0.9"][..]),
        ("long_term", &["--long-term"]),
        ("size_tier", &["--size-tier", "a"]),
        ("failure_model", &["--failure-model", "full"]),
        ("preset", &["--preset", "a"]),
    ] {
        let done = Command::new(bin)
            .args(["evaluate", "--topology"])
            .arg(&topo)
            .args(extra)
            .output()
            .expect("spawn neuroplan");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{key}` conflicts with `--topology`")),
            "{stderr}"
        );
    }
    // The planner reads `seed` too, so it may go with a file.
    let done = Command::new(bin)
        .args(["generate", "--seed", "3", "--topology"])
        .arg(&topo)
        .output()
        .expect("spawn neuroplan");
    assert!(done.status.success(), "--seed beside --topology");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `evaluate --plan` reads a file a user wrote: anything but one `u32` per
/// link of the instance is one line and exit 1, never a panic.
#[test]
fn evaluate_refuses_a_plan_file_it_cannot_apply() {
    let bin = neuroplan_bin();
    let dir = tmp("evaluate");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("plan.json");
    for body in [
        "not json",
        r#"{"units": [1, 2]}"#,
        r#"{"cost": 1}"#,
        r#"{"units": "all"}"#,
        r#"{"units": [1.5]}"#,
        r#"{"units": [-1]}"#,
        "[1, 2, 3]",
    ] {
        std::fs::write(&plan, body).unwrap();
        let done = Command::new(bin)
            .args(["evaluate", "--preset", "a", "--plan"])
            .arg(&plan)
            .output()
            .expect("spawn neuroplan");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(1), "{body}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{body}: {stderr}");
        assert!(stderr.starts_with("invalid plan file "), "{body}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An instance on which some flow has no path at all is the planner's one
/// error line and exit 1, with a generated stream too: generating the
/// stream used to panic on it (exit 101) before the planner could say so.
#[test]
fn replan_refuses_a_structurally_infeasible_instance() {
    let bin = neuroplan_bin();
    let dir = tmp("infeasible");
    std::fs::create_dir_all(&dir).unwrap();
    let net = np_topology::GeneratorConfig::preset(np_topology::TopologyPreset::A).generate();
    let cut_off = np_topology::SiteId::new(1);
    let links = net.links().iter().filter(|l| !l.touches(cut_off));
    let net = np_topology::Network::new(
        net.sites().to_vec(),
        net.fibers().to_vec(),
        links.cloned().collect(),
        net.flows().to_vec(),
        net.failures().to_vec(),
        net.policy.clone(),
        net.cost_model.clone(),
        net.unit_gbps,
    )
    .expect("site 1 without links is a valid instance");
    let topo = dir.join("topo.json");
    std::fs::write(&topo, net.to_json()).unwrap();
    for (cmd, events) in [
        ("plan", None),
        ("replan", Some("seed=0,n=3")),
        ("replan", Some("demand-scale:1.1")),
    ] {
        let mut run = Command::new(bin);
        run.args([cmd, "--topology"])
            .arg(&topo)
            .args(["--quick", "--workers", "1"]);
        if let Some(events) = events {
            run.args(["--events", events]);
        }
        let done = run.output().expect("spawn neuroplan");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(1), "{cmd} {events:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!(
                "{cmd} failed: planning instance is infeasible: \
                 greedy reference failed: StructurallyInfeasible(0)"
            ),
            "{cmd} {events:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--profile` alone reports on stderr and leaves the working directory
/// as it found it (it used to drop `BENCH_profile.json` there, over the
/// committed one when run from the checkout root).
#[test]
fn profile_writes_a_file_only_where_profile_out_says() {
    let bin = neuroplan_bin();
    let dir = tmp("profile");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = |extra: &[&str]| {
        let done = Command::new(bin)
            .args(["plan", "--preset", "a", "--quick", "--profile"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("spawn neuroplan");
        let stderr = String::from_utf8_lossy(&done.stderr).into_owned();
        assert!(done.status.success(), "{stderr}");
        assert!(stderr.contains("profile: total wall"), "{stderr}");
        std::fs::read_dir(&dir).unwrap().count()
    };
    assert_eq!(plan(&[]), 0, "nothing written without --profile-out");
    assert_eq!(plan(&["--profile-out", "p.json"]), 1);
    let report = std::fs::read_to_string(dir.join("p.json")).unwrap();
    assert!(report.contains("np-profile-v1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_sends_big_seeds_and_workers_to_the_daemon() {
    let bin = neuroplan_bin();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    // A daemon that reads the submit frame and hangs up.
    let daemon = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        np_serve::proto::read_frame(&mut conn).expect("one frame")
    });
    let seed = "18446744073709551615";
    let status = Command::new(bin)
        .args(["request", "--addr", &addr, "--do", "submit"])
        .args(["--preset", "a", "--seed", seed, "--workers", "3"])
        .output()
        .expect("spawn neuroplan");
    assert_eq!(
        status.status.code(),
        Some(1),
        "the fake daemon never answers"
    );
    let frame = daemon.join().expect("daemon thread");
    let sent = PlanSpec::from_json(&frame["spec"]).expect("the sent spec is valid");
    assert_eq!(
        Ok(sent),
        flags(&["--preset", "a", "--seed", seed, "--workers", "3"])
    );
    assert_eq!(frame["spec"]["seed"].as_str(), Some(seed));
    assert_eq!(frame["spec"]["workers"].as_u64(), Some(3));
}
