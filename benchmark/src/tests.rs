//! Harness self-tests at `--smoke` size (preset A everywhere, short
//! rounds): `cargo test --manifest-path benchmark/Cargo.toml`.

use crate::catalog::Catalog;
use crate::layers;
use crate::workloads::{self, Run, Workload};
use std::collections::BTreeSet;

fn smoke(workload: Workload, seed: u64) -> Run {
    Run::new(workload, seed, 0.5, true)
}

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_keeps_the_contract() {
    let cat = Catalog::load();
    let mut names = BTreeSet::new();
    for m in cat.end_to_end.iter().chain(&cat.per_layer) {
        assert!(well_formed(&m.name), "bad metric name `{}`", m.name);
        assert!(names.insert(m.name.clone()), "`{}` is listed twice", m.name);
        assert!(
            m.better == "lower" || m.better == "higher",
            "{}: better = {}",
            m.name,
            m.better
        );
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit `{}`",
            m.name,
            m.unit
        );
    }
    for m in &cat.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
    assert!((1..=16).contains(&cat.end_to_end.len()) && (1..=128).contains(&cat.per_layer.len()));
    let setup = cat
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is listed");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = cat
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!((1.0..=60.0).contains(&cat.run_seconds) && cat.run_seconds.fract() == 0.0);
    // The workloads the file names are the workloads the program runs.
    assert_eq!(cat.workloads, Workload::ALL.map(|w| w.name().to_string()));
    assert!(cat
        .workloads
        .iter()
        .all(|w| well_formed(w) && names.insert(w.clone())));
    assert!(crate::catalog::BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let cat = Catalog::load();
    for workload in Workload::ALL {
        let mut run = smoke(workload, 3);
        let measured = workloads::end_to_end(&mut run);
        assert!(
            run.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            run.failures
        );
        assert!(run.attempted >= 1);
        let emitted: Vec<&str> = measured.iter().map(|(name, _)| *name).collect();
        let listed: Vec<&str> = cat.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, listed, "{}", workload.name());
        for (name, value) in measured {
            assert!(
                value.is_finite() && value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
    }
}

/// The traced run emits exactly the per-layer names of `BENCHMARK.json`
/// on every workload, and its counts repeat exactly for a fixed seed.
#[test]
fn traced_runs_emit_the_listed_names_and_repeatable_counts() {
    let cat = Catalog::load();
    let listed: BTreeSet<&str> = cat.per_layer.iter().map(|m| m.name.as_str()).collect();
    let counts_of = |workload: Workload| {
        let mut run = smoke(workload, 5);
        let rec = layers::traced(&mut run);
        assert!(
            run.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            run.failures
        );
        assert_eq!(rec.names(), listed, "{}", workload.name());
        cat.per_layer
            .iter()
            .filter(|m| m.unit == "count")
            .map(|m| {
                (
                    m.name.clone(),
                    rec.metric(&m.name, &m.unit)
                        .expect("listed name was emitted"),
                )
            })
            .collect::<Vec<_>>()
    };
    for workload in Workload::ALL {
        let counts = counts_of(workload);
        if workload == Workload::ReplanWanB {
            assert_eq!(
                counts,
                counts_of(workload),
                "counts must repeat for a fixed seed"
            );
            let nonzero = |name: &str| counts.iter().any(|(n, v)| n == name && *v > 0.0);
            assert!(nonzero("eval.perturb_certs_retained") && !nonzero("rl.env_steps"));
        }
    }
}

#[test]
fn the_seed_alone_decides_the_inputs() {
    let text = |v: &[(usize, serde_json::Value)]| {
        v.iter()
            .map(|(_, s)| serde_json::to_string(s).unwrap())
            .collect::<Vec<_>>()
    };
    let (a, again, b) = (
        smoke(Workload::ServeColdA, 1),
        smoke(Workload::ServeColdA, 1),
        smoke(Workload::ServeColdA, 2),
    );
    assert_eq!(
        text(&workloads::cold_specs(&a, 0)),
        text(&workloads::cold_specs(&again, 0))
    );
    assert_ne!(
        text(&workloads::cold_specs(&a, 0)),
        text(&workloads::cold_specs(&b, 0))
    );
    // Never-seen means never: no fingerprint repeats across rounds.
    let per_round = workloads::serve_seeds(true).len() as u64;
    let rounds: BTreeSet<String> = (0..50)
        .flat_map(|r| text(&workloads::cold_specs(&a, r * per_round)))
        .collect();
    assert_eq!(rounds.len() as u64, 50 * per_round);

    assert_eq!(a.derive(3), again.derive(3));
    assert_ne!(a.derive(3), b.derive(3));
    assert_ne!(a.derive(3), a.derive(4));

    // Churn streams are pinned; the seed only orders them.
    let streams = |seed: u64| {
        let run = Run::new(Workload::ReplanWanB, seed, 0.5, false);
        let net = workloads::preset_instance(run.workload.preset(true));
        let mut order = workloads::stream_order(&run);
        let first: Vec<String> = np_churn::generate_stream(&net, order[0], 3)
            .iter()
            .map(|e| e.to_string())
            .collect();
        let first_again: Vec<String> = np_churn::generate_stream(&net, order[0], 3)
            .iter()
            .map(|e| e.to_string())
            .collect();
        assert_eq!(first, first_again);
        let as_run = order.clone();
        order.sort_unstable();
        (as_run, order)
    };
    let orders: BTreeSet<Vec<u64>> = (0..8).map(|seed| streams(seed).0).collect();
    assert!(
        orders.len() > 1,
        "different seeds run the streams in different orders"
    );
    assert_eq!(streams(1), streams(1));
    assert_eq!(
        streams(1).1,
        streams(2).1,
        "the same streams whatever the seed"
    );
}

#[test]
fn the_pinned_configuration_is_todays_release_quick() {
    // Compared field by field, so a change to `quick()` shows here as a
    // decision to re-pin (or not), never as a silent change of work.
    let cfg = workloads::pinned_config(9);
    assert_eq!(
        (
            cfg.train.epochs,
            cfg.train.steps_per_epoch,
            cfg.train.max_traj_len
        ),
        (20, 384, 128)
    );
    assert_eq!(
        (cfg.agent.gnn_hidden, cfg.agent.mlp_hidden.clone()),
        (32, vec![32, 32])
    );
    assert_eq!((cfg.mip_node_limit, cfg.final_rollouts), (20_000, 4));
    assert_eq!(
        (cfg.seed, cfg.agent.seed, cfg.train.rollout_seed),
        (9, 9, 9)
    );
    assert_eq!(
        (
            cfg.train.num_actors,
            cfg.train.rollout_workers,
            cfg.eval.parallel_workers
        ),
        (4, 1, 1)
    );
}

#[test]
fn a_failed_check_is_counted_and_named() {
    let mut run = smoke(Workload::PlanWanB, 7);
    let net = workloads::preset_instance(run.workload.preset(true));
    // The baseline alone does not survive the failures; no capacity at
    // all is not even a state the network can be put in.
    let baseline: Vec<u32> = net.link_ids().map(|l| net.base_units(l)).collect();
    workloads::check_plan(&mut run, "no-plan", &net, &baseline);
    workloads::check_plan(&mut run, "dark-plan", &net, &vec![0; baseline.len()]);
    assert_eq!((run.attempted, run.failures.len()), (2, 2));
    assert!(
        run.failures[0].contains("workload=plan-wan-b seed=7 op=no-plan"),
        "{}",
        run.failures[0]
    );
    let line = crate::result_line(&[], run.attempted, run.failures.len() as u64);
    assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(line.get("failed").and_then(|v| v.as_u64()), Some(2));
}
