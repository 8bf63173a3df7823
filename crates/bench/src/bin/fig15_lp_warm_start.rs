//! Figure 15 (repo-local): LP warm-start effectiveness.
//!
//! Runs the same Benders master solve on a Figure-9 instance twice —
//! once on the dense reference backend (every LP a cold two-phase
//! solve) and once on the sparse revised simplex (B&B children and cut
//! rounds warm-started from the previous optimal basis) — and writes
//! the pivot counts, factorization counters and wall times to
//! `BENCH_lp.json` to seed the perf trajectory.
//!
//! Both runs use a node budget rather than a wall budget, so the plan
//! costs are comparable: the two engines must reach the same optimum, at
//! most a few ulps apart (each may stop on its own vertex of a degenerate
//! optimal face, see `tests/refactor_trigger.rs`). Whether they also hit
//! the same bits is reported as the `costs_bit_identical` field.

use neuroplan::master::{solve_master_telemetry, MasterConfig};
use np_bench::ExpArgs;
use np_eval::{EvalConfig, PlanEvaluator};
use np_lp::LpBackend;
use np_telemetry::{sys, Telemetry};
use np_topology::{generator::preset_network, Network, TopologyPreset};
use std::time::Instant;

struct BackendRun {
    cost: f64,
    pivots: u64,
    warm_start_pivots: u64,
    refactorizations: u64,
    eta_len: u64,
    cold_solves: u64,
    nodes: usize,
    cuts_added: usize,
    wall_secs: f64,
}

fn run(net: &Network, backend: LpBackend, node_limit: usize) -> (BackendRun, Telemetry) {
    let tel = Telemetry::memory();
    let mut evaluator = PlanEvaluator::with_telemetry(net, EvalConfig::default(), tel.clone());
    // A node budget, not a wall budget: how far each engine searches must
    // not depend on its speed, or the costs would not be comparable.
    let cfg = MasterConfig {
        lp_backend: backend,
        ..MasterConfig::new(
            MasterConfig::spectrum_bounds(net),
            node_limit,
            f64::INFINITY,
        )
    };
    let t0 = Instant::now();
    let out = solve_master_telemetry(net, &mut evaluator, &cfg, &tel);
    let wall_secs = t0.elapsed().as_secs_f64();
    let run = BackendRun {
        cost: out.cost,
        pivots: tel.counter(sys::LP, "simplex_iterations"),
        warm_start_pivots: tel.counter(sys::LP, "warm_start_pivots"),
        refactorizations: tel.counter(sys::LP, "refactorizations"),
        eta_len: tel.counter(sys::LP, "eta_len"),
        cold_solves: tel.counter(sys::LP, "cold_solves"),
        nodes: out.nodes,
        cuts_added: out.cuts_added,
        wall_secs,
    };
    (run, tel)
}

fn backend_json(r: &BackendRun) -> serde_json::Value {
    serde_json::json!({
        "cost": r.cost,
        "pivots": r.pivots,
        "warm_start_pivots": r.warm_start_pivots,
        "refactorizations": r.refactorizations,
        "eta_len": r.eta_len,
        "cold_solves": r.cold_solves,
        "nodes": r.nodes,
        "cuts_added": r.cuts_added,
        "wall_secs": r.wall_secs,
    })
}

fn main() {
    let args = ExpArgs::parse();
    // Stage timing on: the sparse run doubles as the profile exemplar,
    // and timing collection never changes solver arithmetic.
    np_telemetry::set_profiling(true);
    let (preset, node_limit) = if args.quick {
        (TopologyPreset::B, 600)
    } else {
        (TopologyPreset::C, 2000)
    };
    let net = preset_network(preset);
    println!(
        "Figure 15: warm-start effectiveness on preset {} ({} links, {} failures)\n",
        preset.name(),
        net.links().len(),
        net.failures().len()
    );

    let (dense, _) = run(&net, LpBackend::Dense, node_limit);
    println!(
        "dense  (cold): {} pivots, {} nodes, {} cuts, cost {:.1}, {:.2}s",
        dense.pivots, dense.nodes, dense.cuts_added, dense.cost, dense.wall_secs
    );
    let (sparse, sparse_tel) = run(&net, LpBackend::Sparse, node_limit);
    println!(
        "sparse (warm): {} pivots ({} in warm re-optimizations), {} refactorizations, \
         {} cold solves, cost {:.1}, {:.2}s",
        sparse.pivots,
        sparse.warm_start_pivots,
        sparse.refactorizations,
        sparse.cold_solves,
        sparse.cost,
        sparse.wall_secs
    );

    let reduction = dense.pivots as f64 / (sparse.pivots.max(1)) as f64;
    let identical = dense.cost.to_bits() == sparse.cost.to_bits();
    println!(
        "\npivot reduction: {reduction:.2}x  wall speedup: {:.2}x  costs bit-identical: {identical}",
        dense.wall_secs / sparse.wall_secs.max(1e-9),
    );

    let body = serde_json::json!({
        "figure": "fig15_lp_warm_start",
        "instance": preset.name(),
        "node_limit": node_limit,
        "dense": backend_json(&dense),
        "sparse": backend_json(&sparse),
        "pivot_reduction": reduction,
        "wall_speedup": dense.wall_secs / sparse.wall_secs.max(1e-9),
        "costs_bit_identical": identical,
    });
    let out = serde_json::to_string_pretty(&body).expect("json");
    std::fs::write("BENCH_lp.json", &out).expect("write BENCH_lp.json");
    println!("wrote BENCH_lp.json");

    // Self-time wall breakdown of the sparse run (np-profile-v1).
    let report = np_telemetry::profile::ProfileReport::from_telemetry(
        &sparse_tel,
        (sparse.wall_secs * 1e6) as u64,
    );
    eprint!("{}", report.render_table());
    let profile = serde_json::to_string_pretty(&report.to_json()).expect("profile json");
    std::fs::write("BENCH_profile.json", format!("{profile}\n")).expect("write BENCH_profile.json");
    println!("wrote BENCH_profile.json");
    assert!(
        dense.cost.to_bits().abs_diff(sparse.cost.to_bits()) <= 4,
        "backends disagreed on the optimum: dense {} vs sparse {}",
        dense.cost,
        sparse.cost
    );
}
