//! Parallel worker scaling on the two parallelized evaluator loops:
//! scenario checking and separation for the ILP master.
//!
//! Every path is bit-deterministic in the worker count — this binary
//! asserts that while it measures, so a speedup can never come from
//! doing different work. Speedups are reported against the 1-worker
//! run; on a single-core host the scoped-thread pool degrades to a
//! small coordination overhead and the honest ratio is ~1.0x.

use np_bench::{cell, ExpArgs, Table};
use np_eval::{EvalConfig, PlanEvaluator, Separation};
use np_topology::generator::preset_network;
use np_topology::{Network, TopologyPreset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn evaluator(net: &Network, workers: usize) -> PlanEvaluator {
    PlanEvaluator::new(
        net,
        EvalConfig {
            parallel_workers: workers,
            ..EvalConfig::default()
        },
    )
}

fn caps_sequence(net: &Network, seed: u64, rounds: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            net.link_ids()
                .map(|l| (net.capacity_gbps(l) + 1.0) * rng.gen_range(0.05..3.0))
                .collect()
        })
        .collect()
}

/// Scan every capacity vector with a fresh stateless pass; returns the
/// verdict fingerprint and the wall-clock seconds.
fn bench_check(net: &Network, plans: &[Vec<f64>], workers: usize) -> (Vec<Option<usize>>, f64) {
    let mut ev = evaluator(net, workers);
    let t0 = Instant::now();
    let mut verdicts = Vec::with_capacity(plans.len());
    for caps in plans {
        ev.reset();
        verdicts.push(ev.check(caps).first_violated);
    }
    (verdicts, t0.elapsed().as_secs_f64())
}

/// Run one uncapped separation round per capacity vector; returns the
/// per-round cut counts and the wall-clock seconds.
fn bench_separate(net: &Network, plans: &[Vec<f64>], workers: usize) -> (Vec<usize>, f64) {
    let mut ev = evaluator(net, workers);
    let max_cuts = ev.num_scenarios();
    let t0 = Instant::now();
    let mut counts = Vec::with_capacity(plans.len());
    for caps in plans {
        counts.push(match ev.separate(caps, max_cuts) {
            Separation::Cuts(cuts) => cuts.len(),
            Separation::Feasible => 0,
            Separation::StructurallyInfeasible(_) => {
                unreachable!("generated instances are fixable")
            }
        });
    }
    (counts, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = ExpArgs::parse();
    let rounds = if args.quick { 24 } else { 96 };
    let net = preset_network(TopologyPreset::B);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Parallel scaling on preset B ({} links, {} scenarios, {} plan rounds), host has {} core(s)\n",
        net.links().len(),
        net.failures().len() + 1,
        rounds,
        cores
    );
    let plans = caps_sequence(&net, args.seed, rounds);

    let mut table = Table::new(&[
        "loop",
        "1w [s]",
        "2w [s]",
        "4w [s]",
        "2w speedup",
        "4w speedup",
    ]);
    let mut rows: Vec<(&str, Vec<f64>)> = Vec::new();

    let mut check_times = Vec::new();
    let mut check_base: Option<Vec<Option<usize>>> = None;
    for &w in &WORKER_COUNTS {
        let (verdicts, secs) = bench_check(&net, &plans, w);
        match &check_base {
            None => check_base = Some(verdicts),
            Some(base) => assert_eq!(base, &verdicts, "check must be worker-count independent"),
        }
        check_times.push(secs);
    }
    rows.push(("check", check_times));

    let mut sep_times = Vec::new();
    let mut sep_base = None;
    for &w in &WORKER_COUNTS {
        let (cut_counts, secs) = bench_separate(&net, &plans, w);
        let base = sep_base.get_or_insert(cut_counts.clone());
        assert_eq!(
            base, &cut_counts,
            "separation must be worker-count independent"
        );
        sep_times.push(secs);
    }
    rows.push(("separate", sep_times));

    for (name, times) in &rows {
        table.row(vec![
            cell(name),
            cell(format!("{:.3}", times[0])),
            cell(format!("{:.3}", times[1])),
            cell(format!("{:.3}", times[2])),
            cell(format!("{:.2}x", times[0] / times[1].max(1e-9))),
            cell(format!("{:.2}x", times[0] / times[2].max(1e-9))),
        ]);
    }
    table.print();
    table.write_csv(&args.out_dir, "fig14_parallel_scaling.csv");
    if cores < 4 {
        println!(
            "\nnote: only {cores} core(s) available — the pool cannot physically \
             exceed ~1.0x here; re-run on a >=4-core host for the scaling figure."
        );
    }
    println!("both loops returned identical results at 1, 2 and 4 workers.");
}
