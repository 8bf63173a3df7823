//! Figure 17 (repo-local, beyond the paper): online re-planning under
//! churn.
//!
//! The paper plans each instance once; this harness measures the
//! incremental re-plan path (`NeuroPlan::replan_from`) against cold
//! re-planning from scratch. Two measurements go to `BENCH_churn.json`
//! (schema in `np_bench::churn`, pinned by `tests/churn_schema.rs`):
//!
//! 1. **Single-link event**: decommission one link, then re-plan both
//!    ways. The incremental path carries the plan, keeps every Benders
//!    certificate the perturbation provably left valid, and warm-starts
//!    the master; the cold path runs the full RL+ILP pipeline on the
//!    perturbed instance. Acceptance bar: ≥10× wall-time speedup at
//!    equal (or better) plan cost.
//! 2. **Stability per event class**: a seeded 10-event stream, replanned
//!    incrementally event by event, recording plan churn (L1 units
//!    distance) vs cost delta per event and aggregated per class.
//!
//! ```text
//! fig17_churn [--quick|--full] [--seed <u64>] [--events <n>]
//!             [--out <file.json>]
//! ```
//!
//! Both modes run the wan family on tier B (the acceptance-bar tier);
//! `--full` widens training to the standard quick-run budget.

use neuroplan::{validate_plan, NeuroPlan, NeuroPlanConfig, ReplanConfig};
use np_bench::churn::{
    ChurnBench, ChurnEventRow, ClassStability, SingleLinkReplan, CHURN_SCHEMA_VERSION,
};
use np_bench::{cell, Table};
use np_churn::{apply_checked, generate_stream, ChurnEvent};
use np_topology::{FamilyConfig, LinkId, Network, Perturbation, SizeTier, TopologyFamily};
use std::time::Instant;

struct Args {
    quick: bool,
    seed: u64,
    events: usize,
    out: std::path::PathBuf,
}

fn usage() -> ! {
    eprintln!("fig17_churn [--quick|--full] [--seed <u64>] [--events <n>] [--out <file>]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: true,
        seed: 0,
        events: 10,
        out: std::path::PathBuf::from("BENCH_churn.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} takes a value");
                usage()
            })
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--full" => args.quick = false,
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--events" => args.events = value("--events").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = std::path::PathBuf::from(value("--out")),
            _ => usage(),
        }
    }
    if args.events == 0 {
        usage()
    }
    args
}

/// Pipeline configuration: quick budgets with training shrunk to 4
/// epochs, so the cold baseline stays a few seconds per plan.
fn planner_config(quick: bool, seed: u64) -> NeuroPlanConfig {
    let mut cfg = NeuroPlanConfig::quick().with_seed(seed);
    if quick {
        cfg.train.epochs = cfg.train.epochs.min(4);
        cfg.train.steps_per_epoch = cfg.train.steps_per_epoch.min(128);
        cfg.train.max_traj_len = cfg.train.max_traj_len.min(96);
        cfg.final_rollouts = 2;
        cfg.with_stage_budget(30.0)
    } else {
        cfg.with_stage_budget(90.0)
    }
}

/// The least-loaded link whose decommission passes the checked step —
/// the canonical single-link event (in practice you decommission the
/// lambda the plan leans on least).
fn removable_link(net: &Network, units: &[u32]) -> LinkId {
    net.link_ids()
        .filter(|&link| apply_checked(net, &Perturbation::LinkRemove { link }).is_ok())
        .min_by_key(|l| units[l.index()])
        .expect("tier B has a removable link")
}

fn main() {
    let args = parse_args();
    let base = FamilyConfig::new(TopologyFamily::Wan, SizeTier::B);
    let cfg = FamilyConfig::new(TopologyFamily::Wan, SizeTier::B)
        .with_seed(args.seed.wrapping_add(base.seed));
    let net: Network = cfg.generate();
    println!(
        "Figure 17: churn re-planning — wan/B, {} links, {} flows, {} failures ({})\n",
        net.links().len(),
        net.flows().len(),
        net.failures().len(),
        if args.quick { "quick" } else { "full" },
    );

    let planner = NeuroPlan::new(planner_config(args.quick, cfg.seed));
    let t0 = Instant::now();
    let plan = planner.try_plan(&net).expect("initial plan");
    let initial_plan_millis = t0.elapsed().as_secs_f64() * 1e3;
    validate_plan(&net, &plan.final_units).expect("initial plan valid");
    println!(
        "initial plan: cost {:.3}, {:.0} ms ({})",
        plan.final_cost,
        initial_plan_millis,
        plan.quality.name()
    );

    // Headline: one link decommission, incremental vs cold. The
    // incremental side is measured *inside a running session*: a no-op
    // warm-up event first primes the Benders certificate store (a fresh
    // `replan_from` starts with none — in steady-state operation they
    // accumulate across events), then the decommission event's own wall
    // time is the incremental cost of reacting to it.
    let victim = removable_link(&net, &plan.final_units);
    let event = ChurnEvent::LinkRemove {
        link: victim.index(),
    };
    let warmup = ChurnEvent::DemandScale { factor: 1.0 };
    // Pruned master bounds around the carried plan (the paper's relax
    // factor, Fig. 2/13) — the designed fast path for re-planning. The
    // cost_ratio assertion below keeps this honest: the pruned optimum
    // must match the cold full-space one within the shared gap.
    let rcfg = ReplanConfig {
        prune_alpha: Some(1.5),
        ..ReplanConfig::default()
    };

    let inc = planner
        .replan_from(
            &net,
            &plan.final_units,
            &[warmup.clone(), event.clone()],
            &rcfg,
        )
        .expect("incremental re-plan");
    let incremental_millis = inc.events[1].millis;
    assert_eq!(inc.skipped(), 0, "the single-link event must apply");
    validate_plan(&inc.net, &inc.final_units).expect("incremental plan valid");

    let (perturbed, _) = event.apply_checked(&net).expect("event applies");
    let t0 = Instant::now();
    let cold = planner.try_plan(&perturbed).expect("cold re-plan");
    let cold_millis = t0.elapsed().as_secs_f64() * 1e3;
    validate_plan(&perturbed, &cold.final_units).expect("cold plan valid");

    let single_link = SingleLinkReplan {
        event: event.to_string(),
        cold_millis,
        incremental_millis,
        speedup: cold_millis / incremental_millis,
        cold_cost: cold.final_cost,
        incremental_cost: inc.final_cost,
        cost_ratio: inc.final_cost / cold.final_cost,
        certs_retained: inc.events[1].certs_retained,
        certs_dropped: inc.events[1].certs_dropped,
    };
    println!(
        "\nsingle-link event {}: incremental {:.1} ms vs cold {:.0} ms — {:.1}x, \
         cost {:.3} vs {:.3} (ratio {:.4}), certs {}/{} retained",
        single_link.event,
        single_link.incremental_millis,
        single_link.cold_millis,
        single_link.speedup,
        single_link.incremental_cost,
        single_link.cold_cost,
        single_link.cost_ratio,
        single_link.certs_retained,
        single_link.certs_retained + single_link.certs_dropped,
    );
    assert!(
        single_link.speedup >= 10.0,
        "acceptance bar: incremental must be >=10x faster than cold, got {:.1}x",
        single_link.speedup
    );
    assert!(
        single_link.cost_ratio <= 1.0 + rcfg.gap_tol + 1e-9,
        "equal plan cost within the shared optimality gap: ratio {:.6}",
        single_link.cost_ratio
    );

    // Stability: a seeded stream replanned incrementally in one session
    // (certificates accumulate across events, as they would in
    // production), warm-up event excluded from the rows.
    let stream = generate_stream(&net, args.seed.wrapping_add(17), args.events);
    let mut session = vec![warmup];
    session.extend(stream.iter().cloned());
    let rep = planner
        .replan_from(&net, &plan.final_units, &session, &rcfg)
        .expect("every stream event recovers");
    assert_eq!(rep.skipped(), 0, "generated streams pre-validate");
    validate_plan(&rep.net, &rep.final_units).expect("final stream plan valid");
    let mut rows: Vec<ChurnEventRow> = Vec::with_capacity(stream.len());
    let mut cost = rep.events[0].cost;
    for r in &rep.events[1..] {
        rows.push(ChurnEventRow {
            index: r.index - 1,
            class: r.class.clone(),
            event: r.event.clone(),
            incremental_millis: r.millis,
            cost: r.cost,
            cost_delta: r.cost - cost,
            churn: r.churn,
            certs_retained: r.certs_retained,
            certs_dropped: r.certs_dropped,
            quality: r.quality.name().to_string(),
        });
        cost = r.cost;
    }

    let mut table = Table::new(&["event", "class", "ms", "cost", "Δcost", "churn", "certs"]);
    for r in &rows {
        table.row(vec![
            cell(&r.event),
            cell(&r.class),
            cell(format!("{:.1}", r.incremental_millis)),
            cell(format!("{:.3}", r.cost)),
            cell(format!("{:+.3}", r.cost_delta)),
            cell(r.churn),
            cell(format!(
                "{}/{}",
                r.certs_retained,
                r.certs_retained + r.certs_dropped
            )),
        ]);
    }
    println!();
    table.print();

    let mut classes: Vec<ClassStability> = Vec::new();
    for r in &rows {
        if !classes.iter().any(|c| c.class == r.class) {
            let of: Vec<&ChurnEventRow> = rows.iter().filter(|x| x.class == r.class).collect();
            let n = of.len() as f64;
            classes.push(ClassStability {
                class: r.class.clone(),
                events: of.len(),
                mean_churn: of.iter().map(|x| x.churn as f64).sum::<f64>() / n,
                mean_abs_cost_delta: of.iter().map(|x| x.cost_delta.abs()).sum::<f64>() / n,
                mean_millis: of.iter().map(|x| x.incremental_millis).sum::<f64>() / n,
            });
        }
    }
    println!("\nstability per event class:");
    for c in &classes {
        println!(
            "  {:<13} {} event{}: mean churn {:.1} units, mean |Δcost| {:.3}, {:.1} ms",
            c.class,
            c.events,
            if c.events == 1 { "" } else { "s" },
            c.mean_churn,
            c.mean_abs_cost_delta,
            c.mean_millis,
        );
    }

    let bench = ChurnBench {
        schema_version: CHURN_SCHEMA_VERSION,
        seed: args.seed,
        quick: args.quick,
        tier: SizeTier::B.name().to_string(),
        links: net.links().len(),
        flows: net.flows().len(),
        failures: net.failures().len(),
        initial_cost: plan.final_cost,
        initial_plan_millis,
        single_link,
        events: rows,
        classes,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write(&args.out, &body)
        .unwrap_or_else(|e| panic!("write {}: {e}", args.out.display()));
    println!("\nwrote {}", args.out.display());
}
