//! Figure 18 (repo-local, beyond the paper): planning-as-a-service
//! throughput and latency.
//!
//! The paper plans offline; this harness measures `np-serve` hosting
//! the real planner (`NeuroPlanService`) under closed-loop client load.
//! At each concurrency level (1, 4, 16 clients) every client submits
//! requests back-to-back and waits for each result; two phases are
//! timed per level and written to `BENCH_serve.json` (schema in
//! `np_bench::serve`, pinned by `tests/serve_schema.rs`):
//!
//! 1. **Cold**: every request carries a never-seen topology fingerprint
//!    (fresh seed), so the daemon runs the full RL+ILP pipeline.
//! 2. **Warm**: every request re-uses a fingerprint already in the warm
//!    LRU cache, so the daemon only re-validates the cached plan.
//!    Acceptance bar: warm p50 latency ≥10× below cold p50 at every
//!    level.
//!
//! ```text
//! fig18_serve [--quick|--full] [--seed <u64>] [--requests <n>]
//!             [--workers <n>] [--out <file.json>]
//! ```

use np_bench::serve::{percentile, ConcurrencyLevel, PhaseStats, ServeBench, SERVE_SCHEMA_VERSION};
use np_bench::{cell, Table};
use np_serve::{Client, Server, ServerConfig};
use np_telemetry::Telemetry;
use serde_json::{json, Value};
use std::time::{Duration, Instant};

const LEVELS: [usize; 3] = [1, 4, 16];

struct Args {
    quick: bool,
    seed: u64,
    requests: usize,
    workers: usize,
    out: std::path::PathBuf,
}

fn usage() -> ! {
    eprintln!("fig18_serve [--quick|--full] [--seed <u64>] [--requests <n>] [--workers <n>] [--out <file>]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: true,
        seed: 0,
        requests: 0, // 0 = sized by --quick/--full below
        workers: 4,
        out: std::path::PathBuf::from("BENCH_serve.json"),
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
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = std::path::PathBuf::from(value("--out")),
            _ => usage(),
        }
    }
    if args.requests == 0 {
        args.requests = if args.quick { 3 } else { 8 };
    }
    if args.workers == 0 {
        usage()
    }
    args
}

/// The benched request: the smallest preset under the service's quick
/// budgets — the figure measures service overhead and cache behaviour,
/// not solver scaling (Fig. 9 covers that).
fn spec(seed: u64) -> Value {
    json!({"preset": "a", "seed": seed})
}

/// One closed-loop client: submit, wait for the terminal result, record
/// the end-to-end latency, repeat. Panics on any non-`done` outcome so a
/// shed or failed request can't silently skew the percentiles.
fn client_loop(addr: &str, seeds: &[u64]) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let mut latencies = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let t0 = Instant::now();
        let reply = client.submit(&spec(seed)).expect("submit");
        let result = client.outcome(&reply, Duration::from_secs(600));
        let result = result.expect("outcome");
        assert_eq!(
            result.get("state").and_then(|v| v.as_str()),
            Some("done"),
            "request did not finish: {result:?} (submit said {reply:?})"
        );
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    latencies
}

/// Run `clients` closed-loop clients to completion and aggregate.
fn run_phase(addr: &str, clients: usize, seeds_per_client: Vec<Vec<u64>>) -> PhaseStats {
    assert_eq!(seeds_per_client.len(), clients);
    let t0 = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds_per_client
            .iter()
            .map(|seeds| scope.spawn(move || client_loop(addr, seeds)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_millis = t0.elapsed().as_secs_f64() * 1e3;
    PhaseStats {
        requests: latencies.len(),
        wall_millis,
        throughput_rps: latencies.len() as f64 / (wall_millis / 1e3),
        p50_millis: percentile(&latencies, 50.0),
        p99_millis: percentile(&latencies, 99.0),
    }
}

fn main() {
    let args = parse_args();
    let state_dir = std::env::temp_dir().join(format!("np-fig18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).expect("create state dir");

    let max_clients = *LEVELS.iter().max().expect("levels");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: args.workers,
        // Closed-loop clients have at most one request outstanding each,
        // so `max_clients` bounds the queue; the cache must hold every
        // warm fingerprint plus the cold inserts without evicting.
        queue_capacity: 2 * max_clients,
        cache_capacity: 4096,
        state_dir: state_dir.clone(),
        read_timeout: Duration::from_secs(60),
    };
    let service = neuroplan::NeuroPlanService::new(&state_dir, Telemetry::noop());
    let shutdown = np_chaos::CancelToken::new();
    let server = Server::start_with_chaos(
        cfg,
        service,
        Telemetry::noop(),
        shutdown,
        np_chaos::Chaos::disabled(),
    )
    .expect("start daemon");
    let addr = server.addr().to_string();
    println!(
        "Figure 18: planning-as-a-service — {} workers at {addr} ({})\n",
        args.workers,
        if args.quick { "quick" } else { "full" },
    );

    // Prime the warm set once: one cold solve per fingerprint the warm
    // phases will re-use. Primed outside any timed phase.
    let warm_seeds: Vec<u64> = (0..max_clients as u64).map(|i| args.seed + i).collect();
    client_loop(&addr, &warm_seeds);
    println!(
        "primed {} warm fingerprints; {} requests/client/phase",
        warm_seeds.len(),
        args.requests
    );

    // Cold seeds must never repeat across the whole run: offset past the
    // warm set and advance a global counter.
    let mut next_cold = args.seed + 1_000_000;
    let mut levels: Vec<ConcurrencyLevel> = Vec::with_capacity(LEVELS.len());
    for clients in LEVELS {
        let cold_seeds: Vec<Vec<u64>> = (0..clients)
            .map(|_| {
                (0..args.requests)
                    .map(|_| {
                        next_cold += 1;
                        next_cold
                    })
                    .collect()
            })
            .collect();
        let cold = run_phase(&addr, clients, cold_seeds);

        // Each client cycles through the primed fingerprints, staggered
        // so concurrent clients hit different cache entries.
        let warm_seed_lists: Vec<Vec<u64>> = (0..clients)
            .map(|c| {
                (0..args.requests)
                    .map(|r| warm_seeds[(c + r) % warm_seeds.len()])
                    .collect()
            })
            .collect();
        let warm = run_phase(&addr, clients, warm_seed_lists);

        let speedup = cold.p50_millis / warm.p50_millis;
        println!(
            "{clients:>2} client{}: cold p50 {:.1} ms p99 {:.1} ms ({:.2} req/s) | \
             warm p50 {:.1} ms p99 {:.1} ms ({:.2} req/s) — {:.0}x",
            if clients == 1 { " " } else { "s" },
            cold.p50_millis,
            cold.p99_millis,
            cold.throughput_rps,
            warm.p50_millis,
            warm.p99_millis,
            warm.throughput_rps,
            speedup,
        );
        levels.push(ConcurrencyLevel {
            clients,
            cold,
            warm,
            warm_speedup_p50: speedup,
        });
    }
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&state_dir);

    let mut table = Table::new(&[
        "clients",
        "cold p50",
        "cold p99",
        "cold req/s",
        "warm p50",
        "warm p99",
        "warm req/s",
        "speedup",
    ]);
    for l in &levels {
        table.row(vec![
            cell(l.clients),
            cell(format!("{:.1}", l.cold.p50_millis)),
            cell(format!("{:.1}", l.cold.p99_millis)),
            cell(format!("{:.2}", l.cold.throughput_rps)),
            cell(format!("{:.1}", l.warm.p50_millis)),
            cell(format!("{:.1}", l.warm.p99_millis)),
            cell(format!("{:.2}", l.warm.throughput_rps)),
            cell(format!("{:.0}x", l.warm_speedup_p50)),
        ]);
    }
    println!();
    table.print();

    for l in &levels {
        assert!(
            l.warm_speedup_p50 >= 10.0,
            "acceptance bar: warm must be >=10x faster than cold at {} clients, got {:.1}x",
            l.clients,
            l.warm_speedup_p50
        );
    }

    let bench = ServeBench {
        schema_version: SERVE_SCHEMA_VERSION,
        seed: args.seed,
        quick: args.quick,
        workers: args.workers,
        requests_per_client: args.requests,
        levels,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write(&args.out, &body)
        .unwrap_or_else(|e| panic!("write {}: {e}", args.out.display()));
    println!("\nwrote {}", args.out.display());
}
