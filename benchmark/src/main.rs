//! `np-benchmark`: the repo's performance ledger.
//!
//! ```text
//! np-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--smoke] [--trace-out <file>]
//! np-benchmark suite [--seed <n>] [--seconds <s>] [--repeats <r>] [--smoke] --out <file>
//! np-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! untraced (`--trace 0`, the end-to-end metrics) or traced (`--trace 1`,
//! the per-layer metrics). It prints every metric by name with its unit
//! and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. README.md explains the
//! workloads and the metrics.

mod catalog;
mod compare;
mod layers;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use catalog::Catalog;
use serde_json::{json, Value};
use workloads::{Run, Workload};

fn usage() -> ! {
    eprintln!(
        "usage:\n  np-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]\n  \
         np-benchmark suite [--seed <n>] [--seconds <s>] [--repeats <r>] [--smoke] --out <file>\n  \
         np-benchmark compare <a.json> <b.json>\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    std::process::exit(2);
}

/// `--flag value` pairs and bare `--smoke`, in any order.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    pub fn parse(args: &[String]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => out.push((flag.clone(), "1".to_string())),
                f if f.starts_with("--") => match it.next() {
                    Some(value) => out.push((flag.clone(), value.clone())),
                    None => usage(),
                },
                _ => usage(),
            }
        }
        Flags(out)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
    }
}

/// The measured program must be the shipped one: an optimized build,
/// no fault injection, the default LP engine.
fn refuse_unrepresentative_runs() {
    if cfg!(debug_assertions) {
        eprintln!("np-benchmark: this is a debug build; measure with `cargo run --release`");
        std::process::exit(2);
    }
    for var in ["NP_CHAOS", "NP_LP_BACKEND"] {
        if std::env::var_os(var).is_some() {
            eprintln!("np-benchmark: unset {var}: it changes the code under measurement");
            std::process::exit(2);
        }
    }
    assert!(
        !np_chaos::global().is_active(),
        "fault injection must be off"
    );
}

/// Run one workload once; returns `(metrics by name, attempted, failures)`.
pub fn run_workload(
    cat: &Catalog,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    trace_out: Option<&str>,
) -> (Vec<(String, f64, String)>, u64, Vec<String>) {
    let mut run = Run::new(workload, seed, seconds, smoke);
    let metrics: Vec<(String, f64, String)> = if traced {
        let rec = layers::traced(&mut run);
        if let Some(path) = trace_out {
            let text = serde_json::to_string(&rec.to_json()).expect("trace serializes");
            std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        }
        cat.per_layer
            .iter()
            .map(|m| {
                let value = rec
                    .metric(&m.name, &m.unit)
                    .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", m.name));
                (m.name.clone(), value, m.unit.clone())
            })
            .collect()
    } else {
        let measured = workloads::end_to_end(&mut run);
        cat.end_to_end
            .iter()
            .map(|m| {
                let value = measured
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric `{}` was not measured", m.name))
                    .1;
                (m.name.clone(), value, m.unit.clone())
            })
            .collect()
    };
    (metrics, run.attempted, std::mem::take(&mut run.failures))
}

/// The driver's result line.
pub fn result_line(metrics: &[(String, f64, String)], attempted: u64, failed: u64) -> Value {
    let metrics: Vec<(String, Value)> = metrics
        .iter()
        .map(|(name, value, unit)| (name.clone(), json!({"value": *value, "unit": unit})))
        .collect();
    json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    refuse_unrepresentative_runs();
    let cat = Catalog::load();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => std::process::exit(compare::compare(&cat, a, b)),
            _ => usage(),
        },
        Some("suite") => std::process::exit(compare::suite(&cat, &Flags::parse(&args[1..]))),
        _ => {}
    }
    let flags = Flags::parse(&args);
    let workload = flags
        .get("--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage());
    let seed: u64 = flags.number("--seed").unwrap_or(0);
    let seconds: f64 = flags.number("--seconds").unwrap_or(cat.run_seconds);
    let traced = match flags.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    let (metrics, attempted, failures) = run_workload(
        &cat,
        workload,
        seed,
        seconds,
        traced,
        flags.get("--smoke").is_some(),
        flags.get("--trace-out"),
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!(
        "{}",
        serde_json::to_string(&result_line(&metrics, attempted, failures.len() as u64))
            .expect("result serializes")
    );
    if !failures.is_empty() {
        eprintln!(
            "np-benchmark: {} of {attempted} operations failed their check",
            failures.len()
        );
        std::process::exit(1);
    }
}
