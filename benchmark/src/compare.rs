//! `suite`: every workload in a child process of its own, untraced
//! `--repeats` times and traced once, into one JSON file. `compare`: two
//! such files against the bounds of `BENCHMARK.json`.

use crate::catalog::Catalog;
use crate::stats::{median, quartile_spread};
use crate::Flags;
use serde_json::{json, Value};
use std::process::Command;

/// Run one workload in a child process and parse its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let line: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e:?}"))?;
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    Ok(line)
}

pub fn suite(cat: &Catalog, flags: &Flags) -> i32 {
    let Some(out_path) = flags.get("--out") else {
        eprintln!("suite needs --out <file>");
        return 2;
    };
    let seed: u64 = flags.number("--seed").unwrap_or(0);
    let seconds: f64 = flags.number("--seconds").unwrap_or(cat.run_seconds);
    let repeats: usize = flags.number("--repeats").unwrap_or(5);
    let smoke = flags.get("--smoke").is_some();
    let mut failed = 0u64;
    let mut workloads = Vec::new();
    for name in &cat.workloads {
        let mut values: Vec<(String, Vec<f64>)> = cat
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), Vec::new()))
            .collect();
        let mut attempted = 0u64;
        // Untraced first: the end-to-end numbers never share a process
        // with the tracing.
        for r in 0..repeats {
            eprintln!("suite: {name} untraced {}/{repeats}", r + 1);
            match child(name, seed, seconds, false, smoke) {
                Ok(line) => {
                    attempted += line.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
                    failed += line.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
                    for (metric, samples) in &mut values {
                        if let Some(v) = line
                            .get("metrics")
                            .and_then(|m| m.get(metric))
                            .and_then(|m| m.get("value"))
                        {
                            samples.extend(v.as_f64());
                        }
                    }
                }
                Err(why) => {
                    eprintln!("suite: {why}");
                    failed += 1;
                }
            }
        }
        eprintln!("suite: {name} traced");
        let per_layer = match child(name, seed, seconds, true, smoke) {
            Ok(line) => {
                failed += line.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
                line.get("metrics").cloned().unwrap_or(Value::Null)
            }
            Err(why) => {
                eprintln!("suite: {why}");
                failed += 1;
                Value::Null
            }
        };
        let end_to_end: Vec<(String, Value)> = cat
            .end_to_end
            .iter()
            .zip(&values)
            .map(|(m, (_, samples))| (m.name.clone(), json!({"unit": m.unit, "values": samples})))
            .collect();
        for (m, (_, samples)) in cat.end_to_end.iter().zip(&values) {
            if !samples.is_empty() {
                println!(
                    "{name:<14} {:<14} {:>14.4} {}  (median of {})",
                    m.name,
                    median(samples),
                    m.unit,
                    samples.len()
                );
            }
        }
        workloads.push((
            name.clone(),
            json!({"attempted": attempted, "end_to_end": Value::Object(end_to_end), "per_layer": per_layer}),
        ));
    }
    let doc = json!({
        "schema": "np-benchmark-v1",
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "failed": failed,
        "workloads": Value::Object(workloads)
    });
    let text = serde_json::to_string_pretty(&doc).expect("suite serializes");
    if let Err(e) = std::fs::write(out_path, text) {
        eprintln!("suite: write {out_path}: {e}");
        return 2;
    }
    println!("wrote {out_path}; {failed} failed operations");
    i32::from(failed > 0)
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e:?}"))
}

fn samples(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(|v| v.as_array())
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// How metric values `b` stand against baseline `a`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline's median by more than the bound.
    Regressed,
    /// The baseline's own spread is wider than the bound, and `b` is
    /// not better on every run: the data cannot tell.
    Unresolved,
}

/// `worse_by` is the share of `a`'s median by which `b`'s median is
/// worse (negative = better). `spread_matters` is false for `setup_s`,
/// which is held to its bound but not to a spread.
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_matters: bool,
) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let every_b_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if lower_is_better { y < x } else { y > x })
    });
    let spread = quartile_spread(a)
        .unwrap_or(0.0)
        .max(quartile_spread(b).unwrap_or(0.0));
    let verdict = if spread_matters && spread > bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

pub fn compare(cat: &Catalog, path_a: &str, path_b: &str) -> i32 {
    let (a, b) = (load(path_a), load(path_b));
    let mut breaches = 0;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in &cat.workloads {
        for m in &cat.end_to_end {
            let (sa, sb) = (
                samples(&a, workload, &m.name),
                samples(&b, workload, &m.name),
            );
            if sa.is_empty() || sb.is_empty() {
                println!("{workload:<14} {:<12} missing from one side", m.name);
                breaches += 1;
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (worse_by, verdict) =
                judge(&sa, &sb, m.better == "lower", bound, m.name != "setup_s");
            breaches += i32::from(verdict != Verdict::Ok);
            println!(
                "{workload:<14} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                m.name,
                median(&sa),
                median(&sb),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Counts compare two versions of one program exactly.
        for m in cat.per_layer.iter().filter(|m| m.unit == "count") {
            let value = |doc: &Value| {
                doc.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("per_layer"))
                    .and_then(|p| p.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (va, vb) = (value(&a), value(&b));
            if va != vb || va.is_none() {
                println!("{workload:<14} count {} differs: {va:?} vs {vb:?}", m.name);
                breaches += 1;
            }
        }
    }
    for (path, doc) in [(path_a, &a), (path_b, &b)] {
        let failed = doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
        if failed > 0 {
            println!("{path}: {failed} operations failed their check");
            breaches += 1;
        }
    }
    println!(
        "{}",
        if breaches == 0 {
            "compare: ok"
        } else {
            "compare: breached"
        }
    );
    i32::from(breaches > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_regression_beyond_the_bound_is_flagged() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let (worse_by, verdict) = judge(&a, &slower, true, 0.10, true);
        assert!((worse_by - 0.15).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0], true, 0.10, true).1,
            Verdict::Ok
        );
        // Direction matters: more requests per second is an improvement.
        assert_eq!(judge(&a, &slower, false, 0.10, true).1, Verdict::Ok);
        assert_eq!(judge(&slower, &a, false, 0.10, true).1, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[101.0, 99.0, 100.0], true, 0.10, true).1,
            Verdict::Unresolved
        );
        // `setup_s` is held to its bound, not to a spread.
        assert_eq!(
            judge(&noisy, &[101.0, 99.0, 100.0], true, 0.10, false).1,
            Verdict::Ok
        );
        // ... unless every run of `b` beats every run of `a`.
        assert_eq!(
            judge(&noisy, &[60.0, 70.0, 65.0], true, 0.10, true).1,
            Verdict::Ok
        );
    }
}
