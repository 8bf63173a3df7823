//! # np-bench
//!
//! Experiment binaries for the figures that vary what a planning request
//! cannot name: evaluator knobs, worker counts, churn streams and daemon
//! sessions. Each prints the rows it reports and writes a CSV under
//! `results/` (or a `BENCH_*.json`). The figures that are grids of
//! planning requests — Figs. 8–13 and 16 — are `neuroplan sweep --grid
//! results/grids/<fig>.json` instead.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig07_eval_efficiency` | Fig. 7 — evaluator optimizations |
//! | `fig14_parallel_scaling` | beyond-paper — check/separate at 1, 2, 4 workers |
//! | `fig17_churn` | beyond-paper — online re-planning under churn |
//! | `fig18_serve` | beyond-paper — planning-as-a-service latency |
//!
//! Every binary accepts `--quick` (CI-sized, the default) or `--full`
//! (longer budgets), plus `--seed <u64>` and `--out <dir>`.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

pub mod churn;
pub mod serve;

/// Shared command-line options for experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Smaller budgets for CI / smoke runs.
    pub quick: bool,
    /// Seed for the whole experiment.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
}

impl ExpArgs {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> ExpArgs {
        let mut args = ExpArgs {
            quick: true,
            seed: 0,
            out_dir: PathBuf::from("results"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--full" => args.quick = false,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed takes a u64");
                }
                "--out" => {
                    args.out_dir = PathBuf::from(it.next().expect("--out takes a directory"));
                }
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --quick --full --seed <u64> --out <dir>"
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// A simple fixed-width experiment table mirroring the paper's rows.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                out.push_str(&format!("{c:>w$}  "));
            }
            println!("{}", out.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as CSV into `dir/name` (creates the directory).
    pub fn write_csv(&self, dir: &Path, name: &str) {
        fs::create_dir_all(dir).expect("create results dir");
        let mut out = self.header.join(",") + "\n";
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        let path = dir.join(name);
        fs::write(&path, out).expect("write csv");
        println!("\nwrote {}", path.display());
    }
}

/// Format a ratio like the paper's normalized plots (3 decimals, `x` for
/// the crosses marking failed/omitted entries in Figs. 7/9/10).
pub fn ratio_cell(v: Option<f64>) -> String {
    match v {
        Some(r) if r.is_finite() => format!("{r:.3}"),
        _ => "x".to_string(),
    }
}

/// Format any displayable value.
pub fn cell(v: impl Display) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_cells() {
        assert_eq!(ratio_cell(Some(1.2345)), "1.234");
        assert_eq!(ratio_cell(None), "x");
        assert_eq!(ratio_cell(Some(f64::INFINITY)), "x");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn tables_enforce_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(&["topo", "cost"]);
        t.row(vec!["A".into(), "1.00".into()]);
        let dir = std::env::temp_dir().join("npbench-test");
        t.write_csv(&dir, "t.csv");
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(body, "topo,cost\nA,1.00\n");
    }
}
