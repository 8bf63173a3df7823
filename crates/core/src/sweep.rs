//! `neuroplan sweep`: a grid of planning requests, one JSON per cell and
//! a summary CSV rendered from the cells.
//!
//! A grid is a JSON list of cells. A cell is `{"plan": <spec>}` or
//! `{"baseline": <spec>, "method": "ilp" | "ilp-heur", "time": <secs>}`,
//! where `<spec>` is a [`PlanSpec`] object. Every cell is read by the
//! code its subcommand reads flags with, and its instance generated,
//! before any cell runs; then each runs through the function its
//! subcommand runs ([`run_plan`], [`Baseline::run`]).
//!
//! `<out>/<i>.json` holds cell `i`'s request, canonicalized, followed by
//! its outcome: a plan file's members plus `rl_cost`, `reference_cost`,
//! `rung`, `retries`, `degrades`, the learning curve `epochs`
//! (`return`, `completed`, `truncated` per epoch), `first_stage_source`
//! (`policy` or `greedy`) and `epochs_run`; or a baseline's `cost`,
//! `cost_hex`, `proven`, `nodes` and `cuts`; or the `error` that stopped
//! it. Every cell ends with its wall `millis`. `<out>/summary.csv` has one
//! row per cell with fixed columns and no wall time, so a re-run at the
//! same commit reproduces it byte for byte wherever no wall budget cut a
//! solve short. Its `request` column is the cell as flags: `neuroplan
//! <command> <request>` runs the cell alone; its `returns` column is the
//! curve's mean returns, `;`-joined, and its last two columns are
//! `first_stage_source` and `epochs_run`.

use crate::baselines::Baseline;
use crate::pipeline::{validate_plan, NeuroPlan, NeuroPlanResult};
use crate::service::plan_body;
use crate::spec::PlanSpec;
use np_chaos::checkpoint::f64_to_hex;
use np_topology::Network;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

type Members = Vec<(String, Value)>;

/// What `plan` runs: the planner on `net`, the plan checked against every
/// failure scenario, and the plan file's members.
pub fn run_plan(planner: &NeuroPlan, net: &Network) -> Result<(NeuroPlanResult, Members), String> {
    let result = (planner.try_plan(net)).map_err(|e| format!("plan failed: {e}"))?;
    validate_plan(net, &result.final_units).map_err(|e| format!("plan failed validation: {e}"))?;
    let [units, cost, cost_hex, quality] = plan_body(
        &result.final_units,
        result.final_cost,
        result.quality.name(),
    );
    let first_stage = json!(result.first_stage_cost);
    let first_stage = ("first_stage_cost".to_string(), first_stage);
    Ok((result, vec![units, cost, cost_hex, first_stage, quality]))
}

/// One checked cell of a grid.
pub struct Cell {
    /// The request as the cell's JSON gives it, in canonical form.
    request: Members,
    net: Network,
    spec: PlanSpec,
    /// `None` for a `plan` cell.
    baseline: Option<Baseline>,
}

/// Read a grid and check every cell. Nothing has run when this fails.
pub fn read_grid(text: &str) -> Result<Vec<Cell>, String> {
    let grid: Value = serde_json::from_str(text).map_err(|e| format!("grid: {e}"))?;
    let cells = grid.as_array().ok_or("a grid is a JSON list of cells")?;
    (cells.iter().enumerate())
        .map(|(i, cell)| read_cell(cell).map_err(|e| format!("cell {i}: {e}")))
        .collect()
}

fn read_cell(cell: &Value) -> Result<Cell, String> {
    let members = cell.as_object().ok_or("a cell is a JSON object")?;
    let mut commands = (members.iter()).filter(|(k, _)| k == "plan" || k == "baseline");
    let (Some((command, spec)), None) = (commands.next(), commands.next()) else {
        return Err("a cell holds one `plan` or one `baseline` spec".to_string());
    };
    let spec = PlanSpec::from_json(spec)?;
    let mut flags = HashMap::new();
    for (key, v) in members.iter().filter(|(k, _)| k != command) {
        if command == "plan" || !matches!(key.as_str(), "method" | "time") {
            return Err(format!("`{key}` is not a flag of `{command}`"));
        }
        let text = match v {
            Value::Str(s) => s.clone(),
            Value::Num(x) => x.to_string(),
            _ => return Err(format!("`{key}` takes a string or a number")),
        };
        flags.insert(key.clone(), text);
    }
    let mut request = vec![(command.clone(), spec.to_json())];
    let baseline = match command.as_str() {
        "plan" => {
            spec.check_plan()?;
            None
        }
        _ => {
            let b = Baseline::from_flags(&flags)?;
            request.push(("method".to_string(), json!(b.method())));
            request.push(("time".to_string(), json!(b.time_secs)));
            Some(b)
        }
    };
    let net = spec.network()?;
    Ok(Cell {
        request,
        net,
        spec,
        baseline,
    })
}

/// Run one cell: its request members, then its outcome.
fn run_cell(cell: &Cell) -> Members {
    let t0 = Instant::now();
    let mut out = cell.request.clone();
    let outcome = match cell.baseline {
        None => match run_plan(&NeuroPlan::new(cell.spec.config()), &cell.net) {
            Ok((result, file)) => {
                out.extend(file);
                let epochs = (result.train_report.epochs.iter()).map(|e| {
                    json!({
                        "return": e.mean_return,
                        "completed": e.completed,
                        "truncated": e.truncated,
                    })
                });
                json!({
                    "rl_cost": result.rl_cost,
                    "reference_cost": result.reference_cost,
                    "rung": result.quality.rung(),
                    "retries": result.supervision.total_retries(),
                    "degrades": result.supervision.degrades,
                    "epochs": Value::Array(epochs.collect()),
                    "first_stage_source": result.first_stage_source(),
                    "epochs_run": result.train_report.epochs_run(),
                })
            }
            Err(e) => json!({ "error": e }),
        },
        Some(b) => {
            let run = b.run(&cell.net, cell.spec.workers().unwrap_or(1));
            json!({
                "cost": run.cost(),
                "cost_hex": f64_to_hex(run.cost()),
                "proven": run.solved_to_optimality,
                "nodes": run.master.nodes,
                "cuts": run.master.cuts_added,
            })
        }
    };
    let Value::Object(outcome) = outcome else {
        unreachable!("json! of an object literal")
    };
    out.extend(outcome);
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    out.push(("millis".to_string(), json!(millis)));
    out
}

/// The outcome columns of `summary.csv`, after `cell,command,request`;
/// a cell leaves empty the ones its command does not report.
const COLUMNS: [&str; 16] = [
    "cost",
    "cost_hex",
    "first_stage_cost",
    "rl_cost",
    "reference_cost",
    "quality",
    "rung",
    "retries",
    "degrades",
    "proven",
    "nodes",
    "cuts",
    "error",
    "returns",
    "first_stage_source",
    "epochs_run",
];

/// Run every cell in order, writing `<out>/<i>.json` as each finishes and
/// `<out>/summary.csv` at the end. Returns how many cells failed.
pub fn run_grid(cells: &[Cell], out: &Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(out)?;
    let mut summary = format!("cell,command,request,{}\n", COLUMNS.join(","));
    let mut failed = 0;
    for (i, cell) in cells.iter().enumerate() {
        let body = Value::Object(run_cell(cell));
        let (command, request) = as_flags(&cell.request);
        let mut row = vec![i.to_string(), command.to_string(), request.clone()];
        row.extend(COLUMNS.iter().map(|c| column(&body, c)));
        eprintln!(
            "cell {i}/{}: {command} {request}: {}",
            cells.len(),
            match body.get("error") {
                Some(e) => format!("FAILED ({})", text(e)),
                None => format!("cost {}", row[3]),
            }
        );
        failed += usize::from(body.get("error").is_some());
        let json = serde_json::to_string_pretty(&body).expect("json");
        std::fs::write(out.join(format!("{i}.json")), json + "\n")?;
        summary += &(row.iter().map(|f| csv_field(f)))
            .collect::<Vec<_>>()
            .join(",");
        summary.push('\n');
    }
    std::fs::write(out.join("summary.csv"), summary)?;
    Ok(failed)
}

/// A request as its subcommand and flags, e.g. `("plan", "--preset a --alpha 2")`.
fn as_flags(request: &Members) -> (&str, String) {
    let (command, spec) = &request[0];
    let spec = spec.as_object().expect("a spec is an object");
    let flags: Vec<String> = (spec.iter().chain(&request[1..]))
        .map(|(key, v)| match v {
            Value::Bool(_) => format!("--{}", key.replace('_', "-")),
            v => format!("--{} {}", key.replace('_', "-"), text(v)),
        })
        .collect();
    (command, flags.join(" "))
}

/// Column `c` of a cell's summary row.
fn column(body: &Value, c: &str) -> String {
    match (c, body.get("epochs").and_then(Value::as_array)) {
        ("returns", Some(epochs)) => {
            let returns: Vec<String> = epochs.iter().map(|e| text(&e["return"])).collect();
            returns.join(";")
        }
        _ => body.get(c).map_or(String::new(), text),
    }
}

/// A scalar as a CSV cell: numbers in their shortest round-trip form,
/// `null` and non-finite numbers empty.
fn text(v: &Value) -> String {
    match v {
        Value::Num(x) if x.is_finite() => x.to_string(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        _ => String::new(),
    }
}

fn csv_field(field: &str) -> String {
    match field.contains([',', '"', '\n']) {
        true => format!("\"{}\"", field.replace('"', "\"\"")),
        false => field.to_string(),
    }
}
