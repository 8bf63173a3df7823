//! `neuroplan` — command-line planner.
//!
//! ```text
//! neuroplan generate --preset b --fill 0.5 --out topo.json
//! neuroplan plan     --preset a [--alpha 1.5] [--quick|--default] [--seed 7]
//! neuroplan plan     --topology topo.json --out plan.json
//! neuroplan evaluate --topology topo.json --plan plan.json
//! neuroplan baseline --preset a --method ilp|ilp-heur
//! neuroplan sweep    --grid results/grids/fig13.json --out runs/fig13
//! ```
//!
//! Which instance and how to plan it is a [`PlanSpec`]: its field table
//! (`neuroplan::spec::FIELDS`) defines those flags, and `COMMANDS`
//! adds each subcommand's run-scoped ones; `neuroplan` alone prints
//! both. The JSON formats are `np_topology::Network::to_json` for
//! topologies and a flat `{"units": [u32...], "cost": f64}` object for
//! plans.

use neuroplan::baselines::Baseline;
use neuroplan::sweep::{read_grid, run_grid, run_plan};
use neuroplan::{validate_plan, NeuroPlan, NeuroPlanService, PlanSpec};
use np_chaos::signals;
use np_eval::{EvalConfig, PlanEvaluator};
use np_telemetry::Telemetry;
use np_topology::Network;
use std::collections::HashMap;
use std::process::exit;

/// Run-scoped flags of the subcommands that solve something, and of
/// those that checkpoint (`<…>` marks a flag that takes a value).
const OBSERVED: &str =
    "--topology <file> --telemetry <file> --profile --profile-out <file> --chaos <spec>";
const CHECKPOINTED: &str = "--checkpoint-dir <dir> --resume --out <file>";

/// Each subcommand with its run-scoped flags. Any other flag must be a
/// request flag of the spec table.
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str])] = &[
    ("generate", &["--topology <file> --out <file>"]),
    ("plan", &[OBSERVED, CHECKPOINTED]),
    ("replan", &[OBSERVED, CHECKPOINTED]),
    ("evaluate", &[OBSERVED, "--plan <file>"]),
    ("baseline", &["--topology <file> --chaos <spec> --method <ilp|ilp-heur> --time <secs>"]),
    ("sweep", &["--grid <file> --out <dir>"]),
    ("serve", &[
        "--addr <host:port> --state-dir <dir> --queue-cap <n> --cache-cap <n>",
        "--telemetry <file> --profile --profile-out <file> --chaos <spec>",
    ]),
    ("request", &[
        "--addr <host:port> --do <run|submit|status|result|cancel|stats|shutdown>",
        "--id <n> --timeout <secs> --out <file>",
    ]),
];

type Flags = HashMap<String, String>;

fn usage() -> ! {
    eprintln!("usage: neuroplan <command> [request flags] [run flags]\n\ncommands and run flags:");
    for (cmd, run) in COMMANDS {
        eprintln!("  {cmd:<9} {}", run.join(" "));
    }
    eprintln!("\nrequest flags (as JSON spec keys: `_` for `-`, a bare flag is `true`):");
    for field in neuroplan::spec::FIELDS {
        eprintln!("  {:<48} {}", field.flag(), field.doc);
    }
    eprintln!(
        "\n--profile prints the self-time table to stderr; its JSON goes to --profile-out only"
    );
    eprintln!(
        "request exits {EXPIRED} (\"request <id> expired: ...\") for an --id the daemon issued but no longer keeps (410)"
    );
    exit(2)
}

/// Exit code of `request` for an id whose result has expired (`410`):
/// apart from 1, a request that failed or was refused, and 2, usage.
const EXPIRED: i32 = 3;

/// A usage error: nothing has been generated, trained or written yet.
fn fail(msg: &str) -> ! {
    eprintln!("neuroplan: {msg} (run `neuroplan` alone for the flag table)");
    exit(2)
}

/// A run-scoped flag's parsed value, or `default` when it is absent.
fn flag_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => (v.parse()).unwrap_or_else(|_| fail(&format!("--{key} cannot take `{v}`"))),
    }
}

/// `--events` also takes the path of a file holding the churn spec.
fn inline_events(args: &[String]) -> Vec<String> {
    let mut args = args.to_vec();
    for i in 1..args.len() {
        if args[i - 1] == "--events" {
            if let Ok(body) = std::fs::read_to_string(&args[i]) {
                args[i] = body;
            }
        }
    }
    args
}

/// The instance: the `--topology` file, else the one the spec names.
fn load_network(spec: &PlanSpec, flags: &Flags) -> Network {
    let Some(path) = flags.get("topology") else {
        return (spec.network()).unwrap_or_else(|e| fail(&format!("{e} (or --topology)")));
    };
    spec.check_topology().unwrap_or_else(|e| fail(&e));
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    Network::from_json(&json).unwrap_or_else(|e| {
        eprintln!("invalid topology file: {e}");
        exit(1)
    })
}

/// `--chaos <spec>`: validate and install the process-wide fault plan
/// (see `np_chaos` for the grammar). Must run before any instrumented
/// code; a malformed spec is a usage error.
fn install_chaos(flags: &Flags) {
    let Some(spec) = flags.get("chaos") else {
        return;
    };
    let plan = np_chaos::FaultPlan::parse(spec).unwrap_or_else(|e| fail(&e.to_string()));
    if !np_chaos::install(plan) {
        eprintln!("warning: a chaos plan is already installed (NP_CHAOS); --chaos ignored");
    }
}

/// Print which fault classes fired, so chaos runs are auditable.
fn finish_chaos() {
    let chaos = np_chaos::global();
    for (name, count) in chaos.summary() {
        eprintln!("chaos: {name} fired {count}x");
    }
}

/// `--telemetry <path>`: a JSONL sink at `path`, else the free no-op.
/// `--profile` needs an enabled handle to aggregate spans into, so it
/// forces an in-memory sink when `--telemetry` is absent, and flips the
/// process-global profiling switch that makes the solver layers collect
/// stage times (timing only — plan costs and counters are unchanged).
fn telemetry_of(flags: &Flags) -> Telemetry {
    if flags.contains_key("profile") {
        np_telemetry::set_profiling(true);
    }
    match flags.get("telemetry") {
        Some(path) => Telemetry::jsonl(path).unwrap_or_else(|e| {
            eprintln!("cannot open telemetry file {path}: {e}");
            exit(1)
        }),
        None if flags.contains_key("profile") => Telemetry::memory(),
        None => Telemetry::noop(),
    }
}

/// Flush the sink and print the per-phase breakdown to stderr. Under
/// `--profile`, additionally print the self-time wall breakdown, and
/// write the `np-profile-v1` JSON where `--profile-out` says — nowhere
/// without it.
fn finish_telemetry(tel: &Telemetry, flags: &Flags) {
    if !tel.is_enabled() {
        return;
    }
    tel.flush();
    eprint!("{}", tel.render_summary());
    if let Some(path) = flags.get("telemetry") {
        eprintln!("telemetry written to {path}");
    }
    if flags.contains_key("profile") {
        let report = np_telemetry::profile::ProfileReport::from_telemetry(tel, tel.elapsed_us());
        eprint!("{}", report.render_table());
        if let Some(out) = flags.get("profile-out") {
            let body = serde_json::to_string_pretty(&report.to_json()).expect("profile json");
            match std::fs::write(out, format!("{body}\n")) {
                Ok(()) => eprintln!("profile written to {out}"),
                Err(e) => eprintln!("cannot write profile file {out}: {e}"),
            }
        }
    }
}

/// Exclusive claim on `--checkpoint-dir`: two processes appending to one
/// checkpoint/journal chain corrupt it for both, so refuse up front with
/// the owner's pid. The guard must stay alive for the whole run.
fn lock_checkpoint_dir(flags: &Flags) -> Option<np_chaos::DirLock> {
    let dir = flags.get("checkpoint-dir")?;
    match np_chaos::DirLock::acquire(std::path::Path::new(dir)) {
        Ok(lock) => Some(lock),
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    }
}

/// A `PlanFailure::Cancelled` after SIGINT/SIGTERM is a graceful stop:
/// telemetry is flushed, the checkpoint chain ends on a complete epoch,
/// and the exit code is the conventional `128 + signo` (130/143).
fn exit_if_signalled(tel: &Telemetry, flags: &Flags) {
    if let Some(signo) = signals::received() {
        finish_telemetry(tel, flags);
        finish_chaos();
        eprintln!(
            "interrupted by signal {signo}; telemetry flushed, checkpoint complete — resume with --resume"
        );
        exit(signals::exit_code(signo));
    }
}

/// The `units` of a plan file, one per link of an instance with `links` links.
fn read_plan(path: &str, links: usize) -> Result<Vec<u32>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let plan: serde_json::Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let units: Vec<u32> = (plan.get("units"))
        .and_then(|u| serde_json::from_value(u.clone()).ok())
        .ok_or("it needs a `units` array of u32")?;
    match units.len() == links {
        true => Ok(units),
        false => Err(format!("{} units for {links} links", units.len())),
    }
}

fn write_or_print(flags: &Flags, body: &str) {
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, body).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            println!("wrote {path}");
        }
        None => println!("{body}"),
    }
}

/// The planner of `plan` and `replan`: stops at SIGINT/SIGTERM and
/// checkpoints under `--checkpoint-dir`.
fn planner_of(spec: &PlanSpec, flags: &Flags, tel: &Telemetry) -> NeuroPlan {
    let planner =
        NeuroPlan::with_telemetry(spec.config(), tel.clone()).with_cancel(signals::install());
    match flags.get("checkpoint-dir") {
        Some(dir) => planner.with_checkpoint(dir, flags.contains_key("resume")),
        None => planner,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let Some((_, run)) = COMMANDS.iter().find(|(name, _)| name == cmd) else {
        usage()
    };
    let (spec, flags) =
        PlanSpec::from_flags(&inline_events(rest), &run.join(" ")).unwrap_or_else(|e| fail(&e));
    if flags.contains_key("resume") && !flags.contains_key("checkpoint-dir") {
        fail("--resume needs --checkpoint-dir")
    }
    install_chaos(&flags);
    match cmd.as_str() {
        "generate" => {
            let net = load_network(&spec, &flags);
            eprintln!(
                "generated: {} sites, {} fibers, {} links, {} flows, {} failures",
                net.sites().len(),
                net.fibers().len(),
                net.links().len(),
                net.flows().len(),
                net.failures().len()
            );
            write_or_print(&flags, &net.to_json());
        }
        "plan" => {
            spec.check_plan().unwrap_or_else(|e| fail(&e));
            let net = load_network(&spec, &flags);
            let tel = telemetry_of(&flags);
            let _lock = lock_checkpoint_dir(&flags);
            let planner = planner_of(&spec, &flags, &tel);
            let (result, body) = run_plan(&planner, &net).unwrap_or_else(|e| {
                exit_if_signalled(&tel, &flags);
                finish_telemetry(&tel, &flags);
                finish_chaos();
                eprintln!("{e}");
                exit(1)
            });
            finish_telemetry(&tel, &flags);
            finish_chaos();
            eprintln!(
                "first-stage {:.1} -> final {:.1} ({} epochs, {} B&B nodes, {} cuts)",
                result.first_stage_cost,
                result.final_cost,
                result.train_report.epochs_run(),
                result.master.nodes,
                result.master.cuts_added
            );
            eprintln!(
                "quality {} (rung {}), {} retries, {} degrades",
                result.quality,
                result.quality.rung(),
                result.supervision.total_retries(),
                result.supervision.degrades
            );
            let body = serde_json::Value::Object(body);
            write_or_print(&flags, &serde_json::to_string_pretty(&body).expect("json"));
        }
        "replan" => {
            let net = load_network(&spec, &flags);
            let Some(events) = spec.events(&net) else {
                fail("replan needs --events <spec|file>")
            };
            let rcfg = spec.replan_config();
            let tel = telemetry_of(&flags);
            let _lock = lock_checkpoint_dir(&flags);
            let planner = planner_of(&spec, &flags, &tel);
            let report = planner.replan(&net, &events, &rcfg).unwrap_or_else(|e| {
                exit_if_signalled(&tel, &flags);
                finish_telemetry(&tel, &flags);
                finish_chaos();
                eprintln!("replan failed: {e}");
                exit(1)
            });
            if let Err(e) = validate_plan(&report.net, &report.final_units) {
                eprintln!("final plan failed validation: {e}");
                exit(1)
            }
            finish_telemetry(&tel, &flags);
            finish_chaos();
            for ev in &report.events {
                match &ev.skipped {
                    Some(reason) => eprintln!(
                        "event {:>3} {:<14} SKIPPED ({reason})",
                        ev.index, ev.class
                    ),
                    None => eprintln!(
                        "event {:>3} {:<14} cost {:>10.1}  churn {:>4}  cuts kept {}/dropped {}{}{}",
                        ev.index,
                        ev.class,
                        ev.cost,
                        ev.churn,
                        ev.certs_retained,
                        ev.certs_dropped,
                        if ev.flapped { "  [flap recovered]" } else { "" },
                        if ev.resumed { "  [resumed]" } else { "" },
                    ),
                }
            }
            eprintln!(
                "initial {:.1} -> final {:.1} over {} events ({} applied, {} skipped, {} resumed)",
                report.initial_cost,
                report.final_cost,
                report.events.len(),
                report.applied(),
                report.skipped(),
                report.resumed
            );
            let events_json: Vec<serde_json::Value> = report
                .events
                .iter()
                .map(|ev| {
                    serde_json::json!({
                        "index": ev.index,
                        "class": ev.class,
                        "event": ev.event,
                        "skipped": ev.skipped,
                        "cost": ev.cost,
                        "quality": ev.quality.name(),
                        "churn": ev.churn,
                        "certs_retained": ev.certs_retained,
                        "certs_dropped": ev.certs_dropped,
                        "flapped": ev.flapped,
                        "resumed": ev.resumed,
                        "millis": ev.millis,
                    })
                })
                .collect();
            let body = serde_json::json!({
                "units": report.final_units,
                "cost": report.final_cost,
                "initial_cost": report.initial_cost,
                "events": events_json,
            });
            write_or_print(&flags, &serde_json::to_string_pretty(&body).expect("json"));
        }
        "evaluate" => {
            let net = load_network(&spec, &flags);
            let units: Vec<u32> = match flags.get("plan") {
                Some(path) => read_plan(path, net.links().len()).unwrap_or_else(|e| {
                    eprintln!("invalid plan file {path}: {e}");
                    exit(1)
                }),
                None => net.link_ids().map(|l| net.link(l).capacity_units).collect(),
            };
            let caps: Vec<f64> = units
                .iter()
                .map(|&u| f64::from(u) * net.unit_gbps)
                .collect();
            let tel = telemetry_of(&flags);
            let eval_cfg = EvalConfig {
                parallel_workers: spec.workers().unwrap_or(1),
                ..EvalConfig::default()
            };
            let mut evaluator = PlanEvaluator::with_telemetry(&net, eval_cfg, tel.clone());
            let outcome = evaluator.check(&caps);
            finish_telemetry(&tel, &flags);
            finish_chaos();
            if outcome.feasible {
                println!("feasible: every flow survives every failure scenario");
            } else {
                let idx = outcome.first_violated.expect("infeasible has an index");
                let name = match idx {
                    0 => "no-failure state".to_string(),
                    k => net.failure(np_topology::FailureId::new(k - 1)).name.clone(),
                };
                println!(
                    "INFEASIBLE at scenario {idx} ({name}){}",
                    if outcome.structural {
                        " — structurally unfixable"
                    } else {
                        ""
                    }
                );
                exit(1);
            }
        }
        "baseline" => {
            let baseline = Baseline::from_flags(&flags).unwrap_or_else(|e| fail(&e));
            let net = load_network(&spec, &flags);
            let out = baseline.run(&net, spec.workers().unwrap_or(1));
            match baseline.heur {
                false => println!(
                    "ILP: cost {:.1}, proven {}, {:.1}s, {} nodes, {} cuts",
                    out.cost(),
                    out.solved_to_optimality,
                    out.elapsed_secs,
                    out.master.nodes,
                    out.master.cuts_added
                ),
                true => println!("ILP-heur: cost {:.1}, {:.1}s", out.cost(), out.elapsed_secs),
            }
            finish_chaos();
        }
        "sweep" => {
            let (Some(grid), Some(out)) = (flags.get("grid"), flags.get("out")) else {
                fail("sweep needs --grid <file> and --out <dir>")
            };
            if spec != PlanSpec::default() {
                fail("sweep takes only --grid and --out: requests go in the grid")
            }
            let text = std::fs::read_to_string(grid).unwrap_or_else(|e| {
                eprintln!("cannot read {grid}: {e}");
                exit(1)
            });
            let cells = read_grid(&text).unwrap_or_else(|e| fail(&e));
            let failed = run_grid(&cells, std::path::Path::new(out)).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
            println!("wrote {} cells and summary.csv to {out}", cells.len());
            if failed > 0 {
                eprintln!("{failed} of {} cells failed", cells.len());
                exit(1)
            }
        }
        "serve" => {
            let tel = telemetry_of(&flags);
            let state_dir = flags
                .get("state-dir")
                .cloned()
                .unwrap_or_else(|| "np-serve-state".to_string());
            let cfg = np_serve::ServerConfig {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:0".to_string()),
                workers: spec.workers().unwrap_or(1),
                queue_capacity: flag_or(&flags, "queue-cap", 16),
                cache_capacity: flag_or(&flags, "cache-cap", 8),
                state_dir: state_dir.clone().into(),
                read_timeout: std::time::Duration::from_secs(30),
            };
            let service = NeuroPlanService::new(&state_dir, tel.clone());
            // SIGINT/SIGTERM fire the daemon-wide shutdown token: running
            // solves stop at their next stage boundary *without* terminal
            // journal records, so the next start resumes them.
            let shutdown = signals::install();
            let server = np_serve::Server::start(cfg, service, tel.clone(), shutdown)
                .unwrap_or_else(|e| {
                    eprintln!("cannot start daemon: {e}");
                    exit(1)
                });
            // Scripts scrape this line for the ephemeral port.
            println!("listening on {}", server.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.wait();
            finish_telemetry(&tel, &flags);
            finish_chaos();
            if let Some(signo) = signals::received() {
                eprintln!("daemon stopped by signal {signo}; journal is resumable");
                exit(signals::exit_code(signo));
            }
        }
        "request" => {
            let Some(addr) = flags.get("addr") else {
                fail("request needs --addr <host:port>")
            };
            let action = flags.get("do").map(String::as_str).unwrap_or("run");
            let mut client = np_serve::Client::connect(addr).unwrap_or_else(|e| {
                eprintln!("cannot connect to {addr}: {e}");
                exit(1)
            });
            let id_flag = || -> u64 {
                if !flags.contains_key("id") {
                    fail(&format!("--do {action} needs --id <n>"))
                }
                flag_or(&flags, "id", 0)
            };
            let timeout = std::time::Duration::try_from_secs_f64(flag_or(&flags, "timeout", 600.0))
                .unwrap_or_else(|e| fail(&format!("--timeout: {e}")));
            let reply = match action {
                "submit" => client.submit(&spec.to_json()),
                "run" => {
                    let reply = client.submit(&spec.to_json()).unwrap_or_else(|e| {
                        eprintln!("submit failed: {e}");
                        exit(1)
                    });
                    if let Some(id) = np_serve::client::submit_id(&reply) {
                        eprintln!("request {id} admitted; waiting...");
                    }
                    // Shed or rejected: the envelope itself is printed.
                    client.outcome(&reply, timeout)
                }
                "status" => client.status(id_flag()),
                "result" => client.result(id_flag()),
                "cancel" => client.cancel(id_flag()),
                "stats" => client.stats(),
                "shutdown" => client.shutdown(),
                other => fail(&format!("unknown --do {other}")),
            };
            let reply = reply.unwrap_or_else(|e| {
                eprintln!("request failed: {e}");
                exit(1)
            });
            let ok = reply.get("ok").and_then(|v| v.as_bool()) == Some(true);
            let state = reply.get("state").and_then(|v| v.as_str()).unwrap_or("");
            let code = reply.get("code").and_then(|v| v.as_u64());
            if code == Some(np_serve::proto::code::GONE.into()) {
                let why = reply.get("error").and_then(|v| v.as_str());
                eprintln!("neuroplan: {}", why.unwrap_or("request expired"));
                exit(EXPIRED)
            }
            write_or_print(&flags, &serde_json::to_string_pretty(&reply).expect("json"));
            if !ok || state == "failed" {
                exit(1)
            }
        }
        _ => usage(),
    }
}
