//! `neuroplan sweep` runs every cell of a grid through the function its
//! subcommand runs, so a cell answers what that subcommand answers for the
//! same request; it checks the whole grid before it runs any cell; and its
//! summary carries no wall time, so a re-run reproduces it byte for byte.

use neuroplan::sweep::read_grid;
use neuroplan_suite::neuroplan_bin;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Output;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-sweep-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn neuroplan(dir: &Path, args: &[&str]) -> Output {
    let out = std::process::Command::new(neuroplan_bin())
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn neuroplan");
    assert!(out.status.code().is_some(), "{args:?} was killed");
    out
}

fn json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    serde_json::from_str(&text).expect("json")
}

/// A quick preset-A plan away from the default α (the second stage then
/// ends elsewhere) and the raw ILP on the same instance; its wall cap is
/// far above what it needs, so the answer does not depend on load.
const GRID: &str = r#"[
    {"plan": {"preset": "a", "quick": true, "alpha": 1}},
    {"baseline": {"preset": "a"}, "method": "ilp", "time": 600}
]"#;

#[test]
fn cells_answer_what_their_subcommands_answer_and_reruns_reproduce_the_summary() {
    let dir = tmp("grid");
    std::fs::write(dir.join("grid.json"), GRID).unwrap();
    for out in ["first", "second"] {
        let run = neuroplan(&dir, &["sweep", "--grid", "grid.json", "--out", out]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }

    let plan = neuroplan(
        &dir,
        &[
            "plan",
            "--preset",
            "a",
            "--quick",
            "--alpha",
            "1",
            "--out",
            "plan.json",
        ],
    );
    assert!(plan.status.success());
    let (file, cell) = (
        json(&dir.join("plan.json")),
        json(&dir.join("first/0.json")),
    );
    for (key, value) in file.as_object().expect("plan file") {
        assert_eq!(cell.get(key), Some(value), "plan cell member `{key}`");
    }
    assert!(cell.get("units").is_some() && cell.get("cost_hex").is_some());
    for key in [
        "rl_cost",
        "reference_cost",
        "rung",
        "retries",
        "degrades",
        "millis",
    ] {
        assert!(cell.get(key).is_some(), "plan cell lacks `{key}`");
    }

    let ilp = neuroplan(
        &dir,
        &[
            "baseline", "--preset", "a", "--method", "ilp", "--time", "600",
        ],
    );
    let said = String::from_utf8_lossy(&ilp.stdout).into_owned();
    let cell = json(&dir.join("first/1.json"));
    let cost = cell["cost"].as_f64().expect("baseline cost");
    assert!(
        said.starts_with(&format!("ILP: cost {cost:.1}, proven true,")),
        "{said} vs {cell:?}"
    );
    assert_eq!(cell["proven"].as_bool(), Some(true));
    assert_eq!(cell["method"].as_str(), Some("ilp"));
    let [nodes, cuts] = ["nodes", "cuts"].map(|k| cell[k].as_u64().expect(k));
    assert!(
        said.contains(&format!(" {nodes} nodes, {cuts} cuts")),
        "{said}"
    );

    let [first, second] = ["first", "second"]
        .map(|out| std::fs::read_to_string(dir.join(out).join("summary.csv")).unwrap());
    assert_eq!(first, second, "a re-run changed the summary");
    let rows: Vec<&str> = first.lines().collect();
    assert_eq!(rows.len(), 3, "{first}");
    assert!(rows[0].starts_with("cell,command,request,cost,cost_hex,"));
    assert!(!rows[0].contains("millis"));
    assert!(
        rows[1].starts_with("0,plan,--preset a --quick --alpha 1,"),
        "{first}"
    );
    assert!(
        rows[2].starts_with("1,baseline,--preset a --method ilp --time 600,"),
        "{first}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_grid_with_one_bad_cell_exits_2_and_writes_nothing() {
    let dir = tmp("bad");
    let good = r#"{"plan": {"preset": "a", "quick": true}}"#;
    for bad in [
        r#"{"plan": {"preset": "a", "alpha": 0.5}}"#,
        r#"{"plan": {"preset": "a", "events": "seed=1,n=2"}}"#,
        r#"{"plan": {"preset": "a"}, "time": 5}"#,
        r#"{"plan": {"preset": "a"}, "baseline": {"preset": "a"}}"#,
        r#"{"baseline": {"preset": "a"}, "method": "lp"}"#,
        r#"{"baseline": {"preset": "a"}, "method": "ilp", "time": "soon"}"#,
        r#"{"replan": {"preset": "a"}}"#,
        r#"{"plan": {}}"#,
        r#"{"plan": {"preset": "e", "seed": 4, "fill": 1}}"#,
        r#"{"plan": {"preset": "a", "fill": 0, "mlp_hidden": 0}}"#,
        r#"["plan", {"preset": "a"}]"#,
    ] {
        std::fs::write(dir.join("grid.json"), format!("[{good}, {bad}]")).unwrap();
        let run = neuroplan(&dir, &["sweep", "--grid", "grid.json", "--out", "out"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains("cell 1: "), "{bad}: {stderr}");
        assert!(!dir.join("out").exists(), "{bad} wrote something");
    }
    std::fs::write(dir.join("grid.json"), format!("[{good}]")).unwrap();
    for extra in [&["--preset", "a"][..], &["--chaos", "kill@1"]] {
        let mut args = vec!["sweep", "--grid", "grid.json", "--out", "out"];
        args.extend(extra);
        assert_eq!(neuroplan(&dir, &args).status.code(), Some(2), "{extra:?}");
        assert!(!dir.join("out").exists(), "{extra:?} wrote something");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `results/grids/*.json` are what `run_experiments.sh` sweeps: each must
/// read as `sweep` reads it — every cell a valid request whose instance
/// generates — without planning anything.
#[test]
fn every_committed_grid_reads_as_sweep_reads_it() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/grids");
    let mut grids = 0;
    for entry in std::fs::read_dir(&dir).expect("results/grids") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("grid file");
            let cells = read_grid(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert!(!cells.is_empty(), "{path:?} holds no cell");
            grids += 1;
        }
    }
    assert!(grids >= 7, "the figure grids fig08 to fig13 and fig16");
}
