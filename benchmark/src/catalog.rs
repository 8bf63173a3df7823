//! `BENCHMARK.json`, compiled in: the one list of workloads and metrics.
//! The program emits exactly these names with these units; `compare`
//! takes its bounds and directions from here.

use serde_json::Value;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Catalog {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

impl Catalog {
    pub fn load() -> Catalog {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<Value> {
            root.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
                .clone()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(|s| s.as_str())
                .unwrap_or_else(|| panic!("BENCHMARK.json entry without `{key}`: {v:?}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(|b| b.as_f64()),
                })
                .collect()
        };
        Catalog {
            run_seconds: root
                .get("run_seconds")
                .and_then(|v| v.as_f64())
                .expect("run_seconds"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}
