//! The one planning-request schema.
//!
//! [`FIELDS`] is the only place a request key is named, typed, ranged
//! and documented. The CLI's flags (`--size-tier` ↔ `size_tier`), the
//! wire JSON `neuroplan request` sends and the daemon's `execute` all
//! read a request through it, so every surface validates identically
//! and before any work starts. [`PlanSpec::network`] and
//! [`PlanSpec::config`] are the only translation of user input into
//! generator and planner configurations.

use crate::replan::ReplanConfig;
use crate::NeuroPlanConfig;
use np_churn::{ChurnEvent, ChurnSpec};
use np_topology::generator::{GeneratorConfig, TopologyPreset};
use np_topology::{FailureModel, FamilyConfig, Network, SizeTier, TopologyFamily};
use serde_json::Value;
use std::collections::HashMap;

/// Type and range of a request field.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Boolean; a bare `--flag` on the command line.
    Switch,
    /// A name the checker accepts (case-insensitive); the text lists them.
    Choice(&'static str, fn(&str) -> bool),
    /// A finite number in `[lo, hi]`.
    Real(f64, f64),
    /// An integer in `[lo, hi]`. JSON holds it as a number up to 2⁵³ or
    /// as a decimal string, so every `u64` round-trips.
    Int(u64, u64),
    /// A thread count: an integer or `auto` (all cores of the planning host).
    Workers,
    /// A churn stream in [`ChurnSpec`]'s grammar, at most [`MAX_EVENTS`] long.
    Events,
}

/// One row of the schema.
pub struct Field {
    /// JSON key; the flag is the same with `-` for `_`.
    pub key: &'static str,
    /// Type and range, checked once for every surface.
    pub kind: Kind,
    /// One-line meaning, shown by `neuroplan` usage.
    pub doc: &'static str,
}

/// Longest churn stream one request may carry.
pub const MAX_EVENTS: usize = 10_000;
/// Largest integer a JSON number holds exactly.
const EXACT: u64 = 1 << 53;
const TABLE: &str = "value was checked against FIELDS";

fn preset(s: &str) -> Option<TopologyPreset> {
    (TopologyPreset::ALL.into_iter()).find(|p| p.name().eq_ignore_ascii_case(s))
}

#[rustfmt::skip]
/// The schema: the union of the planning flags and the daemon's spec keys.
pub const FIELDS: &[Field] = &[
    Field { key: "preset", kind: Kind::Choice("a|b|c|d|e", |s| preset(s).is_some()), doc: "paper-calibrated WAN instance" },
    Field { key: "family", kind: Kind::Choice("wan|ba|ws|er|grid|community|clos", |s| TopologyFamily::parse(s).is_some()), doc: "scenario-matrix generator, instead of preset" },
    Field { key: "size_tier", kind: Kind::Choice("a|b|c|d|e|f", |s| SizeTier::parse(s).is_some()), doc: "family size (default b)" },
    Field { key: "failure_model", kind: Kind::Choice("none|cuts|full", |s| FailureModel::parse(s).is_some()), doc: "family failure scenarios" },
    Field { key: "fill", kind: Kind::Real(0.0, 1.0), doc: "initial capacity fill" },
    Field { key: "long_term", kind: Kind::Switch, doc: "preset only: add dark candidate fibers" },
    Field { key: "seed", kind: Kind::Int(0, u64::MAX), doc: "instance and run seed" },
    Field { key: "quick", kind: Kind::Switch, doc: "CI-sized budgets (the default)" },
    Field { key: "default", kind: Kind::Switch, doc: "calibrated budgets" },
    Field { key: "alpha", kind: Kind::Real(1.0, f64::MAX), doc: "second-stage relax factor" },
    Field { key: "gnn_layers", kind: Kind::Int(0, 4), doc: "GCN layers before the MLP (agent.gnn_layers)" },
    Field { key: "mlp_hidden", kind: Kind::Int(1, 512), doc: "width of both MLP hidden layers (agent.mlp_hidden)" },
    Field { key: "units_per_step", kind: Kind::Int(1, 16), doc: "max capacity units one action adds (max_units_per_step)" },
    Field { key: "workers", kind: Kind::Workers, doc: "thread budget (eval.parallel_workers, train.rollout_workers)" },
    Field { key: "stage_budget", kind: Kind::Real(0.0, f64::MAX), doc: "wall-clock seconds per supervised stage" },
    Field { key: "max_retries", kind: Kind::Int(0, u32::MAX as u64), doc: "retries per stage" },
    Field { key: "no_degrade", kind: Kind::Switch, doc: "fail instead of walking the degradation ladder" },
    Field { key: "events", kind: Kind::Events, doc: "churn stream to re-plan through (CLI: inline or a file)" },
    Field { key: "gap", kind: Kind::Real(0.0, f64::MAX), doc: "per-event relative optimality gap" },
    Field { key: "prune_alpha", kind: Kind::Real(1.0, f64::MAX), doc: "per-event relax factor around the carried plan" },
];

#[derive(Clone, Debug, PartialEq)]
enum Val {
    On,
    Real(f64),
    Int(u64),
    Text(String),
}

impl Field {
    /// The accepted values, as usage and error messages show them.
    fn hint(&self) -> String {
        match self.kind {
            Kind::Switch => "true|false".to_string(),
            Kind::Choice(names, _) => names.to_string(),
            Kind::Real(lo, hi) if hi == f64::MAX => format!("{lo}.."),
            Kind::Real(lo, hi) => format!("{lo}..{hi}"),
            Kind::Int(lo, hi) if hi < u32::MAX as u64 => format!("{lo}..{hi}"),
            Kind::Int(..) => "int".to_string(),
            Kind::Workers => "n|auto".to_string(),
            Kind::Events => "spec".to_string(),
        }
    }

    /// The flag as usage shows it, e.g. `--alpha <1..>`.
    pub fn flag(&self) -> String {
        let name = self.key.replace('_', "-");
        match self.kind {
            Kind::Switch => format!("--{name}"),
            _ => format!("--{name} <{}>", self.hint()),
        }
    }

    /// Check one value — a JSON scalar, or a flag's text wrapped as one.
    /// A `false` switch is the same as an absent one.
    fn accept(&self, v: &Value) -> Result<Option<Val>, String> {
        let int = |lo: u64, hi: u64| match v {
            Value::Num(n) if n.fract() == 0.0 && (0.0..=EXACT as f64).contains(n) => {
                Some(*n as u64).filter(|n| (lo..=hi).contains(n))
            }
            Value::Str(s) => s.parse().ok().filter(|n| (lo..=hi).contains(n)),
            _ => None,
        };
        let val = match (self.kind, v) {
            (Kind::Switch, Value::Bool(on)) => return Ok(on.then_some(Val::On)),
            (Kind::Choice(_, known), Value::Str(s)) if known(s) => {
                Some(Val::Text(s.to_ascii_lowercase()))
            }
            (Kind::Real(lo, hi), Value::Num(x)) if (lo..=hi).contains(x) => Some(Val::Real(*x)),
            (Kind::Int(lo, hi), _) => int(lo, hi).map(Val::Int),
            (Kind::Workers, Value::Str(s)) if s == "auto" => Some(Val::Text(s.clone())),
            (Kind::Workers, _) => int(0, usize::MAX as u64).map(Val::Int),
            (Kind::Events, Value::Str(s)) => match ChurnSpec::parse(s) {
                Ok(churn) if churn.len() <= MAX_EVENTS => Some(Val::Text(s.clone())),
                Ok(_) => return Err(format!("`{}` holds over {MAX_EVENTS} events", self.key)),
                Err(e) => return Err(format!("invalid `{}`: {e}", self.key)),
            },
            _ => None,
        };
        val.map(Some)
            .ok_or_else(|| format!("`{}` takes <{}>", self.key, self.hint()))
    }
}

/// A validated planning request: which instance, planned how.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanSpec {
    /// One slot per [`FIELDS`] row; `None` = not given.
    vals: [Option<Val>; FIELDS.len()],
}

impl PlanSpec {
    /// Read a wire spec. Unknown keys, wrong types and out-of-range
    /// values are errors, never defaults.
    pub fn from_json(spec: &Value) -> Result<PlanSpec, String> {
        let members = spec.as_object().ok_or("the spec must be a JSON object")?;
        let mut out = PlanSpec::default();
        for (key, v) in members {
            let i = (FIELDS.iter().position(|f| f.key == key))
                .ok_or_else(|| format!("unknown spec key `{key}`"))?;
            out.vals[i] = FIELDS[i].accept(v)?;
        }
        out.checked()
    }

    /// Read command-line flags. `run` lists the caller's run-scoped
    /// flags the way usage shows them (`--out <file> --resume`); they
    /// come back by name, a bare one as `"true"`. Any other flag that
    /// is not a [`FIELDS`] key is an error.
    pub fn from_flags(
        args: &[String],
        run: &str,
    ) -> Result<(PlanSpec, HashMap<String, String>), String> {
        let run: Vec<&str> = run.split_whitespace().collect();
        let (mut spec, mut rest) = (PlanSpec::default(), HashMap::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = (arg.strip_prefix("--")).ok_or_else(|| format!("stray argument `{arg}`"))?;
            let key = name.replace('-', "_");
            let field = FIELDS.iter().position(|f| f.key == key);
            let bare = match (field, run.iter().position(|r| r == arg)) {
                (Some(i), _) => matches!(FIELDS[i].kind, Kind::Switch),
                (None, Some(at)) => !run.get(at + 1).is_some_and(|next| next.starts_with('<')),
                (None, None) => return Err(format!("unknown flag {arg}")),
            };
            let text = match bare {
                true => "true",
                false => it.next().ok_or_else(|| format!("{arg} needs a value"))?,
            };
            let Some(i) = field else {
                rest.insert(name.to_string(), text.to_string());
                continue;
            };
            spec.vals[i] = FIELDS[i].accept(&match FIELDS[i].kind {
                Kind::Switch => Value::Bool(true),
                Kind::Real(..) => Value::Num(text.parse().unwrap_or(f64::NAN)),
                _ => Value::Str(text.to_string()),
            })?;
        }
        Ok((spec.checked()?, rest))
    }

    /// Refuse a key the named generator never reads: it would be accepted
    /// and ignored ([`PlanSpec::network`]).
    fn checked(self) -> Result<PlanSpec, String> {
        let conflicts = [
            ("family", "preset"),
            ("size_tier", "preset"),
            ("failure_model", "preset"),
            ("long_term", "family"),
        ];
        let unread = (conflicts.into_iter()).find(|(a, b)| self.get(a).and(self.get(b)).is_some());
        match unread {
            Some((a, b)) => Err(format!("`{a}` conflicts with `{b}`")),
            None => Ok(self),
        }
    }

    /// The wire form: given keys only, in table order.
    pub fn to_json(&self) -> Value {
        let member = |(f, v): (&Field, &Option<Val>)| {
            let v = match v.as_ref()? {
                Val::On => Value::Bool(true),
                Val::Real(x) => Value::Num(*x),
                Val::Int(n) if *n <= EXACT => Value::Num(*n as f64),
                Val::Int(n) => Value::Str(n.to_string()),
                Val::Text(s) => Value::Str(s.clone()),
            };
            Some((f.key.to_string(), v))
        };
        Value::Object(FIELDS.iter().zip(&self.vals).filter_map(member).collect())
    }

    fn get(&self, key: &str) -> Option<&Val> {
        let i = FIELDS.iter().position(|f| f.key == key).expect(TABLE);
        self.vals[i].as_ref()
    }

    fn text(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Val::Text(s) => Some(s),
            _ => None,
        }
    }

    fn real(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Val::Real(x) => Some(*x),
            _ => None,
        }
    }

    fn int(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Val::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Refuse beside a topology file what only a generator reads: the
    /// file would be planned as if the key were not there. `seed` stays,
    /// since the planner reads it too.
    pub fn check_topology(&self) -> Result<(), String> {
        let generated = [
            "preset",
            "family",
            "fill",
            "long_term",
            "size_tier",
            "failure_model",
        ];
        match generated.into_iter().find(|key| self.get(key).is_some()) {
            Some(key) => Err(format!("`{key}` conflicts with `--topology`")),
            None => Ok(()),
        }
    }

    /// Generate the instance the spec names.
    pub fn network(&self) -> Result<Network, String> {
        let (fill, seed) = (self.real("fill"), self.int("seed"));
        if let Some(family) = self.text("family") {
            let tier = self
                .text("size_tier")
                .map_or(SizeTier::B, |t| SizeTier::parse(t).expect(TABLE));
            let mut cfg = FamilyConfig::new(TopologyFamily::parse(family).expect(TABLE), tier);
            if let Some(model) = self.text("failure_model") {
                cfg.failure_model = FailureModel::parse(model).expect(TABLE);
            }
            cfg.capacity_fill = fill.unwrap_or(cfg.capacity_fill);
            cfg.seed = seed.unwrap_or(cfg.seed);
            return (cfg.try_generate()).map_err(|e| format!("invalid family config: {e}"));
        }
        let name = self
            .text("preset")
            .ok_or("the spec needs a `preset` or a `family`")?;
        let mut cfg = GeneratorConfig::preset(preset(name).expect(TABLE));
        cfg.capacity_fill = fill.unwrap_or(cfg.capacity_fill);
        cfg.long_term |= self.get("long_term").is_some();
        cfg.seed = seed.unwrap_or(cfg.seed);
        (cfg.try_generate()).map_err(|e| format!("invalid generator config: {e}"))
    }

    /// The thread budget, if one was given (`auto` = every core here).
    pub fn workers(&self) -> Option<usize> {
        Some(match self.get("workers")? {
            Val::Int(n) => (*n as usize).max(1),
            _ => np_pool::auto_workers(),
        })
    }

    /// The planner configuration the spec asks for.
    pub fn config(&self) -> NeuroPlanConfig {
        let mut cfg = match self.get("default") {
            Some(_) => NeuroPlanConfig::default(),
            None => NeuroPlanConfig::quick(),
        };
        cfg.relax_factor = self.real("alpha").unwrap_or(cfg.relax_factor);
        if let Some(n) = self.int("gnn_layers") {
            cfg.agent.gnn_layers = n as usize;
        }
        if let Some(w) = self.int("mlp_hidden") {
            cfg.agent.mlp_hidden = vec![w as usize; 2];
        }
        if let Some(m) = self.int("units_per_step") {
            cfg.max_units_per_step = m as usize;
        }
        if let Some(seed) = self.int("seed") {
            cfg = cfg.with_seed(seed);
        }
        if let Some(workers) = self.workers() {
            cfg = cfg.with_workers(workers);
        }
        if let Some(secs) = self.real("stage_budget") {
            cfg = cfg.with_stage_budget(secs);
        }
        if let Some(n) = self.int("max_retries") {
            cfg = cfg.with_max_retries(n as u32);
        }
        cfg.with_degrade(self.get("no_degrade").is_none())
    }

    /// Refuse what only `replan` reads in a `plan` request: a plan would
    /// drop the stream and answer as if it had none.
    pub fn check_plan(&self) -> Result<(), String> {
        match self.get("events") {
            Some(_) => Err("`events` needs `replan`".to_string()),
            None => Ok(()),
        }
    }

    /// The churn stream to absorb after the base plan, resolved against
    /// `net`; `None` for a plain planning request.
    pub fn events(&self, net: &Network) -> Option<Vec<ChurnEvent>> {
        let churn = ChurnSpec::parse(self.text("events")?).expect(TABLE);
        Some(churn.resolve(net))
    }

    /// The knobs of that stream's per-event solves.
    pub fn replan_config(&self) -> ReplanConfig {
        let base = ReplanConfig::default();
        ReplanConfig {
            gap_tol: self.real("gap").unwrap_or(base.gap_tol),
            prune_alpha: self.real("prune_alpha"),
        }
    }
}
