//! The comparison systems of §6: *ILP* and *ILP-heur*.

use crate::greedy::greedy_augment;
use crate::master::{solve_master, MasterConfig, MasterOutcome};
use np_eval::{EvalConfig, PlanEvaluator};
use np_flow::{k_shortest_paths, FlowGraph};
use np_lp::MipStatus;
use np_topology::Network;
use std::collections::HashMap;
use std::time::Instant;

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// Underlying master outcome.
    pub master: MasterOutcome,
    /// Whether the run counts as "solved" for Fig. 9 purposes: the solver
    /// *proved* optimality within its budget. Anything else is the cross
    /// in the paper's plot.
    pub solved_to_optimality: bool,
    /// Wall-clock time spent.
    pub elapsed_secs: f64,
}

impl BaselineOutcome {
    /// Plan cost (∞ when no incumbent was found).
    pub fn cost(&self) -> f64 {
        self.master.cost
    }
}

/// Resource budget for a baseline run — the knob that makes "ILP fails to
/// scale" an observable outcome rather than a multi-week wait.
#[derive(Clone, Copy, Debug)]
pub struct BaselineBudget {
    /// Branch-and-bound node cap.
    pub node_limit: usize,
    /// Wall-clock cap in seconds.
    pub time_limit_secs: f64,
}

impl Default for BaselineBudget {
    fn default() -> Self {
        BaselineBudget {
            node_limit: 4000,
            time_limit_secs: 120.0,
        }
    }
}

/// A `baseline` request's run-scoped half: which system, and its wall
/// budget. The `baseline` subcommand and a sweep's `baseline` cell read
/// it from the same flags and run it through [`Baseline::run`].
#[derive(Clone, Copy, Debug)]
pub struct Baseline {
    /// ILP-heur rather than the raw ILP.
    pub heur: bool,
    /// Wall-clock cap in seconds.
    pub time_secs: f64,
}

impl Baseline {
    /// `--method ilp|ilp-heur` and `--time <secs>` (120 when absent).
    pub fn from_flags(flags: &HashMap<String, String>) -> Result<Baseline, String> {
        let heur = match flags.get("method").map(String::as_str) {
            Some("ilp") => false,
            Some("ilp-heur") => true,
            _ => return Err("--method must be ilp or ilp-heur".to_string()),
        };
        let time_secs = match flags.get("time") {
            None => 120.0,
            Some(v) => v.parse().map_err(|_| format!("--time cannot take `{v}`"))?,
        };
        Ok(Baseline { heur, time_secs })
    }

    /// The `--method` name.
    pub fn method(&self) -> &'static str {
        if self.heur {
            "ilp-heur"
        } else {
            "ilp"
        }
    }

    /// Solve `net` under a 50 000-node budget on `workers` evaluator threads.
    pub fn run(&self, net: &Network, workers: usize) -> BaselineOutcome {
        let budget = BaselineBudget {
            node_limit: 50_000,
            time_limit_secs: self.time_secs,
        };
        let eval_cfg = EvalConfig {
            parallel_workers: workers,
            ..EvalConfig::default()
        };
        match self.heur {
            true => solve_ilp_heur(net, eval_cfg, budget, 4),
            false => solve_ilp(net, eval_cfg, budget),
        }
    }
}

/// The raw **ILP** of §3.1: the exact formulation over the full
/// (spectrum-bounded) search space, no pruning, no heuristics, no warm
/// start. Optimal when it finishes — and expected to blow its budget on
/// anything bigger than topology A (Fig. 9's crosses).
pub fn solve_ilp(net: &Network, eval_cfg: EvalConfig, budget: BaselineBudget) -> BaselineOutcome {
    let t0 = Instant::now();
    let mut evaluator = PlanEvaluator::new(net, eval_cfg);
    let cfg = MasterConfig {
        polish_final: true,
        ..MasterConfig::new(
            MasterConfig::spectrum_bounds(net),
            budget.node_limit,
            budget.time_limit_secs,
        )
    };
    let master = solve_master(net, &mut evaluator, &cfg);
    BaselineOutcome {
        solved_to_optimality: master.status == MipStatus::Optimal,
        elapsed_secs: t0.elapsed().as_secs_f64(),
        master,
    }
}

/// **ILP-heur** (§3.2): the production workarounds, hand-tuned once and
/// applied to every topology (which is exactly why the paper finds it
/// over- or under-trades on individual instances):
///
/// * *capacity-unit enlargement* — capacity moves in chunks of
///   `granularity` units, shrinking the integer lattice;
/// * *topology transformation* — capacity additions are restricted to
///   links lying on some k-shortest route of some flow (everything else
///   is frozen at its baseline);
/// * *warm start* — a greedy certificate-guided plan provides the
///   incumbent cutoff (the "previously known good design");
/// * *failure selection* — failures enter the model lazily, in a fixed
///   order, only when violated (our Benders loop is precisely this
///   heuristic made exact).
pub fn solve_ilp_heur(
    net: &Network,
    eval_cfg: EvalConfig,
    budget: BaselineBudget,
    granularity: u32,
) -> BaselineOutcome {
    let t0 = Instant::now();
    // Warm start: greedy feasible plan.
    let mut warm = net.clone();
    let warm_cost = greedy_augment(&mut warm, eval_cfg).ok();
    let mut evaluator = PlanEvaluator::new(net, eval_cfg);
    // Topology transformation: freeze links off every flow's 3 shortest
    // routes at their baseline.
    let mut bounds = MasterConfig::spectrum_bounds(net);
    let on_route = k_shortest_route_links(net, 3);
    for l in net.link_ids() {
        if !on_route[l.index()] {
            bounds[l.index()] = net.base_units(l);
        }
    }
    // The warm plan must stay inside the restricted bounds for the cutoff
    // to be valid; widen where it is not (the heuristic keeps known-good
    // designs reachable).
    for l in net.link_ids() {
        bounds[l.index()] = bounds[l.index()].max(warm.link(l).capacity_units);
    }
    let cfg = MasterConfig {
        cutoff: warm_cost.map(MasterConfig::cutoff_for),
        granularity,
        // The production posture: the known-good design both warm-starts
        // the solver and is the guaranteed fallback.
        warm_units: warm_cost.is_some().then(|| {
            warm.link_ids()
                .map(|l| warm.link(l).capacity_units)
                .collect()
        }),
        polish_final: true,
        ..MasterConfig::new(bounds, budget.node_limit, budget.time_limit_secs)
    };
    let master = solve_master(net, &mut evaluator, &cfg);
    BaselineOutcome {
        // The chunked lattice is already a relaxation-of-optimality: even
        // a proven optimum is only optimal *within the heuristic*, which
        // is the paper's point. We still report solver status faithfully.
        solved_to_optimality: master.status == MipStatus::Optimal,
        elapsed_secs: t0.elapsed().as_secs_f64(),
        master,
    }
}

/// Which links lie on one of the `k` shortest (by length) routes of some
/// flow, in the no-failure topology.
fn k_shortest_route_links(net: &Network, k: usize) -> Vec<bool> {
    let mut graph = FlowGraph::new(net.sites().len());
    let mut arc_link = Vec::new();
    for l in net.link_ids() {
        let link = net.link(l);
        graph.add_link_arcs(link.src.index(), link.dst.index(), 1.0, l);
        arc_link.push(l);
        arc_link.push(l);
    }
    let lengths: Vec<f64> = (0..graph.num_arcs())
        .map(|a| net.link(arc_link[a]).length_km)
        .collect();
    let mut on_route = vec![false; net.links().len()];
    let mut pairs: Vec<(usize, usize)> = net
        .flows()
        .iter()
        .map(|f| (f.src.index(), f.dst.index()))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    for (src, dst) in pairs {
        for path in k_shortest_paths(&graph, src, dst, &lengths, k) {
            for a in path.arcs {
                on_route[arc_link[a].index()] = true;
            }
        }
    }
    on_route
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::apply_units;
    use crate::pipeline::validate_plan;
    use np_topology::generator::GeneratorConfig;

    fn instance() -> Network {
        GeneratorConfig::a_variant(0.0).generate()
    }

    #[test]
    fn raw_ilp_solves_topology_a_optimally() {
        let net = instance();
        let out = solve_ilp(&net, EvalConfig::default(), BaselineBudget::default());
        assert!(
            out.solved_to_optimality,
            "topology A is within the ILP's reach"
        );
        validate_plan(&net, &out.master.units).expect("ILP plan validates");
    }

    #[test]
    fn ilp_heur_is_feasible_but_no_cheaper_than_ilp() {
        let net = instance();
        let exact = solve_ilp(&net, EvalConfig::default(), BaselineBudget::default());
        let heur = solve_ilp_heur(&net, EvalConfig::default(), BaselineBudget::default(), 4);
        assert!(heur.master.has_plan());
        validate_plan(&net, &heur.master.units).expect("ILP-heur plan validates");
        // Both incumbents carry the solver's practical gap; the heuristic
        // cannot beat the exact search by more than that band.
        assert!(
            heur.cost() >= exact.cost() * (1.0 - 2.0 * MasterConfig::DEFAULT_GAP) - 1e-6,
            "heuristic cannot beat the exact optimum: {} vs {}",
            heur.cost(),
            exact.cost()
        );
    }

    #[test]
    fn chunked_capacities_land_on_the_coarse_lattice() {
        let net = instance();
        let heur = solve_ilp_heur(&net, EvalConfig::default(), BaselineBudget::default(), 4);
        // Either the chunked master solved (all additions multiples of 4)
        // or the greedy fallback shipped. Both must be feasible.
        let mut check = net.clone();
        apply_units(&mut check, &heur.master.units);
        let mut ev = PlanEvaluator::new(&check, EvalConfig::default());
        assert!(ev.check_network(&check).feasible);
        // Note: the master's 1-opt polishing trims single units off the
        // chunked incumbent, so the shipped plan need not stay on the
        // coarse lattice — only the *search* was restricted to it. The
        // observable contract is feasibility plus cost consistency.
        assert!(
            (crate::master::plan_cost_of(&net, &heur.master.units) - heur.cost()).abs()
                <= 1e-6 * heur.cost().max(1.0)
        );
    }

    /// Strangled by node count, with no wall cap, on an instance whose root
    /// node cannot close the gap: A-0 at seed 2 in 300 Gbps units leaves the
    /// root's cuts and round-up heuristic some 9 % above their bound, past
    /// the 2 % the master calls optimal. The full search proves it.
    #[test]
    fn strangled_budget_fails_to_prove_optimality() {
        let mut cfg = GeneratorConfig::a_variant(0.0);
        cfg.seed = 2;
        cfg.unit_gbps = 300.0;
        let net = cfg.generate();
        let budget = |node_limit| BaselineBudget {
            node_limit,
            time_limit_secs: f64::INFINITY,
        };
        let strangled = solve_ilp(&net, EvalConfig::default(), budget(1));
        let out = &strangled.master;
        assert!(
            !strangled.solved_to_optimality,
            "one node proved optimality"
        );
        assert_eq!(out.status, MipStatus::Feasible, "the node count stops it");
        assert_eq!(out.nodes, 1);
        validate_plan(&net, &out.units).expect("the incumbent validates");
        assert!(
            out.cost - out.best_bound > MasterConfig::DEFAULT_GAP * out.cost,
            "the gap is closed: cost {} bound {}",
            out.cost,
            out.best_bound
        );

        let full = solve_ilp(&net, EvalConfig::default(), budget(4000));
        assert!(full.solved_to_optimality, "the full search proves it");
        assert!(full.master.nodes > 1);
        assert!(
            full.cost() >= out.best_bound,
            "the strangled bound {} is above the optimum {}",
            out.best_bound,
            full.cost()
        );
    }
}
