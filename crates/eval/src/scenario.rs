//! Scenario contexts: the capacity-independent structure of each
//! feasibility check, built once and patched with fresh capacities on
//! every evaluation (the paper's "only update the constraints that are
//! influenced … avoiding building up the model from scratch").

use crate::checker::PathLp;
use np_flow::commodity::group_by_source;
use np_flow::dijkstra::Tree;
use np_flow::{Commodity, FlowGraph, MetricCut};
use np_topology::{FailureId, LinkId, Network};
use std::cell::RefCell;

/// A scenario is the no-failure state or one failure from `Λ`.
pub type Scenario = Option<FailureId>;

/// Number of scenarios a network induces (no-failure + every failure).
pub fn scenario_count(net: &Network) -> usize {
    net.failures().len() + 1
}

/// The scenario with the given dense index (0 = no failure).
pub fn scenario_at(index: usize) -> Scenario {
    index.checked_sub(1).map(FailureId::new)
}

/// What one scenario's checks have proved. The scan's undo saves and puts
/// back the whole value, a fork keeps only the cut, and the perturbation
/// surgery rescales, drops or remaps it (DESIGN.md §9, §14).
#[derive(Clone, Debug, Default)]
pub(crate) struct Proofs {
    /// The metric cut that last failed the scenario. A cut is valid for
    /// every capacity vector, so while it stays violated it answers a check
    /// in O(links) without running one.
    pub(crate) cut: Option<MetricCut>,
    /// Per-arc flow of the last *positive* feasibility witness (greedy,
    /// completed MWU, or exact-LP primal). The demands of a scenario are
    /// fixed, so a stored flow that routes them all stays a valid proof
    /// under any capacity vector that still covers it arc-wise — an O(m)
    /// comparison that short-circuits the whole verdict pipeline.
    pub(crate) witness: Option<Vec<f64>>,
    /// The scenario's persistent exact LP: the restricted master of the
    /// path-form concurrent-flow LP with every path generated so far and
    /// its last optimal basis. Paths stay valid under any capacities and
    /// demands, so successive checks patch right-hand sides and
    /// re-optimize in a handful of pivots instead of a cold solve.
    pub(crate) lp: Option<PathLp>,
}

/// Fixed structure of one scenario's feasibility problem.
#[derive(Clone, Debug)]
pub struct ScenarioCtx {
    /// Which scenario this is.
    pub scenario: Scenario,
    /// Flow graph over sites; two arcs per surviving link. Capacities are
    /// stale until [`ScenarioCtx::refresh`].
    pub graph: FlowGraph,
    /// The link behind each arc, aligned with `graph.arcs()`.
    pub arc_link: Vec<LinkId>,
    /// Demands that must be carried, merged per `(src, dst)` when source
    /// aggregation is on, otherwise one commodity per flow.
    pub commodities: Vec<Commodity>,
    /// Whether every commodity's destination can be reached from its
    /// source over the arcs, whatever their capacities: a fact about the
    /// arc set and the commodity endpoints, which never change after
    /// [`ScenarioCtx::from_parts`].
    pub(crate) connected: bool,
    /// What the checks have proved. The `RefCell` keeps `check_scenario`'s
    /// shared borrow; each scenario is checked by one worker at a time.
    pub(crate) proofs: RefCell<Proofs>,
}

impl ScenarioCtx {
    /// Build the context for `scenario`.
    pub fn build(net: &Network, scenario: Scenario, source_aggregation: bool) -> Self {
        let mut graph = FlowGraph::new(net.sites().len());
        let mut arc_link = Vec::new();
        for link_id in net.link_ids() {
            if !net.link_alive(link_id, scenario) {
                continue;
            }
            let link = net.link(link_id);
            graph.add_link_arcs(link.src.index(), link.dst.index(), 0.0, link_id);
            arc_link.push(link_id);
            arc_link.push(link_id);
        }
        let mut raw = Vec::new();
        for flow_id in net.flow_ids() {
            if !net.flow_active(flow_id, scenario) {
                continue;
            }
            let flow = net.flow(flow_id);
            raw.push(Commodity::new(
                flow.src.index(),
                flow.dst.index(),
                flow.demand_gbps,
            ));
        }
        let commodities = if source_aggregation {
            np_flow::commodity::merge_parallel(&raw)
        } else {
            raw
        };
        Self::from_parts(scenario, graph, arc_link, commodities)
    }

    /// The context of a ready-made graph and commodity list (`arc_link`
    /// aligned with the graph's arcs), with what follows from their
    /// structure alone worked out here, once.
    pub(crate) fn from_parts(
        scenario: Scenario,
        graph: FlowGraph,
        arc_link: Vec<LinkId>,
        commodities: Vec<Commodity>,
    ) -> Self {
        let mut tree = Tree::default();
        let connected = group_by_source(&commodities).iter().all(|(src, members)| {
            tree.grow(graph.packed(), *src, [], |_| 0.0);
            members
                .iter()
                .all(|&j| tree.dist(commodities[j].dst) == 0.0)
        });
        ScenarioCtx {
            scenario,
            graph,
            arc_link,
            commodities,
            connected,
            proofs: RefCell::default(),
        }
    }

    /// This context as a fork starts it: the same structure, stale
    /// capacities, its cut, and neither a path LP nor a witness.
    pub(crate) fn forked(&self) -> Self {
        let mut graph = self.graph.clone();
        for a in 0..graph.num_arcs() {
            graph.set_cap(a, 0.0);
        }
        let cut = self.proofs.borrow().cut.clone();
        ScenarioCtx {
            scenario: self.scenario,
            graph,
            arc_link: self.arc_link.clone(),
            commodities: self.commodities.clone(),
            connected: self.connected,
            proofs: RefCell::new(Proofs {
                cut,
                ..Proofs::default()
            }),
        }
    }

    /// Patch arc capacities from a per-link capacity function (Gbps).
    pub fn refresh(&mut self, cap_gbps: impl Fn(LinkId) -> f64) {
        for (a, &link) in self.arc_link.iter().enumerate() {
            self.graph.set_cap(a, cap_gbps(link).max(0.0));
        }
    }

    /// Total demand that must be carried in this scenario.
    pub fn total_demand(&self) -> f64 {
        np_flow::commodity::total_demand(&self.commodities)
    }

    /// Distinct commodity sources (the "m" of the paper's source
    /// aggregation accounting).
    pub fn sources(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.commodities.iter().map(|c| c.src).collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Build the contexts for all scenarios of a network, in the fixed order
/// (no-failure first, then failures by id) that stateful checking relies
/// on.
pub fn build_all(net: &Network, source_aggregation: bool) -> Vec<ScenarioCtx> {
    let mut out = Vec::with_capacity(scenario_count(net));
    out.push(ScenarioCtx::build(net, None, source_aggregation));
    for f in net.failure_ids() {
        out.push(ScenarioCtx::build(net, Some(f), source_aggregation));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::{generator::preset_network, TopologyPreset};

    fn net() -> Network {
        preset_network(TopologyPreset::A)
    }

    #[test]
    fn no_failure_context_includes_every_link_twice() {
        let net = net();
        let ctx = ScenarioCtx::build(&net, None, true);
        assert_eq!(ctx.graph.num_arcs(), 2 * net.links().len());
        assert_eq!(ctx.arc_link.len(), ctx.graph.num_arcs());
    }

    #[test]
    fn failure_context_drops_dead_links() {
        let net = net();
        let f = FailureId::new(0);
        let dead = net.impact(f).dead_links.len();
        assert!(dead > 0, "failure 0 must kill something");
        let ctx = ScenarioCtx::build(&net, Some(f), true);
        assert_eq!(ctx.graph.num_arcs(), 2 * (net.links().len() - dead));
    }

    #[test]
    fn source_aggregation_reduces_commodity_count() {
        let net = net();
        let merged = ScenarioCtx::build(&net, None, true);
        let raw = ScenarioCtx::build(&net, None, false);
        assert!(merged.commodities.len() <= raw.commodities.len());
        // Same total demand either way.
        assert!((merged.total_demand() - raw.total_demand()).abs() < 1e-9);
    }

    #[test]
    fn refresh_patches_capacities_in_place() {
        let net = net();
        let mut ctx = ScenarioCtx::build(&net, None, true);
        ctx.refresh(|_| 42.0);
        assert!(ctx.graph.arcs().iter().all(|a| a.cap == 42.0));
        ctx.refresh(|l| if l.index() == 0 { 7.0 } else { 0.0 });
        assert_eq!(ctx.graph.arcs()[0].cap, 7.0);
        assert_eq!(ctx.graph.arcs()[2].cap, 0.0);
    }

    #[test]
    fn build_all_orders_scenarios_deterministically() {
        let net = net();
        let all = build_all(&net, true);
        assert_eq!(all.len(), scenario_count(&net));
        assert_eq!(all[0].scenario, None);
        assert_eq!(all[1].scenario, Some(FailureId::new(0)));
        assert_eq!(scenario_at(0), None);
        assert_eq!(scenario_at(3), Some(FailureId::new(2)));
    }

    #[test]
    fn bronze_flows_vanish_under_failures() {
        let net = net();
        let normal = ScenarioCtx::build(&net, None, false);
        let failed = ScenarioCtx::build(&net, Some(FailureId::new(0)), false);
        // The default policy drops Bronze under any failure, so strictly
        // fewer (or equal) commodities remain.
        assert!(failed.commodities.len() <= normal.commodities.len());
    }
}
