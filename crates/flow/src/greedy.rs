//! Greedy shortest-path multicommodity router.
//!
//! A fast *positive* feasibility witness: route commodities largest-first
//! along congestion-aware shortest paths with splitting. If every demand
//! lands within the capacities, the produced flow proves feasibility and
//! the evaluator can skip the MWU/LP machinery entirely — this is the
//! common case near the end of an RL trajectory and makes the evaluator's
//! happy path cheap. A `false` answer proves nothing (greedy is not
//! complete); callers escalate to [`crate::mwu`] / an exact LP.

use crate::commodity::Commodity;
use crate::dijkstra::Tree;
use crate::graph::{ArcId, FlowGraph};

/// Outcome of a greedy routing attempt.
#[derive(Clone, Debug)]
pub struct GreedyRouting {
    /// Whether every commodity was fully routed within capacities.
    pub feasible: bool,
    /// Flow placed on each arc (indexed by `ArcId`); a valid witness only
    /// when `feasible`.
    pub flow: Vec<f64>,
}

/// One routing step of [`route_residual`]: `amount` of commodity
/// `commodity` (an index into the caller's slice) along `arcs`, source
/// end first. Summed per arc in the order they were sent, a feasible
/// routing's steps are its `flow`, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// Index of the commodity in the slice that was routed.
    pub commodity: usize,
    /// Gbps sent along the path.
    pub amount: f64,
    /// The path's arcs, from the commodity's source to its destination.
    pub arcs: Vec<ArcId>,
}

/// Numerical slack when comparing residual capacities.
const EPS: f64 = 1e-9;

/// Attempt to route all `commodities` in `graph` within arc capacities.
///
/// Arc length is `base_len/(residual)`-flavoured: scarce residual makes an
/// arc long, steering early commodities away from future bottlenecks. Each
/// commodity may split across up to `max_paths_per_commodity` paths.
pub fn route(graph: &FlowGraph, commodities: &[Commodity]) -> GreedyRouting {
    let residual: Vec<f64> = graph.arcs().iter().map(|a| a.cap).collect();
    route_residual(graph, commodities, residual, None)
}

/// The congestion-aware length of an arc with capacity `cap` of which
/// `residual` is left: 1 hop + pressure, `residual/cap` near 0 makes the
/// arc ~expensive; a saturated arc is absent.
#[inline]
fn length(cap: f64, residual: f64) -> f64 {
    if residual > EPS {
        1.0 + (cap / residual.max(EPS)).min(1e6) * 0.25
    } else {
        f64::INFINITY
    }
}

/// [`route`] starting from pre-consumed capacities: `residual[a]` is what
/// is left of arc `a` (e.g. after subtracting an MWU flow). A `feasible`
/// answer certifies that `commodities` fit in the residual capacities, so
/// the caller's base flow plus this one is a witness for the combined
/// demand. Every routing step is also pushed to `paths` when one is given.
pub fn route_residual(
    graph: &FlowGraph,
    commodities: &[Commodity],
    mut residual: Vec<f64>,
    mut paths: Option<&mut Vec<PathStep>>,
) -> GreedyRouting {
    let mut flow = vec![0.0; graph.num_arcs()];
    let mut order: Vec<usize> = (0..commodities.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&commodities[a], &commodities[b]);
        b.demand.partial_cmp(&a.demand).unwrap()
    });
    let g = graph.packed();
    // Lengths by position, kept current: a routing changes the residual
    // of the arcs on its path only, so only those are recomputed.
    let mut len: Vec<f64> = (g.arcs().iter())
        .map(|&a| length(graph.arc(a).cap, residual[a]))
        .collect();
    let mut tree = Tree::default();
    let mut path = Vec::new();
    let max_paths = 1 + graph.num_arcs() / 4;
    for j in order {
        let c = &commodities[j];
        let mut remaining = c.demand;
        let mut paths_used = 0usize;
        while remaining > EPS {
            if paths_used >= max_paths {
                return GreedyRouting {
                    feasible: false,
                    flow,
                };
            }
            paths_used += 1;
            // Only the path to c.dst matters, so the tree stops there.
            tree.grow(g, c.src, [c.dst], |p| len[p]);
            if !tree.path_to(g, c.dst, &mut path) {
                return GreedyRouting {
                    feasible: false,
                    flow,
                };
            }
            let arcs = path.iter().map(|&p| g.arc(p as usize));
            let bottleneck = arcs
                .clone()
                .map(|a| residual[a])
                .fold(f64::INFINITY, f64::min);
            let send = remaining.min(bottleneck);
            for &p in &path {
                let a = g.arc(p as usize);
                residual[a] -= send;
                flow[a] += send;
                len[p as usize] = length(graph.arc(a).cap, residual[a]);
            }
            if let Some(paths) = paths.as_deref_mut() {
                let arcs = arcs.collect();
                paths.push(PathStep {
                    commodity: j,
                    amount: send,
                    arcs,
                });
            }
            remaining -= send;
        }
    }
    GreedyRouting {
        feasible: true,
        flow,
    }
}

/// Repair a flow that overflows some arcs at the current capacities by
/// detouring each overflow along spare capacity: for every arc `a = u → v`
/// over its capacity, in `ArcId` order, up to `1 + m/4` congestion-aware
/// shortest `u ⇝ v` paths avoiding `a` and every arc without spare
/// residual take `min(excess, bottleneck)` off `a`. A detour replaces the
/// `u → v` segment of whatever flow crosses `a`, so every node's net
/// outflow is kept and a flow that routed some demands still routes them.
/// `true` iff every arc then fits within `1e-9`, the test of witness reuse;
/// on `false` `flow` is left part-repaired.
pub fn repair(graph: &FlowGraph, flow: &mut [f64]) -> bool {
    let g = graph.packed();
    let mut tree = Tree::default();
    let mut path = Vec::new();
    let max_paths = 1 + graph.num_arcs() / 4;
    for (a, arc) in graph.arcs().iter().enumerate() {
        let mut paths_used = 0usize;
        while flow[a] - arc.cap > EPS {
            if paths_used >= max_paths {
                return false;
            }
            paths_used += 1;
            let spare = |b: ArcId| graph.arc(b).cap - flow[b];
            tree.grow(g, arc.from, [arc.to], |p| match g.arc(p) {
                b if b == a => f64::INFINITY,
                b => length(graph.arc(b).cap, spare(b)),
            });
            if !tree.path_to(g, arc.to, &mut path) {
                return false;
            }
            let bottleneck = (path.iter())
                .map(|&p| spare(g.arc(p as usize)))
                .fold(f64::INFINITY, f64::min);
            let send = (flow[a] - arc.cap).min(bottleneck);
            for &p in &path {
                flow[g.arc(p as usize)] += send;
            }
            flow[a] -= send;
        }
    }
    (graph.arcs().iter().zip(flow.iter())).all(|(arc, &f)| f <= arc.cap + EPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> FlowGraph {
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 10.0, None);
        g.add_arc(0, 2, 10.0, None);
        g.add_arc(1, 3, 10.0, None);
        g.add_arc(2, 3, 10.0, None);
        g
    }

    #[test]
    fn routes_single_commodity_with_splitting() {
        // 15 units 0→3 must split over both sides of the diamond.
        let r = route(&diamond(), &[Commodity::new(0, 3, 15.0)]);
        assert!(r.feasible);
        let total_out: f64 = r.flow[0] + r.flow[1];
        assert!((total_out - 15.0).abs() < 1e-6);
    }

    #[test]
    fn flow_respects_capacities_when_feasible() {
        let g = diamond();
        let r = route(&g, &[Commodity::new(0, 3, 12.0), Commodity::new(1, 3, 3.0)]);
        assert!(r.feasible);
        for (a, arc) in g.arcs().iter().enumerate() {
            assert!(r.flow[a] <= arc.cap + 1e-6, "arc {a} overfull");
        }
    }

    #[test]
    fn reports_infeasible_when_demand_exceeds_cut() {
        // Total 0→3 capacity is 20; demanding 25 must fail.
        let r = route(&diamond(), &[Commodity::new(0, 3, 25.0)]);
        assert!(!r.feasible);
    }

    #[test]
    fn reports_infeasible_when_disconnected() {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 5.0, None);
        let r = route(&g, &[Commodity::new(0, 2, 1.0)]);
        assert!(!r.feasible);
    }

    #[test]
    fn empty_commodity_set_is_trivially_feasible() {
        let r = route(&diamond(), &[]);
        assert!(r.feasible);
        assert!(r.flow.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn largest_demand_first_avoids_easy_traps() {
        // Line 0-1-2 with caps 10 plus a detour 0-3-2 with caps 4.
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 10.0, None);
        g.add_arc(1, 2, 10.0, None);
        g.add_arc(0, 3, 4.0, None);
        g.add_arc(3, 2, 4.0, None);
        // 10 units 0→2 (needs the straight path) + 4 units 0→2 (fits the
        // detour). Feasible overall; greedy must find it.
        let r = route(&g, &[Commodity::new(0, 2, 10.0), Commodity::new(0, 2, 4.0)]);
        assert!(r.feasible);
    }

    /// Each node's net outflow under `flow`.
    fn net_outflow(g: &FlowGraph, flow: &[f64]) -> Vec<f64> {
        let mut net = vec![0.0; g.num_nodes()];
        for (arc, &f) in g.arcs().iter().zip(flow) {
            net[arc.from] += f;
            net[arc.to] -= f;
        }
        net
    }

    #[test]
    fn repair_detours_an_overflow_along_spare_capacity() {
        // 15 units sent 0→1→3 over arcs of 10: 0→1's overflow detours by
        // 0→2→1, then 1→3's by 1→2→3, and every net outflow stays put.
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 10.0, None);
        g.add_arc(1, 3, 10.0, None);
        g.add_arc(0, 2, 10.0, None);
        g.add_arc(2, 1, 10.0, None);
        g.add_arc(1, 2, 10.0, None);
        g.add_arc(2, 3, 10.0, None);
        let mut flow = vec![15.0, 15.0, 0.0, 0.0, 0.0, 0.0];
        let before = net_outflow(&g, &flow);
        assert!(repair(&g, &mut flow));
        for (arc, &f) in g.arcs().iter().zip(&flow) {
            assert!(f <= arc.cap + 1e-9, "{flow:?}");
        }
        assert_eq!(net_outflow(&g, &flow), before);
        assert_eq!(flow, [10.0, 10.0, 5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn repair_fails_across_a_bridge() {
        // 0→1 is the only way from 0 to 1: its overflow cannot detour.
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 10.0, None);
        g.add_arc(1, 2, 10.0, None);
        g.add_arc(2, 1, 10.0, None);
        let mut flow = vec![12.0, 0.0, 0.0];
        assert!(!repair(&g, &mut flow));
        // A flow that fits is its own repair and stays as it was.
        let mut fits = vec![10.0, 4.0, 0.0];
        assert!(repair(&g, &mut fits));
        assert_eq!(fits, [10.0, 4.0, 0.0]);
    }
}
