//! Fleischer's multiplicative-weights approximation of **max concurrent
//! flow**.
//!
//! Max concurrent flow asks for the largest λ such that λ·dⱼ of every
//! commodity j can be routed simultaneously; the plan is feasible iff
//! λ* ≥ 1. The algorithm (Fleischer 2000, after Garg–Könemann) maintains
//! exponential arc lengths `l_a`, repeatedly routes each demand along
//! current shortest paths, and multiplies the lengths of used arcs. After
//! scaling, the accumulated flow is capacity-feasible and carries a
//! `(1-ε)`-approximate λ.
//!
//! Two outputs matter to the evaluator:
//! * [`ConcurrentFlow::lambda`] — if ≥ 1 the (scaled) flow is an exact
//!   *feasibility witness*;
//! * [`ConcurrentFlow::lengths`] — the final dual length function. When
//!   the instance is infeasible these lengths are (close to) an optimal
//!   dual solution and almost always yield an exactly-verifiable violated
//!   **metric inequality** via [`crate::metric::extract_cut`].

use crate::commodity::{group_by_source, Commodity};
use crate::dijkstra::Tree;
use crate::graph::{FlowGraph, Packed};

/// Tuning parameters for the MWU solver.
#[derive(Clone, Copy, Debug)]
pub struct MwuConfig {
    /// Approximation parameter ε ∈ (0, 0.5): λ is within `(1-ε)³` of
    /// optimal. Smaller is slower (≈ 1/ε² phases).
    pub epsilon: f64,
    /// Hard cap on routed paths, guarding against pathological instances.
    pub max_path_routings: usize,
    /// Stop as soon as the *certified* λ (completed phases / scale)
    /// reaches this value. A checker that only needs "is λ ≥ 1?" sets
    /// `Some(1.0)` and skips the tail phases a full run would spend
    /// sharpening λ beyond the threshold. `None` runs to the classic
    /// `D(l) ≥ 1` termination.
    pub target_lambda: Option<f64>,
}

impl Default for MwuConfig {
    fn default() -> Self {
        MwuConfig {
            epsilon: 0.15,
            max_path_routings: 2_000_000,
            target_lambda: None,
        }
    }
}

/// Result of a max-concurrent-flow computation.
#[derive(Clone, Debug)]
pub struct ConcurrentFlow {
    /// Guaranteed-achievable concurrent fraction: the scaled flow routes
    /// at least `lambda · demand` of every commodity within capacities.
    /// `lambda >= 1.0` therefore certifies feasibility.
    pub lambda: f64,
    /// Final dual lengths per arc (the metric-cut seed).
    pub lengths: Vec<f64>,
    /// Scaled per-arc flow (capacity-feasible).
    pub flow: Vec<f64>,
    /// Scaled amount actually routed per input commodity (aligned with
    /// the `commodities` argument). `flow` delivers exactly `routed[j]`
    /// of commodity j, so `demand - routed[j]` is the residual a
    /// completion heuristic must still place.
    pub routed: Vec<f64>,
    /// Some active commodity had no path at all: infeasible regardless of
    /// capacities (structural disconnection).
    pub disconnected: bool,
    /// Completed phases (every commodity routed once in full).
    pub phases: u64,
    /// Shortest-path trees grown: one per source and phase, plus one per
    /// stale tree path.
    pub trees: u64,
    /// Paths routed.
    pub routings: u64,
}

impl ConcurrentFlow {
    /// Whether the computation certified feasibility.
    pub fn is_feasible(&self) -> bool {
        !self.disconnected && self.lambda >= 1.0
    }
}

/// Run the approximation on `graph` for `commodities`.
///
/// Arcs with zero capacity are treated as absent. Demands must be
/// positive. Runtime is `O((m/ε²)·log m)` shortest-path computations.
pub fn max_concurrent_flow(
    graph: &FlowGraph,
    commodities: &[Commodity],
    cfg: &MwuConfig,
) -> ConcurrentFlow {
    assert!(
        cfg.epsilon > 0.0 && cfg.epsilon < 0.5,
        "epsilon must be in (0, 0.5)"
    );
    let m = graph.num_arcs().max(2) as f64;
    let eps = cfg.epsilon;
    let delta = (m / (1.0 - eps)).powf(-1.0 / eps);
    let scale = (1.0 / delta).ln() / (1.0 + eps).ln(); // log_{1+eps}(1/delta)

    // Zero-capacity arcs are left out of the packed view, and everything
    // the loop touches per arc is held in its position order.
    let g = Packed::of(graph.num_nodes(), graph.arcs(), |a| a.cap > 0.0);
    let caps: Vec<f64> = g.arcs().iter().map(|&a| graph.arc(a).cap).collect();
    let mut lengths: Vec<f64> = caps.iter().map(|&c| delta / c).collect();
    let mut flow = vec![0.0; caps.len()];
    // D(l) = Σ l_a c_a; the algorithm stops when D ≥ 1.
    let mut d_total = delta * caps.len() as f64;
    let mut routed = vec![0.0f64; commodities.len()];

    // Fleischer's source grouping: all commodities sharing a source are
    // routed off ONE shortest-path tree, recomputed only when a used
    // path has grown past (1+ε) of its tree-time length. Lengths only
    // grow, so a tree path within (1+ε) of its tree-time distance is a
    // (1+ε)-approximate shortest path *now* — exactly the slack the
    // (1-ε)³ guarantee budgets for. Dijkstra count drops from
    // phases × commodities to roughly phases × distinct sources.
    let groups = group_by_source(commodities);
    let mut tree = Tree::default();
    let mut path = Vec::with_capacity(graph.num_nodes());
    let (mut phases, mut trees, mut routings) = (0u64, 0u64, 0u64);
    let mut disconnected = false;

    'outer: while d_total < 1.0 && !commodities.is_empty() {
        for (src, members) in &groups {
            let mut tree_fresh = false;
            for (mi, &ci) in members.iter().enumerate() {
                let c = &commodities[ci];
                let mut remaining = c.demand;
                while remaining > 0.0 && d_total < 1.0 {
                    if routings >= cfg.max_path_routings as u64 {
                        break 'outer;
                    }
                    if !tree_fresh {
                        // Members before `mi` are done for this phase:
                        // the tree is only read for the rest.
                        let rest = members[mi..].iter().map(|&j| commodities[j].dst);
                        tree.grow(&g, *src, rest, |p| lengths[p]);
                        trees += 1;
                        tree_fresh = true;
                    }
                    if !tree.path_to(&g, c.dst, &mut path) {
                        disconnected = true;
                        break 'outer;
                    }
                    let path_len: f64 = path.iter().map(|&p| lengths[p as usize]).sum();
                    if path_len > (1.0 + eps) * tree.dist(c.dst) {
                        // Stale: recompute the tree and retry. The fresh
                        // tree's path equals its distance, so this makes
                        // progress every time.
                        tree_fresh = false;
                        continue;
                    }
                    routings += 1;
                    let bottleneck = path
                        .iter()
                        .map(|&p| caps[p as usize])
                        .fold(f64::INFINITY, f64::min);
                    let send = remaining.min(bottleneck);
                    // Σ_a l_a·c_a·(ε·send/c_a) telescopes to ε·send·Σ l_a,
                    // so D(l) advances in one multiply per routing.
                    d_total += eps * send * path_len;
                    for &p in &path {
                        flow[p as usize] += send;
                        lengths[p as usize] *= 1.0 + eps * send / caps[p as usize];
                    }
                    routed[ci] += send;
                    remaining -= send;
                }
                if d_total >= 1.0 {
                    break 'outer;
                }
            }
        }
        phases += 1;
        if let Some(target) = cfg.target_lambda {
            // phases/scale is the λ already certified; the caller asked
            // for no more than `target`.
            if phases as f64 >= target * scale {
                break;
            }
        }
    }

    // Back to `ArcId` order. Dividing the accumulated flow by
    // log_{1+eps}(1/delta) makes it capacity-feasible (each arc's flow
    // grew its length by at most a factor 1/delta), and it routes
    // (phases/scale)·d_j per commodity.
    let mut out = ConcurrentFlow {
        lambda: match (commodities.is_empty(), disconnected) {
            (true, _) => f64::INFINITY,
            (_, true) => 0.0,
            _ => phases as f64 / scale,
        },
        lengths: vec![f64::INFINITY; graph.num_arcs()],
        flow: vec![0.0; graph.num_arcs()],
        routed,
        disconnected,
        phases,
        trees,
        routings,
    };
    for (p, &a) in g.arcs().iter().enumerate() {
        out.lengths[a] = lengths[p];
        out.flow[a] = flow[p] / scale;
    }
    if commodities.is_empty() {
        return out; // nothing was asked: the lengths stay as they started
    }
    for r in &mut out.routed {
        *r /= scale;
    }
    // Normalize lengths so the largest finite entry is 1 (pure
    // conditioning; any positive scaling of a metric is the same metric).
    let lengths = &mut out.lengths;
    let max_len = lengths
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .fold(0.0f64, f64::max);
    if max_len <= 0.0 {
        // Every arc is dark: any uniform metric is as good as another.
        lengths.fill(1.0);
    } else {
        for l in lengths.iter_mut() {
            if l.is_finite() {
                *l /= max_len;
            } else {
                // Zero-capacity (dark) arcs get the maximum length: they add
                // nothing to the cut's left side (cap = 0) but must not offer
                // free shortcuts when the cut's distances are computed — a
                // dark candidate link only helps feasibility if the ILP
                // master buys capacity on it, which the cut then credits.
                *l = 1.0;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(side_cap: f64) -> FlowGraph {
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, side_cap, None);
        g.add_arc(0, 2, side_cap, None);
        g.add_arc(1, 3, side_cap, None);
        g.add_arc(2, 3, side_cap, None);
        g
    }

    fn solve(g: &FlowGraph, cs: &[Commodity], eps: f64) -> ConcurrentFlow {
        max_concurrent_flow(
            g,
            cs,
            &MwuConfig {
                epsilon: eps,
                ..Default::default()
            },
        )
    }

    #[test]
    fn feasible_instance_certifies() {
        // Demand 12 over a 20-capacity diamond: λ* = 20/12 ≈ 1.67.
        let cf = solve(&diamond(10.0), &[Commodity::new(0, 3, 12.0)], 0.1);
        assert!(cf.is_feasible(), "lambda = {}", cf.lambda);
    }

    #[test]
    fn infeasible_instance_rejects() {
        // Demand 30 over a 20-capacity diamond: λ* = 2/3.
        let cf = solve(&diamond(10.0), &[Commodity::new(0, 3, 30.0)], 0.1);
        assert!(!cf.is_feasible());
        assert!(cf.lambda < 1.0);
    }

    #[test]
    fn lambda_approximates_known_optimum() {
        // λ* = 20/16 = 1.25; with ε=0.05 the bound (1-ε)³ ≈ 0.857 applies.
        let cf = solve(&diamond(10.0), &[Commodity::new(0, 3, 16.0)], 0.05);
        assert!(cf.lambda >= 1.25 * 0.8, "lambda = {}", cf.lambda);
        assert!(cf.lambda <= 1.25 * 1.01, "lambda must lower-bound λ*");
    }

    #[test]
    fn scaled_flow_respects_capacities() {
        let g = diamond(10.0);
        let cf = solve(&g, &[Commodity::new(0, 3, 18.0)], 0.1);
        for (a, arc) in g.arcs().iter().enumerate() {
            assert!(
                cf.flow[a] <= arc.cap * (1.0 + 1e-6),
                "arc {a}: flow {} > cap {}",
                cf.flow[a],
                arc.cap
            );
        }
    }

    #[test]
    fn detects_structural_disconnection() {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 5.0, None);
        let cf = solve(&g, &[Commodity::new(0, 2, 1.0)], 0.1);
        assert!(cf.disconnected);
        assert!(!cf.is_feasible());
    }

    #[test]
    fn zero_capacity_arcs_are_ignored() {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 0.0, None);
        g.add_arc(0, 2, 5.0, None);
        g.add_arc(2, 1, 5.0, None);
        let cf = solve(&g, &[Commodity::new(0, 1, 4.0)], 0.1);
        assert!(cf.is_feasible());
        assert_eq!(cf.flow[0], 0.0);
    }

    #[test]
    fn empty_commodities_are_infinitely_feasible() {
        let cf = solve(&diamond(1.0), &[], 0.1);
        assert!(cf.is_feasible());
    }

    #[test]
    fn multicommodity_contention_detected() {
        // Two commodities share the single 1→3 arc of a path graph.
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 10.0, None);
        g.add_arc(2, 1, 10.0, None);
        g.add_arc(1, 3, 10.0, None);
        // λ* = 10/6 ≈ 1.67 leaves room for the (1-ε)³ approximation slack;
        // demands summing exactly to the shared capacity (λ* = 1) sit on
        // the boundary no approximation can certify.
        let feasible = solve(
            &g,
            &[Commodity::new(0, 3, 3.0), Commodity::new(2, 3, 3.0)],
            0.1,
        );
        assert!(feasible.is_feasible());
        let infeasible = solve(
            &g,
            &[Commodity::new(0, 3, 8.0), Commodity::new(2, 3, 8.0)],
            0.1,
        );
        assert!(!infeasible.is_feasible());
    }

    #[test]
    fn normalized_lengths_are_in_unit_range() {
        let cf = solve(&diamond(10.0), &[Commodity::new(0, 3, 30.0)], 0.1);
        assert!(cf.lengths.iter().all(|&l| (0.0..=1.0).contains(&l)));
        assert!(cf.lengths.iter().any(|&l| l > 0.0));
    }
}
