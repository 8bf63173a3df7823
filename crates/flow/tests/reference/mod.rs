//! The shortest-path core and MWU loop this crate shipped before the
//! packed kernel (DESIGN.md §18), kept verbatim as the oracle the bit
//! tests compare against: a lazy-deletion `BinaryHeap` of
//! `(Reverse(dist), node)` tuples over generation-stamped arrays, one
//! full tree per build. It reaches the library through its public API
//! only, so the workspace-level scenario tests include this same file.
#![allow(dead_code)]

use np_flow::commodity::group_by_source;
use np_flow::mwu::{ConcurrentFlow, MwuConfig};
use np_flow::{ArcId, Commodity, FlowGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable scratch space for repeated Dijkstra runs: the heap plus
/// generation-stamped distance/predecessor arrays (bumping `gen`
/// invalidates every entry in O(1), so reuse never clears memory).
#[derive(Clone, Debug, Default)]
pub struct DijkstraWorkspace {
    heap: BinaryHeap<(Reverse<NotNan>, NodeId)>,
    dist: Vec<f64>,
    prev: Vec<Option<ArcId>>,
    stamp: Vec<u32>,
    gen: u32,
}

impl DijkstraWorkspace {
    /// Start a fresh run over `n` nodes: bump the generation (lazily
    /// clearing the arrays) and empty the heap.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, None);
            self.stamp.resize(n, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stale stamps could collide with the new generation.
            self.stamp.fill(0);
            self.gen = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn dist_of(&self, v: NodeId) -> f64 {
        if self.stamp[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, v: NodeId, d: f64, p: Option<ArcId>) {
        self.stamp[v] = self.gen;
        self.dist[v] = d;
        self.prev[v] = p;
    }

    /// Dijkstra core. With `until = Some(dst)` the loop returns as soon
    /// as `dst` is settled; the settled prefix (everything popped so
    /// far) is identical to the full run's, which makes the early exit
    /// result-transparent for anything derived from `dst`'s chain.
    fn run(
        &mut self,
        graph: &FlowGraph,
        src: NodeId,
        until: Option<NodeId>,
        mut length: impl FnMut(ArcId) -> f64,
        mut usable: impl FnMut(ArcId) -> bool,
    ) {
        self.begin(graph.num_nodes());
        self.set(src, 0.0, None);
        self.heap.push((Reverse(NotNan(0.0)), src));
        while let Some((Reverse(NotNan(d)), u)) = self.heap.pop() {
            if d > self.dist_of(u) {
                continue;
            }
            if until == Some(u) {
                return;
            }
            for &aid in graph.out_arcs(u) {
                if !usable(aid) {
                    continue;
                }
                let len = length(aid);
                if len < 0.0 || !len.is_finite() {
                    continue;
                }
                let v = graph.arc(aid).to;
                let nd = d + len;
                if nd < self.dist_of(v) {
                    self.set(v, nd, Some(aid));
                    self.heap.push((Reverse(NotNan(nd)), v));
                }
            }
        }
    }

    /// Run a full single-source shortest-path tree from `src`, leaving
    /// the result queryable in place via [`Self::tree_dist`] /
    /// [`Self::tree_path`]. Unlike [`shortest_paths_with`] nothing is
    /// materialized, so a reused workspace performs no allocation; the
    /// tree stays valid until the next run on this workspace.
    pub fn build_tree(
        &mut self,
        graph: &FlowGraph,
        src: NodeId,
        length: impl FnMut(ArcId) -> f64,
        usable: impl FnMut(ArcId) -> bool,
    ) {
        self.run(graph, src, None, length, usable);
    }

    /// Distance of `v` in the last tree (`f64::INFINITY` if unreached).
    #[inline]
    pub fn tree_dist(&self, v: NodeId) -> f64 {
        self.dist_of(v)
    }

    /// Extract the last tree's arc path to `dst` into `path` (cleared
    /// first); returns `false` when `dst` was not reached.
    pub fn tree_path(&self, graph: &FlowGraph, dst: NodeId, path: &mut Vec<ArcId>) -> bool {
        path.clear();
        if self.dist_of(dst).is_infinite() {
            return false;
        }
        // Every node on the chain was written this generation: dst is
        // fresh (finite distance), and each predecessor settled before
        // relaxing the arc that set its successor's `prev`.
        let mut at = dst;
        while let Some(arc) = self.prev[at] {
            path.push(arc);
            at = graph.arc(arc).from;
        }
        path.reverse();
        true
    }
}

/// f64 wrapper that asserts no NaN, giving a total order for the heap.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
struct NotNan(f64);

impl Eq for NotNan {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for NotNan {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("lengths are never NaN")
    }
}

/// The MWU loop as it stood before the packed kernel: `ArcId`-ordered
/// arrays, a full tree per build, dark arcs carried at infinite length.
/// Only the three work counters are new.
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

    let caps: Vec<f64> = graph.arcs().iter().map(|a| a.cap).collect();
    let mut lengths: Vec<f64> = caps
        .iter()
        .map(|&c| if c > 0.0 { delta / c } else { f64::INFINITY })
        .collect();
    let mut flow = vec![0.0; graph.num_arcs()];
    // D(l) = Σ l_a c_a; the algorithm stops when D ≥ 1.
    let mut d_total = delta * caps.iter().filter(|&&c| c > 0.0).count() as f64;

    if commodities.is_empty() {
        return ConcurrentFlow {
            lambda: f64::INFINITY,
            lengths,
            flow,
            routed: Vec::new(),
            disconnected: false,
            phases: 0,
            trees: 0,
            routings: 0,
        };
    }
    let mut routed = vec![0.0f64; commodities.len()];

    // Fleischer's source grouping: all commodities sharing a source are
    // routed off ONE shortest-path tree, recomputed only when a used
    // path has grown past (1+ε) of its tree-time length. Lengths only
    // grow, so a tree path within (1+ε) of its tree-time distance is a
    // (1+ε)-approximate shortest path *now* — exactly the slack the
    // (1-ε)³ guarantee budgets for. Dijkstra count drops from
    // phases × commodities to roughly phases × distinct sources.
    let groups = group_by_source(commodities);

    let mut ws = DijkstraWorkspace::default();
    let mut path = Vec::new();
    let mut phases = 0usize;
    let mut routings = 0usize;
    let mut disconnected = false;
    let mut trees = 0u64;

    'outer: while d_total < 1.0 {
        for (src, members) in &groups {
            let mut tree_fresh = false;
            for &ci in members {
                let c = &commodities[ci];
                let mut remaining = c.demand;
                while remaining > 0.0 && d_total < 1.0 {
                    if routings >= cfg.max_path_routings {
                        break 'outer;
                    }
                    if !tree_fresh {
                        // Zero-capacity arcs need no `usable` filter:
                        // their lengths are INFINITY, which Dijkstra
                        // already treats as absent.
                        ws.build_tree(graph, *src, |a| lengths[a], |_| true);
                        trees += 1;
                        tree_fresh = true;
                    }
                    if !ws.tree_path(graph, c.dst, &mut path) {
                        disconnected = true;
                        break 'outer;
                    }
                    let path_len: f64 = path.iter().map(|&a| lengths[a]).sum();
                    if path_len > (1.0 + eps) * ws.tree_dist(c.dst) {
                        // Stale: recompute the tree and retry. The fresh
                        // tree's path equals its distance, so this makes
                        // progress every time.
                        tree_fresh = false;
                        continue;
                    }
                    routings += 1;
                    let bottleneck = path.iter().map(|&a| caps[a]).fold(f64::INFINITY, f64::min);
                    let send = remaining.min(bottleneck);
                    // Σ_a l_a·c_a·(ε·send/c_a) telescopes to ε·send·Σ l_a,
                    // so D(l) advances in one multiply per routing.
                    d_total += eps * send * path_len;
                    for &a in &path {
                        flow[a] += send;
                        lengths[a] *= 1.0 + eps * send / caps[a];
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

    // Scale the accumulated flow: dividing by log_{1+eps}(1/delta) makes it
    // capacity-feasible (each arc's flow grew its length by at most a
    // factor 1/delta), and it routes (phases/scale)·d_j per commodity.
    for f in &mut flow {
        *f /= scale;
    }
    for r in &mut routed {
        *r /= scale;
    }
    let lambda = if disconnected {
        0.0
    } else {
        phases as f64 / scale
    };
    // Normalize lengths so the largest finite entry is 1 (pure
    // conditioning; any positive scaling of a metric is the same metric).
    let max_len = lengths
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .fold(0.0f64, f64::max);
    if max_len <= 0.0 {
        // Every arc is dark: any uniform metric is as good as another.
        lengths.fill(1.0);
    } else {
        for l in &mut lengths {
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
    ConcurrentFlow {
        lambda,
        lengths,
        flow,
        routed,
        disconnected,
        phases: phases as u64,
        trees,
        routings: routings as u64,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Both loops on one instance, compared field by field.
pub fn assert_mwu_matches_reference(g: &FlowGraph, cs: &[Commodity], cfg: &MwuConfig, what: &str) {
    let want = max_concurrent_flow(g, cs, cfg);
    let got = np_flow::mwu::max_concurrent_flow(g, cs, cfg);
    assert_eq!(got.disconnected, want.disconnected, "{what}: disconnected");
    assert_eq!(
        got.lambda.to_bits(),
        want.lambda.to_bits(),
        "{what}: lambda"
    );
    assert_eq!(bits(&got.lengths), bits(&want.lengths), "{what}: lengths");
    assert_eq!(bits(&got.flow), bits(&want.flow), "{what}: flow");
    assert_eq!(bits(&got.routed), bits(&want.routed), "{what}: routed");
    assert_eq!(
        (got.phases, got.trees, got.routings),
        (want.phases, want.trees, want.routings),
        "{what}: phases/trees/routings"
    );
}
