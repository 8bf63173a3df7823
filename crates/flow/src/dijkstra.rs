//! Single-source shortest paths under arbitrary non-negative arc lengths.
//!
//! This is the workhorse of the MWU concurrent-flow solver, of the exact
//! LP's column pricing and of metric-cut evaluation (one tree per source
//! in all three), so it is written to avoid allocation on repeat use: a
//! [`DijkstraWorkspace`] carries the heap *and* generation-stamped
//! `dist`/`prev` arrays, and [`DijkstraWorkspace::build_tree`] leaves the
//! tree readable in place, so a reused workspace performs no per-call
//! allocation at all. Only the greedy router (`greedy::route_residual`)
//! wants a single path per run and uses [`shortest_path_between`], which stops as soon as the destination is
//! settled — by then its distance and predecessor chain are final (all
//! chain nodes settle before it), so the returned path is identical to
//! the full run's, at a fraction of the heap work.

use crate::graph::{ArcId, FlowGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a shortest-path computation: distances from the source and
/// the predecessor arc of each reached node.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[v]` = length of the shortest path source → `v`
    /// (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// Arc entering `v` on a shortest path, if `v` was reached.
    pub prev: Vec<Option<ArcId>>,
}

impl ShortestPaths {
    /// Reconstruct the arc path from the source to `dst`, or `None` if
    /// `dst` is unreachable.
    pub fn path_to(&self, graph: &FlowGraph, dst: NodeId) -> Option<Vec<ArcId>> {
        if self.dist[dst].is_infinite() {
            return None;
        }
        let mut path = Vec::new();
        let mut at = dst;
        while let Some(arc) = self.prev[at] {
            path.push(arc);
            at = graph.arc(arc).from;
        }
        path.reverse();
        Some(path)
    }
}

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

/// Dijkstra from `src` where arc `a` has length `lengths(a)`; arcs with
/// non-finite or negative length are treated as absent (used to skip
/// zero-capacity arcs).
///
/// `usable` additionally filters arcs (e.g. to skip saturated ones).
pub fn shortest_paths_with(
    graph: &FlowGraph,
    src: NodeId,
    length: impl FnMut(ArcId) -> f64,
    usable: impl FnMut(ArcId) -> bool,
    ws: &mut DijkstraWorkspace,
) -> ShortestPaths {
    let n = graph.num_nodes();
    ws.run(graph, src, None, length, usable);
    ShortestPaths {
        dist: (0..n).map(|v| ws.dist_of(v)).collect(),
        prev: (0..n)
            .map(|v| {
                if ws.stamp[v] == ws.gen {
                    ws.prev[v]
                } else {
                    None
                }
            })
            .collect(),
    }
}

/// Shortest `src → dst` arc path, stopping as soon as `dst` is settled.
///
/// Appends the path to `path` (cleared first) and returns `true`, or
/// returns `false` when `dst` is unreachable. The path is bit-identical
/// to `shortest_paths_with(..).path_to(graph, dst)`: every node on the
/// predecessor chain settles before `dst` does, and a settled node's
/// distance and predecessor can never change afterwards.
pub fn shortest_path_between(
    graph: &FlowGraph,
    src: NodeId,
    dst: NodeId,
    length: impl FnMut(ArcId) -> f64,
    usable: impl FnMut(ArcId) -> bool,
    ws: &mut DijkstraWorkspace,
    path: &mut Vec<ArcId>,
) -> bool {
    ws.run(graph, src, Some(dst), length, usable);
    ws.tree_path(graph, dst, path)
}

/// Dijkstra with a per-arc length slice and no extra filtering.
pub fn shortest_paths(graph: &FlowGraph, src: NodeId, lengths: &[f64]) -> ShortestPaths {
    let mut ws = DijkstraWorkspace::default();
    shortest_paths_with(graph, src, |a| lengths[a], |_| true, &mut ws)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → 1 → 2 with a direct (longer) 0 → 2.
    fn triangle() -> FlowGraph {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 1.0, None); // arc 0
        g.add_arc(1, 2, 1.0, None); // arc 1
        g.add_arc(0, 2, 1.0, None); // arc 2
        g
    }

    #[test]
    fn picks_the_shorter_route() {
        let g = triangle();
        let sp = shortest_paths(&g, 0, &[1.0, 1.0, 5.0]);
        assert_eq!(sp.dist[2], 2.0);
        assert_eq!(sp.path_to(&g, 2), Some(vec![0, 1]));
    }

    #[test]
    fn direct_arc_wins_when_cheaper() {
        let g = triangle();
        let sp = shortest_paths(&g, 0, &[1.0, 1.0, 1.5]);
        assert_eq!(sp.dist[2], 1.5);
        assert_eq!(sp.path_to(&g, 2), Some(vec![2]));
    }

    #[test]
    fn unreachable_nodes_report_infinity() {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 1.0, None);
        let sp = shortest_paths(&g, 0, &[1.0]);
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.path_to(&g, 2), None);
    }

    #[test]
    fn usable_filter_excludes_arcs() {
        let g = triangle();
        let mut ws = DijkstraWorkspace::default();
        // Forbid arc 0: path must go direct.
        let sp = shortest_paths_with(&g, 0, |_| 1.0, |a| a != 0, &mut ws);
        assert_eq!(sp.path_to(&g, 2), Some(vec![2]));
    }

    #[test]
    fn source_distance_is_zero_and_path_empty() {
        let g = triangle();
        let sp = shortest_paths(&g, 0, &[1.0, 1.0, 1.0]);
        assert_eq!(sp.dist[0], 0.0);
        assert_eq!(sp.path_to(&g, 0), Some(vec![]));
    }

    #[test]
    fn zero_length_arcs_are_allowed() {
        let g = triangle();
        let sp = shortest_paths(&g, 0, &[0.0, 0.0, 1.0]);
        assert_eq!(sp.dist[2], 0.0);
    }

    #[test]
    fn workspace_reuse_gives_identical_results() {
        let g = triangle();
        let mut ws = DijkstraWorkspace::default();
        let a = shortest_paths_with(&g, 0, |_| 1.0, |_| true, &mut ws);
        let b = shortest_paths_with(&g, 0, |_| 1.0, |_| true, &mut ws);
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn early_exit_path_matches_full_run() {
        // A grid-ish graph with ties, run under several length functions
        // and shared workspace reuse across calls.
        let mut g = FlowGraph::new(6);
        g.add_arc(0, 1, 1.0, None);
        g.add_arc(0, 2, 1.0, None);
        g.add_arc(1, 3, 1.0, None);
        g.add_arc(2, 3, 1.0, None);
        g.add_arc(3, 4, 1.0, None);
        g.add_arc(3, 5, 1.0, None);
        g.add_arc(4, 5, 1.0, None);
        g.add_arc(1, 5, 1.0, None);
        let length_sets: Vec<Vec<f64>> = vec![
            vec![1.0; 8],
            vec![1.0, 2.0, 3.0, 1.0, 2.0, 9.0, 1.0, 7.0],
            vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        ];
        let mut ws = DijkstraWorkspace::default();
        let mut path = Vec::new();
        for lens in &length_sets {
            for dst in 1..6 {
                let full = shortest_paths(&g, 0, lens).path_to(&g, dst);
                let found =
                    shortest_path_between(&g, 0, dst, |a| lens[a], |_| true, &mut ws, &mut path);
                match full {
                    Some(p) => {
                        assert!(found, "dst {dst} reachable in full run");
                        assert_eq!(path, p, "dst {dst}: early exit must match full run");
                    }
                    None => assert!(!found),
                }
            }
        }
    }

    #[test]
    fn early_exit_reports_unreachable() {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 1.0, None);
        let mut ws = DijkstraWorkspace::default();
        let mut path = vec![7]; // stale content must be cleared
        assert!(!shortest_path_between(
            &g,
            0,
            2,
            |_| 1.0,
            |_| true,
            &mut ws,
            &mut path
        ));
        assert!(path.is_empty());
    }

    #[test]
    fn stamped_workspace_survives_generation_wrap() {
        let g = triangle();
        let mut ws = DijkstraWorkspace {
            gen: u32::MAX - 1,
            ..Default::default()
        };
        for _ in 0..4 {
            let sp = shortest_paths_with(&g, 0, |_| 1.0, |_| true, &mut ws);
            assert_eq!(sp.dist[2], 1.0);
        }
    }
}
