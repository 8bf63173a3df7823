//! Single-source shortest paths under arbitrary non-negative arc lengths.
//!
//! One kernel, [`Tree::grow`], serves every caller: the MWU
//! concurrent-flow solver, the exact LP's column pricing and metric-cut
//! evaluation (one tree per source in all three), the greedy router and
//! Yen's k shortest paths (one destination per run). It walks a
//! [`Packed`] arc set, reads lengths by position through a closure, and
//! reuses its arrays from run to run, so a warm [`Tree`] never
//! allocates. Its contract — pop order, which predecessor wins a tie,
//! when a run may stop early — is what keeps every plan bit for bit
//! reproducible and is written down in DESIGN.md §18.

use crate::graph::{ArcId, FlowGraph, NodeId, Packed};

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

/// "No entering arc": the source and every unreached node.
const NONE: u32 = u32::MAX;

/// A queue entry: a labelled, unsettled node under its tentative distance.
type Entry = (f64, u32);

/// Queue order: ascending distance, the larger node id first among equals.
#[inline]
fn before(a: Entry, b: Entry) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// The shortest-path kernel and its last tree.
///
/// The queue is a binary heap with decrease-key (`slot[v]` is where `v`
/// sits in `heap`): one entry per labelled node, so no stale pops and no
/// growth past `n`. DESIGN.md §18 has the alternatives it was measured
/// against.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    dist: Vec<f64>,
    prev: Vec<u32>,
    heap: Vec<Entry>,
    slot: Vec<u32>,
    wanted: Vec<bool>,
}

impl Tree {
    /// Grow the tree from `src` over `g`, where the arc at position `p`
    /// has length `len(p)`; a negative, infinite or NaN length means the
    /// arc is absent.
    ///
    /// Nodes settle by ascending distance, the **larger node id first**
    /// among equal distances, and a node's predecessor is the first arc
    /// (in position order of the settling nodes) that strictly improved
    /// it. The run stops once every node of `wanted` has settled — the
    /// settled part of the tree is the full run's, so [`Self::dist`] and
    /// [`Self::path_to`] are then exact for the wanted nodes and for
    /// them only. An empty `wanted` grows the full tree.
    pub fn grow(
        &mut self,
        g: &Packed,
        src: NodeId,
        wanted: impl IntoIterator<Item = NodeId>,
        len: impl Fn(usize) -> f64,
    ) {
        let n = g.num_nodes();
        let Tree {
            dist,
            prev,
            heap,
            slot,
            wanted: mark,
        } = self;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        // `prev` and `slot` are written before they are read; `mark` is
        // all false between runs.
        prev.resize(n, NONE);
        slot.resize(n, 0);
        mark.resize(n, false);
        let mut need = 0usize;
        for v in wanted {
            need += usize::from(!std::mem::replace(&mut mark[v], true));
        }
        heap.clear();
        heap.reserve(n);
        dist[src] = 0.0;
        prev[src] = NONE;
        heap.push((0.0, src as u32));
        while let Some(&(d, u)) = heap.first() {
            let last = heap.pop().expect("non-empty");
            if !heap.is_empty() {
                sift_down(heap, slot, last);
            }
            let u = u as usize;
            if std::mem::replace(&mut mark[u], false) {
                need -= 1;
                if need == 0 {
                    return;
                }
            }
            for p in g.head[u] as usize..g.head[u + 1] as usize {
                let l = len(p);
                let v = g.to[p] as usize;
                let nd = d + l;
                if l >= 0.0 && nd < dist[v] {
                    let at = if dist[v] == f64::INFINITY {
                        heap.push((nd, v as u32));
                        heap.len() - 1
                    } else {
                        slot[v] as usize
                    };
                    dist[v] = nd;
                    prev[v] = p as u32;
                    sift_up(heap, slot, at, (nd, v as u32));
                }
            }
        }
        if need > 0 {
            mark.fill(false); // some wanted node is unreachable
        }
    }

    /// Distance of `v` in the last tree (`f64::INFINITY` if unreached).
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        self.dist[v]
    }

    /// Write the last tree's path to `dst` into `path` (cleared first) as
    /// positions of `g`, source end first; `false` if `dst` was not
    /// reached.
    pub fn path_to(&self, g: &Packed, dst: NodeId, path: &mut Vec<u32>) -> bool {
        path.clear();
        if self.dist[dst].is_infinite() {
            return false;
        }
        let mut at = dst;
        while self.prev[at] != NONE {
            path.push(self.prev[at]);
            at = g.from[self.prev[at] as usize] as usize;
        }
        path.reverse();
        true
    }
}

/// Place `e` at `at` or above, wherever the heap order wants it.
#[inline]
fn sift_up(heap: &mut [Entry], slot: &mut [u32], mut at: usize, e: Entry) {
    while at > 0 && before(e, heap[(at - 1) / 2]) {
        heap[at] = heap[(at - 1) / 2];
        slot[heap[at].1 as usize] = at as u32;
        at = (at - 1) / 2;
    }
    heap[at] = e;
    slot[e.1 as usize] = at as u32;
}

/// Place `e` at the root or below, wherever the heap order wants it.
#[inline]
fn sift_down(heap: &mut [Entry], slot: &mut [u32], e: Entry) {
    let mut at = 0;
    loop {
        let mut child = 2 * at + 1;
        if child + 1 < heap.len() && before(heap[child + 1], heap[child]) {
            child += 1;
        }
        if child >= heap.len() || !before(heap[child], e) {
            break;
        }
        heap[at] = heap[child];
        slot[heap[at].1 as usize] = at as u32;
        at = child;
    }
    heap[at] = e;
    slot[e.1 as usize] = at as u32;
}

/// The full shortest-path tree from `src` where arc `a` has length
/// `lengths[a]`; arcs with non-finite or negative length are treated as
/// absent.
pub fn shortest_paths(graph: &FlowGraph, src: NodeId, lengths: &[f64]) -> ShortestPaths {
    let g = graph.packed();
    let mut tree = Tree::default();
    tree.grow(g, src, [], |p| lengths[g.arc(p)]);
    let prev = tree.prev.iter(); // a new tree's `prev` starts all `NONE`
    ShortestPaths {
        prev: prev
            .map(|&p| (p != NONE).then(|| g.arc(p as usize)))
            .collect(),
        dist: tree.dist,
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

    /// 0 → {1, 2} → 3 → {4, 5}, 4 → 5, 1 → 5, and an isolated node 6.
    fn lattice() -> FlowGraph {
        let mut g = FlowGraph::new(7);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 5),
            (1, 5),
        ] {
            g.add_arc(u, v, 1.0, None);
        }
        g
    }

    /// The arcs of the last tree's path to `dst`, if it was reached.
    fn arcs_to(tree: &Tree, g: &Packed, dst: NodeId) -> Option<Vec<ArcId>> {
        let mut positions = Vec::new();
        tree.path_to(g, dst, &mut positions)
            .then(|| positions.iter().map(|&p| g.arc(p as usize)).collect())
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
        assert_eq!(sp.prev[2], None);
        assert_eq!(sp.path_to(&g, 2), None);
    }

    #[test]
    fn infinite_negative_and_nan_lengths_mean_no_arc() {
        let g = triangle();
        for absent in [f64::INFINITY, -1.0, f64::NAN] {
            // Without arc 0 the path must go direct.
            let sp = shortest_paths(&g, 0, &[absent, 1.0, 5.0]);
            assert_eq!(sp.path_to(&g, 2), Some(vec![2]));
            assert!(sp.dist[1].is_infinite());
        }
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
    fn equal_distances_settle_the_larger_node_first() {
        // Nodes 1 and 2 tie at distance 1. Node 2 settles first and
        // labels 3 through arc 3; node 1 then offers the same distance,
        // which is no strict improvement, so arc 3 stays the predecessor.
        let g = lattice();
        let sp = shortest_paths(&g, 0, &[1.0; 8]);
        assert_eq!(sp.prev[3], Some(3));
        assert_eq!(sp.path_to(&g, 3), Some(vec![1, 3]));
        // 5 is labelled at distance 2 by node 1 through arc 7; node 3's
        // later offer of 3 is worse.
        assert_eq!(sp.path_to(&g, 5), Some(vec![0, 7]));
    }

    #[test]
    fn of_two_parallel_arcs_the_first_strict_improvement_wins() {
        let mut g = FlowGraph::new(2);
        g.add_arc(0, 1, 1.0, None);
        g.add_arc(0, 1, 1.0, None);
        assert_eq!(shortest_paths(&g, 0, &[2.0, 2.0]).prev[1], Some(0));
        assert_eq!(shortest_paths(&g, 0, &[2.0, 1.0]).prev[1], Some(1));
    }

    #[test]
    fn a_tree_stopped_early_agrees_with_the_full_tree_on_what_was_wanted() {
        let g = lattice();
        let p = g.packed();
        let length_sets: [[f64; 8]; 3] =
            [[1.0; 8], [1.0, 2.0, 3.0, 1.0, 2.0, 9.0, 1.0, 7.0], [0.5; 8]];
        // One tree for everything: reuse must not leak between runs.
        let (mut full, mut stopped) = (Tree::default(), Tree::default());
        for lens in &length_sets {
            full.grow(p, 0, [], |q| lens[p.arc(q)]);
            for wanted in [vec![3], vec![5, 1], vec![4, 4, 2], vec![5, 6]] {
                stopped.grow(p, 0, wanted.iter().copied(), |q| lens[p.arc(q)]);
                for &v in &wanted {
                    assert_eq!(stopped.dist(v).to_bits(), full.dist(v).to_bits());
                    assert_eq!(arcs_to(&stopped, p, v), arcs_to(&full, p, v));
                }
            }
        }
        // Node 6 is unreachable: the run exhausts the graph looking for it.
        assert!(stopped.dist(6).is_infinite());
        let mut path = vec![7]; // stale content must be cleared
        assert!(!stopped.path_to(p, 6, &mut path));
        assert!(path.is_empty());
        // ...and the marks it left behind do not stop the next run early.
        stopped.grow(p, 0, [], |_| 1.0);
        assert_eq!(stopped.dist(5), 2.0);
    }

    #[test]
    fn a_tree_is_reusable_across_graphs_of_different_sizes() {
        let (big, small) = (lattice(), triangle());
        let mut tree = Tree::default();
        tree.grow(big.packed(), 0, [], |_| 1.0);
        assert_eq!(tree.dist(4), 3.0);
        tree.grow(small.packed(), 0, [], |_| 1.0);
        assert_eq!(tree.dist(2), 1.0);
        assert_eq!(arcs_to(&tree, small.packed(), 2), Some(vec![2]));
        tree.grow(big.packed(), 1, [], |_| 1.0);
        assert!(tree.dist(0).is_infinite() && tree.dist(2).is_infinite());
        assert_eq!(arcs_to(&tree, big.packed(), 4), Some(vec![2, 4]));
    }
}
