//! Yen's algorithm: k shortest loopless paths.
//!
//! Used by the production-style heuristics (§3.2's *topology
//! transformation*: "restricting capacity additions on fibers or IP
//! links") to limit candidate links to those on the k cheapest routes of
//! each flow, and generally useful substrate for path-based planning.

use crate::dijkstra::Tree;
use crate::graph::{ArcId, FlowGraph, NodeId};

/// A simple path as a sequence of arcs, with its total length.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Arcs from source to destination.
    pub arcs: Vec<ArcId>,
    /// Sum of arc lengths.
    pub length: f64,
}

impl Path {
    /// Node sequence of the path (including endpoints).
    pub fn nodes(&self, graph: &FlowGraph) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.arcs.len() + 1);
        if let Some(&first) = self.arcs.first() {
            nodes.push(graph.arc(first).from);
        }
        for &a in &self.arcs {
            nodes.push(graph.arc(a).to);
        }
        nodes
    }
}

/// The `k` shortest loopless paths from `src` to `dst` under per-arc
/// `lengths`, shortest first. Fewer than `k` are returned when the graph
/// does not contain that many simple paths.
pub fn k_shortest_paths(
    graph: &FlowGraph,
    src: NodeId,
    dst: NodeId,
    lengths: &[f64],
    k: usize,
) -> Vec<Path> {
    assert_eq!(lengths.len(), graph.num_arcs());
    let g = graph.packed();
    let mut tree = Tree::default();
    let mut positions = Vec::new();
    // Shortest `from → dst` path avoiding the banned arcs and nodes, with
    // its length.
    let mut shortest = |banned_arcs: &[bool], banned_nodes: &[bool], from: NodeId| {
        tree.grow(g, from, [dst], |p| {
            let a = g.arc(p);
            let arc = graph.arc(a);
            if banned_arcs[a] || banned_nodes[arc.to] || banned_nodes[arc.from] {
                f64::INFINITY
            } else {
                lengths[a]
            }
        });
        tree.path_to(g, dst, &mut positions).then(|| {
            let arcs: Vec<ArcId> = positions.iter().map(|&p| g.arc(p as usize)).collect();
            (arcs, tree.dist(dst))
        })
    };
    let mut banned_arcs = vec![false; graph.num_arcs()];
    let mut banned_nodes = vec![false; graph.num_nodes()];

    let Some((arcs, length)) = shortest(&banned_arcs, &banned_nodes, src) else {
        return Vec::new();
    };
    let mut accepted: Vec<Path> = vec![Path { length, arcs }];
    let mut candidates: Vec<Path> = Vec::new();

    while accepted.len() < k {
        let last = accepted.last().expect("at least the shortest").clone();
        // Spur from every prefix of the last accepted path.
        for spur_idx in 0..last.arcs.len() {
            let spur_node = if spur_idx == 0 {
                src
            } else {
                graph.arc(last.arcs[spur_idx - 1]).to
            };
            let root = &last.arcs[..spur_idx];
            let root_len: f64 = root.iter().map(|&a| lengths[a]).sum();
            // Ban arcs that would recreate an accepted path with this root.
            banned_arcs.iter_mut().for_each(|b| *b = false);
            banned_nodes.iter_mut().for_each(|b| *b = false);
            for p in &accepted {
                if p.arcs.len() > spur_idx && p.arcs[..spur_idx] == *root {
                    banned_arcs[p.arcs[spur_idx]] = true;
                }
            }
            // Ban root nodes (looplessness) except the spur node itself.
            let mut at = src;
            for &a in root {
                if at != spur_node {
                    banned_nodes[at] = true;
                }
                at = graph.arc(a).to;
            }
            if let Some((spur, spur_len)) = shortest(&banned_arcs, &banned_nodes, spur_node) {
                let mut arcs = root.to_vec();
                arcs.extend(spur);
                let cand = Path {
                    length: root_len + spur_len,
                    arcs,
                };
                if !accepted.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        candidates.sort_by(|a, b| a.length.partial_cmp(&b.length).expect("finite"));
        if candidates.is_empty() {
            break;
        }
        accepted.push(candidates.remove(0));
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0→1→3, 0→2→3, 0→3 with lengths making three distinct paths.
    fn triple() -> (FlowGraph, Vec<f64>) {
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 1.0, None); // 0
        g.add_arc(1, 3, 1.0, None); // 1
        g.add_arc(0, 2, 1.0, None); // 2
        g.add_arc(2, 3, 1.0, None); // 3
        g.add_arc(0, 3, 1.0, None); // 4
        (g, vec![1.0, 1.0, 2.0, 2.0, 3.5])
    }

    #[test]
    fn returns_paths_in_length_order() {
        let (g, lengths) = triple();
        let paths = k_shortest_paths(&g, 0, 3, &lengths, 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].arcs, vec![0, 1]); // length 2
        assert_eq!(paths[1].arcs, vec![4]); // length 3.5
        assert_eq!(paths[2].arcs, vec![2, 3]); // length 4
        assert!(paths[0].length <= paths[1].length);
        assert!(paths[1].length <= paths[2].length);
    }

    #[test]
    fn truncates_when_fewer_paths_exist() {
        let (g, lengths) = triple();
        let paths = k_shortest_paths(&g, 0, 3, &lengths, 10);
        assert_eq!(paths.len(), 3, "only three simple paths exist");
    }

    #[test]
    fn empty_when_disconnected() {
        let g = FlowGraph::new(2);
        assert!(k_shortest_paths(&g, 0, 1, &[], 3).is_empty());
    }

    #[test]
    fn paths_are_loopless() {
        // A graph with a tempting loop: 0→1→2→1 would revisit 1.
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 1.0, None);
        g.add_arc(1, 2, 1.0, None);
        g.add_arc(2, 1, 1.0, None);
        g.add_arc(1, 3, 1.0, None);
        g.add_arc(2, 3, 1.0, None);
        let lengths = vec![1.0; 5];
        for p in k_shortest_paths(&g, 0, 3, &lengths, 5) {
            let nodes = p.nodes(&g);
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), nodes.len(), "path revisits a node: {nodes:?}");
        }
    }

    #[test]
    fn k_equals_one_is_plain_dijkstra() {
        let (g, lengths) = triple();
        let paths = k_shortest_paths(&g, 0, 3, &lengths, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].length, 2.0);
    }

    #[test]
    fn node_sequence_reconstruction() {
        let (g, lengths) = triple();
        let paths = k_shortest_paths(&g, 0, 3, &lengths, 1);
        assert_eq!(paths[0].nodes(&g), vec![0, 1, 3]);
    }
}
