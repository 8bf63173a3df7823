//! Directed flow graph with arc capacities.

use crate::error::FlowError;
use np_topology::LinkId;
use std::sync::OnceLock;

/// A graph node (a site index in evaluator-built graphs).
pub type NodeId = usize;

/// Index of an arc in [`FlowGraph::arcs`].
pub type ArcId = usize;

/// A directed arc with a capacity in Gbps.
///
/// Evaluator-built graphs create two arcs per surviving IP link (the
/// formulation gives each direction the full link capacity — "2l
/// constraints for IP link capacity, two directions for every IP link",
/// §5); `link` remembers which IP link an arc came from so dual length
/// functions can be folded back into per-link metric-cut coefficients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arc {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Capacity in Gbps.
    pub cap: f64,
    /// The IP link this arc instantiates, if any.
    pub link: Option<LinkId>,
}

/// A set of arcs in compressed-sparse-row order: the arcs leaving node
/// `u` occupy the *positions* `head[u]..head[u+1]`, ascending by
/// [`ArcId`]. The shortest-path kernel ([`crate::dijkstra::Tree`]) walks
/// these flat arrays; per-arc data a caller wants streamed with them is
/// kept in the same position order.
#[derive(Clone, Debug, Default)]
pub struct Packed {
    pub(crate) head: Vec<u32>,
    pub(crate) to: Vec<u32>,
    pub(crate) from: Vec<u32>,
    arc: Vec<ArcId>,
}

impl Packed {
    /// Pack the arcs of `arcs` that `keep` accepts, over `num_nodes` nodes.
    pub(crate) fn of(num_nodes: usize, arcs: &[Arc], keep: impl Fn(&Arc) -> bool) -> Packed {
        assert!(num_nodes.max(arcs.len()) < u32::MAX as usize, "ids are u32");
        let mut head = vec![0u32; num_nodes + 1];
        for a in arcs.iter().filter(|a| keep(a)) {
            head[a.from + 1] += 1;
        }
        for u in 0..num_nodes {
            head[u + 1] += head[u];
        }
        let m = head[num_nodes] as usize;
        let mut next = head.clone();
        let (mut to, mut from, mut arc) = (vec![0; m], vec![0; m], vec![0; m]);
        for (id, a) in arcs.iter().enumerate().filter(|(_, a)| keep(a)) {
            let p = next[a.from] as usize;
            next[a.from] += 1;
            (to[p], from[p], arc[p]) = (a.to as u32, a.from as u32, id);
        }
        Packed {
            head,
            to,
            from,
            arc,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.head.len() - 1
    }

    /// The arc at each position.
    pub fn arcs(&self) -> &[ArcId] {
        &self.arc
    }

    /// The arc at position `p`.
    pub fn arc(&self, p: usize) -> ArcId {
        self.arc[p]
    }
}

/// A small directed graph with arc capacities, optimised for the
/// repeated shortest-path / flow computations of the plan evaluator.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    num_nodes: usize,
    arcs: Vec<Arc>,
    /// All arcs in CSR order, packed on first use; capacities and link
    /// tags are not part of it, so only adding an arc resets it.
    packed: OnceLock<Packed>,
}

impl FlowGraph {
    /// An empty graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        FlowGraph {
            num_nodes,
            arcs: Vec::new(),
            packed: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// All arcs, indexed by [`ArcId`].
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// The arc with the given id.
    pub fn arc(&self, id: ArcId) -> &Arc {
        &self.arcs[id]
    }

    /// Every arc of the graph in CSR order.
    pub fn packed(&self) -> &Packed {
        self.packed
            .get_or_init(|| Packed::of(self.num_nodes, &self.arcs, |_| true))
    }

    /// Ids of arcs leaving `node`, ascending.
    pub fn out_arcs(&self, node: NodeId) -> &[ArcId] {
        let g = self.packed();
        &g.arc[g.head[node] as usize..g.head[node + 1] as usize]
    }

    /// Add a directed arc; returns its id, or a [`FlowError`] when an
    /// endpoint is out of range or the capacity is negative/non-finite.
    /// This is the entry point for user-supplied input (topology files);
    /// internal callers on validated data use [`FlowGraph::add_arc`].
    pub fn try_add_arc(
        &mut self,
        from: NodeId,
        to: NodeId,
        cap: f64,
        link: Option<LinkId>,
    ) -> Result<ArcId, FlowError> {
        if from >= self.num_nodes || to >= self.num_nodes {
            return Err(FlowError::EndpointOutOfRange {
                from,
                to,
                num_nodes: self.num_nodes,
            });
        }
        if !(cap >= 0.0 && cap.is_finite()) {
            return Err(FlowError::BadCapacity(cap));
        }
        let id = self.arcs.len();
        self.arcs.push(Arc {
            from,
            to,
            cap,
            link,
        });
        self.packed.take();
        Ok(id)
    }

    /// Add a directed arc; returns its id. Capacity must be non-negative
    /// and finite — panics otherwise (validated-input fast path).
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cap: f64, link: Option<LinkId>) -> ArcId {
        self.try_add_arc(from, to, cap, link)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add both directions of an IP link with capacity `cap` each;
    /// returns `(forward, backward)` arc ids.
    pub fn add_link_arcs(
        &mut self,
        a: NodeId,
        b: NodeId,
        cap: f64,
        link: LinkId,
    ) -> (ArcId, ArcId) {
        (
            self.add_arc(a, b, cap, Some(link)),
            self.add_arc(b, a, cap, Some(link)),
        )
    }

    /// Rewrite every arc's link tag through `map` — a link renumbering
    /// after a topology perturbation. The graph's structure, capacities
    /// and arc order are untouched, so cached bases and witnesses built
    /// on this graph stay aligned.
    pub fn retag_links(&mut self, map: impl Fn(LinkId) -> LinkId) {
        for arc in &mut self.arcs {
            if let Some(l) = arc.link {
                arc.link = Some(map(l));
            }
        }
    }

    /// Update the capacity of an arc in place, rejecting negative or
    /// non-finite values.
    pub fn try_set_cap(&mut self, id: ArcId, cap: f64) -> Result<(), FlowError> {
        if !(cap >= 0.0 && cap.is_finite()) {
            return Err(FlowError::BadCapacity(cap));
        }
        self.arcs[id].cap = cap;
        Ok(())
    }

    /// Update the capacity of an arc in place (used when the evaluator
    /// patches a cached scenario graph instead of rebuilding it — the
    /// paper's "only update the constraints that are influenced" trick).
    pub fn set_cap(&mut self, id: ArcId, cap: f64) {
        self.try_set_cap(id, cap).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Total capacity leaving `node` (a cheap cut bound: the net demand
    /// sourced at a node can never exceed this).
    pub fn out_capacity(&self, node: NodeId) -> f64 {
        self.out_arcs(node).iter().map(|&a| self.arcs[a].cap).sum()
    }

    /// Total capacity entering `node`.
    pub fn in_capacity(&self, node: NodeId) -> f64 {
        self.arcs
            .iter()
            .filter(|a| a.to == node)
            .map(|a| a.cap)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = FlowGraph::new(3);
        let a = g.add_arc(0, 1, 5.0, None);
        let b = g.add_arc(1, 2, 3.0, None);
        let c = g.add_arc(0, 2, 1.0, None);
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.out_arcs(0), &[a, c]);
        assert_eq!(g.out_arcs(1), &[b]);
        assert_eq!(g.arc(b).to, 2);
    }

    #[test]
    fn link_arcs_are_paired_and_tagged() {
        let mut g = FlowGraph::new(2);
        let (f, r) = g.add_link_arcs(0, 1, 100.0, LinkId::new(7));
        assert_eq!(g.arc(f).from, 0);
        assert_eq!(g.arc(r).from, 1);
        assert_eq!(g.arc(f).link, Some(LinkId::new(7)));
        assert_eq!(g.arc(f).cap, g.arc(r).cap);
    }

    #[test]
    fn set_cap_patches_in_place() {
        let mut g = FlowGraph::new(2);
        let a = g.add_arc(0, 1, 1.0, None);
        g.set_cap(a, 9.0);
        assert_eq!(g.arc(a).cap, 9.0);
    }

    #[test]
    fn cut_capacities() {
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 5.0, None);
        g.add_arc(0, 2, 2.0, None);
        g.add_arc(1, 0, 7.0, None);
        assert_eq!(g.out_capacity(0), 7.0);
        assert_eq!(g.in_capacity(0), 7.0);
        assert_eq!(g.in_capacity(2), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoints() {
        FlowGraph::new(2).add_arc(0, 2, 1.0, None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_capacity() {
        FlowGraph::new(2).add_arc(0, 1, -1.0, None);
    }

    #[test]
    fn try_variants_degrade_to_errors() {
        let mut g = FlowGraph::new(2);
        assert_eq!(
            g.try_add_arc(0, 2, 1.0, None),
            Err(FlowError::EndpointOutOfRange {
                from: 0,
                to: 2,
                num_nodes: 2
            })
        );
        assert_eq!(
            g.try_add_arc(0, 1, -1.0, None),
            Err(FlowError::BadCapacity(-1.0))
        );
        assert!(g.try_add_arc(0, 1, f64::NAN, None).is_err());
        let a = g.try_add_arc(0, 1, 2.0, None).unwrap();
        assert!(g.try_set_cap(a, f64::INFINITY).is_err());
        assert_eq!(g.arc(a).cap, 2.0, "rejected set_cap leaves state alone");
        assert!(g.try_set_cap(a, 5.0).is_ok());
        assert_eq!(g.arc(a).cap, 5.0);
    }
}
