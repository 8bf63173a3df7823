//! The domain-specific **node-link transformation** of §4.2 (Fig. 5).
//!
//! Network planning cares about *links* (capacities), but GNNs are most
//! mature at *node* tasks. The transformation maps every IP link of the
//! input topology to a node of the transformed graph; two transformed
//! nodes are adjacent iff their links share an endpoint site — **except**
//! parallel links (same site pair), which are deliberately left
//! unconnected so their capacities are not propagated into each other
//! during GCN message passing (they serve the same site pair, and mixing
//! them would blur which fiber path is loaded).

use crate::network::Network;

/// The transformed graph: one node per IP link of the source topology,
/// stored in CSR form.
///
/// Node `i` of the transformed graph corresponds to `LinkId::new(i)`; the
/// GCN node-feature matrix is therefore indexed directly by link id.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformedGraph {
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
}

impl TransformedGraph {
    /// Number of nodes (= number of IP links in the source topology).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Neighbors of transformed node `i`, sorted ascending.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of transformed node `i` (without the GCN self-loop).
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Entries of the symmetrically-normalized adjacency with self-loops,
    /// `Â = D^{-1/2} (A + I) D^{-1/2}` — exactly the propagation operator
    /// of the paper's Eq. 7 — as `(row, col, weight)` triples sorted by
    /// row. This is what the GCN layers consume.
    pub fn normalized_adjacency(&self) -> Vec<(usize, usize, f64)> {
        let n = self.num_nodes();
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((self.degree(i) + 1) as f64).sqrt())
            .collect();
        let mut entries = Vec::with_capacity(self.neighbors.len() + n);
        for i in 0..n {
            entries.push((i, i, inv_sqrt[i] * inv_sqrt[i]));
            for &j in self.neighbors(i) {
                entries.push((i, j, inv_sqrt[i] * inv_sqrt[j]));
            }
        }
        entries
    }
}

/// Apply the node-link transformation to a network.
///
/// Complexity is `O(Σ_s deg(s)²)` over sites, the natural cost of
/// enumerating link pairs sharing an endpoint.
pub fn transform(net: &Network) -> TransformedGraph {
    let n = net.links().len();
    // Collect links incident to each site.
    let mut at_site: Vec<Vec<usize>> = vec![Vec::new(); net.sites().len()];
    for (i, link) in net.links().iter().enumerate() {
        at_site[link.src.index()].push(i);
        at_site[link.dst.index()].push(i);
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for incident in &at_site {
        for (a, &i) in incident.iter().enumerate() {
            for &j in &incident[a + 1..] {
                if net.links()[i].is_parallel_to(&net.links()[j]) {
                    continue; // parallel links stay unconnected (Fig. 5)
                }
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::new();
    offsets.push(0);
    for list in &mut adj {
        list.sort_unstable();
        list.dedup(); // two links can share both endpoints' incidence lists
        neighbors.extend_from_slice(list);
        offsets.push(neighbors.len());
    }
    TransformedGraph { offsets, neighbors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::ids::{FiberId, SiteId};
    use crate::model::{CosClass, Fiber, Flow, IpLink, Site};
    use crate::policy::ReliabilityPolicy;

    /// The exact Fig. 5 topology: sites A,B,C,D,E; links AB, AD, DE, CE,
    /// BC1, BC2 (BC1 ∥ BC2).
    fn fig5() -> Network {
        let names = ["A", "B", "C", "D", "E"];
        let sites: Vec<Site> = names
            .iter()
            .enumerate()
            .map(|(i, n)| Site {
                name: (*n).into(),
                pos: (f64::from(i as u32) * 100.0, 0.0),
                is_datacenter: false,
            })
            .collect();
        // One fiber per link so paths are trivial; BC gets two fibers.
        let pairs = [(0usize, 1usize), (0, 3), (3, 4), (2, 4), (1, 2), (1, 2)];
        let fibers: Vec<Fiber> = pairs
            .iter()
            .map(|&(a, b)| Fiber {
                endpoints: (SiteId::new(a.min(b)), SiteId::new(a.max(b))),
                length_km: 100.0,
                spectrum_ghz: 4800.0,
                build_cost: 1.0,
            })
            .collect();
        let links: Vec<IpLink> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| IpLink {
                src: SiteId::new(a),
                dst: SiteId::new(b),
                fiber_path: vec![(FiberId::new(i), 1.0)],
                capacity_units: 0,
                min_units: 0,
                length_km: 100.0,
            })
            .collect();
        let flows = vec![Flow {
            src: SiteId::new(0),
            dst: SiteId::new(4),
            demand_gbps: 10.0,
            cos: CosClass::Gold,
        }];
        Network::new(
            sites,
            fibers,
            links,
            flows,
            vec![],
            ReliabilityPolicy::default(),
            CostModel::default(),
            100.0,
        )
        .unwrap()
    }

    // Link indices in fig5: 0=AB, 1=AD, 2=DE, 3=CE, 4=BC1, 5=BC2.

    #[test]
    fn fig5_adjacency_matches_paper() {
        let g = transform(&fig5());
        assert_eq!(g.num_nodes(), 6);
        // AB touches AD (via A), BC1 and BC2 (via B).
        assert_eq!(g.neighbors(0), &[1, 4, 5]);
        // AD touches AB (A) and DE (D).
        assert_eq!(g.neighbors(1), &[0, 2]);
        // DE touches AD (D) and CE (E).
        assert_eq!(g.neighbors(2), &[1, 3]);
        // CE touches DE (E), BC1 and BC2 (C).
        assert_eq!(g.neighbors(3), &[2, 4, 5]);
        // BC1 touches AB (B) and CE (C) — and NOT BC2.
        assert_eq!(g.neighbors(4), &[0, 3]);
        assert_eq!(g.neighbors(5), &[0, 3]);
    }

    #[test]
    fn parallel_links_are_never_adjacent() {
        let g = transform(&fig5());
        assert!(!g.neighbors(4).contains(&5));
        assert!(!g.neighbors(5).contains(&4));
    }

    #[test]
    fn edge_count_is_symmetric() {
        let g = transform(&fig5());
        // Undirected edges: AB-AD, AB-BC1, AB-BC2, AD-DE, DE-CE, CE-BC1, CE-BC2.
        assert_eq!(g.num_edges(), 7);
        for i in 0..g.num_nodes() {
            for &j in g.neighbors(i) {
                assert!(
                    g.neighbors(j).contains(&i),
                    "edge {i}-{j} must be symmetric"
                );
            }
        }
    }

    #[test]
    fn normalized_adjacency_rows_match_eq7() {
        let g = transform(&fig5());
        let entries = g.normalized_adjacency();
        // Self-loop weight of node 1 (degree 2): 1/(2+1) = 1/3.
        let self1 = entries
            .iter()
            .find(|&&(r, c, _)| r == 1 && c == 1)
            .unwrap()
            .2;
        assert!((self1 - 1.0 / 3.0).abs() < 1e-12);
        // Edge AB(deg 3)-AD(deg 2): 1/sqrt(4*3).
        let e01 = entries
            .iter()
            .find(|&&(r, c, _)| r == 0 && c == 1)
            .unwrap()
            .2;
        assert!((e01 - 1.0 / (4.0f64 * 3.0).sqrt()).abs() < 1e-12);
        // Â is symmetric.
        let e10 = entries
            .iter()
            .find(|&&(r, c, _)| r == 1 && c == 0)
            .unwrap()
            .2;
        assert!((e01 - e10).abs() < 1e-15);
    }

    #[test]
    fn transform_handles_links_sharing_both_endpoints_via_distinct_sites() {
        // A triangle where every pair of links shares exactly one site.
        let net = crate::network::tests::square();
        let g = transform(&net);
        assert_eq!(g.num_nodes(), net.links().len());
        // Links 0 (0-1) and 5 (0-1) are parallel: not adjacent.
        assert!(!g.neighbors(0).contains(&5));
        // Links 0 (0-1) and 4 (0-2) share site 0: adjacent, listed once.
        assert_eq!(g.neighbors(0).iter().filter(|&&x| x == 4).count(), 1);
    }
}
