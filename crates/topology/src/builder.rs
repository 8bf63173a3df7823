//! The one instance builder behind [`crate::generator`] and
//! [`crate::family`].
//!
//! A front-end validates its config, places sites and draws the edges of
//! its fiber plant, then calls the steps below in order: fibers, the IP
//! overlay, traffic, baseline capacity, (optionally) spectrum sizing and
//! the failure set. Where presets and families differ they call a step
//! with different values or not at all — no step asks who is calling.
//!
//! Every random draw flows through the one seeded `StdRng` in a fixed
//! order and no iteration ever walks a hash map, so equal inputs build
//! byte-identical networks. Every graph walk runs on adjacency lists, so
//! a 380-site instance builds in milliseconds.

use crate::cost::CostModel;
use crate::error::TopologyError;
use crate::ids::{FiberId, SiteId};
use crate::model::{CosClass, Failure, FailureKind, Fiber, Flow, IpLink, Site};
use crate::network::Network;
use crate::policy::ReliabilityPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// `adj[u]` = `(neighbour, edge index)` in edge-index order.
type Adjacency = Vec<Vec<(usize, usize)>>;
/// Predecessor tree of one Dijkstra: per node, `(parent, edge index)`.
type PrevTree = Vec<Option<(usize, usize)>>;

pub(crate) struct Builder {
    pub(crate) rng: StdRng,
    pub(crate) sites: Vec<Site>,
    /// Canonical (a < b) fiber endpoint pairs, in insertion order; once
    /// materialized, `fibers[i]` runs between the sites of `edges[i]`.
    edges: Vec<(usize, usize)>,
    /// Membership index over `edges`; never iterated (determinism).
    edge_set: HashSet<(usize, usize)>,
    unit_gbps: f64,
    fibers: Vec<Fiber>,
    links: Vec<IpLink>,
    flows: Vec<Flow>,
    failures: Vec<Failure>,
}

impl Builder {
    pub(crate) fn new(seed: u64, unit_gbps: f64) -> Self {
        Builder {
            rng: StdRng::seed_from_u64(seed),
            sites: Vec::new(),
            edges: Vec::new(),
            edge_set: HashSet::new(),
            unit_gbps,
            fibers: Vec::new(),
            links: Vec::new(),
            flows: Vec::new(),
            failures: Vec::new(),
        }
    }

    // -- the plant: sites and edges -----------------------------------------

    pub(crate) fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    pub(crate) fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edge_set.contains(&canonical(a, b))
    }

    /// Add the edge unless it is a self-loop or already there.
    pub(crate) fn add_edge(&mut self, a: usize, b: usize) -> bool {
        let fresh = a != b && self.edge_set.insert(canonical(a, b));
        if fresh {
            self.edges.push(canonical(a, b));
        }
        fresh
    }

    /// Point edge `idx` at `(a, b)` instead, keeping its place in the
    /// insertion order.
    pub(crate) fn replace_edge(&mut self, idx: usize, a: usize, b: usize) {
        self.edge_set.remove(&self.edges[idx]);
        self.edges[idx] = canonical(a, b);
        self.edge_set.insert(self.edges[idx]);
    }

    fn site_distance(&self, a: usize, b: usize) -> f64 {
        self.sites[a].distance_km(&self.sites[b]).max(10.0)
    }

    /// Sites scattered around `num_metros` metro cluster centres on a
    /// ~5000 km square, mimicking continental PoP placement; the first
    /// `num_dcs` are datacenters. Names are zero-padded to `digits`.
    pub(crate) fn metro_sites(
        &mut self,
        n: usize,
        num_metros: usize,
        num_dcs: usize,
        digits: usize,
    ) {
        let metros: Vec<(f64, f64)> = (0..num_metros)
            .map(|_| {
                (
                    self.rng.gen_range(0.0..5000.0),
                    self.rng.gen_range(0.0..5000.0),
                )
            })
            .collect();
        for i in 0..n {
            let metro = metros[i % num_metros];
            let pos = (
                metro.0 + self.rng.gen_range(-400.0..400.0),
                metro.1 + self.rng.gen_range(-400.0..400.0),
            );
            let is_dc = i < num_dcs;
            let name = if is_dc {
                format!("dc{i:0digits$}")
            } else {
                format!("pop{:0digits$}", i - num_dcs)
            };
            self.sites.push(Site {
                name,
                pos,
                is_datacenter: is_dc,
            });
        }
    }

    /// A ring in angular order around the centroid (2-edge-connected, so
    /// every single fiber cut and single site loss leaves the plant
    /// connected) plus, with probability 0.6 per site, a spur to its
    /// nearest not-yet-adjacent peer. The order is total: degenerate or
    /// co-located coordinates tie-break by index.
    pub(crate) fn ring_and_spurs(&mut self) {
        let n = self.sites.len();
        let cx = self.sites.iter().map(|s| s.pos.0).sum::<f64>() / n as f64;
        let cy = self.sites.iter().map(|s| s.pos.1).sum::<f64>() / n as f64;
        let angle = |s: &Site| (s.pos.1 - cy).atan2(s.pos.0 - cx);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            angle(&self.sites[a])
                .total_cmp(&angle(&self.sites[b]))
                .then(a.cmp(&b))
        });
        for i in 0..n {
            self.add_edge(order[i], order[(i + 1) % n]);
        }
        for a in 0..n {
            let nearest = (0..n)
                .filter(|&b| a != b && !self.has_edge(a, b))
                .map(|b| (self.site_distance(a, b), b))
                .min_by(|x, y| x.0.total_cmp(&y.0));
            if let Some((_, b)) = nearest {
                if self.rng.gen_bool(0.6) {
                    self.add_edge(a, b);
                }
            }
        }
    }

    /// Join stray components to the main one with a geometric repair
    /// edge per component (lowest-index stray site to its nearest
    /// already-connected site), so a plant is connected regardless of
    /// how sparse its random draw came out.
    pub(crate) fn ensure_connected(&mut self) {
        let n = self.sites.len();
        loop {
            let seen = reachable(&adjacency(n, &self.edges, |_| false), 0);
            let Some(stray) = (0..n).find(|&i| !seen[i]) else {
                return;
            };
            let nearest = (0..n)
                .filter(|&i| seen[i])
                .min_by(|&a, &b| {
                    self.site_distance(stray, a)
                        .total_cmp(&self.site_distance(stray, b))
                        .then(a.cmp(&b))
                })
                .expect("the component of site 0 is non-empty");
            self.add_edge(stray, nearest);
        }
    }

    // -- fibers and the IP overlay ------------------------------------------

    /// One fiber, with `spectrum_ghz` of spectrum, for every plant edge
    /// that has none yet.
    pub(crate) fn materialize_fibers(&mut self, spectrum_ghz: f64) {
        for i in self.fibers.len()..self.edges.len() {
            let (a, b) = self.edges[i];
            let length = self.site_distance(a, b);
            self.fibers.push(Fiber {
                endpoints: (SiteId::new(a), SiteId::new(b)),
                length_km: length,
                spectrum_ghz,
                // One-time build/light cost grows with span length, with a
                // fixed terminal-equipment floor.
                build_cost: 2.0 + length * 0.004,
            });
        }
    }

    /// Spectral efficiency of a capacity unit on a span: longer spans force
    /// lower-order modulation, costing more GHz per Gbps.
    fn ghz_per_unit(&self, fiber: usize) -> f64 {
        // 100 Gbps in ~37.5 GHz at short reach, degrading ~linearly to
        // ~75 GHz for trans-continental spans.
        let base = 37.5 * self.unit_gbps / 100.0;
        base * (1.0 + (self.fibers[fiber].length_km / 4000.0).min(1.0))
    }

    /// Shortest walk over the fiber plant by span length, optionally
    /// forbidding one fiber; returns the fiber indices from `src` to `dst`.
    fn fiber_shortest_path(
        &self,
        src: usize,
        dst: usize,
        avoid: Option<usize>,
    ) -> Option<Vec<usize>> {
        let adj = adjacency(self.sites.len(), &self.edges, |i| avoid == Some(i));
        let prev = shortest_tree(&adj, src, Some(dst), |f| self.fibers[f].length_km);
        let mut path = Vec::new();
        let mut at = dst;
        while at != src {
            let (parent, fiber) = prev[at]?;
            path.push(fiber);
            at = parent;
        }
        path.reverse();
        Some(path)
    }

    pub(crate) fn add_ip_link(&mut self, src: usize, dst: usize, path: Vec<usize>) {
        let fiber_path: Vec<(FiberId, f64)> = path
            .iter()
            .map(|&f| (FiberId::new(f), self.ghz_per_unit(f)))
            .collect();
        let length_km = path.iter().map(|&f| self.fibers[f].length_km).sum();
        self.links.push(IpLink {
            src: SiteId::new(src),
            dst: SiteId::new(dst),
            fiber_path,
            capacity_units: 0,
            min_units: 0,
            length_km,
        });
    }

    /// IP overlay: one direct link per fiber, then multi-hop express links
    /// between random site pairs no fiber or link joins yet, then parallel
    /// links over fiber-disjoint alternates of the first directs — a second
    /// failure domain for the same site pair.
    pub(crate) fn build_ip_overlay(&mut self, num_multihop: usize, num_parallel: usize) {
        for i in 0..self.edges.len() {
            let (a, b) = self.edges[i];
            self.add_ip_link(a, b, vec![i]);
        }
        let n = self.sites.len();
        let mut linked = self.edge_set.clone();
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < num_multihop && attempts < 50 * num_multihop {
            attempts += 1;
            let a = self.rng.gen_range(0..n);
            let b = self.rng.gen_range(0..n);
            if a == b || linked.contains(&canonical(a, b)) {
                continue;
            }
            if let Some(path) = self.fiber_shortest_path(a, b, None) {
                if path.len() >= 2 {
                    self.add_ip_link(a, b, path);
                    linked.insert(canonical(a, b));
                    added += 1;
                }
            }
        }
        let mut added = 0usize;
        for i in 0..self.edges.len() {
            if added >= num_parallel {
                break;
            }
            let (a, b) = self.edges[i];
            if let Some(path) = self.fiber_shortest_path(a, b, Some(i)) {
                self.add_ip_link(a, b, path);
                added += 1;
            }
        }
    }

    // -- traffic --------------------------------------------------------------

    /// Split pair `i`'s demand into one to three **Class-of-Service
    /// components** (the paper's "flows between different sites with
    /// various Classes of Services") — this is what the evaluator's source
    /// aggregation later collapses. `cap` counts components.
    fn push_flow_components(&mut self, i: usize, a: usize, b: usize, demand: f64, cap: usize) {
        let split: &[(CosClass, f64)] = match i % 3 {
            0 => &[(CosClass::Gold, 1.0)],
            1 => &[(CosClass::Gold, 0.6), (CosClass::Bronze, 0.4)],
            _ => &[
                (CosClass::Gold, 0.4),
                (CosClass::Silver, 0.35),
                (CosClass::Bronze, 0.25),
            ],
        };
        for &(cos, share) in split {
            if self.flows.len() >= cap {
                break;
            }
            self.flows.push(Flow {
                src: SiteId::new(a),
                dst: SiteId::new(b),
                demand_gbps: (demand * share).round().max(1.0),
                cos,
            });
        }
    }

    /// Gravity-model traffic: weight ∝ (datacenter ? 4 : 1), demand of a
    /// pair ∝ w_i·w_j with mild distance decay; the heaviest pairs are
    /// kept until `num_flows` components exist.
    pub(crate) fn gravity_traffic(&mut self, num_flows: usize, mean_demand_gbps: f64) {
        let n = self.sites.len();
        let weight = |s: &Site| if s.is_datacenter { 4.0 } else { 1.0 };
        let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(n * n);
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let g = weight(&self.sites[a]) * weight(&self.sites[b])
                    / (1.0 + self.site_distance(a, b) / 5000.0);
                // Jitter so ties break differently per seed.
                let g = g * self.rng.gen_range(0.5..1.5);
                pairs.push((g, a, b));
            }
        }
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then((x.1, x.2).cmp(&(y.1, y.2))));
        let max_g = pairs.first().map(|p| p.0).unwrap_or(1.0);
        for (i, &(g, a, b)) in pairs.iter().enumerate() {
            if self.flows.len() >= num_flows {
                break;
            }
            let demand = (mean_demand_gbps * (0.25 + 1.5 * g / max_g)).round();
            self.push_flow_components(i, a, b, demand, num_flows);
        }
    }

    /// Uniform east-west pairs between the non-datacenter sites (the ToR
    /// switches of a Clos fabric).
    pub(crate) fn east_west_traffic(&mut self, num_flows: usize, mean_demand_gbps: f64) {
        let tors: Vec<usize> = (0..self.sites.len())
            .filter(|&i| !self.sites[i].is_datacenter)
            .collect();
        if tors.len() < 2 {
            return;
        }
        let mut i = 0usize;
        while self.flows.len() < num_flows {
            let a = tors[self.rng.gen_range(0..tors.len())];
            let b = tors[self.rng.gen_range(0..tors.len())];
            if a == b {
                continue;
            }
            let jitter: f64 = self.rng.gen_range(0.5..1.5);
            let demand = (mean_demand_gbps * jitter).round();
            self.push_flow_components(i, a, b, demand, num_flows);
            i += 1;
        }
    }

    // -- capacity and spectrum ----------------------------------------------

    /// Baseline capacities: route every flow on its shortest IP path (by
    /// length), accumulate per-link Gbps, add 30% failover headroom and
    /// convert to units — the *reference* this returns — then provision
    /// `fill` of it. `min_units` is pinned to the baseline (Eq. 5's
    /// short-term constraint); `fill = 0` yields the long-term regime
    /// where everything starts dark. One Dijkstra per distinct flow source.
    pub(crate) fn provision_baseline(&mut self, fill: f64) -> Vec<u32> {
        let n = self.sites.len();
        let ends: Vec<(usize, usize)> = self
            .links
            .iter()
            .map(|l| (l.src.index(), l.dst.index()))
            .collect();
        let adj = adjacency(n, &ends, |_| false);
        let mut gbps = vec![0.0f64; self.links.len()];
        let mut trees: Vec<Option<PrevTree>> = vec![None; n];
        for flow in &self.flows {
            let src = flow.src.index();
            let prev = trees[src]
                .get_or_insert_with(|| shortest_tree(&adj, src, None, |l| self.links[l].length_km));
            let mut at = flow.dst.index();
            while at != src {
                let Some((parent, link)) = prev[at] else {
                    break; // unreachable flow endpoint (cannot happen: connected)
                };
                gbps[link] += flow.demand_gbps;
                at = parent;
            }
        }
        let reference: Vec<u32> = gbps
            .iter()
            .map(|&g| ((g * 1.3) / self.unit_gbps).ceil() as u32)
            .collect();
        for (l, &units) in self.links.iter_mut().zip(&reference) {
            let filled = (f64::from(units) * fill).round() as u32;
            l.capacity_units = filled;
            l.min_units = filled;
        }
        reference
    }

    /// Raise each fiber's spectrum where the reference load needs more
    /// than it has, with ≥ 4× headroom (and enough for any `fill` ≥ 1), so
    /// planning never runs out of spectrum before reaching feasibility.
    pub(crate) fn size_spectrum(&mut self, reference: &[u32], fill: f64) {
        let headroom = 4.0f64.max(fill * 1.5 + 1.0);
        let mut fiber_ref_ghz = vec![0.0f64; self.fibers.len()];
        let mut fiber_max_unit_ghz = vec![0.0f64; self.fibers.len()];
        for (link, &units) in self.links.iter().zip(reference) {
            for &(f, ghz) in &link.fiber_path {
                fiber_ref_ghz[f.index()] += f64::from(units) * ghz;
                fiber_max_unit_ghz[f.index()] = fiber_max_unit_ghz[f.index()].max(ghz);
            }
        }
        for (i, fiber) in self.fibers.iter_mut().enumerate() {
            let need = headroom * fiber_ref_ghz[i] + 8.0 * fiber_max_unit_ghz[i];
            fiber.spectrum_ghz = fiber.spectrum_ghz.max(need.ceil());
        }
    }

    // -- failures -------------------------------------------------------------
    //
    // Every emitted scenario provably keeps the fiber plant connected
    // among surviving sites, so a feasible plan always exists for
    // protected traffic.

    /// Up to `want` single fiber cuts in a seeded shuffle order, bridges
    /// skipped.
    pub(crate) fn cut_failures(&mut self, want: usize) {
        let mut order: Vec<usize> = (0..self.fibers.len()).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut cuts = 0usize;
        for f in order {
            if cuts >= want {
                break;
            }
            if self.plant_connected_without(&[f], None) {
                self.failures.push(Failure {
                    name: format!("cut:f{f}"),
                    kind: FailureKind::FiberCut(FiberId::new(f)),
                });
                cuts += 1;
            }
        }
    }

    /// Up to `want_sites` losses of non-datacenter sites, then up to
    /// `want_srlgs` random two-fiber SRLGs. The `k`-th site tried is
    /// candidate `spread(k, candidates)`, asked only while fewer than
    /// `want_sites` are placed; a repeat or a site whose loss splits the
    /// rest of the plant is passed over.
    pub(crate) fn site_and_srlg_failures(
        &mut self,
        want_sites: usize,
        want_srlgs: usize,
        spread: impl Fn(usize, usize) -> usize,
    ) {
        let pops: Vec<usize> = (0..self.sites.len())
            .filter(|&i| !self.sites[i].is_datacenter)
            .collect();
        let mut down: Vec<usize> = Vec::new();
        for k in 0..pops.len() {
            if down.len() >= want_sites {
                break;
            }
            let s = pops[spread(k, pops.len())];
            if down.contains(&s) || !self.plant_connected_without(&[], Some(s)) {
                continue;
            }
            down.push(s);
            self.failures.push(Failure {
                name: format!("down:s{s}"),
                kind: FailureKind::SiteDown(SiteId::new(s)),
            });
        }
        let nf = self.fibers.len();
        let mut srlgs = 0usize;
        let mut attempts = 0usize;
        while srlgs < want_srlgs && attempts < 100 * want_srlgs {
            attempts += 1;
            let a = self.rng.gen_range(0..nf);
            let b = self.rng.gen_range(0..nf);
            if a != b && self.plant_connected_without(&[a, b], None) {
                self.failures.push(Failure {
                    name: format!("srlg:f{a}+f{b}"),
                    kind: FailureKind::Srlg(vec![FiberId::new(a), FiberId::new(b)]),
                });
                srlgs += 1;
            }
        }
    }

    /// Connectivity of the fiber plant after removing `dead_fibers` and
    /// (optionally) one site with everything touching it.
    fn plant_connected_without(&self, dead_fibers: &[usize], dead_site: Option<usize>) -> bool {
        let n = self.sites.len();
        let ends = &self.edges;
        let dead = |i: usize| {
            dead_fibers.contains(&i) || dead_site == Some(ends[i].0) || dead_site == Some(ends[i].1)
        };
        let Some(start) = (0..n).find(|&s| dead_site != Some(s)) else {
            return true;
        };
        let seen = reachable(&adjacency(n, ends, dead), start);
        (0..n).all(|s| seen[s] || dead_site == Some(s))
    }

    /// Validate and hand over the built instance.
    pub(crate) fn finish(self) -> Result<Network, TopologyError> {
        Network::new(
            self.sites,
            self.fibers,
            self.links,
            self.flows,
            self.failures,
            ReliabilityPolicy::default(),
            CostModel::default(),
            self.unit_gbps,
        )
    }
}

fn canonical(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Adjacency lists over `n` nodes of the edges `skip` spares.
fn adjacency(n: usize, ends: &[(usize, usize)], skip: impl Fn(usize) -> bool) -> Adjacency {
    let mut adj = vec![Vec::new(); n];
    for (i, &(a, b)) in ends.iter().enumerate() {
        if !skip(i) {
            adj[a].push((b, i));
            adj[b].push((a, i));
        }
    }
    adj
}

/// The nodes a depth-first walk from `start` reaches.
fn reachable(adj: &Adjacency, start: usize) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    seen[start] = true;
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &(v, _) in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Dijkstra from `src` by `length(edge index)`, the walk under both the
/// fiber plant and the IP overlay; stops once `until` is settled. Lengths
/// are non-negative, so their bit patterns order like the numbers and
/// can key the heap.
fn shortest_tree(
    adj: &Adjacency,
    src: usize,
    until: Option<usize>,
    length: impl Fn(usize) -> f64,
) -> PrevTree {
    let mut dist = vec![f64::INFINITY; adj.len()];
    let mut prev: PrevTree = vec![None; adj.len()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push((Reverse(0u64), src));
    while let Some((Reverse(bits), u)) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u] {
            continue;
        }
        if until == Some(u) {
            break;
        }
        for &(v, edge) in &adj[u] {
            let nd = d + length(edge);
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some((u, edge));
                heap.push((Reverse(nd.to_bits()), v));
            }
        }
    }
    prev
}
