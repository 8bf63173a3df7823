//! Multi-family topology generators: the scenario-diversity matrix.
//!
//! The paper validates on five production-derived WAN topologies (A–E);
//! [`crate::generator`] reproduces those. Policy quality, however, is
//! *family-sensitive* — related work (Li et al., "Network Topology
//! Optimization via Deep Reinforcement Learning") evaluates across
//! Barabási-Albert, Watts-Strogatz and Erdős-Rényi graphs precisely
//! because results on one family do not transfer to another. This module
//! generalizes the generator to a [`TopologyFamily`] enum with seeded,
//! deterministic fiber plants for seven families, each run through the
//! crate's one instance builder to the same
//! [`Network`] surface (sites, fibers, IP overlay, gravity or east-west
//! traffic, connectivity-preserving failure sets, cost model) the rest
//! of the pipeline consumes, at six [`SizeTier`]s: the paper's A–E
//! calibration plus a 10× "F" tier (380 sites).
//!
//! Determinism contract: a [`FamilyConfig`] is a pure function of its
//! fields — equal configs generate byte-identical `Network::to_json`
//! output, independent of worker counts, environment or prior runs.
//! Every random draw flows through one seeded `StdRng` in a fixed
//! order, and no iteration ever walks a hash map.

use crate::builder::Builder;
use crate::error::TopologyError;
use crate::model::Site;
use crate::network::Network;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The generator family: what graph process produces the fiber plant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyFamily {
    /// Metro-clustered continental WAN: angular ring + nearest-neighbour
    /// spurs + datacenter chords — the structure of the
    /// [`crate::generator`] presets, not their instances (seed,
    /// datacenter count and chord draws differ).
    Wan,
    /// Barabási-Albert preferential attachment: scale-free, hub-heavy.
    BarabasiAlbert,
    /// Watts-Strogatz small world: ring lattice with rewired shortcuts.
    WattsStrogatz,
    /// Erdős-Rényi uniform random graph.
    ErdosRenyi,
    /// 2-D lattice: the pathological high-diameter, low-expansion case.
    Grid2d,
    /// Planted-partition WAN: dense intra-community clusters joined by a
    /// sparse inter-community backbone.
    Community,
    /// Three-stage fat-tree/Clos datacenter fabric (core/agg/ToR) with
    /// east-west traffic — a new workload class for the planner.
    FatTree,
}

impl TopologyFamily {
    /// All families, WAN first.
    pub const ALL: [TopologyFamily; 7] = [
        TopologyFamily::Wan,
        TopologyFamily::BarabasiAlbert,
        TopologyFamily::WattsStrogatz,
        TopologyFamily::ErdosRenyi,
        TopologyFamily::Grid2d,
        TopologyFamily::Community,
        TopologyFamily::FatTree,
    ];

    /// Stable wire name (CLI flags and spec JSON).
    pub fn name(self) -> &'static str {
        match self {
            TopologyFamily::Wan => "wan",
            TopologyFamily::BarabasiAlbert => "ba",
            TopologyFamily::WattsStrogatz => "ws",
            TopologyFamily::ErdosRenyi => "er",
            TopologyFamily::Grid2d => "grid",
            TopologyFamily::Community => "community",
            TopologyFamily::FatTree => "clos",
        }
    }

    /// Inverse of [`TopologyFamily::name`] (case-insensitive, with a few
    /// spelled-out aliases).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "wan" => TopologyFamily::Wan,
            "ba" | "barabasi-albert" | "scale-free" => TopologyFamily::BarabasiAlbert,
            "ws" | "watts-strogatz" | "small-world" => TopologyFamily::WattsStrogatz,
            "er" | "erdos-renyi" | "random" => TopologyFamily::ErdosRenyi,
            "grid" | "grid2d" | "lattice" => TopologyFamily::Grid2d,
            "community" | "planted-partition" => TopologyFamily::Community,
            "clos" | "fat-tree" | "fattree" => TopologyFamily::FatTree,
            _ => return None,
        })
    }
}

impl std::fmt::Display for TopologyFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instance scale, calibrated to the paper's A–E relative sizes plus a
/// 10× "F" tier for beyond-paper stress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SizeTier {
    /// 8 sites — the only tier the raw ILP baseline solves comfortably.
    A,
    /// 12 sites.
    B,
    /// 20 sites.
    C,
    /// 28 sites.
    D,
    /// 38 sites — "hundreds of IP links, ~1k flows" in the paper's terms.
    E,
    /// 380 sites — 10× the paper's largest evaluation topology.
    F,
}

impl SizeTier {
    /// All tiers in ascending size order.
    pub const ALL: [SizeTier; 6] = [
        SizeTier::A,
        SizeTier::B,
        SizeTier::C,
        SizeTier::D,
        SizeTier::E,
        SizeTier::F,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SizeTier::A => "A",
            SizeTier::B => "B",
            SizeTier::C => "C",
            SizeTier::D => "D",
            SizeTier::E => "E",
            SizeTier::F => "F",
        }
    }

    /// Inverse of [`SizeTier::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "a" => SizeTier::A,
            "b" => SizeTier::B,
            "c" => SizeTier::C,
            "d" => SizeTier::D,
            "e" => SizeTier::E,
            "f" => SizeTier::F,
            _ => return None,
        })
    }

    /// Number of sites at this tier.
    pub fn num_sites(self) -> usize {
        self.counts().sites
    }

    /// The scale of this tier — the paper's A–E calibration, which
    /// [`crate::generator::GeneratorConfig::preset`] reads from here too,
    /// and 10× tier E for tier F.
    pub(crate) fn counts(self) -> TierCounts {
        let [sites, flows, multihop, parallel, cuts, site_failures, srlgs] = match self {
            SizeTier::A => [8, 24, 4, 2, 8, 1, 1],
            SizeTier::B => [12, 60, 8, 4, 20, 4, 6],
            SizeTier::C => [20, 150, 16, 7, 34, 8, 14],
            SizeTier::D => [28, 330, 24, 10, 46, 12, 30],
            SizeTier::E => [38, 620, 36, 14, 58, 18, 52],
            SizeTier::F => [380, 6200, 360, 140, 580, 180, 520],
        };
        TierCounts {
            sites,
            flows,
            multihop,
            parallel,
            cuts,
            site_failures,
            srlgs,
        }
    }
}

/// How many of each thing an instance of one [`SizeTier`] has.
pub(crate) struct TierCounts {
    pub(crate) sites: usize,
    /// Class-of-service flow components.
    pub(crate) flows: usize,
    /// Multi-hop express IP links beyond the one-per-fiber directs.
    pub(crate) multihop: usize,
    /// Parallel IP links over fiber-disjoint alternates.
    pub(crate) parallel: usize,
    /// Single-fiber-cut scenarios.
    pub(crate) cuts: usize,
    pub(crate) site_failures: usize,
    /// Two-fiber SRLG scenarios.
    pub(crate) srlgs: usize,
}

impl std::fmt::Display for SizeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which failure classes a generated instance carries — the third axis
/// of the scenario matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureModel {
    /// No failure scenarios: plan for the fair-weather network only.
    None,
    /// Single fiber cuts only.
    SingleCut,
    /// Fiber cuts + site losses + SRLG pairs (the paper's full set).
    Full,
}

impl FailureModel {
    /// All models, weakest first.
    pub const ALL: [FailureModel; 3] = [
        FailureModel::None,
        FailureModel::SingleCut,
        FailureModel::Full,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            FailureModel::None => "none",
            FailureModel::SingleCut => "cuts",
            FailureModel::Full => "full",
        }
    }

    /// Inverse of [`FailureModel::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "none" => FailureModel::None,
            "cuts" | "single" | "single-cut" => FailureModel::SingleCut,
            "full" | "all" => FailureModel::Full,
            _ => return None,
        })
    }
}

impl std::fmt::Display for FailureModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one scenario-matrix cell's instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FamilyConfig {
    /// Which graph process builds the fiber plant.
    pub family: TopologyFamily,
    /// Instance scale.
    pub tier: SizeTier,
    /// RNG seed; equal configs generate byte-identical networks.
    pub seed: u64,
    /// Which failure classes to generate.
    pub failure_model: FailureModel,
    /// Fraction of the reference (shortest-path + 30% headroom) capacity
    /// pre-provisioned at baseline; 0 = everything starts dark.
    pub capacity_fill: f64,
    /// Mean flow demand in Gbps.
    pub mean_demand_gbps: f64,
    /// Capacity unit in Gbps.
    pub unit_gbps: f64,
    /// Barabási-Albert: edges added per arriving node (`m`).
    pub ba_attach: usize,
    /// Watts-Strogatz: ring-lattice neighbours per node (`k`, even).
    pub ws_neighbors: usize,
    /// Watts-Strogatz: per-edge rewiring probability (`β`).
    pub ws_rewire: f64,
    /// Erdős-Rényi: target mean degree (edge probability is derived as
    /// `er_degree / (n - 1)`).
    pub er_degree: f64,
    /// Community: number of planted partitions (0 = auto ≈ n/6, clamped
    /// to [2, 16]).
    pub communities: usize,
}

impl FamilyConfig {
    /// The calibrated configuration for one matrix cell, with the full
    /// failure model and the standard literature parameters (BA m=3,
    /// WS k=6 β=0.1, ER mean degree 4).
    pub fn new(family: TopologyFamily, tier: SizeTier) -> Self {
        FamilyConfig {
            family,
            tier,
            seed: 0xfa_0000
                + TopologyFamily::ALL
                    .iter()
                    .position(|&f| f == family)
                    .unwrap() as u64
                    * 16
                + SizeTier::ALL.iter().position(|&t| t == tier).unwrap() as u64,
            failure_model: FailureModel::Full,
            capacity_fill: 0.5,
            mean_demand_gbps: 250.0,
            unit_gbps: 100.0,
            ba_attach: 3,
            ws_neighbors: 6,
            ws_rewire: 0.1,
            er_degree: 4.0,
            communities: 0,
        }
    }

    /// Replace the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the failure model (builder style).
    pub fn with_failure_model(mut self, model: FailureModel) -> Self {
        self.failure_model = model;
        self
    }

    /// Validate every knob a CLI user can feed in, so a malformed cell
    /// degrades to an error instead of a panic deep in the builder.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let n = self.tier.num_sites();
        let mut problem: Option<String> = None;
        if !(self.capacity_fill.is_finite() && self.capacity_fill >= 0.0) {
            problem = Some(format!(
                "capacity_fill must be finite and >= 0, got {}",
                self.capacity_fill
            ));
        } else if !(self.mean_demand_gbps.is_finite() && self.mean_demand_gbps > 0.0) {
            problem = Some(format!(
                "mean_demand_gbps must be positive, got {}",
                self.mean_demand_gbps
            ));
        } else if !(self.unit_gbps.is_finite() && self.unit_gbps > 0.0) {
            problem = Some(format!(
                "unit_gbps must be positive, got {}",
                self.unit_gbps
            ));
        } else if self.family == TopologyFamily::BarabasiAlbert && self.ba_attach == 0 {
            problem = Some("ba_attach must be >= 1".to_string());
        } else if self.family == TopologyFamily::WattsStrogatz
            && (self.ws_neighbors < 2
                || !self.ws_neighbors.is_multiple_of(2)
                || self.ws_neighbors >= n)
        {
            problem = Some(format!(
                "ws_neighbors must be even, >= 2 and < num_sites ({n}), got {}",
                self.ws_neighbors
            ));
        } else if self.family == TopologyFamily::WattsStrogatz
            && !(self.ws_rewire.is_finite() && (0.0..=1.0).contains(&self.ws_rewire))
        {
            problem = Some(format!(
                "ws_rewire must be in [0, 1], got {}",
                self.ws_rewire
            ));
        } else if self.family == TopologyFamily::ErdosRenyi
            && !(self.er_degree.is_finite() && self.er_degree > 0.0)
        {
            problem = Some(format!(
                "er_degree must be positive, got {}",
                self.er_degree
            ));
        }
        match problem {
            Some(msg) => Err(TopologyError::Invalid(format!("family config: {msg}"))),
            None => Ok(()),
        }
    }

    /// Generate the network, validating the configuration first.
    pub fn try_generate(&self) -> Result<Network, TopologyError> {
        self.validate()?;
        let mut b = Builder::new(self.seed, self.unit_gbps);
        match self.family {
            TopologyFamily::Wan => b.build_wan(self),
            TopologyFamily::BarabasiAlbert => b.build_ba(self),
            TopologyFamily::WattsStrogatz => b.build_ws(self),
            TopologyFamily::ErdosRenyi => b.build_er(self),
            TopologyFamily::Grid2d => b.build_grid(self),
            TopologyFamily::Community => b.build_community(self),
            TopologyFamily::FatTree => b.build_fat_tree(self),
        }
        b.ensure_connected();
        // The stock C-band; `size_spectrum` raises it where needed.
        b.materialize_fibers(4800.0);
        let counts = self.tier.counts();
        b.build_ip_overlay(counts.multihop, counts.parallel);
        // WAN-like families use the gravity model with datacenter
        // weighting; the Clos fabric's ToR switches talk east-west.
        match self.family {
            TopologyFamily::FatTree => b.east_west_traffic(counts.flows, self.mean_demand_gbps),
            _ => b.gravity_traffic(counts.flows, self.mean_demand_gbps),
        }
        let reference = b.provision_baseline(self.capacity_fill);
        b.size_spectrum(&reference, self.capacity_fill);
        if self.failure_model != FailureModel::None {
            b.cut_failures(counts.cuts);
        }
        if self.failure_model == FailureModel::Full {
            let want = counts.site_failures;
            b.site_and_srlg_failures(want, counts.srlgs, |k, pops| {
                k * (pops / want).max(1) % pops
            });
        }
        b.finish()
    }

    /// Generate the network; panics on a malformed configuration
    /// (validated-input fast path — CLI callers use
    /// [`FamilyConfig::try_generate`]).
    pub fn generate(&self) -> Network {
        self.try_generate().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Convenience: the calibrated network for one `{family × tier}` cell.
pub fn family_network(family: TopologyFamily, tier: SizeTier) -> Network {
    FamilyConfig::new(family, tier).generate()
}

// ---------------------------------------------------------------------------

/// The family-specific plants: each places its sites and draws its edges.
impl Builder {
    /// Metro-clustered WAN: sites scattered around metro centres, an
    /// angular ring, nearest-neighbour spurs, and datacenter chords
    /// (ring-of-neighbours at tier F to keep the chord count linear).
    fn build_wan(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let num_dcs = (n / 4).max(1);
        self.metro_sites(n, (n / 4).clamp(2, 12), num_dcs, 3);
        self.ring_and_spurs();
        // Datacenter express chords: all pairs while that stays small,
        // a next-two ring beyond (tier F would otherwise build ~4500
        // chord fibers).
        if num_dcs <= 16 {
            for i in 0..num_dcs {
                for j in i + 1..num_dcs {
                    if self.rng.gen_bool(0.5) {
                        self.add_edge(i, j);
                    }
                }
            }
        } else {
            for i in 0..num_dcs {
                for step in 1..=2usize {
                    if self.rng.gen_bool(0.5) {
                        self.add_edge(i, (i + step) % num_dcs);
                    }
                }
            }
        }
    }

    /// Barabási-Albert preferential attachment from an (m+1)-clique
    /// seed. The clique nodes become the traffic-heavy "datacenters" —
    /// they are the oldest and therefore highest-degree hubs.
    fn build_ba(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let m = cfg.ba_attach.min(n.saturating_sub(1)).max(1);
        for i in 0..n {
            let pos = (
                self.rng.gen_range(0.0..5000.0),
                self.rng.gen_range(0.0..5000.0),
            );
            let is_dc = i <= m;
            let name = if is_dc {
                format!("hub{i:03}")
            } else {
                format!("n{i:03}")
            };
            self.sites.push(Site {
                name,
                pos,
                is_datacenter: is_dc,
            });
        }
        // Seed clique over nodes 0..=m.
        for a in 0..=m.min(n - 1) {
            for b in a + 1..=m.min(n - 1) {
                self.add_edge(a, b);
            }
        }
        // Preferential attachment: sample targets from the endpoint
        // multiset (each edge contributes both ends), so P(target) is
        // proportional to degree.
        let mut endpoints: Vec<usize> = Vec::with_capacity(2 * m * n);
        for &(a, b) in self.edges() {
            endpoints.push(a);
            endpoints.push(b);
        }
        for v in (m + 1)..n {
            let mut chosen: Vec<usize> = Vec::with_capacity(m);
            let mut attempts = 0usize;
            while chosen.len() < m && attempts < 200 * m {
                attempts += 1;
                let t = endpoints[self.rng.gen_range(0..endpoints.len())];
                if t != v && !chosen.contains(&t) && !self.has_edge(v, t) {
                    chosen.push(t);
                }
            }
            // Deterministic fallback: scan from the oldest node.
            let mut u = 0usize;
            while chosen.len() < m && u < v {
                if !chosen.contains(&u) && !self.has_edge(v, u) {
                    chosen.push(u);
                }
                u += 1;
            }
            for t in chosen {
                self.add_edge(v, t);
                endpoints.push(v);
                endpoints.push(t);
            }
        }
    }

    /// Watts-Strogatz: ring lattice (k/2 neighbours each side) with each
    /// edge's far end rewired to a uniform random node w.p. β.
    fn build_ws(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let k = cfg.ws_neighbors;
        let radius = 1800.0 + 3.0 * n as f64;
        for i in 0..n {
            let theta = std::f64::consts::TAU * i as f64 / n as f64;
            self.sites.push(Site {
                name: format!("w{i:03}"),
                pos: (2500.0 + radius * theta.cos(), 2500.0 + radius * theta.sin()),
                is_datacenter: i % 4 == 0,
            });
        }
        for i in 0..n {
            for j in 1..=(k / 2) {
                self.add_edge(i, (i + j) % n);
            }
        }
        // Rewire pass, in edge order.
        for idx in 0..self.edges().len() {
            if !self.rng.gen_bool(cfg.ws_rewire) {
                continue;
            }
            let (u, v) = self.edges()[idx];
            for _ in 0..20 {
                let w = self.rng.gen_range(0..n);
                if w != u && w != v && !self.has_edge(u, w) {
                    self.replace_edge(idx, u, w);
                    break;
                }
            }
        }
    }

    /// Erdős-Rényi G(n, p) with p derived from the target mean degree.
    fn build_er(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let p = (cfg.er_degree / (n.saturating_sub(1)).max(1) as f64).min(1.0);
        for i in 0..n {
            self.sites.push(Site {
                name: format!("r{i:03}"),
                pos: (
                    self.rng.gen_range(0.0..5000.0),
                    self.rng.gen_range(0.0..5000.0),
                ),
                is_datacenter: i % 4 == 0,
            });
        }
        for a in 0..n {
            for b in a + 1..n {
                if self.rng.gen_bool(p) {
                    self.add_edge(a, b);
                }
            }
        }
    }

    /// 2-D lattice, row-major, ~square.
    fn build_grid(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let rows = (n as f64).sqrt().floor().max(1.0) as usize;
        let cols = n.div_ceil(rows);
        let spacing = 300.0;
        for i in 0..n {
            let (r, c) = (i / cols, i % cols);
            self.sites.push(Site {
                name: format!("g{r:02}-{c:02}"),
                pos: (c as f64 * spacing, r as f64 * spacing),
                is_datacenter: i % 4 == 0,
            });
        }
        for i in 0..n {
            let c = i % cols;
            if c + 1 < cols && i + 1 < n {
                self.add_edge(i, i + 1);
            }
            if i + cols < n {
                self.add_edge(i, i + cols);
            }
        }
    }

    /// Planted partition: dense intra-community clusters (ring + hub
    /// star + random chords) joined by a sparse hub backbone.
    fn build_community(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let q = if cfg.communities > 0 {
            cfg.communities.min(n / 2).max(2)
        } else {
            (n / 6).clamp(2, 16)
        };
        let centers: Vec<(f64, f64)> = (0..q)
            .map(|_| {
                (
                    self.rng.gen_range(0.0..5000.0),
                    self.rng.gen_range(0.0..5000.0),
                )
            })
            .collect();
        // Contiguous blocks: site i belongs to community i*q/n.
        let community = |i: usize| i * q / n;
        let block: Vec<Vec<usize>> = {
            let mut b = vec![Vec::new(); q];
            for i in 0..n {
                b[community(i)].push(i);
            }
            b
        };
        for i in 0..n {
            let c = centers[community(i)];
            let is_hub = block[community(i)].first() == Some(&i);
            self.sites.push(Site {
                name: if is_hub {
                    format!("hub{:02}", community(i))
                } else {
                    format!("c{:02}-{i:03}", community(i))
                },
                pos: (
                    c.0 + self.rng.gen_range(-350.0..350.0),
                    c.1 + self.rng.gen_range(-350.0..350.0),
                ),
                is_datacenter: is_hub,
            });
        }
        for members in &block {
            // Intra ring.
            if members.len() >= 2 {
                for w in 0..members.len() {
                    self.add_edge(members[w], members[(w + 1) % members.len()]);
                }
            }
            // Star to the hub + random intra chords.
            let hub = members[0];
            for &s in &members[1..] {
                if self.rng.gen_bool(0.5) {
                    self.add_edge(hub, s);
                }
            }
            for x in 1..members.len() {
                for y in x + 1..members.len() {
                    if self.rng.gen_bool(0.15) {
                        self.add_edge(members[x], members[y]);
                    }
                }
            }
        }
        // Inter-community backbone: hub ring + a few random cross links.
        let hubs: Vec<usize> = block.iter().map(|m| m[0]).collect();
        for c in 0..q {
            self.add_edge(hubs[c], hubs[(c + 1) % q]);
        }
        for _ in 0..q {
            let a = self.rng.gen_range(0..n);
            let b = self.rng.gen_range(0..n);
            if a != b && community(a) != community(b) && self.rng.gen_bool(0.5) {
                self.add_edge(a, b);
            }
        }
    }

    /// Three-stage Clos/fat-tree: a core layer, per-pod aggregation
    /// pairs, and ToR (edge) switches. Cores and aggs are marked
    /// `is_datacenter` (protected infrastructure, no traffic endpoints);
    /// ToRs source/sink the east-west traffic. Every ToR uplinks to both
    /// pod aggs and every agg to ≥ 2 cores, so the fabric is
    /// 2-edge-connected by construction.
    fn build_fat_tree(&mut self, cfg: &FamilyConfig) {
        let n = cfg.tier.num_sites();
        let core = (n / 10).max(2).min(n.saturating_sub(4).max(2));
        let rest = n - core;
        // Each pod needs at least 2 aggs + 1 ToR.
        let pods = (rest / 6).clamp(2, 64).min((rest / 3).max(2));
        let x_span = 4800.0;
        for i in 0..core {
            self.sites.push(Site {
                name: format!("core{i:03}"),
                pos: (x_span * (i as f64 + 1.0) / (core as f64 + 1.0), 2400.0),
                is_datacenter: true,
            });
        }
        // Distribute the remaining sites over pods as evenly as possible.
        let mut agg_ids: Vec<Vec<usize>> = vec![Vec::new(); pods];
        let mut tor_count = 0usize;
        for (p, pod_aggs) in agg_ids.iter_mut().enumerate() {
            let lo = rest * p / pods;
            let hi = rest * (p + 1) / pods;
            let share = hi - lo;
            let aggs = 2.min(share.saturating_sub(1)).max(1);
            let pod_x0 = x_span * p as f64 / pods as f64;
            let pod_w = x_span / pods as f64;
            for a in 0..share {
                let is_agg = a < aggs;
                let idx = self.sites.len();
                if is_agg {
                    pod_aggs.push(idx);
                    self.sites.push(Site {
                        name: format!("agg{p:02}-{a}"),
                        pos: (
                            pod_x0 + pod_w * (a as f64 + 1.0) / (aggs as f64 + 1.0),
                            1200.0,
                        ),
                        is_datacenter: true,
                    });
                } else {
                    let t = a - aggs;
                    self.sites.push(Site {
                        name: format!("tor{p:02}-{t:02}"),
                        pos: (
                            pod_x0 + pod_w * (t as f64 + 1.0) / ((share - aggs) as f64 + 1.0),
                            100.0,
                        ),
                        is_datacenter: false,
                    });
                    tor_count += 1;
                    // ToR uplinks to every agg of its pod (all aggs are
                    // placed before any ToR, so the list is complete).
                    for &agg in pod_aggs.iter() {
                        self.add_edge(idx, agg);
                    }
                }
            }
        }
        let _ = tor_count;
        // Agg uplinks: to every core when the core layer is small, else
        // to 4 cores in a deterministic stride (keeps fiber count linear
        // at tier F instead of a 4000-edge bipartite blowup).
        let uplinks = core.min(4);
        let stride = (core / uplinks).max(1);
        let mut g = 0usize; // global agg counter, so uplinks cover all cores
        for pod_aggs in &agg_ids {
            for &agg in pod_aggs {
                for t in 0..uplinks {
                    let c = (g + t * stride) % core;
                    self.add_edge(agg, c);
                }
                g += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureKind, SiteId};

    #[test]
    fn every_family_generates_at_small_tiers() {
        for family in TopologyFamily::ALL {
            for tier in [SizeTier::A, SizeTier::B] {
                let net = family_network(family, tier);
                assert_eq!(net.sites().len(), tier.num_sites(), "{family}/{tier}");
                assert!(!net.links().is_empty(), "{family}/{tier} has links");
                assert!(!net.flows().is_empty(), "{family}/{tier} has flows");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in TopologyFamily::ALL {
            let cfg = FamilyConfig::new(family, SizeTier::B);
            assert_eq!(
                cfg.generate().to_json(),
                cfg.generate().to_json(),
                "{family} generation must be a pure function of the config"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        for family in TopologyFamily::ALL {
            let cfg = FamilyConfig::new(family, SizeTier::B);
            let other = cfg.clone().with_seed(cfg.seed + 1);
            assert_ne!(
                cfg.generate().to_json(),
                other.generate().to_json(),
                "{family} must respond to the seed"
            );
        }
    }

    #[test]
    fn name_parse_roundtrip() {
        for family in TopologyFamily::ALL {
            assert_eq!(TopologyFamily::parse(family.name()), Some(family));
        }
        for tier in SizeTier::ALL {
            assert_eq!(SizeTier::parse(tier.name()), Some(tier));
        }
        for model in FailureModel::ALL {
            assert_eq!(FailureModel::parse(model.name()), Some(model));
        }
        assert_eq!(TopologyFamily::parse("no-such"), None);
    }

    #[test]
    fn malformed_configs_degrade_to_errors() {
        let good = FamilyConfig::new(TopologyFamily::WattsStrogatz, SizeTier::A);
        assert!(good.validate().is_ok());
        for bad in [
            FamilyConfig {
                capacity_fill: f64::NAN,
                ..good.clone()
            },
            FamilyConfig {
                mean_demand_gbps: 0.0,
                ..good.clone()
            },
            FamilyConfig {
                unit_gbps: -1.0,
                ..good.clone()
            },
            FamilyConfig {
                ws_neighbors: 3,
                ..good.clone()
            },
            FamilyConfig {
                ws_neighbors: 8, // == num_sites at tier A
                ..good.clone()
            },
            FamilyConfig {
                ws_rewire: 1.5,
                ..good.clone()
            },
        ] {
            let err = bad.try_generate().expect_err("config must be rejected");
            assert!(matches!(err, TopologyError::Invalid(_)), "got {err:?}");
        }
        let bad_ba = FamilyConfig {
            ba_attach: 0,
            ..FamilyConfig::new(TopologyFamily::BarabasiAlbert, SizeTier::A)
        };
        assert!(bad_ba.try_generate().is_err());
        let bad_er = FamilyConfig {
            er_degree: f64::INFINITY,
            ..FamilyConfig::new(TopologyFamily::ErdosRenyi, SizeTier::A)
        };
        assert!(bad_er.try_generate().is_err());
    }

    #[test]
    fn failure_model_axis_controls_the_scenario_classes() {
        let cfg = FamilyConfig::new(TopologyFamily::Community, SizeTier::B);
        let none = cfg
            .clone()
            .with_failure_model(FailureModel::None)
            .generate();
        assert!(none.failures().is_empty());
        let cuts = cfg
            .clone()
            .with_failure_model(FailureModel::SingleCut)
            .generate();
        assert!(!cuts.failures().is_empty());
        assert!(cuts
            .failures()
            .iter()
            .all(|f| matches!(f.kind, FailureKind::FiberCut(_))));
        let full = cfg.generate();
        assert!(full.failures().len() > cuts.failures().len());
    }

    #[test]
    fn plant_survives_every_generated_failure() {
        for family in TopologyFamily::ALL {
            let net = family_network(family, SizeTier::B);
            for fid in net.failure_ids() {
                let impact = net.impact(fid);
                let n = net.sites().len();
                let dead_site = |s: SiteId| impact.dead_sites.contains(&s);
                let alive_links: Vec<_> = net
                    .link_ids()
                    .filter(|l| !impact.dead_links.contains(l))
                    .collect();
                let start = net.site_ids().find(|&s| !dead_site(s)).unwrap();
                let mut seen = vec![false; n];
                seen[start.index()] = true;
                let mut stack = vec![start];
                while let Some(u) = stack.pop() {
                    for &l in &alive_links {
                        if let Some(v) = net.link(l).opposite(u) {
                            if !dead_site(v) && !seen[v.index()] {
                                seen[v.index()] = true;
                                stack.push(v);
                            }
                        }
                    }
                }
                for s in net.site_ids() {
                    assert!(
                        seen[s.index()] || dead_site(s),
                        "{family}: failure {} disconnects {s}",
                        net.failure(fid).name
                    );
                }
            }
        }
    }

    /// Tier F (380 sites) across every family — minutes in debug mode,
    /// so opt-in: `cargo test --release -p np-topology -- --ignored`.
    #[test]
    #[ignore]
    fn tier_f_generates_for_every_family() {
        for family in TopologyFamily::ALL {
            let net = family_network(family, SizeTier::F);
            assert_eq!(net.sites().len(), 380, "{family}");
            assert!(!net.flows().is_empty(), "{family}");
            assert!(!net.failures().is_empty(), "{family}");
        }
    }

    #[test]
    fn tier_f_is_ten_x_tier_e() {
        assert_eq!(SizeTier::F.num_sites(), 10 * SizeTier::E.num_sites());
        assert_eq!(SizeTier::F.counts().flows, 10 * SizeTier::E.counts().flows);
    }
}
