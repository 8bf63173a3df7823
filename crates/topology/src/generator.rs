//! Deterministic synthetic WAN generator.
//!
//! The paper evaluates on five proprietary production topologies A–E
//! ("A has tens of IP links, tens of failures and tens of flows … E has
//! hundreds of IP links, hundreds of failures and about one thousand
//! flows"). This module generates seeded synthetic instances with the
//! same *structure* — geo-embedded PoPs, a 2-edge-connected fiber plant,
//! an IP overlay with multi-hop and parallel links, gravity-model traffic
//! with classes of service, and fiber-cut / site / SRLG failure sets —
//! calibrated (and scaled to laptop compute, see DESIGN.md §6) to the
//! paper's relative sizes.
//!
//! Everything is driven by a single `u64` seed, so every experiment in the
//! repository is exactly reproducible.

use crate::builder::Builder;
use crate::error::TopologyError;
use crate::family::SizeTier;
use crate::network::Network;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The five evaluation topologies of §6, in ascending size order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyPreset {
    /// Smallest: the only one the raw ILP can solve (Fig. 9).
    A,
    /// ~2× A.
    B,
    /// ~4× A.
    C,
    /// ~8× A.
    D,
    /// Largest: hundreds of links, ~1k flows in the paper's terms.
    E,
}

impl TopologyPreset {
    /// All presets in ascending size order.
    pub const ALL: [TopologyPreset; 5] = [
        TopologyPreset::A,
        TopologyPreset::B,
        TopologyPreset::C,
        TopologyPreset::D,
        TopologyPreset::E,
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            TopologyPreset::A => "A",
            TopologyPreset::B => "B",
            TopologyPreset::C => "C",
            TopologyPreset::D => "D",
            TopologyPreset::E => "E",
        }
    }
}

/// All the knobs of the generator. Prefer [`GeneratorConfig::preset`] and
/// tweak from there.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// RNG seed; equal configs generate equal networks.
    pub seed: u64,
    /// Number of sites (PoPs + datacenters).
    pub num_sites: usize,
    /// Fraction of sites that are datacenters (heavier traffic gravity).
    pub datacenter_fraction: f64,
    /// Extra multi-hop IP links beyond the one-per-fiber directs.
    pub num_multihop_links: usize,
    /// Parallel IP links added over fiber-disjoint alternates.
    pub num_parallel_links: usize,
    /// Number of flows to keep (the heaviest gravity pairs).
    pub num_flows: usize,
    /// Number of single-fiber-cut scenarios (sampled if fewer than fibers).
    pub num_fiber_cuts: usize,
    /// Number of site-failure scenarios.
    pub num_site_failures: usize,
    /// Number of SRLG (two-fiber) scenarios.
    pub num_srlgs: usize,
    /// Mean flow demand in Gbps.
    pub mean_demand_gbps: f64,
    /// Capacity unit in Gbps (links provision integer multiples).
    pub unit_gbps: f64,
    /// Usable spectrum per fiber in GHz.
    pub spectrum_ghz: f64,
    /// Fraction of the reference (shortest-path) capacity pre-provisioned
    /// at baseline: 1.0 reproduces topology "A-1", 0.0 "A-0" etc. (§6.2).
    pub capacity_fill: f64,
    /// Long-term planning: also add dark candidate fibers and
    /// zero-capacity candidate IP links over them (§2, §4.1).
    pub long_term: bool,
}

impl GeneratorConfig {
    /// The calibrated configuration for one of the paper's topologies: the
    /// counts of the [`SizeTier`] of the same letter.
    pub fn preset(preset: TopologyPreset) -> Self {
        let counts = SizeTier::ALL[preset as usize].counts();
        GeneratorConfig {
            seed: 0x5eed_0000 + preset as u64,
            num_sites: counts.sites,
            datacenter_fraction: 0.25,
            num_multihop_links: counts.multihop,
            num_parallel_links: counts.parallel,
            num_flows: counts.flows,
            num_fiber_cuts: counts.cuts,
            num_site_failures: counts.site_failures,
            num_srlgs: counts.srlgs,
            mean_demand_gbps: 250.0,
            unit_gbps: 100.0,
            spectrum_ghz: 4800.0,
            capacity_fill: 0.5,
            long_term: false,
        }
    }

    /// The `A-x` synthetic variants of §6.2: topology A with the baseline
    /// capacity of every link scaled to `fill` ∈ [0, 1] of reference.
    pub fn a_variant(fill: f64) -> Self {
        let mut cfg = Self::preset(TopologyPreset::A);
        cfg.capacity_fill = fill;
        cfg
    }

    /// Validate the configuration before generation: every numeric knob a
    /// user can feed through the CLI must be in range, so a malformed
    /// request degrades to an error instead of a panic (or an endless
    /// rejection loop) deep inside the generator.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let mut problem: Option<String> = None;
        if self.num_sites < 2 {
            problem = Some(format!("num_sites must be >= 2, got {}", self.num_sites));
        } else if self.num_flows == 0 {
            problem = Some("num_flows must be >= 1".to_string());
        } else if !(self.datacenter_fraction.is_finite()
            && (0.0..=1.0).contains(&self.datacenter_fraction))
        {
            problem = Some(format!(
                "datacenter_fraction must be in [0, 1], got {}",
                self.datacenter_fraction
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
        } else if !(self.spectrum_ghz.is_finite() && self.spectrum_ghz > 0.0) {
            problem = Some(format!(
                "spectrum_ghz must be positive, got {}",
                self.spectrum_ghz
            ));
        } else if !(self.capacity_fill.is_finite() && self.capacity_fill >= 0.0) {
            problem = Some(format!(
                "capacity_fill must be finite and >= 0, got {}",
                self.capacity_fill
            ));
        }
        match problem {
            Some(msg) => Err(TopologyError::Invalid(format!("generator config: {msg}"))),
            None => Ok(()),
        }
    }

    /// Generate the network, validating the configuration first and the
    /// built instance last: a config whose baseline does not fit its
    /// `spectrum_ghz` (preset E at `capacity_fill = 1` under some seeds) is
    /// an error, not a panic.
    ///
    /// The failure set — sampled single fiber cuts, non-datacenter site
    /// losses spread evenly over the candidates, SRLG pairs — provably
    /// keeps the fiber plant connected, so a feasible plan always exists
    /// for Gold traffic. Bridges and repeated site losses are passed over;
    /// the ring leaves none to pass over from three sites up, so only
    /// `num_sites = 2` (whose one fiber used to be listed as a cut) and
    /// `num_site_failures` above the non-datacenter count (which used to
    /// list a site twice) generate differently than before the shared
    /// builder.
    pub fn try_generate(&self) -> Result<Network, TopologyError> {
        self.validate()?;
        let n = self.num_sites;
        let mut b = Builder::new(self.seed, self.unit_gbps);
        let num_dcs = ((n as f64 * self.datacenter_fraction).round() as usize).max(1);
        b.metro_sites(n, (n / 4).clamp(2, 8), num_dcs, 2);
        b.ring_and_spurs();
        // Long-haul chords between datacenters for express capacity; a
        // pair the ring or a spur already joined draws nothing.
        for i in 0..num_dcs {
            for j in i + 1..num_dcs {
                if !b.has_edge(i, j) && b.rng.gen_bool(0.5) {
                    b.add_edge(i, j);
                }
            }
        }
        b.materialize_fibers(self.spectrum_ghz);
        b.build_ip_overlay(self.num_multihop_links, self.num_parallel_links);
        b.gravity_traffic(self.num_flows, self.mean_demand_gbps);
        b.provision_baseline(self.capacity_fill);
        b.cut_failures(self.num_fiber_cuts);
        let want = self.num_site_failures;
        b.site_and_srlg_failures(want, self.num_srlgs, |k, pops| k * pops / want % pops);
        if self.long_term {
            self.add_dark_candidates(&mut b);
        }
        b.finish()
    }

    /// Long-term planning: dark candidate fibers between a few random
    /// non-adjacent pairs, each with a zero-capacity candidate IP link.
    /// Their build cost is only charged if the plan lights them (Eq. 1).
    fn add_dark_candidates(&self, b: &mut Builder) {
        let n = self.num_sites;
        let want = (n / 3).max(2);
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < want && attempts < 100 * want {
            attempts += 1;
            let (x, y) = (b.rng.gen_range(0..n), b.rng.gen_range(0..n));
            if b.add_edge(x, y) {
                b.materialize_fibers(self.spectrum_ghz);
                b.add_ip_link(x, y, vec![b.edges().len() - 1]);
                added += 1;
            }
        }
    }

    /// Generate the network for this configuration; panics on a malformed
    /// configuration (validated-input fast path — CLI callers use
    /// [`GeneratorConfig::try_generate`]).
    pub fn generate(&self) -> Network {
        self.try_generate().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Convenience: the calibrated network for a preset.
pub fn preset_network(preset: TopologyPreset) -> Network {
    GeneratorConfig::preset(preset).generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform;

    #[test]
    fn malformed_configs_degrade_to_errors() {
        let good = GeneratorConfig::preset(TopologyPreset::A);
        assert!(good.validate().is_ok());
        for bad in [
            GeneratorConfig {
                num_sites: 1,
                ..good.clone()
            },
            GeneratorConfig {
                num_flows: 0,
                ..good.clone()
            },
            GeneratorConfig {
                datacenter_fraction: 1.5,
                ..good.clone()
            },
            GeneratorConfig {
                mean_demand_gbps: f64::NAN,
                ..good.clone()
            },
            GeneratorConfig {
                unit_gbps: 0.0,
                ..good.clone()
            },
            GeneratorConfig {
                spectrum_ghz: -1.0,
                ..good.clone()
            },
            GeneratorConfig {
                capacity_fill: f64::INFINITY,
                ..good.clone()
            },
        ] {
            let err = bad.try_generate().expect_err("config must be rejected");
            assert!(
                matches!(err, TopologyError::Invalid(_)),
                "unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn a_baseline_beyond_the_spectrum_is_an_error_not_a_panic() {
        let cfg = GeneratorConfig {
            seed: 4,
            capacity_fill: 1.0,
            ..GeneratorConfig::preset(TopologyPreset::E)
        };
        let err = cfg
            .try_generate()
            .expect_err("f62 cannot carry its baseline");
        assert_eq!(
            err.to_string(),
            "invalid topology: initial capacities exceed spectrum of f62"
        );
    }

    #[test]
    fn the_one_fiber_of_a_two_site_plant_is_never_cut() {
        for seed in 0..50 {
            let cfg = GeneratorConfig {
                seed,
                num_sites: 2,
                ..GeneratorConfig::preset(TopologyPreset::A)
            };
            let net = cfg.generate();
            assert_eq!(net.fibers().len(), 1);
            let names: Vec<&str> = net.failures().iter().map(|f| f.name.as_str()).collect();
            assert_eq!(names, ["down:s1"], "seed {seed}: f0 is a bridge");
        }
    }

    #[test]
    fn no_site_is_lost_twice() {
        let cfg = GeneratorConfig {
            num_sites: 4,
            num_site_failures: 5,
            ..GeneratorConfig::preset(TopologyPreset::A)
        };
        let net = cfg.generate();
        let down: Vec<&str> = (net.failures().iter())
            .map(|f| f.name.as_str())
            .filter(|name| name.starts_with("down:"))
            .collect();
        assert_eq!(down, ["down:s1", "down:s2"], "used to list s1 twice");
    }

    #[test]
    fn generation_is_deterministic() {
        let a1 = preset_network(TopologyPreset::A);
        let a2 = preset_network(TopologyPreset::A);
        assert_eq!(a1.to_json(), a2.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = GeneratorConfig::preset(TopologyPreset::A);
        let a = cfg.generate();
        cfg.seed += 1;
        let b = cfg.generate();
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn presets_grow_monotonically() {
        let mut prev_links = 0;
        let mut prev_flows = 0;
        for preset in TopologyPreset::ALL {
            let net = preset_network(preset);
            assert!(
                net.links().len() > prev_links,
                "{} must have more links than its predecessor",
                preset.name()
            );
            assert!(net.flows().len() >= prev_flows);
            prev_links = net.links().len();
            prev_flows = net.flows().len();
        }
    }

    #[test]
    fn preset_a_matches_paper_scale() {
        let net = preset_network(TopologyPreset::A);
        // "A has tens of IP links, tens of failures and tens of flows."
        assert!(
            (10..60).contains(&net.links().len()),
            "links: {}",
            net.links().len()
        );
        assert!((5..40).contains(&net.failures().len()));
        assert!((10..50).contains(&net.flows().len()));
    }

    #[test]
    fn preset_e_is_an_order_of_magnitude_bigger_than_a() {
        let a = preset_network(TopologyPreset::A);
        let e = preset_network(TopologyPreset::E);
        assert!(e.links().len() >= 4 * a.links().len());
        assert!(e.flows().len() >= 10 * a.flows().len());
        assert!(e.failures().len() >= 5 * a.failures().len());
    }

    #[test]
    fn generated_networks_contain_parallel_links() {
        let net = preset_network(TopologyPreset::B);
        let links = net.links();
        let has_parallel = (0..links.len())
            .any(|i| (i + 1..links.len()).any(|j| links[i].is_parallel_to(&links[j])));
        assert!(has_parallel, "generator must produce parallel IP links");
        // And parallel pairs must ride different fiber paths.
        for i in 0..links.len() {
            for j in i + 1..links.len() {
                if links[i].is_parallel_to(&links[j]) {
                    assert_ne!(
                        links[i].fiber_path, links[j].fiber_path,
                        "parallel links must use distinct fiber paths"
                    );
                }
            }
        }
    }

    #[test]
    fn fiber_plant_survives_every_generated_failure() {
        // The generator promises Gold traffic remains routable: the plant
        // stays connected among surviving sites under every scenario.
        let net = preset_network(TopologyPreset::C);
        for f in net.failure_ids() {
            let impact = net.impact(f);
            let alive_links: Vec<_> = net
                .link_ids()
                .filter(|l| !impact.dead_links.contains(l))
                .collect();
            // BFS over surviving IP links among surviving sites.
            let n = net.sites().len();
            let dead_site = |s: crate::SiteId| impact.dead_sites.contains(&s);
            let start = net.site_ids().find(|&s| !dead_site(s)).unwrap();
            let mut seen = vec![false; n];
            seen[start.index()] = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for &l in &alive_links {
                    let link = net.link(l);
                    if let Some(v) = link.opposite(u) {
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
                    "failure {} disconnects site {s}",
                    net.failure(f).name
                );
            }
        }
    }

    #[test]
    fn a_variants_scale_baseline_capacity() {
        let a0 = GeneratorConfig::a_variant(0.0).generate();
        let a1 = GeneratorConfig::a_variant(1.0).generate();
        assert!(a0.link_ids().all(|l| a0.link(l).capacity_units == 0));
        let total1: u32 = a1.link_ids().map(|l| a1.link(l).capacity_units).sum();
        assert!(total1 > 0, "A-1 must start with provisioned capacity");
        let a05 = GeneratorConfig::a_variant(0.5).generate();
        let total05: u32 = a05.link_ids().map(|l| a05.link(l).capacity_units).sum();
        assert!(total05 < total1 && total05 > 0);
    }

    #[test]
    fn long_term_adds_dark_candidates() {
        let mut cfg = GeneratorConfig::preset(TopologyPreset::A);
        cfg.long_term = true;
        cfg.capacity_fill = 0.0;
        let net = cfg.generate();
        let base = GeneratorConfig::preset(TopologyPreset::A).generate();
        assert!(net.fibers().len() > base.fibers().len());
        assert!(net.links().len() > base.links().len());
        assert!(net.link_ids().all(|l| net.link(l).min_units == 0));
    }

    #[test]
    fn transform_applies_to_generated_topologies() {
        for preset in [TopologyPreset::A, TopologyPreset::C] {
            let net = preset_network(preset);
            let g = transform(&net);
            assert_eq!(g.num_nodes(), net.links().len());
            assert!(g.num_edges() > 0);
        }
    }

    #[test]
    fn demands_are_positive_and_capacities_respect_spectrum() {
        for preset in TopologyPreset::ALL {
            let net = preset_network(preset);
            assert!(net.flows().iter().all(|f| f.demand_gbps > 0.0));
            for f in net.fiber_ids() {
                assert!(
                    net.spectrum_headroom(f) >= 0.0,
                    "{} violates spectrum on {f}",
                    preset.name()
                );
            }
        }
    }
}
