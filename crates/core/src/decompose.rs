//! Topology decomposition (§3.2's first production heuristic):
//! "decompose the topology into several smaller sub-topologies, and each
//! sub-topology is solved with an ILP. The decomposition is usually done
//! by segmenting the topology into geographical regions … sizing
//! inter-regional links … the segmentation and stitching are done
//! manually."
//!
//! We automate the manual parts deterministically: regions are contiguous
//! angular sectors around the site centroid (a stand-in for the
//! operational blocks), each region's intra-region planning problem is
//! solved by the Benders master, and the stitch — inter-regional capacity
//! plus anything the regional solves missed — is finished by
//! certificate-guided greedy augmentation and 1-opt polish.

use crate::greedy::greedy_augment;
use crate::master::{
    apply_units, plan_cost_of, polish_units, solve_master_telemetry, MasterConfig,
};
use np_eval::{EvalConfig, PlanEvaluator};
use np_telemetry::{sys, Telemetry};
use np_topology::{FailureKind, LinkId, Network, SiteId};

/// Result of a decomposed solve.
#[derive(Clone, Debug)]
pub struct DecomposedOutcome {
    /// Final (stitched, polished) plan in total units per link.
    pub units: Vec<u32>,
    /// Eq. 1 cost of the plan.
    pub cost: f64,
    /// Number of regions actually used.
    pub regions: usize,
    /// Links treated as inter-regional (sized by the stitch phase).
    pub inter_region_links: usize,
}

/// Assign each site to one of `k` contiguous angular sectors — the same
/// centroid / `atan2` / `total_cmp`-then-index order in which
/// `np_topology`'s `Builder::ring_and_spurs` lays the fiber ring, kept in
/// step by hand because this one runs on a finished [`Network`].
pub fn angular_regions(net: &Network, k: usize) -> Vec<usize> {
    let n = net.sites().len();
    if n == 0 {
        // No sites means no centroid: dividing by `n as f64` below would
        // produce NaN coordinates (and `clamp(1, 0)` panics).
        return vec![];
    }
    let k = k.clamp(1, n);
    let cx = net.sites().iter().map(|s| s.pos.0).sum::<f64>() / n as f64;
    let cy = net.sites().iter().map(|s| s.pos.1).sum::<f64>() / n as f64;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ta = (net.sites()[a].pos.1 - cy).atan2(net.sites()[a].pos.0 - cx);
        let tb = (net.sites()[b].pos.1 - cy).atan2(net.sites()[b].pos.0 - cx);
        // `total_cmp`, not `partial_cmp().expect(..)`: degenerate inputs
        // (co-located sites from the grid/Clos generators collapsing the
        // centroid offset to ±0, or non-finite coordinates) must fall
        // into *some* sector, never panic mid-decomposition. Ties break
        // by site index so the partition stays deterministic.
        ta.total_cmp(&tb).then(a.cmp(&b))
    });
    let mut region = vec![0usize; n];
    for (rank, &site) in order.iter().enumerate() {
        region[site] = rank * k / n;
    }
    region
}

/// Solve by regional decomposition. Returns `Err` only if even the
/// stitch phase cannot reach feasibility (structurally impossible).
/// `workers` bounds the number of regions solved concurrently (1 =
/// serial); the plan is identical at every worker count as long as the
/// per-region wall-clock budget does not bind.
pub fn solve_decomposed(
    net: &Network,
    eval_cfg: EvalConfig,
    per_region_time_secs: f64,
    num_regions: usize,
    workers: usize,
) -> Result<DecomposedOutcome, crate::greedy::GreedyError> {
    solve_decomposed_telemetry(
        net,
        eval_cfg,
        per_region_time_secs,
        num_regions,
        workers,
        &Telemetry::noop(),
    )
}

/// [`solve_decomposed`] reporting through `tel`: a `decompose` span plus
/// region counts under `pipeline`, with each regional master reporting
/// its own `master`/`lp`/`eval` counters. When regions solve in
/// parallel, each region records into a private buffer that is replayed
/// into `tel` in region order after the join — the event stream is the
/// same at every worker count.
pub fn solve_decomposed_telemetry(
    net: &Network,
    eval_cfg: EvalConfig,
    per_region_time_secs: f64,
    num_regions: usize,
    workers: usize,
    tel: &Telemetry,
) -> Result<DecomposedOutcome, crate::greedy::GreedyError> {
    let _decompose_span = tel.span(sys::PIPELINE, "decompose");
    let workers = workers.max(1);
    let region = angular_regions(net, num_regions);
    let regions = *region.iter().max().unwrap_or(&0) + 1;
    let mut units: Vec<u32> = net.link_ids().map(|l| net.base_units(l)).collect();
    let mut inter_region_links = 0usize;

    // Regions are independent subproblems: fix the task list (and thus
    // the merge order) up front, solve on the pool, merge in region
    // order. Each regional evaluator runs serially — the region level
    // owns the thread budget here.
    let subproblems: Vec<SubInstance> = (0..regions)
        .filter_map(|r| extract_region(net, &region, r))
        .filter(|sub| !sub.net.flows().is_empty())
        .collect();
    let buffered = workers > 1 && tel.is_enabled();
    let region_eval_cfg = EvalConfig {
        parallel_workers: 1,
        ..eval_cfg
    };
    let tasks: Vec<_> = subproblems
        .into_iter()
        .map(|sub| {
            let region_tel = if buffered {
                Telemetry::memory()
            } else {
                tel.clone()
            };
            move || {
                let mut evaluator =
                    PlanEvaluator::with_telemetry(&sub.net, region_eval_cfg, region_tel.clone());
                let cfg = MasterConfig {
                    polish_final: true,
                    ..MasterConfig::new(
                        MasterConfig::spectrum_bounds(&sub.net),
                        5000,
                        per_region_time_secs,
                    )
                };
                let out = solve_master_telemetry(&sub.net, &mut evaluator, &cfg, &region_tel);
                region_tel.incr(sys::PIPELINE, "regions_solved", 1);
                (sub.link_map, out, region_tel)
            }
        })
        .collect();
    for (link_map, out, region_tel) in np_pool::run_tasks(workers, tasks) {
        if buffered {
            region_tel.replay_into(tel);
        }
        if out.has_plan() {
            for (sub_idx, &global) in link_map.iter().enumerate() {
                units[global.index()] = units[global.index()].max(out.units[sub_idx]);
            }
        }
    }
    // Count the links no region owned (the ones "sized manually").
    for l in net.link_ids() {
        let link = net.link(l);
        if region[link.src.index()] != region[link.dst.index()] {
            inter_region_links += 1;
        }
    }
    // Stitch: apply regional capacities, then let the certificate-guided
    // greedy finish whatever the regional views could not see (cross
    // demands, failures spanning regions).
    let mut stitched = net.clone();
    apply_units(&mut stitched, &units);
    greedy_augment(&mut stitched, eval_cfg)?;
    let mut final_units: Vec<u32> = stitched
        .link_ids()
        .map(|l| stitched.link(l).capacity_units)
        .collect();
    let mut evaluator = PlanEvaluator::with_telemetry(net, eval_cfg, tel.clone());
    polish_units(net, &mut evaluator, &mut final_units);
    let cost = plan_cost_of(net, &final_units);
    tel.incr(
        sys::PIPELINE,
        "inter_region_links",
        inter_region_links as u64,
    );
    Ok(DecomposedOutcome {
        units: final_units,
        cost,
        regions,
        inter_region_links,
    })
}

struct SubInstance {
    net: Network,
    /// Global link id of each sub-instance link, indexed by sub link id.
    link_map: Vec<LinkId>,
}

/// Extract the intra-region planning problem of region `r`: sites of the
/// region, fibers and links entirely inside it, flows between its sites,
/// and the failure scenarios that still reference something inside.
fn extract_region(net: &Network, region: &[usize], r: usize) -> Option<SubInstance> {
    let site_ids: Vec<usize> = (0..net.sites().len()).filter(|&s| region[s] == r).collect();
    if site_ids.len() < 2 {
        return None;
    }
    let mut site_new = vec![usize::MAX; net.sites().len()];
    for (new, &old) in site_ids.iter().enumerate() {
        site_new[old] = new;
    }
    let sites = site_ids.iter().map(|&s| net.sites()[s].clone()).collect();
    // Fibers fully inside.
    let mut fiber_new = vec![usize::MAX; net.fibers().len()];
    let mut fibers = Vec::new();
    for (i, fiber) in net.fibers().iter().enumerate() {
        let (a, b) = fiber.endpoints;
        if site_new[a.index()] != usize::MAX && site_new[b.index()] != usize::MAX {
            fiber_new[i] = fibers.len();
            let mut f = fiber.clone();
            f.endpoints = (
                SiteId::new(site_new[a.index()].min(site_new[b.index()])),
                SiteId::new(site_new[a.index()].max(site_new[b.index()])),
            );
            fibers.push(f);
        }
    }
    // Links whose endpoints and entire fiber path are inside.
    let mut links = Vec::new();
    let mut link_map = Vec::new();
    for l in net.link_ids() {
        let link = net.link(l);
        let inside = site_new[link.src.index()] != usize::MAX
            && site_new[link.dst.index()] != usize::MAX
            && link
                .fiber_path
                .iter()
                .all(|&(f, _)| fiber_new[f.index()] != usize::MAX);
        if !inside {
            continue;
        }
        let mut nl = link.clone();
        nl.src = SiteId::new(site_new[link.src.index()]);
        nl.dst = SiteId::new(site_new[link.dst.index()]);
        nl.fiber_path = link
            .fiber_path
            .iter()
            .map(|&(f, e)| (np_topology::FiberId::new(fiber_new[f.index()]), e))
            .collect();
        links.push(nl);
        link_map.push(l);
    }
    if links.is_empty() {
        return None;
    }
    // Intra-region flows only (cross flows belong to the stitch phase).
    let flows: Vec<_> = net
        .flows()
        .iter()
        .filter(|f| site_new[f.src.index()] != usize::MAX && site_new[f.dst.index()] != usize::MAX)
        .map(|f| {
            let mut nf = f.clone();
            nf.src = SiteId::new(site_new[f.src.index()]);
            nf.dst = SiteId::new(site_new[f.dst.index()]);
            nf
        })
        .collect();
    // Failures that still reference region entities.
    let mut failures = Vec::new();
    for failure in net.failures() {
        let kind = match &failure.kind {
            FailureKind::FiberCut(f) if fiber_new[f.index()] != usize::MAX => Some(
                FailureKind::FiberCut(np_topology::FiberId::new(fiber_new[f.index()])),
            ),
            FailureKind::SiteDown(s) if site_new[s.index()] != usize::MAX => {
                Some(FailureKind::SiteDown(SiteId::new(site_new[s.index()])))
            }
            FailureKind::Srlg(fs) => {
                let inside: Vec<_> = fs
                    .iter()
                    .filter(|f| fiber_new[f.index()] != usize::MAX)
                    .map(|f| np_topology::FiberId::new(fiber_new[f.index()]))
                    .collect();
                (!inside.is_empty()).then_some(FailureKind::Srlg(inside))
            }
            _ => None,
        };
        if let Some(kind) = kind {
            failures.push(np_topology::Failure {
                name: failure.name.clone(),
                kind,
            });
        }
    }
    let net = Network::new(
        sites,
        fibers,
        links,
        flows,
        failures,
        net.policy.clone(),
        net.cost_model.clone(),
        net.unit_gbps,
    )
    .ok()?;
    Some(SubInstance { net, link_map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::solve_master;
    use crate::pipeline::validate_plan;
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    #[test]
    fn angular_regions_partition_all_sites() {
        let net = GeneratorConfig::preset(TopologyPreset::B).generate();
        let region = angular_regions(&net, 3);
        assert_eq!(region.len(), net.sites().len());
        assert!(region.iter().all(|&r| r < 3));
        // Every region non-empty for a 12-site topology.
        for r in 0..3 {
            assert!(region.contains(&r), "region {r} empty");
        }
    }

    #[test]
    fn one_region_is_the_identity_partition() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let region = angular_regions(&net, 1);
        assert!(region.iter().all(|&r| r == 0));
    }

    #[test]
    fn angular_regions_of_an_empty_network_are_empty() {
        let net = Network::new(
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            Default::default(),
            Default::default(),
            100.0,
        )
        .expect("an instance with no sites is degenerate but valid");
        assert!(angular_regions(&net, 3).is_empty());
        assert!(angular_regions(&net, 0).is_empty());
    }

    #[test]
    fn degenerate_coordinates_never_panic_the_partition() {
        // Co-located sites (a collapsed metro, or generators that stack
        // nodes) put every site at the centroid: all angles are atan2 of
        // signed zeros. The sort must stay total and deterministic.
        let stacked = positions_net(&[(5.0, 5.0); 6]);
        let region = angular_regions(&stacked, 3);
        assert_eq!(region.len(), 6);
        assert!(region.iter().all(|&r| r < 3));
        for r in 0..3 {
            assert!(region.contains(&r), "region {r} empty for stacked sites");
        }
        assert_eq!(region, angular_regions(&stacked, 3));

        // Non-finite coordinates (upstream data bugs) used to panic in
        // `partial_cmp(..).expect("finite angles")`; they must now land
        // in some sector instead of killing the decomposition.
        let poisoned = positions_net(&[
            (0.0, 0.0),
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
            (2.0, 1.0),
        ]);
        let region = angular_regions(&poisoned, 2);
        assert_eq!(region.len(), 4);
        assert!(region.iter().all(|&r| r < 2));
        assert_eq!(region, angular_regions(&poisoned, 2));
    }

    #[test]
    fn worker_count_never_changes_the_decomposed_plan() {
        // The per-region budget (10 s for millisecond-scale regions) never
        // binds here, so the plan and the merged telemetry stream must be
        // identical at every worker count.
        let net = GeneratorConfig::a_variant(0.0).generate();
        let solve = |workers: usize| {
            let tel = Telemetry::memory();
            let out =
                solve_decomposed_telemetry(&net, EvalConfig::default(), 10.0, 2, workers, &tel)
                    .expect("decomposition must stitch to feasibility");
            let span_counts: Vec<_> = tel
                .spans()
                .into_iter()
                .map(|(s, n, count, _total_us)| (s, n, count))
                .collect();
            (out, tel.counters(), span_counts)
        };
        let (base, base_counters, base_spans) = solve(1);
        for workers in [2, 4] {
            let (out, counters, spans) = solve(workers);
            assert_eq!(out.units, base.units, "workers={workers}");
            assert_eq!(out.cost, base.cost, "workers={workers}");
            assert_eq!(out.regions, base.regions, "workers={workers}");
            assert_eq!(counters, base_counters, "workers={workers}");
            assert_eq!(spans, base_spans, "workers={workers}");
        }
    }

    #[test]
    fn decomposed_solve_produces_a_valid_plan() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        let out = solve_decomposed(&net, EvalConfig::default(), 10.0, 2, 1)
            .expect("decomposition must stitch to feasibility");
        validate_plan(&net, &out.units).expect("decomposed plan validates");
        assert!(out.cost > 0.0);
        assert_eq!(out.regions, 2);
    }

    #[test]
    fn decomposition_is_no_better_than_the_global_view() {
        // The heuristic's whole point: regional myopia costs something
        // (or at best ties the global solve).
        let net = GeneratorConfig::a_variant(0.0).generate();
        let decomposed = solve_decomposed(&net, EvalConfig::default(), 10.0, 2, 1).unwrap();
        let mut evaluator = PlanEvaluator::new(&net, EvalConfig::default());
        let global = solve_master(
            &net,
            &mut evaluator,
            &MasterConfig {
                polish_final: true,
                ..MasterConfig::new(MasterConfig::spectrum_bounds(&net), 20_000, 60.0)
            },
        );
        assert!(global.has_plan());
        assert!(
            decomposed.cost >= global.cost - 1e-6,
            "regional decomposition ({}) cannot beat the global optimum ({})",
            decomposed.cost,
            global.cost
        );
    }

    /// A minimal valid planning instance whose only interesting content
    /// is the site positions: a fiber/link ring, no flows, no failures.
    fn positions_net(positions: &[(f64, f64)]) -> Network {
        use np_topology::{Fiber, FiberId, IpLink, Site};
        let n = positions.len();
        assert!(n >= 3, "ring construction needs >= 3 sites");
        let sites = positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| Site {
                name: format!("s{i}"),
                pos,
                is_datacenter: false,
            })
            .collect();
        let fibers = (0..n)
            .map(|i| {
                let j = (i + 1) % n;
                Fiber {
                    endpoints: (SiteId::new(i.min(j)), SiteId::new(i.max(j))),
                    length_km: 1.0,
                    spectrum_ghz: 4800.0,
                    build_cost: 1.0,
                }
            })
            .collect();
        let links = (0..n)
            .map(|i| {
                let j = (i + 1) % n;
                IpLink {
                    src: SiteId::new(i.min(j)),
                    dst: SiteId::new(i.max(j)),
                    fiber_path: vec![(FiberId::new(i), 1.0)],
                    capacity_units: 0,
                    min_units: 0,
                    length_km: 1.0,
                }
            })
            .collect();
        Network::new(
            sites,
            fibers,
            links,
            vec![],
            vec![],
            Default::default(),
            Default::default(),
            100.0,
        )
        .expect("ring instance is valid")
    }

    /// Positions with an exact centroid at the origin: every sampled
    /// point is paired with its reflection.
    fn symmetric_positions(polar: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(polar.len() * 2);
        for &(theta, r) in polar {
            let p = (r * theta.cos(), r * theta.sin());
            out.push(p);
            out.push((-p.0, -p.1));
        }
        out
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn regions_are_in_range_and_cover_0_to_k(
                polar in proptest::collection::vec((0.0f64..std::f64::consts::TAU, 0.5f64..10.0), 2..8),
                k in 1usize..9,
            ) {
                let net = positions_net(&symmetric_positions(&polar));
                let n = net.sites().len();
                let region = angular_regions(&net, k);
                let k_eff = k.clamp(1, n);
                prop_assert_eq!(region.len(), n);
                prop_assert!(region.iter().all(|&r| r < k_eff));
                // Non-empty for every region index when k <= n.
                if k <= n {
                    for r in 0..k_eff {
                        prop_assert!(
                            region.contains(&r),
                            "region {} empty with k={} n={}", r, k, n
                        );
                    }
                }
                // Contiguous angular sectors are balanced: sizes differ by
                // at most one.
                let mut sizes = vec![0usize; k_eff];
                for &r in &region {
                    sizes[r] += 1;
                }
                let (lo, hi) =
                    (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                prop_assert!(hi - lo <= 1, "unbalanced sizes {:?}", sizes);
            }

            #[test]
            fn assignment_ignores_radius_at_equal_angles(
                polar in proptest::collection::vec((0.0f64..std::f64::consts::TAU, 0.5f64..10.0), 2..6),
                theta in 0.0f64..std::f64::consts::TAU,
                (r1, r2) in (0.5f64..10.0, 0.5f64..10.0),
                k in 1usize..6,
            ) {
                // Two sites on the same ray from the centroid (equal
                // angular position, different radii), centroid pinned at
                // the origin by reflected partners. Swapping which site
                // carries which radius may reorder the tied sites in the
                // angular sort, so regions may permute *within* each
                // equal-angle pair — but never leak outside it: every
                // other site keeps its region and region sizes are
                // unchanged.
                let mut polar_a = polar.clone();
                polar_a.push((theta, r1));
                polar_a.push((theta, r2));
                let mut polar_b = polar;
                polar_b.push((theta, r2));
                polar_b.push((theta, r1));
                let net_a = positions_net(&symmetric_positions(&polar_a));
                let net_b = positions_net(&symmetric_positions(&polar_b));
                let ra = angular_regions(&net_a, k);
                let rb = angular_regions(&net_b, k);
                let n = ra.len();
                // symmetric_positions interleaves reflections: the added
                // pair sits at indices n-4 / n-2, its reflections (also an
                // equal-angle pair) at n-3 / n-1.
                for i in 0..n - 4 {
                    prop_assert_eq!(
                        ra[i], rb[i],
                        "site {} outside the tied pairs moved region", i
                    );
                }
                for pair in [[n - 4, n - 2], [n - 3, n - 1]] {
                    let mut a = [ra[pair[0]], ra[pair[1]]];
                    let mut b = [rb[pair[0]], rb[pair[1]]];
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b, "tied pair changed its region multiset");
                }
                let sizes = |r: &[usize]| {
                    let mut s = vec![0usize; k];
                    for &x in r {
                        s[x] += 1;
                    }
                    s
                };
                prop_assert_eq!(sizes(&ra), sizes(&rb), "region sizes changed");
            }

            #[test]
            fn assignment_is_deterministic(
                polar in proptest::collection::vec((0.0f64..std::f64::consts::TAU, 0.5f64..10.0), 2..8),
                k in 1usize..9,
            ) {
                let net = positions_net(&symmetric_positions(&polar));
                prop_assert_eq!(angular_regions(&net, k), angular_regions(&net, k));
            }
        }
    }

    #[test]
    fn region_extraction_keeps_only_interior_entities() {
        let net = GeneratorConfig::preset(TopologyPreset::B).generate();
        let region = angular_regions(&net, 2);
        let sub = extract_region(&net, &region, 0).expect("region 0 is non-trivial");
        // Every extracted link's endpoints are region-0 sites (indices
        // re-based), and the sub-instance validates.
        assert!(sub.net.links().len() < net.links().len());
        assert!(!sub.link_map.is_empty());
        for l in sub.net.link_ids() {
            let link = sub.net.link(l);
            assert!(link.src.index() < sub.net.sites().len());
            assert!(link.dst.index() < sub.net.sites().len());
        }
    }
}
