//! Property-based integration tests over randomly generated planning
//! instances: the invariants that hold for *every* network, not just the
//! calibrated presets.

use np_eval::{caps_of, EvalConfig, PlanEvaluator};
use np_flow::mwu::{max_concurrent_flow, MwuConfig};
use np_flow::{dinic, Commodity, FlowGraph};
use np_topology::generator::GeneratorConfig;
use np_topology::{transform, LinkId, TopologyPreset};
use proptest::prelude::*;

/// Small random generator configs (kept tiny so each case is fast).
fn small_config() -> impl Strategy<Value = GeneratorConfig> {
    (0u64..1000, 5usize..10, 0.0f64..1.0).prop_map(|(seed, sites, fill)| {
        let mut cfg = GeneratorConfig::preset(TopologyPreset::A);
        cfg.seed = seed;
        cfg.num_sites = sites;
        cfg.capacity_fill = fill;
        cfg.num_flows = 12;
        cfg.num_fiber_cuts = 4;
        cfg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Feasibility is monotone in capacity: if a plan passes, any plan
    /// with more capacity everywhere passes (the assumption behind the
    /// paper's add-only action space and stateful failure checking).
    #[test]
    fn feasibility_is_monotone_in_capacity(cfg in small_config(), extra in 1u32..5) {
        let net = cfg.generate();
        let mut evaluator = PlanEvaluator::new(&net, EvalConfig::default());
        // Scale capacities up until feasible (bounded loop).
        let mut caps = caps_of(&net);
        for _ in 0..64 {
            evaluator.reset();
            if evaluator.check(&caps).feasible {
                break;
            }
            for c in &mut caps {
                *c += 2.0 * net.unit_gbps;
            }
        }
        evaluator.reset();
        prop_assume!(evaluator.check(&caps).feasible);
        let bigger: Vec<f64> =
            caps.iter().map(|c| c + f64::from(extra) * net.unit_gbps).collect();
        let mut fresh = PlanEvaluator::new(&net, EvalConfig::default());
        prop_assert!(fresh.check(&bigger).feasible);
    }

    /// Every certificate the evaluator stores is a *valid inequality*:
    /// any capacity vector the exact evaluator accepts must satisfy it.
    #[test]
    fn certificates_never_cut_off_feasible_plans(cfg in small_config()) {
        let net = cfg.generate();
        let mut evaluator = PlanEvaluator::new(&net, EvalConfig::default());
        // Generate certificates by checking the empty plan.
        let zeros = vec![0.0; net.links().len()];
        let _ = evaluator.check(&zeros);
        let certs = evaluator.certificates();
        prop_assume!(!certs.is_empty());
        // A feasible plan (greedy-augmented network).
        let mut feas = net.clone();
        prop_assume!(neuroplan::greedy_augment(&mut feas, EvalConfig::default()).is_ok());
        let caps = caps_of(&feas);
        for cert in &certs {
            prop_assert!(
                !cert.is_violated(|l: LinkId| caps[l.index()]),
                "a feasible plan violated a stored certificate"
            );
        }
    }

    /// The node-link transformation preserves the structural facts the
    /// GCN relies on: node count = link count, symmetry, no parallel
    /// adjacency.
    #[test]
    fn transformation_invariants(cfg in small_config()) {
        let net = cfg.generate();
        let g = transform(&net);
        prop_assert_eq!(g.num_nodes(), net.links().len());
        for i in 0..g.num_nodes() {
            for &j in g.neighbors(i) {
                prop_assert!(g.neighbors(j).contains(&i), "asymmetric edge {}-{}", i, j);
                prop_assert!(
                    !net.links()[i].is_parallel_to(&net.links()[j]),
                    "parallel links {} and {} must not be adjacent", i, j
                );
            }
        }
    }

    /// MWU's λ never exceeds the single-commodity max-flow bound (an
    /// independent oracle): for a single commodity, λ·d ≤ maxflow.
    #[test]
    fn mwu_lambda_bounded_by_maxflow(
        caps in proptest::collection::vec(1.0f64..50.0, 4),
        demand in 1.0f64..100.0,
    ) {
        // Diamond 0→{1,2}→3 with random capacities.
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, caps[0], None);
        g.add_arc(0, 2, caps[1], None);
        g.add_arc(1, 3, caps[2], None);
        g.add_arc(2, 3, caps[3], None);
        let mf = dinic::max_flow(&g, 0, 3);
        prop_assume!(mf > 0.5);
        let cf = max_concurrent_flow(
            &g,
            &[Commodity::new(0, 3, demand)],
            &MwuConfig::default(),
        );
        prop_assert!(
            cf.lambda * demand <= mf * (1.0 + 1e-6),
            "lambda {} * demand {} exceeds maxflow {}", cf.lambda, demand, mf
        );
        // And MWU is not uselessly weak: it reaches at least half of the
        // max-flow bound (the theory guarantees (1-eps)^3 ≈ 0.6).
        prop_assert!(cf.lambda * demand >= mf * 0.5 - 1e-6);
    }

    /// Plan cost is exactly linear: cost(plan) = Σ added · unit_cost.
    #[test]
    fn plan_cost_linearity(cfg in small_config(), adds in proptest::collection::vec(0u32..4, 30)) {
        let mut net = cfg.generate();
        let mut expected = 0.0;
        for (k, &units) in adds.iter().enumerate() {
            let l = LinkId::new(k % net.links().len());
            if units > 0 && net.can_add_units(l, units) {
                expected += f64::from(units) * net.unit_cost(l);
                net.add_units(l, units).unwrap();
            }
        }
        prop_assert!((net.plan_cost() - expected).abs() < 1e-6);
    }
}
