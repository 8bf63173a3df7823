//! Criterion micro-benchmarks for the hot kernels behind the figures:
//! node-link transformation, Dijkstra, MWU concurrent flow, the exact
//! simplex, GCN forward/backward and full evaluator checks.

use criterion::{criterion_group, criterion_main, Criterion};
use np_eval::{CheckConfig, EvalConfig, PlanEvaluator, ScenarioCtx};
use np_flow::mwu::{max_concurrent_flow, MwuConfig};
use np_flow::{dijkstra, Commodity, FlowGraph};
use np_lp::{solve_lp, Model, Sense, SimplexConfig};
use np_neural::{Csr, Gcn, Matrix};
use np_topology::{generator::preset_network, transform, FailureId, TopologyPreset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_transform(c: &mut Criterion) {
    let net = preset_network(TopologyPreset::C);
    c.bench_function("node_link_transform_C", |b| b.iter(|| transform(&net)));
}

fn scenario_graph() -> (FlowGraph, Vec<Commodity>) {
    let net = preset_network(TopologyPreset::B);
    let mut g = FlowGraph::new(net.sites().len());
    for l in net.link_ids() {
        let link = net.link(l);
        g.add_link_arcs(link.src.index(), link.dst.index(), 400.0, l);
    }
    let commodities: Vec<Commodity> = net
        .flows()
        .iter()
        .map(|f| Commodity::new(f.src.index(), f.dst.index(), f.demand_gbps))
        .collect();
    (g, np_flow::commodity::merge_parallel(&commodities))
}

fn bench_dijkstra(c: &mut Criterion) {
    let (g, _) = scenario_graph();
    let lengths = vec![1.0; g.num_arcs()];
    c.bench_function("dijkstra_B", |b| {
        b.iter(|| dijkstra::shortest_paths(&g, 0, &lengths))
    });
}

fn bench_mwu(c: &mut Criterion) {
    let (g, commodities) = scenario_graph();
    c.bench_function("mwu_concurrent_flow_B", |b| {
        b.iter(|| max_concurrent_flow(&g, &commodities, &MwuConfig::default()))
    });
}

/// Preset C under its first failure, every link at its generated
/// capacity plus 200 Gbps: feasible, but only just past the coarse pass.
fn failure_scenario_c() -> ScenarioCtx {
    let net = preset_network(TopologyPreset::C);
    let mut ctx = ScenarioCtx::build(&net, Some(FailureId::new(0)), true);
    ctx.refresh(|l| net.capacity_gbps(l) + 200.0);
    ctx
}

fn bench_tree_c(c: &mut Criterion) {
    let ctx = failure_scenario_c();
    let g = ctx.graph.packed();
    let lengths: Vec<f64> = (0..g.arcs().len()).map(|p| 1.0 + (p % 7) as f64).collect();
    // The source with the most destinations, as the MWU would grow it.
    let (src, members) = np_flow::commodity::group_by_source(&ctx.commodities)
        .into_iter()
        .max_by_key(|(_, members)| members.len())
        .expect("demands");
    let dsts: Vec<usize> = members.iter().map(|&j| ctx.commodities[j].dst).collect();
    let mut tree = dijkstra::Tree::default();
    c.bench_function("tree_full_C", |b| {
        b.iter(|| tree.grow(g, src, [], |p| lengths[p]))
    });
    c.bench_function("tree_until_group_settles_C", |b| {
        b.iter(|| tree.grow(g, src, dsts.iter().copied(), |p| lengths[p]))
    });
    c.bench_function("tree_until_last_member_settles_C", |b| {
        b.iter(|| tree.grow(g, src, dsts.last().copied(), |p| lengths[p]))
    });
}

fn bench_mwu_c(c: &mut Criterion) {
    let ctx = failure_scenario_c();
    let check = CheckConfig::default();
    for (name, epsilon) in [("coarse", check.coarse_eps), ("fine", check.fine_eps)] {
        let cfg = MwuConfig {
            epsilon,
            target_lambda: Some(1.0),
            ..MwuConfig::default()
        };
        c.bench_function(&format!("mwu_{name}_C"), |b| {
            b.iter(|| max_concurrent_flow(&ctx.graph, &ctx.commodities, &cfg))
        });
    }
}

fn bench_simplex(c: &mut Criterion) {
    // A covering LP of roughly master-problem shape.
    let mut m = Model::new("bench");
    let vars: Vec<_> = (0..40)
        .map(|j| m.add_var(format!("x{j}"), 0.0, 50.0, 1.0 + j as f64 * 0.1, false))
        .collect();
    for i in 0..60 {
        let coeffs: Vec<_> = vars
            .iter()
            .enumerate()
            .filter(|(k, _)| (k + i) % 3 != 0)
            .map(|(k, &v)| (v, 1.0 + ((k * i) % 5) as f64 * 0.2))
            .collect();
        m.add_constr(format!("r{i}"), coeffs, Sense::Ge, 25.0 + i as f64);
    }
    c.bench_function("simplex_60x40_covering", |b| {
        b.iter(|| solve_lp(&m, &SimplexConfig::default()))
    });
}

fn bench_gcn(c: &mut Criterion) {
    let net = preset_network(TopologyPreset::C);
    let g = transform(&net);
    let adj = Csr::from_triples(g.num_nodes(), &g.normalized_adjacency());
    let mut rng = StdRng::seed_from_u64(0);
    let mut layer = Gcn::new(adj, 5, 64, &mut rng);
    let x = Matrix::kaiming(g.num_nodes(), 5, &mut rng);
    let ones = Matrix::from_vec(g.num_nodes(), 64, vec![1.0; g.num_nodes() * 64]);
    c.bench_function("gcn_forward_backward_C", |b| {
        b.iter(|| {
            layer.forward(&x);
            layer.backward(&ones)
        })
    });
}

fn bench_evaluator(c: &mut Criterion) {
    let net = preset_network(TopologyPreset::B);
    let caps: Vec<f64> = net
        .link_ids()
        .map(|l| net.capacity_gbps(l) + 300.0)
        .collect();
    c.bench_function("evaluator_full_check_B", |b| {
        b.iter(|| {
            let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
            ev.check(&caps)
        })
    });
    c.bench_function("evaluator_stateful_recheck_B", |b| {
        let mut ev = PlanEvaluator::new(&net, EvalConfig::default());
        ev.check(&caps);
        b.iter(|| ev.check(&caps))
    });
}

fn bench_separation(c: &mut Criterion) {
    // An underprovisioned plan: every scenario yields a cut, so the
    // round scans the full scenario set — the worst case the worker
    // pool is meant to split.
    let net = preset_network(TopologyPreset::B);
    let caps: Vec<f64> = net
        .link_ids()
        .map(|l| (net.capacity_gbps(l) + 1.0) * 0.2)
        .collect();
    for workers in [1usize, 4] {
        let cfg = EvalConfig {
            parallel_workers: workers,
            ..EvalConfig::default()
        };
        c.bench_function(&format!("evaluator_separate_B_{workers}w"), |b| {
            b.iter(|| {
                let mut ev = PlanEvaluator::new(&net, cfg);
                let max_cuts = ev.num_scenarios();
                ev.separate(&caps, max_cuts)
            })
        });
    }
}

criterion_group!(
    benches,
    bench_transform,
    bench_dijkstra,
    bench_mwu,
    bench_tree_c,
    bench_mwu_c,
    bench_simplex,
    bench_gcn,
    bench_evaluator,
    bench_separation
);
criterion_main!(benches);
