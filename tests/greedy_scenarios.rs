//! The greedy router with its arc lengths kept in a per-position array
//! against the loop it replaced (below, verbatim: every length computed
//! from the residual inside the shortest-path closure), on the graphs the
//! planner really checks: every failure scenario of presets A, B and C,
//! under the capacities a greedy plan ends on, under the network as
//! generated, and with every link dark. Flows and verdicts must agree bit
//! for bit, and the routing steps the router reports must add up to its
//! flow.

use neuroplan::greedy_augment;
use np_eval::scenario::build_all;
use np_eval::EvalConfig;
use np_flow::dijkstra::Tree;
use np_flow::greedy::{route, route_residual, GreedyRouting, PathStep};
use np_flow::{Commodity, FlowGraph};
use np_topology::{generator::preset_network, LinkId, TopologyPreset};

const EPS: f64 = 1e-9;

/// `np_flow::greedy::route_residual` as it was before the length array.
fn reference_route_residual(
    graph: &FlowGraph,
    commodities: &[Commodity],
    mut residual: Vec<f64>,
) -> GreedyRouting {
    let mut flow = vec![0.0; graph.num_arcs()];
    let mut order: Vec<&Commodity> = commodities.iter().collect();
    order.sort_by(|a, b| b.demand.partial_cmp(&a.demand).unwrap());
    let g = graph.packed();
    let mut tree = Tree::default();
    let mut path = Vec::new();
    let max_paths = 1 + graph.num_arcs() / 4;
    for c in order {
        let mut remaining = c.demand;
        let mut paths_used = 0usize;
        while remaining > EPS {
            if paths_used >= max_paths {
                return GreedyRouting {
                    feasible: false,
                    flow,
                };
            }
            paths_used += 1;
            tree.grow(g, c.src, [c.dst], |p| {
                let a = g.arc(p);
                if residual[a] > EPS {
                    1.0 + (graph.arc(a).cap / residual[a].max(EPS)).min(1e6) * 0.25
                } else {
                    f64::INFINITY
                }
            });
            if !tree.path_to(g, c.dst, &mut path) {
                return GreedyRouting {
                    feasible: false,
                    flow,
                };
            }
            let arcs = path.iter().map(|&p| g.arc(p as usize));
            let bottleneck = arcs
                .clone()
                .map(|a| residual[a])
                .fold(f64::INFINITY, f64::min);
            let send = remaining.min(bottleneck);
            for a in arcs {
                residual[a] -= send;
                flow[a] += send;
            }
            remaining -= send;
        }
    }
    GreedyRouting {
        feasible: true,
        flow,
    }
}

fn bits(flow: &[f64]) -> Vec<u64> {
    flow.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn greedy_is_bit_identical_to_the_reference_on_every_preset_scenario() {
    let (mut feasible, mut infeasible) = (0, 0);
    for preset in [TopologyPreset::A, TopologyPreset::B, TopologyPreset::C] {
        let initial = preset_network(preset);
        let mut planned = initial.clone();
        greedy_augment(&mut planned, EvalConfig::default()).expect("presets are plannable");
        let mut ctxs = build_all(&initial, true);
        let per_link = |cap: &dyn Fn(LinkId) -> f64| initial.link_ids().map(cap).collect();
        let capacities: [(&str, Vec<f64>); 3] = [
            ("greedy plan", per_link(&|l| planned.capacity_gbps(l))),
            ("as generated", per_link(&|l| initial.capacity_gbps(l))),
            ("all dark", per_link(&|_| 0.0)),
        ];
        for (name, caps) in &capacities {
            for (i, ctx) in ctxs.iter_mut().enumerate() {
                ctx.refresh(|l| caps[l.index()]);
                let what = format!("{preset:?} scenario {i}, {name}");
                let full: Vec<f64> = ctx.graph.arcs().iter().map(|a| a.cap).collect();
                let want = reference_route_residual(&ctx.graph, &ctx.commodities, full.clone());
                let got = route(&ctx.graph, &ctx.commodities);
                assert_eq!(got.feasible, want.feasible, "{what}");
                assert_eq!(bits(&got.flow), bits(&want.flow), "{what}");

                // The same routing with its steps reported: nothing moves,
                // and the steps sum to the flow in the order they were sent.
                let mut steps: Vec<PathStep> = Vec::new();
                let got = route_residual(&ctx.graph, &ctx.commodities, full, Some(&mut steps));
                assert_eq!(bits(&got.flow), bits(&want.flow), "{what}: with steps");
                let mut summed = vec![0.0; ctx.graph.num_arcs()];
                for step in &steps {
                    let c = ctx.commodities[step.commodity];
                    let (first, last) = (step.arcs[0], step.arcs[step.arcs.len() - 1]);
                    assert_eq!(ctx.graph.arc(first).from, c.src, "{what}");
                    assert_eq!(ctx.graph.arc(last).to, c.dst, "{what}");
                    for &a in &step.arcs {
                        summed[a] += step.amount;
                    }
                }
                assert_eq!(bits(&summed), bits(&got.flow), "{what}: steps");
                if got.feasible {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
}
