//! Path-flow witnesses: the evaluator's primal proofs in a form that a
//! checker sharing none of its code can verify (the plan certificates of
//! `neuroplan::certificate`).

use crate::checker::exact_lp_paths;
use crate::scenario::{build_all, ScenarioCtx};
use np_flow::greedy::{route_residual, PathStep};
use np_topology::{Network, PathFlow, SiteId};

/// For every scenario of `net` at its current capacities, in dense order
/// (0 = no failure), path flows that carry every active demand: the
/// greedy router's paths when it routes them all, otherwise the exact
/// path LP's flows when they reach `λ ≥ 1`. `None` when some scenario
/// has neither.
pub fn path_witness(net: &Network) -> Option<Vec<Vec<PathFlow>>> {
    let mut ctxs = build_all(net, true);
    let witness = |ctx: &mut ScenarioCtx| {
        ctx.refresh(|l| net.capacity_gbps(l));
        let caps = ctx.graph.arcs().iter().map(|a| a.cap).collect();
        let mut steps = Vec::new();
        let greedy = route_residual(&ctx.graph, &ctx.commodities, caps, Some(&mut steps));
        let steps = if greedy.feasible {
            steps
        } else {
            exact_lp_paths(ctx)?
        };
        Some(steps.into_iter().map(|s| path_flow(net, ctx, s)).collect())
    };
    ctxs.iter_mut().map(witness).collect()
}

/// A routing step over `ctx`'s arcs as a path over `net`'s links.
fn path_flow(net: &Network, ctx: &ScenarioCtx, step: PathStep) -> PathFlow {
    let c = &ctx.commodities[step.commodity];
    let hop = |&a: &usize| {
        let link = ctx.arc_link[a];
        (link, ctx.graph.arc(a).from == net.link(link).src.index())
    };
    PathFlow {
        src: SiteId::new(c.src),
        dst: SiteId::new(c.dst),
        amount: step.amount,
        links: step.arcs.iter().map(hop).collect(),
    }
}
