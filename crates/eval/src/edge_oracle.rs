//! The paper's evaluator LP verbatim (§5), kept as the test oracle of
//! the path-form LP the library solves: max concurrent flow in the
//! source-aggregated *edge* formulation — λ plus per-(source, arc) flows,
//! per-(source, node) conservation rows, per-arc capacity rows — solved
//! cold by [`np_lp::solve_lp`]. It shares the simplex with the library
//! path and nothing else: no columns are generated, no state persists.

use crate::scenario::ScenarioCtx;
use np_lp::{solve_lp, LpStatus, Model, Sense, SimplexConfig, VarId};

/// λ* of `ctx` under its current capacities, capped at `lambda_cap`.
pub(crate) fn edge_lp_lambda(ctx: &ScenarioCtx, lambda_cap: f64) -> f64 {
    let graph = &ctx.graph;
    let n = graph.num_nodes();
    let na = graph.num_arcs();
    let sources = ctx.sources();
    let mut model = Model::new("concurrent-flow-edge");
    let lambda = model.add_var("lambda", 0.0, lambda_cap, -1.0, false);
    // f[s][a] laid out source-major.
    let mut fvar = Vec::with_capacity(sources.len() * na);
    for si in 0..sources.len() {
        for a in 0..na {
            fvar.push(model.add_nonneg(format!("f{si}_{a}"), 0.0));
        }
    }
    // Net demand of source s at node v.
    let mut traffic = vec![vec![0.0f64; n]; sources.len()];
    for c in &ctx.commodities {
        let si = sources.binary_search(&c.src).expect("source listed");
        traffic[si][c.src] += c.demand;
        traffic[si][c.dst] -= c.demand;
    }
    for (si, net) in traffic.iter().enumerate() {
        for (v, &net_demand) in net.iter().enumerate() {
            let mut coeffs: Vec<(VarId, f64)> = Vec::new();
            for (a, arc) in graph.arcs().iter().enumerate() {
                if arc.from == v {
                    coeffs.push((fvar[si * na + a], 1.0));
                } else if arc.to == v {
                    coeffs.push((fvar[si * na + a], -1.0));
                }
            }
            coeffs.push((lambda, -net_demand));
            model.add_constr(format!("cons{si}_{v}"), coeffs, Sense::Eq, 0.0);
        }
    }
    for (a, arc) in graph.arcs().iter().enumerate() {
        let coeffs = (0..sources.len())
            .map(|si| (fvar[si * na + a], 1.0))
            .collect();
        model.add_constr(format!("cap{a}"), coeffs, Sense::Le, arc.cap);
    }
    let sol = solve_lp(&model, &SimplexConfig::default());
    assert_eq!(
        sol.status,
        LpStatus::Optimal,
        "the edge LP is always solvable"
    );
    sol.x[lambda.0]
}
