//! Single-scenario feasibility verdicts.
//!
//! Implements the escalation pipeline described in the crate docs. Every
//! returned [`Verdict::Infeasible`] carries an exactly-verified metric cut
//! when one could be extracted; [`Verdict::Feasible`] is always backed by
//! a primal witness (greedy or MWU flow) or the exact LP.

use crate::scenario::ScenarioCtx;
use crate::stats::EvalStats;
use np_flow::commodity::group_by_source;
use np_flow::dijkstra::Tree;
use np_flow::metric::{extract_cut, MetricCut, VIOLATION_TOL};
use np_flow::mwu::{max_concurrent_flow, MwuConfig};
use np_flow::{greedy, ArcId, Commodity};
use np_lp::{ConstrId, IncrementalLp, LpStatus, Model, Sense, SimplexConfig, VarId};

/// Configuration of the verdict pipeline: degree cuts → stored witness,
/// reused or repaired → greedy → node cuts → MWU coarse → MWU fine → exact
/// LP, where a scenario whose exact LP has answered since its last
/// perturbation skips the fine pass and re-solves the LP warm.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// ε for the first (cheap) MWU pass.
    pub coarse_eps: f64,
    /// ε for the second (precise) MWU pass.
    pub fine_eps: f64,
    /// Whether the pipeline may escalate to the exact LP. The RL inner
    /// loop turns this off (conservative "infeasible" on the rare
    /// boundary-inconclusive checks is fine there and the LP is the one
    /// expensive stage: an uncertified `λ < 1` after the fine pass is then
    /// reported infeasible, a documented approximation); the Benders
    /// separator always forces it on.
    pub allow_exact_lp: bool,
    /// Whether node cuts are tried where an MWU pass would run: first the
    /// node cuts rounded from unit and from inverse-capacity lengths, before
    /// the coarse pass, then the one rounded from a coarse miss's lengths,
    /// before the fine pass. Each ends the check when [`extract_cut`]
    /// verifies it (DESIGN.md §17, "Rounding"). No verdict depends on it,
    /// only which cut an infeasible one carries. On for the RL walk and the
    /// separator; `greedy_augment` turns it off, because its cuts'
    /// coefficients choose what it buys.
    pub round_node_cuts: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            coarse_eps: 0.25,
            fine_eps: 0.12,
            allow_exact_lp: true,
            round_node_cuts: true,
        }
    }
}

/// Outcome of one scenario check.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// All demands routable within capacities.
    Feasible,
    /// Not routable; carries an exactly-violated metric cut when one was
    /// extracted (the Benders separator needs it, the RL reward does not).
    Infeasible(Option<MetricCut>),
    /// Some demand's endpoints are disconnected in the surviving topology
    /// — no amount of capacity fixes this scenario.
    StructurallyInfeasible,
}

impl Verdict {
    /// Whether the scenario passed.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible)
    }
}

/// Check one scenario whose context has already been
/// [refreshed](ScenarioCtx::refresh) with current capacities.
pub fn check_scenario(ctx: &ScenarioCtx, cfg: &CheckConfig, stats: &mut EvalStats) -> Verdict {
    stats.scenario_checks += 1;
    if ctx.commodities.is_empty() {
        return Verdict::Feasible;
    }
    if !ctx.connected {
        return Verdict::StructurallyInfeasible;
    }
    if let Some(v) = degree_cut_verdict(ctx, stats) {
        return v;
    }
    if witness_fits_or_repairs(ctx, stats) {
        return Verdict::Feasible;
    }
    stats.greedy_attempts += 1;
    let r = timed(&mut stats.greedy_us, || {
        greedy::route(&ctx.graph, &ctx.commodities)
    });
    if r.feasible {
        stats.greedy_hits += 1;
        ctx.proofs.borrow_mut().witness = Some(r.flow);
        return Verdict::Feasible;
    }
    mwu_verdict(ctx, cfg, stats)
}

/// Re-validate this scenario's stored witness flow against the current
/// capacities: demands are fixed, so a flow that routed them all is still
/// a feasibility proof whenever every arc still covers it. The positive
/// twin of the evaluator's metric-cut certificate reuse. A witness that no
/// longer fits is repaired on a copy ([`greedy::repair`], timed as greedy
/// work), which replaces it only when every overflow detoured.
fn witness_fits_or_repairs(ctx: &ScenarioCtx, stats: &mut EvalStats) -> bool {
    let mut proofs = ctx.proofs.borrow_mut();
    let Some(flow) = &proofs.witness else {
        return false;
    };
    let fits = ctx
        .graph
        .arcs()
        .iter()
        .zip(flow)
        .all(|(arc, &f)| f <= arc.cap + 1e-9);
    if fits {
        stats.witness_reuse_hits += 1;
        return true;
    }
    let mut repaired = flow.clone();
    let fixed = timed(&mut stats.greedy_us, || {
        greedy::repair(&ctx.graph, &mut repaired)
    });
    if fixed {
        stats.witness_repairs += 1;
        proofs.witness = Some(repaired);
    }
    fixed
}

/// Cheap necessary condition: the demand leaving (entering) a node cannot
/// exceed its out (in) capacity. On violation, builds the corresponding
/// node metric cut.
fn degree_cut_verdict(ctx: &ScenarioCtx, stats: &mut EvalStats) -> Option<Verdict> {
    let n = ctx.graph.num_nodes();
    let mut out_demand = vec![0.0f64; n];
    let mut in_demand = vec![0.0f64; n];
    for c in &ctx.commodities {
        out_demand[c.src] += c.demand;
        in_demand[c.dst] += c.demand;
    }
    let mut in_cap = vec![0.0f64; n];
    let mut out_cap = vec![0.0f64; n];
    for arc in ctx.graph.arcs() {
        out_cap[arc.from] += arc.cap;
        in_cap[arc.to] += arc.cap;
    }
    for v in 0..n {
        let out_short = out_demand[v] > out_cap[v] + 1e-9;
        let in_short = in_demand[v] > in_cap[v] + 1e-9;
        if !(out_short || in_short) {
            continue;
        }
        stats.degree_cut_hits += 1;
        // Unit lengths on the violated side's arcs yield the node cut.
        let lengths: Vec<f64> = ctx
            .graph
            .arcs()
            .iter()
            .map(|a| {
                let hit = (out_short && a.from == v) || (in_short && a.to == v);
                if hit {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let cut = extract_cut(&ctx.graph, &ctx.commodities, &lengths);
        return Some(Verdict::Infeasible(cut));
    }
    None
}

fn mwu_verdict(ctx: &ScenarioCtx, cfg: &CheckConfig, stats: &mut EvalStats) -> Verdict {
    // A node cut violated under hop counts or under inverse capacities
    // answers without any MWU phase; a zero-capacity arc is absent in both.
    if cfg.round_node_cuts {
        let arcs = ctx.graph.arcs();
        let unit = arcs
            .iter()
            .map(|a| if a.cap > 0.0 { 1.0 } else { f64::INFINITY });
        let inverse = arcs.iter().map(|a| 1.0 / a.cap);
        for lengths in [unit.collect::<Vec<f64>>(), inverse.collect()] {
            if let Some(cut) = rounded_node_cut(ctx, &lengths) {
                stats.rounded_cuts += 1;
                return Verdict::Infeasible(Some(cut));
            }
        }
    }
    for (pass, eps) in [(0, cfg.coarse_eps), (1, cfg.fine_eps)] {
        stats.mwu_calls += 1;
        let cf = timed(&mut stats.mwu_us, || {
            max_concurrent_flow(
                &ctx.graph,
                &ctx.commodities,
                &MwuConfig {
                    epsilon: eps,
                    // Only "λ ≥ 1?" matters here; skip the tail phases a
                    // full run would spend sharpening λ past the threshold.
                    target_lambda: Some(1.0),
                    ..Default::default()
                },
            )
        });
        stats.mwu_phases += cf.phases;
        stats.mwu_trees += cf.trees;
        stats.mwu_routings += cf.routings;
        if cf.is_feasible() {
            // λ ≥ 1: the scaled flow over-routes every demand and is
            // capacity-feasible — keep it as the reusable witness.
            ctx.proofs.borrow_mut().witness = Some(cf.flow);
            return Verdict::Feasible;
        }
        if let Some(cut) = extract_cut(&ctx.graph, &ctx.commodities, &cf.lengths) {
            return Verdict::Infeasible(Some(cut));
        }
        // λ < 1 without a verified cut usually means a tight-but-feasible
        // instance. Before escalating, try to *complete* the MWU flow: it
        // is capacity-feasible and delivers `routed[j]` of commodity j,
        // so greedily routing the residual demands in the residual
        // capacities yields an exact combined witness when it fits.
        if mwu_completion_feasible(ctx, &cf, stats) {
            return Verdict::Feasible;
        }
        // A restricted master that has already answered re-solves warm
        // in a few pivots, cheaper than the fine pass; a cold build is
        // dearer than one, so without such an LP the fine pass runs.
        if pass == 0 && cfg.allow_exact_lp && has_warm_lp(ctx) {
            stats.fine_passes_skipped += 1;
            break;
        }
        // Before the fine pass, the coarse lengths are rounded to a node
        // cut: a verified one exists only on an infeasible scenario, so
        // neither the fine pass nor the LP could have answered otherwise
        // (DESIGN.md §17, "Rounding").
        if pass == 0 && cfg.round_node_cuts {
            if let Some(cut) = rounded_node_cut(ctx, &cf.lengths) {
                stats.rounded_cuts += 1;
                return Verdict::Infeasible(Some(cut));
            }
        }
        // Only trust an uncertified λ < 1 on the last pass of a walk
        // that may not reach the LP.
        if pass == 1 && !cfg.allow_exact_lp {
            return Verdict::Infeasible(None);
        }
    }
    timed_exact_lp(ctx, stats)
}

/// Whether `ctx` holds a path LP built for its graph that has answered
/// since the scenario was last perturbed (DESIGN.md §17, "Escalation").
fn has_warm_lp(ctx: &ScenarioCtx) -> bool {
    let proofs = ctx.proofs.borrow();
    proofs.lp.as_ref().is_some_and(|p| p.warm && p.fits(ctx))
}

/// The first violated node cut along `lengths`: per commodity source, in
/// first-seen order, the nodes ordered by distance from it (the
/// shortest-path kernel's settle order: ascending distance, the larger id
/// first among equals) and each proper prefix `S` taken as a node set.
/// An arc or demand `u → w` crosses `S` outward exactly for the prefix
/// sizes `rank[u] < k ≤ rank[w]`, so one difference array per side gives
/// every prefix's crossing capacity and demand in one sweep. The first
/// prefix whose demand exceeds its capacity is returned once
/// [`extract_cut`] verifies the cut of unit lengths on its outgoing arcs.
fn rounded_node_cut(ctx: &ScenarioCtx, lengths: &[f64]) -> Option<MetricCut> {
    let n = ctx.graph.num_nodes();
    let g = ctx.graph.packed();
    let mut tree = Tree::default();
    let mut seen = vec![false; n];
    let mut order: Vec<usize> = (0..n).collect();
    let mut rank = vec![0usize; n];
    let mut cap = vec![0.0f64; n + 1];
    let mut demand = vec![0.0f64; n + 1];
    for c in &ctx.commodities {
        if std::mem::replace(&mut seen[c.src], true) {
            continue;
        }
        tree.grow(g, c.src, [], |p| lengths[g.arc(p)]);
        order.sort_unstable_by(|&u, &v| tree.dist(u).total_cmp(&tree.dist(v)).then(v.cmp(&u)));
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r;
        }
        cap.fill(0.0);
        demand.fill(0.0);
        let spread = |diff: &mut [f64], u: usize, w: usize, x: f64| {
            if rank[u] < rank[w] {
                diff[rank[u] + 1] += x;
                diff[rank[w] + 1] -= x;
            }
        };
        for arc in ctx.graph.arcs() {
            spread(&mut cap, arc.from, arc.to, arc.cap);
        }
        for d in &ctx.commodities {
            spread(&mut demand, d.src, d.dst, d.demand);
        }
        let (mut out_cap, mut out_demand) = (0.0, 0.0);
        for k in 1..n {
            out_cap += cap[k];
            out_demand += demand[k];
            if out_cap >= out_demand - VIOLATION_TOL * out_demand.max(1.0) {
                continue;
            }
            let unit: Vec<f64> = ctx
                .graph
                .arcs()
                .iter()
                .map(|a| f64::from(u8::from(rank[a.from] < k && rank[a.to] >= k)))
                .collect();
            if let Some(cut) = extract_cut(&ctx.graph, &ctx.commodities, &unit) {
                return Some(cut);
            }
        }
    }
    None
}

/// Try to turn a sub-threshold MWU flow into an exact feasibility witness
/// by greedy-routing each commodity's unrouted remainder within the
/// capacities the MWU flow left behind.
fn mwu_completion_feasible(
    ctx: &ScenarioCtx,
    cf: &np_flow::mwu::ConcurrentFlow,
    stats: &mut EvalStats,
) -> bool {
    if cf.disconnected {
        return false;
    }
    const EPS: f64 = 1e-9;
    let residual: Vec<f64> = ctx
        .graph
        .arcs()
        .iter()
        .enumerate()
        .map(|(a, arc)| (arc.cap - cf.flow[a]).max(0.0))
        .collect();
    let leftovers: Vec<Commodity> = ctx
        .commodities
        .iter()
        .zip(&cf.routed)
        .filter(|(c, &r)| c.demand - r > EPS)
        .map(|(c, &r)| Commodity::new(c.src, c.dst, c.demand - r))
        .collect();
    if leftovers.is_empty() {
        ctx.proofs.borrow_mut().witness = Some(cf.flow.clone());
        return true;
    }
    stats.greedy_attempts += 1;
    let r = timed(&mut stats.greedy_us, || {
        greedy::route_residual(&ctx.graph, &leftovers, residual, None)
    });
    if r.feasible {
        stats.greedy_hits += 1;
        // MWU base + greedy top-up routes every demand within capacity.
        let combined: Vec<f64> = cf.flow.iter().zip(&r.flow).map(|(a, b)| a + b).collect();
        ctx.proofs.borrow_mut().witness = Some(combined);
    }
    r.feasible
}

/// `f()`, its wall microseconds added to `us` when profiling is on: the
/// stage times that [`EvalStats`] carries as spans, never counters.
fn timed<T>(us: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = np_telemetry::profiling().then(std::time::Instant::now);
    let out = f();
    if let Some(t0) = t0 {
        *us += t0.elapsed().as_micros() as u64;
    }
    out
}

/// The exact LP stage of the pipeline: [`exact_lp`] with its wall time
/// charged to [`EvalStats::exact_lp_us`] when profiling is on.
fn timed_exact_lp(ctx: &ScenarioCtx, stats: &mut EvalStats) -> Verdict {
    stats.lp_calls += 1;
    let t0 = np_telemetry::profiling().then(std::time::Instant::now);
    let v = exact_lp(ctx, stats);
    if let Some(t0) = t0 {
        stats.exact_lp_us += t0.elapsed().as_micros() as u64;
    }
    v
}

/// λ is capped here: we only care whether it reaches 1, and the cap keeps
/// the LP bounded when capacity is abundant.
const LAMBDA_CAP: f64 = 2.0;

/// A path enters the restricted master when its length undercuts its
/// commodity's dual by more than this — the simplex's own reduced-cost
/// tolerance, below which it would not pivot the column in anyway.
const PRICE_TOL: f64 = 1e-7;

/// One scenario's persistent restricted master of the path-form
/// max-concurrent-flow LP (DESIGN.md §17): variable 0 is λ, every other
/// variable one generated path; rows `0..k` are the commodities
/// (`Σ_p x_p − d_j·λ ≥ 0`), rows `k..k+arcs` the capacities
/// (`Σ_{p∋a} x_p ≤ cap_a`). A path is a path under any capacity vector
/// and any demand, so the pool and the optimal basis carry over from
/// check to check and across perturbations that keep the arc set.
#[derive(Clone, Debug)]
pub(crate) struct PathLp {
    pub(crate) lp: IncrementalLp,
    /// Commodity indices sharing a source, in first-seen order: pricing
    /// grows one shortest-path tree per group (source aggregation).
    groups: Vec<(usize, Vec<usize>)>,
    /// The pricing rounds' shortest-path scratch.
    tree: Tree,
    /// The generated paths as `(commodity, arcs)`, aligned with variables
    /// `1..`. A path that is already a column never enters again, so
    /// every pricing round either grows the pool or ends the loop.
    pool: Vec<(usize, Vec<ArcId>)>,
    /// Whether this master has answered since its scenario was last
    /// perturbed. Only then may it stand in for the fine MWU pass: a
    /// replan resumed at an event boundary starts from fresh contexts, and
    /// what a context carries across an event is in no checkpoint.
    pub(crate) warm: bool,
}

const LAMBDA: VarId = VarId(0);

impl PathLp {
    fn build(ctx: &ScenarioCtx) -> PathLp {
        let mut model = Model::new("concurrent-flow");
        // Minimizing −D·λ (D the total demand) instead of −λ scales the
        // commodity duals to average 1, so the simplex's absolute
        // reduced-cost tolerance is a relative one on λ.
        model.add_var("", 0.0, LAMBDA_CAP, -ctx.total_demand().max(1.0), false);
        for c in &ctx.commodities {
            model.add_constr("", vec![(LAMBDA, -c.demand)], Sense::Ge, 0.0);
        }
        for arc in ctx.graph.arcs() {
            model.add_constr("", Vec::new(), Sense::Le, arc.cap);
        }
        PathLp {
            lp: IncrementalLp::new(model, SimplexConfig::default()),
            groups: group_by_source(&ctx.commodities),
            tree: Tree::default(),
            pool: Vec::new(),
            warm: false,
        }
    }

    /// Whether this master was built for `ctx`'s graph and commodities
    /// (contexts are plain data, so a stored one may not be).
    fn fits(&self, ctx: &ScenarioCtx) -> bool {
        self.lp.num_rows() == ctx.commodities.len() + ctx.graph.num_arcs()
    }

    /// Add every path that prices out: per source one shortest-path tree
    /// under `lengths`, per commodity the tree path if it is shorter than
    /// the commodity's dual `w[j]` by more than `tol`. Returns how many
    /// entered.
    fn price(&mut self, ctx: &ScenarioCtx, lengths: &[f64], w: &[f64], tol: f64) -> u64 {
        let k = ctx.commodities.len();
        let g = ctx.graph.packed();
        let mut positions = Vec::new();
        let mut added = 0;
        for (src, members) in &self.groups {
            self.tree.grow(g, *src, [], |p| lengths[g.arc(p)]);
            for &j in members {
                let dst = ctx.commodities[j].dst;
                if !(self.tree.dist(dst) < w[j] - tol && self.tree.path_to(g, dst, &mut positions))
                {
                    continue;
                }
                let path = || positions.iter().map(|&p| g.arc(p as usize));
                if self
                    .pool
                    .iter()
                    .any(|(c, p)| *c == j && p.iter().copied().eq(path()))
                {
                    continue; // inside the simplex's tolerance of its dual
                }
                let mut entries = vec![(ConstrId(j), 1.0)];
                entries.extend(path().map(|a| (ConstrId(k + a), 1.0)));
                self.lp.add_col("", 0.0, f64::INFINITY, 0.0, &entries);
                self.pool.push((j, path().collect()));
                added += 1;
            }
        }
        added
    }
}

/// Exact max concurrent flow in path form by column generation
/// (DESIGN.md §17). `λ < 1` with duals that do not verify as a violated
/// metric inequality means broken stored state: pool and basis are
/// dropped and the scenario solved once more from nothing with exact
/// pricing (tolerance 0) before `Infeasible(None)` is reported.
fn exact_lp(ctx: &ScenarioCtx, stats: &mut EvalStats) -> Verdict {
    let v = column_generation(ctx, stats, PRICE_TOL);
    if !matches!(v, Verdict::Infeasible(None)) {
        return v;
    }
    stats.lp_cold_retries += 1;
    ctx.proofs.borrow_mut().lp = None;
    column_generation(ctx, stats, 0.0)
}

/// Patch the scenario's restricted master to the context's capacities
/// and demands (building and seeding it on first use), then solve and
/// price until no path undercuts its commodity's dual by more than `tol`.
/// `λ ≥ 1 − 1e-7` is feasible (a `λ ≥ 1` primal is kept as the witness);
/// otherwise the capacity duals are the lengths of the cut.
fn column_generation(ctx: &ScenarioCtx, stats: &mut EvalStats, tol: f64) -> Verdict {
    let k = ctx.commodities.len();
    let na = ctx.graph.num_arcs();
    let mut proofs = ctx.proofs.borrow_mut();
    let proofs = &mut *proofs;
    let slot = &mut proofs.lp;
    if slot.as_ref().is_some_and(|p| !p.fits(ctx)) {
        *slot = None;
    }
    let fresh = slot.is_none();
    let plp = slot.get_or_insert_with(|| PathLp::build(ctx));
    plp.warm = true;
    if fresh {
        stats.lp_cold_builds += 1;
        // Seed with each commodity's fewest-hop path.
        stats.lp_columns += plp.price(ctx, &vec![1.0; na], &vec![f64::INFINITY; k], tol);
    } else {
        for (j, c) in ctx.commodities.iter().enumerate() {
            plp.lp.set_coeff(ConstrId(j), LAMBDA, -c.demand);
        }
        for (a, arc) in ctx.graph.arcs().iter().enumerate() {
            plp.lp.set_rhs(ConstrId(k + a), arc.cap);
        }
    }
    let (sol, lengths) = loop {
        let sol = plp.lp.solve();
        stats.lp_pricing_rounds += 1;
        if sol.status != LpStatus::Optimal {
            // The restricted master is always feasible (λ = 0, x = 0) and
            // bounded (λ ≤ cap): anything else is a numerical breakdown.
            return Verdict::Infeasible(None);
        }
        let lengths: Vec<f64> = sol.duals[k..].iter().map(|y| y.abs()).collect();
        let added = plp.price(ctx, &lengths, &sol.duals[..k], tol);
        stats.lp_columns += added;
        if added == 0 {
            break (sol, lengths);
        }
    };
    let lam = sol.x[LAMBDA.0];
    if lam >= 1.0 - 1e-7 {
        if lam >= 1.0 {
            // The path flows route λ·d_j ≥ d_j within capacity; summed
            // per arc they are the witness.
            let mut flow = vec![0.0; na];
            for ((_, path), &x) in plp.pool.iter().zip(&sol.x[1..]) {
                for &a in path {
                    flow[a] += x;
                }
            }
            proofs.witness = Some(flow);
        }
        return Verdict::Feasible;
    }
    Verdict::Infeasible(extract_cut(&ctx.graph, &ctx.commodities, &lengths))
}

/// The exact LP on its own, outside the escalation pipeline, for a
/// context already [refreshed](ScenarioCtx::refresh), without touching
/// any counters.
pub fn exact_lp_verdict(ctx: &ScenarioCtx) -> Verdict {
    exact_lp(ctx, &mut EvalStats::default())
}

/// The exact LP's primal as path flows — every generated path with
/// positive flow, `x` of it — when it routes `λ ≥ 1` of every demand;
/// `None` otherwise. For a context already
/// [refreshed](ScenarioCtx::refresh), without touching any counters.
pub(crate) fn exact_lp_paths(ctx: &ScenarioCtx) -> Option<Vec<greedy::PathStep>> {
    if !exact_lp_verdict(ctx).is_feasible() {
        return None;
    }
    let mut proofs = ctx.proofs.borrow_mut();
    let plp = proofs.lp.as_mut()?;
    // The converged restricted master: a warm re-solve pivots nothing.
    let sol = plp.lp.solve();
    if sol.status != LpStatus::Optimal || sol.x[LAMBDA.0] < 1.0 {
        return None;
    }
    let paths = plp.pool.iter().zip(&sol.x[1..]).filter(|(_, &x)| x > 0.0);
    let step = |((commodity, arcs), &amount): (&(usize, Vec<ArcId>), &f64)| greedy::PathStep {
        commodity: *commodity,
        amount,
        arcs: arcs.clone(),
    };
    Some(paths.map(step).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::ScenarioCtx;
    use np_flow::FlowGraph;
    use np_topology::{
        generator::{preset_network, GeneratorConfig},
        LinkId, Network, TopologyPreset,
    };

    fn ctx_with_caps(net: &Network, fill: impl Fn(LinkId) -> f64) -> ScenarioCtx {
        let mut ctx = ScenarioCtx::build(net, None, true);
        ctx.refresh(fill);
        ctx
    }

    fn stats() -> EvalStats {
        EvalStats::default()
    }

    /// What the separator's walk, the RL walk (never the exact LP) and
    /// the exact LP alone answer on `ctx`, in that order.
    fn verdicts(ctx: &ScenarioCtx) -> [(&'static str, Verdict); 3] {
        let rl = CheckConfig {
            allow_exact_lp: false,
            ..Default::default()
        };
        [
            (
                "separator",
                check_scenario(ctx, &CheckConfig::default(), &mut stats()),
            ),
            ("RL walk", check_scenario(ctx, &rl, &mut stats())),
            ("exact LP", exact_lp_verdict(ctx)),
        ]
    }

    #[test]
    fn generous_capacity_is_feasible_on_all_backends() {
        let net = preset_network(TopologyPreset::A);
        let ctx = ctx_with_caps(&net, |_| 1e6);
        for (walk, v) in verdicts(&ctx) {
            assert!(v.is_feasible(), "{walk} must accept abundant capacity");
        }
    }

    #[test]
    fn zero_capacity_is_infeasible_on_all_backends() {
        let net = preset_network(TopologyPreset::A);
        let ctx = ctx_with_caps(&net, |_| 0.0);
        for (walk, v) in verdicts(&ctx) {
            assert!(!v.is_feasible(), "{walk} must reject zero capacity");
        }
    }

    #[test]
    fn auto_and_exact_agree_on_borderline_plans() {
        // Scale capacities between clearly-infeasible and clearly-feasible
        // and require the full walk to agree with the exact LP everywhere
        // except (allowed, conservative) disagreement in the approximate
        // band.
        let net = GeneratorConfig::a_variant(1.0).generate();
        let auto = CheckConfig::default();
        for scale in [0.2, 0.6, 1.5, 3.0] {
            let caps = |l: LinkId| net.capacity_gbps(l) * scale + 1.0;
            let ctx = ctx_with_caps(&net, caps);
            let va = check_scenario(&ctx, &auto, &mut stats());
            let ve = exact_lp_verdict(&ctx);
            if ve.is_feasible() {
                // The walk may only be conservative, never wrong: a
                // *verified* violated cut on a feasible instance is a
                // contradiction.
                if let Verdict::Infeasible(Some(cut)) = &va {
                    assert!(
                        !cut.is_violated(caps),
                        "the walk produced a 'violated' cut on a feasible plan (scale {scale})"
                    );
                }
            } else {
                assert!(
                    !va.is_feasible(),
                    "the walk claimed feasible where the exact LP refutes it (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn infeasible_verdicts_carry_verified_cuts() {
        let net = GeneratorConfig::a_variant(0.0).generate();
        // All links dark: plainly infeasible; the degree cut should fire.
        let ctx = ctx_with_caps(&net, |_| 0.0);
        let mut st = stats();
        let v = check_scenario(&ctx, &CheckConfig::default(), &mut st);
        let Verdict::Infeasible(Some(cut)) = v else {
            panic!("expected an infeasible verdict with a cut, got {v:?}");
        };
        assert!(cut.is_violated(|_| 0.0));
        assert!(
            st.degree_cut_hits > 0,
            "the degree shortcut should have fired"
        );
    }

    #[test]
    fn structural_disconnection_detected() {
        // Preset A's commodities over a graph with no arcs at all.
        let net = preset_network(TopologyPreset::A);
        let built = ScenarioCtx::build(&net, None, true);
        let empty = FlowGraph::new(net.sites().len());
        let ctx = ScenarioCtx::from_parts(None, empty, Vec::new(), built.commodities);
        let v = check_scenario(&ctx, &CheckConfig::default(), &mut stats());
        assert!(matches!(v, Verdict::StructurallyInfeasible));
    }

    #[test]
    fn exact_lp_lambda_threshold_is_sharp() {
        // Single link, one commodity: feasible iff cap >= demand.
        let toy = |demand: f64| {
            let mut graph = FlowGraph::new(2);
            graph.add_link_arcs(0, 1, 100.0, LinkId::new(0));
            let demands = vec![Commodity::new(0, 1, demand)];
            ScenarioCtx::from_parts(None, graph, vec![LinkId::new(0); 2], demands)
        };
        assert!(exact_lp_verdict(&toy(99.0)).is_feasible());
        let v = exact_lp_verdict(&toy(101.0));
        assert!(!v.is_feasible());
        let Verdict::Infeasible(Some(cut)) = v else {
            panic!("exact LP must certify infeasibility with a cut");
        };
        assert!(cut.is_violated(|_| 100.0));
        assert!(!cut.is_violated(|_| 101.0));
    }

    /// λ of the persistent path LP as `exact_lp_verdict` left it (a warm
    /// re-solve of the converged restricted master pivots nothing).
    fn path_lp_lambda(ctx: &ScenarioCtx) -> f64 {
        let mut proofs = ctx.proofs.borrow_mut();
        proofs.lp.as_mut().expect("exact LP ran").lp.solve().x[LAMBDA.0]
    }

    /// The three promises of the exact oracle on one refreshed context:
    /// λ equals the verbatim edge LP's, an infeasible verdict carries a
    /// violated cut, a `λ ≥ 1` verdict stores a witness that fits.
    fn assert_exact_oracle_contract(ctx: &ScenarioCtx, what: &str) {
        ctx.proofs.borrow_mut().witness = None;
        let verdict = exact_lp_verdict(ctx);
        let lam = path_lp_lambda(ctx);
        let edge = crate::edge_oracle::edge_lp_lambda(ctx, LAMBDA_CAP);
        assert!(
            (lam - edge).abs() <= 1e-7,
            "{what}: path λ {lam} vs edge λ {edge}"
        );
        let cap_of = |l: LinkId| {
            let a = ctx.arc_link.iter().position(|&x| x == l).expect("tagged");
            ctx.graph.arc(a).cap
        };
        match verdict {
            Verdict::Feasible => {
                assert!(lam >= 1.0 - 1e-7, "{what}: feasible at λ {lam}");
                let proofs = ctx.proofs.borrow();
                let witness = &proofs.witness;
                assert_eq!(witness.is_some(), lam >= 1.0, "{what}: witness iff λ ≥ 1");
                for (arc, f) in ctx.graph.arcs().iter().zip(witness.iter().flatten()) {
                    assert!(*f <= arc.cap + 1e-9, "{what}: witness overflows an arc");
                }
            }
            Verdict::Infeasible(cut) => {
                assert!(lam < 1.0 - 1e-7, "{what}: infeasible at λ {lam}");
                if lam < 1.0 - 1e-5 {
                    let cut = cut.unwrap_or_else(|| panic!("{what}: no cut at λ {lam}"));
                    assert!(cut.is_violated(cap_of), "{what}: cut not violated");
                }
            }
            Verdict::StructurallyInfeasible => panic!("{what}: the LP never says structural"),
        }
    }

    /// The smallest uniform per-link capacity (to 1e-3) at which every
    /// scenario of `net` is feasible: scaled around 1, it puts the
    /// binding scenarios on both sides of the λ = 1 threshold.
    fn boundary_capacity(net: &Network) -> f64 {
        let mut ev = crate::PlanEvaluator::new(net, crate::EvalConfig::default());
        let (mut lo, mut hi) = (0.0f64, 1e6f64);
        while hi - lo > 1e-3 {
            let mid = 0.5 * (lo + hi);
            ev.reset();
            if ev.check(&vec![mid; net.links().len()]).feasible {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn path_lp_matches_the_edge_lp_on_preset_scenarios() {
        for preset in [TopologyPreset::A, TopologyPreset::B] {
            let net = preset_network(preset);
            let base = boundary_capacity(&net);
            // One context per scenario, carried through the whole sweep:
            // every check after the first re-optimizes the stored LP.
            let mut ctxs = crate::scenario::build_all(&net, true);
            for scale in [0.6, 0.9, 1.0, 1.2] {
                // Uniform capacities, then a ragged vector with dark links.
                for ragged in [false, true] {
                    let cap = |l: LinkId| match (ragged, l.index() % 7) {
                        (false, _) => base * scale,
                        (true, 0) => 0.0,
                        (true, r) => base * scale * (0.5 + 0.25 * r as f64),
                    };
                    for (i, ctx) in ctxs.iter_mut().enumerate() {
                        ctx.refresh(cap);
                        let what = format!("{preset:?} scenario {i} x{scale} ragged={ragged}");
                        assert_exact_oracle_contract(ctx, &what);
                    }
                }
            }
        }
    }

    /// A connected random graph (ring plus chords, some links dark) with
    /// random commodities, dressed as a scenario context.
    fn random_ctx(
        n: usize,
        chords: &[(usize, usize, f64)],
        demands: &[(usize, usize, f64)],
    ) -> ScenarioCtx {
        let mut graph = FlowGraph::new(n);
        let mut arc_link = Vec::new();
        let ring = (0..n).map(|v| (v, (v + 1) % n, 6.0));
        let chords = chords.iter().map(|&(u, v, c)| (u % n, v % n, c));
        for (id, (u, v, cap)) in ring.chain(chords).filter(|(u, v, _)| u != v).enumerate() {
            // Capacities below 1 are dark links.
            let cap = if cap < 1.0 { 0.0 } else { cap };
            graph.add_link_arcs(u, v, cap, LinkId::new(id));
            arc_link.extend([LinkId::new(id); 2]);
        }
        let raw: Vec<Commodity> = demands
            .iter()
            .map(|&(s, t, d)| (s % n, t % n, d))
            .filter(|(s, t, _)| s != t)
            .map(|(s, t, d)| Commodity::new(s, t, d))
            .collect();
        let commodities = np_flow::commodity::merge_parallel(&raw);
        ScenarioCtx::from_parts(None, graph, arc_link, commodities)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn path_lp_matches_the_edge_lp_on_random_graphs(
            n in 3usize..8,
            chords in proptest::collection::vec((0usize..8, 0usize..8, 0.0f64..12.0), 0..8),
            demands in proptest::collection::vec((0usize..8, 0usize..8, 0.5f64..6.0), 1..10),
        ) {
            let mut ctx = random_ctx(n, &chords, &demands);
            proptest::prop_assume!(!ctx.commodities.is_empty());
            let caps: Vec<f64> = ctx.graph.arcs().iter().map(|a| a.cap).collect();
            for scale in [0.6, 0.9, 1.0, 1.2, 3.0] {
                for (a, cap) in caps.iter().enumerate() {
                    ctx.graph.set_cap(a, cap * scale);
                }
                assert_exact_oracle_contract(&ctx, &format!("x{scale}"));
            }
        }
    }

    /// A coarse pass's lengths on `ctx`, as the walk hands them to
    /// [`rounded_node_cut`].
    fn coarse_lengths(ctx: &ScenarioCtx) -> Vec<f64> {
        let cfg = MwuConfig {
            epsilon: CheckConfig::default().coarse_eps,
            target_lambda: Some(1.0),
            ..Default::default()
        };
        max_concurrent_flow(&ctx.graph, &ctx.commodities, &cfg).lengths
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Rounding returns only cuts violated at the context's
        /// capacities, hence only where the exact LP cannot route, and
        /// `None` wherever it can — under the coarse lengths and under
        /// uniform ones.
        #[test]
        fn rounded_cuts_are_violated_and_only_where_the_oracle_refutes(
            n in 3usize..8,
            chords in proptest::collection::vec((0usize..8, 0usize..8, 0.0f64..12.0), 0..8),
            demands in proptest::collection::vec((0usize..8, 0usize..8, 0.5f64..6.0), 1..10),
        ) {
            let mut ctx = random_ctx(n, &chords, &demands);
            proptest::prop_assume!(!ctx.commodities.is_empty() && ctx.connected);
            let caps: Vec<f64> = ctx.graph.arcs().iter().map(|a| a.cap).collect();
            for scale in [0.6, 0.7, 0.8, 0.9, 1.0, 1.1] {
                for (a, cap) in caps.iter().enumerate() {
                    ctx.graph.set_cap(a, cap * scale);
                }
                let feasible = exact_lp_verdict(&ctx).is_feasible();
                let cap_of = |l: LinkId| caps[2 * l.index()] * scale;
                for lengths in [coarse_lengths(&ctx), vec![1.0; caps.len()]] {
                    if let Some(cut) = rounded_node_cut(&ctx, &lengths) {
                        assert!(cut.is_violated(cap_of), "x{scale}: cut not violated");
                        assert!(!feasible, "x{scale}: a cut where the oracle routes");
                    }
                }
            }
        }
    }

    /// `K_{2,3}` (sites 0, 1 on one side, 2, 3, 4 on the other, link ids
    /// in that order) with `demand` between every two sites of a side, in
    /// both directions; capacities zero until refreshed. At per-link
    /// capacity `1.333` no node cut is violated, yet every unit of demand
    /// travels two hops: 16 units of length on 12 × 1.333 of capacity.
    pub(crate) fn k23(demand: f64) -> ScenarioCtx {
        let mut graph = FlowGraph::new(5);
        let mut arc_link = Vec::new();
        let links = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)];
        for (id, &(u, v)) in links.iter().enumerate() {
            graph.add_link_arcs(u, v, 0.0, LinkId::new(id));
            arc_link.extend([LinkId::new(id); 2]);
        }
        let pairs = [(0, 1), (2, 3), (2, 4), (3, 4)];
        let commodities = pairs
            .iter()
            .flat_map(|&(u, v)| [Commodity::new(u, v, demand), Commodity::new(v, u, demand)])
            .collect();
        ScenarioCtx::from_parts(None, graph, arc_link, commodities)
    }

    /// Where no node cut is violated but the demands do not fit, rounding
    /// has nothing to find and says so, so a check goes on to the MWU; a
    /// third of the capacity violates node cuts, and rounding finds one.
    #[test]
    fn rounding_finds_nothing_where_only_a_metric_is_violated() {
        let mut ctx = k23(1.0);
        ctx.refresh(|_| 1.333);
        for set in 1u32..31 {
            let inside = |v: usize| set & (1 << v) != 0;
            let crossing = |u: usize, w: usize| inside(u) && !inside(w);
            let arcs = ctx.graph.arcs().iter().filter(|a| crossing(a.from, a.to));
            let cap: f64 = arcs.map(|a| a.cap).sum();
            let commodities = ctx.commodities.iter().filter(|c| crossing(c.src, c.dst));
            let demand: f64 = commodities.map(|c| c.demand).sum();
            assert!(cap >= demand, "node set {set:#b} is short");
        }
        assert!(!exact_lp_verdict(&ctx).is_feasible());
        assert!(rounded_node_cut(&ctx, &coarse_lengths(&ctx)).is_none());
        let mut st = stats();
        let v = check_scenario(&ctx, &CheckConfig::default(), &mut st);
        assert!(!v.is_feasible(), "got {v:?}");
        assert_eq!(st.rounded_cuts, 0);
        assert!(st.mwu_calls > 0, "no MWU pass ran");
        ctx.refresh(|_| 0.4);
        let cut = rounded_node_cut(&ctx, &coarse_lengths(&ctx)).expect("a violated node cut");
        assert!(cut.is_violated(|_| 0.4));
    }

    /// Two strongly linked pairs `{0, 1}` and `{2, 3}` joined by one thin
    /// link `1–2`, with demand 3 from 0 to 3 in both directions: no single
    /// node is short, but `{0, 1}` sends 3 over a capacity of 2. The sweep
    /// before the MWU finds that node cut, and the check ends there.
    #[test]
    fn a_node_cut_of_two_nodes_is_answered_before_any_mwu_pass() {
        let mut graph = FlowGraph::new(4);
        let mut arc_link = Vec::new();
        for (id, (u, v, cap)) in [(0, 1, 10.0), (1, 2, 2.0), (2, 3, 10.0)]
            .into_iter()
            .enumerate()
        {
            graph.add_link_arcs(u, v, cap, LinkId::new(id));
            arc_link.extend([LinkId::new(id); 2]);
        }
        let demands = vec![Commodity::new(0, 3, 3.0), Commodity::new(3, 0, 3.0)];
        let ctx = ScenarioCtx::from_parts(None, graph, arc_link, demands);
        let cap_of = |l: LinkId| [10.0, 2.0, 10.0][l.index()];
        let mut st = stats();
        let v = check_scenario(&ctx, &CheckConfig::default(), &mut st);
        let Verdict::Infeasible(Some(cut)) = v else {
            panic!("expected a certified infeasible verdict, got {v:?}");
        };
        assert!(cut.is_violated(cap_of));
        assert_eq!(
            cut.coeff
                .iter()
                .map(|&(l, _)| l.index())
                .collect::<Vec<_>>(),
            [1]
        );
        assert_eq!((st.degree_cut_hits, st.greedy_attempts), (0, 1));
        assert_eq!((st.rounded_cuts, st.mwu_calls, st.lp_calls), (1, 0, 0));
    }

    #[test]
    fn poisoned_lp_state_is_retried_cold_and_still_yields_a_verified_cut() {
        let net = preset_network(TopologyPreset::A);
        let base = boundary_capacity(&net);
        // A scenario that binds at the boundary, 30 % short of it.
        let mut ctxs = crate::scenario::build_all(&net, true);
        ctxs.iter_mut().for_each(|c| c.refresh(|_| 0.7 * base));
        let ctx = ctxs
            .iter()
            .find(|c| !exact_lp_verdict(c).is_feasible())
            .expect("some scenario binds");
        ctx.proofs.borrow_mut().lp = None;
        let mut st = stats();
        assert!(matches!(
            exact_lp(ctx, &mut st),
            Verdict::Infeasible(Some(_))
        ));
        assert_eq!((st.lp_cold_builds, st.lp_cold_retries), (1, 0));
        // Poison the stored model: λ now also loads arc 0, which alone
        // holds it below 1. The optimal duals put all length on that one
        // arc — no commodity has to cross it, so the "cut" they induce
        // has a zero right-hand side and cannot verify.
        let k = ctx.commodities.len();
        let poison = |ctx: &ScenarioCtx| {
            let mut proofs = ctx.proofs.borrow_mut();
            proofs
                .lp
                .as_mut()
                .unwrap()
                .lp
                .set_coeff(ConstrId(k), LAMBDA, 1e9);
        };
        poison(ctx);
        assert!(
            matches!(
                column_generation(ctx, &mut stats(), PRICE_TOL),
                Verdict::Infeasible(None)
            ),
            "the poisoned LP must be uncertifiable, or this test tests nothing"
        );
        let Verdict::Infeasible(Some(cut)) = exact_lp(ctx, &mut st) else {
            panic!("the cold retry must certify the infeasible scenario");
        };
        assert!(cut.is_violated(|_| 0.7 * base));
        assert_eq!((st.lp_cold_builds, st.lp_cold_retries), (2, 1));
        // The rebuilt LP replaced the poisoned one for good.
        assert!(matches!(
            exact_lp(ctx, &mut st),
            Verdict::Infeasible(Some(_))
        ));
        assert_eq!((st.lp_cold_builds, st.lp_cold_retries), (2, 1));
    }

    #[test]
    fn greedy_fastpath_accounts_in_stats() {
        let net = preset_network(TopologyPreset::A);
        let ctx = ctx_with_caps(&net, |_| 1e6);
        let mut st = stats();
        let v = check_scenario(&ctx, &CheckConfig::default(), &mut st);
        assert!(v.is_feasible());
        assert_eq!(st.greedy_hits, 1);
        assert_eq!(st.mwu_calls, 0, "greedy witness must short-circuit MWU");
        assert_eq!(st.lp_calls, 0);
    }
}
