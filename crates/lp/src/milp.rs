//! Branch & bound mixed-integer solver with lazy-constraint callbacks.
//!
//! This is the slice of a commercial MILP solver that NeuroPlan's
//! formulation exercises:
//!
//! * LP-relaxation bounding via [`crate::simplex`];
//! * best-bound node selection (ties broken toward deeper nodes so an
//!   incumbent appears early);
//! * most-fractional branching;
//! * incumbent management with a relative optimality gap;
//! * node and wall-clock limits — the knobs the paper's operators use to
//!   trade tractability for optimality;
//! * **lazy constraints**: every integer-feasible candidate is offered to
//!   a separator callback which may return violated cuts. The cuts are
//!   added *globally* (they must be valid for the whole problem, which
//!   metric inequalities are) and the node is re-solved. This implements
//!   the Benders loop that lets a capacity-only master stand in for the
//!   paper's monolithic all-failure ILP.

use crate::gomory;
use crate::model::{Model, Sense, VarId};
use crate::presolve::tighten_bounds;
use crate::simplex::{
    elapsed_ns, solve_lp, solve_lp_warm_chaos, LpSolution, LpStatus, SimplexConfig,
};
use crate::sparse::WarmBasis;
use np_telemetry::{sys, Telemetry};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;
/// Cut rows the LP may hold before entering new lazy or Gomory rows
/// purges the ones strictly slack at the current point.
const CUT_POOL: usize = 120;
/// The most recent cut rows, which a purge always keeps.
const CUT_KEEP_RECENT: usize = 40;

/// Solver-side counters, accumulated locally and emitted as one batch of
/// telemetry events per solve (so event volume stays bounded no matter
/// how many nodes the tree visits).
#[derive(Default)]
struct MipTally {
    simplex_iterations: u64,
    lazy_callbacks: u64,
    gomory_cuts: u64,
    /// Rows added to the LP: lazy rows and Gomory cuts.
    cuts_added: usize,
    incumbent_updates: u64,
    /// Microseconds the solve ran past `time_limit_secs` inside separator
    /// calls, which cannot be interrupted.
    deadline_overshoot_us: u64,
    /// Basis factorizations across all node LPs.
    refactorizations: u64,
    /// Sum of per-solve peak eta-file lengths.
    eta_len: u64,
    /// Pivots spent in warm-started re-optimizations.
    warm_start_pivots: u64,
    /// Node LPs solved without a reusable basis.
    cold_solves: u64,
    /// Stage wall time across all node LPs (µs) under
    /// [`SimplexConfig::collect_timing`], emitted as `lp` spans, never
    /// counters, so counter streams are the same with profiling on or off.
    factor_us: u64,
    ftran_btran_us: u64,
    pricing_us: u64,
    /// The rest of the solve's own work, timed the same way (ns): the
    /// working copy of the model and its bound tightening (`presolve`),
    /// node LPs outside the three stages above — tableau builds, ratio
    /// tests, basis updates, solution extraction (`simplex`) — and root
    /// Gomory cut generation (`gomory`).
    presolve_ns: u64,
    simplex_ns: u64,
    gomory_ns: u64,
}

impl MipTally {
    /// Fold one LP solution's counters into the tally, and (profiling
    /// only) the wall since `t0` outside its three timed stages.
    fn absorb(&mut self, lp: &LpSolution, t0: Option<Instant>) {
        self.simplex_iterations += lp.iterations as u64;
        self.refactorizations += lp.stats.refactorizations;
        self.eta_len += lp.stats.peak_eta_len;
        if lp.stats.warm {
            self.warm_start_pivots += lp.stats.warm_pivots;
        } else {
            self.cold_solves += 1;
        }
        self.factor_us += lp.stats.factor_us;
        self.ftran_btran_us += lp.stats.ftran_btran_us;
        self.pricing_us += lp.stats.pricing_us;
        if let Some(ns) = t0.map(elapsed_ns) {
            let staged = lp.stats.factor_us + lp.stats.ftran_btran_us + lp.stats.pricing_us;
            self.simplex_ns += ns.saturating_sub(staged * 1_000);
        }
    }

    /// Emit the counters and assemble the solve's result.
    fn finish(
        &self,
        tel: &Telemetry,
        status: MipStatus,
        objective: f64,
        x: Vec<f64>,
        best_bound: f64,
        nodes: usize,
    ) -> MipSolution {
        if tel.is_enabled() {
            tel.incr(sys::LP, "simplex_iterations", self.simplex_iterations);
            tel.incr(sys::LP, "bb_nodes", nodes as u64);
            tel.incr(sys::LP, "lazy_callbacks", self.lazy_callbacks);
            tel.incr(sys::LP, "gomory_cuts", self.gomory_cuts);
            tel.incr(sys::LP, "cuts_added", self.cuts_added as u64);
            tel.incr(sys::LP, "incumbent_updates", self.incumbent_updates);
            tel.incr(sys::LP, "deadline_overshoot_us", self.deadline_overshoot_us);
            tel.incr(sys::LP, "refactorizations", self.refactorizations);
            tel.incr(sys::LP, "eta_len", self.eta_len);
            tel.incr(sys::LP, "warm_start_pivots", self.warm_start_pivots);
            tel.incr(sys::LP, "cold_solves", self.cold_solves);
            // Stage times (present only under `--profile`) ride as deferred
            // leaf spans: `record_span` charges their self time to the live
            // enclosing `solve_mip` span, keeping self-time sums ≤ wall.
            let stages = [
                ("factorize", self.factor_us),
                ("ftran_btran", self.ftran_btran_us),
                ("pricing", self.pricing_us),
                ("presolve", self.presolve_ns / 1_000),
                ("simplex", self.simplex_ns / 1_000),
                ("gomory", self.gomory_ns / 1_000),
            ];
            if stages.iter().any(|&(_, us)| us > 0) {
                for (name, us) in stages {
                    tel.record_span(sys::LP, name, us);
                }
            }
        }
        MipSolution {
            status,
            objective,
            x,
            best_bound,
            nodes,
            cuts_added: self.cuts_added,
            deadline_overshoot_us: self.deadline_overshoot_us,
        }
    }
}

/// The solve's wall-clock budget.
struct Budget {
    start: Instant,
    limit_secs: f64,
}

impl Budget {
    fn expired(&self) -> bool {
        self.start.elapsed().as_secs_f64() > self.limit_secs
    }

    /// Microseconds by which the budget is currently exceeded (0 while
    /// inside the budget, and always 0 for an infinite budget).
    fn overshoot_us(&self) -> u64 {
        let over = self.start.elapsed().as_secs_f64() - self.limit_secs;
        if over > 0.0 {
            (over * 1e6) as u64
        } else {
            0
        }
    }
}

/// Why the search ended without exhausting the tree. A deadline outranks
/// a limit: once the wall clock has run out the status is `TimeLimit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stop {
    /// The node limit, an LP that ended unsolved, or a separator that
    /// rejects a candidate only with rows the LP already holds.
    Limit,
    /// The wall-clock budget expired (real or chaos-injected).
    Deadline,
}

/// A globally-valid linear cut returned by a separator callback.
#[derive(Clone, Debug)]
pub struct Cut {
    /// Name for diagnostics.
    pub name: String,
    /// Sparse row coefficients.
    pub coeffs: Vec<(VarId, f64)>,
    /// Row sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A lazy-constraint callback: given an integer-feasible LP optimum,
/// return violated globally-valid cuts (empty = accept the candidate).
pub type SeparatorFn<'a> = &'a mut dyn FnMut(&[f64]) -> Vec<Cut>;

/// MILP solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct MipConfig {
    /// Maximum branch-and-bound nodes to process.
    pub node_limit: usize,
    /// Wall-clock budget in seconds (`f64::INFINITY` = none).
    pub time_limit_secs: f64,
    /// Relative optimality gap at which the search stops.
    pub gap_tol: f64,
    /// Known upper bound (e.g. the cost of a feasible warm-start plan);
    /// nodes above it are pruned from the start.
    pub cutoff: Option<f64>,
}

impl Default for MipConfig {
    fn default() -> Self {
        MipConfig {
            node_limit: 50_000,
            time_limit_secs: f64::INFINITY,
            gap_tol: 1e-6,
            cutoff: None,
        }
    }
}

/// Final status of a MILP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal (within `gap_tol`).
    Optimal,
    /// A non-deadline limit (nodes, LP iterations) was hit; the
    /// incumbent is feasible but unproven.
    Feasible,
    /// No integer-feasible point exists.
    Infeasible,
    /// A non-deadline limit was hit before any incumbent was found.
    Limit,
    /// The relaxation is unbounded.
    Unbounded,
    /// The wall-clock budget expired (real or chaos-injected). The
    /// best incumbent found so far, if any, is returned in
    /// `x`/`objective` — deadline expiry never discards it.
    TimeLimit,
}

/// Result of a MILP solve.
#[derive(Clone, Debug)]
pub struct MipSolution {
    /// Outcome; `x`/`objective` are the incumbent for
    /// `Optimal`/`Feasible`.
    pub status: MipStatus,
    /// Incumbent objective (`f64::INFINITY` when none).
    pub objective: f64,
    /// Incumbent point (empty when none).
    pub x: Vec<f64>,
    /// Best remaining lower bound at termination.
    pub best_bound: f64,
    /// Nodes processed.
    pub nodes: usize,
    /// Rows added to the LP: the separator's lazy rows and root Gomory cuts.
    pub cuts_added: usize,
    /// Microseconds the solve ran past its wall-clock budget inside
    /// uninterruptible separation rounds (also emitted as the
    /// `lp.deadline_overshoot_us` telemetry counter).
    pub deadline_overshoot_us: u64,
}

#[derive(Clone)]
struct Node {
    /// `(var, lb, ub)` bound overrides accumulated along the branch path.
    overrides: Vec<(VarId, f64, f64)>,
    bound: f64,
    depth: usize,
    /// Parent's optimal basis, tagged with the cut-purge generation it was
    /// captured under: a purge renumbers cut rows, so a snapshot from an
    /// older generation is treated as cold.
    basis: Option<(u64, Rc<WarmBasis>)>,
}

// Heap order: `BinaryHeap` pops the greatest node, so the smallest bound
// is greatest, and among equal bounds the deepest node (diving reaches
// incumbents sooner).
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .partial_cmp(&self.bound)
            .expect("bounds are never NaN")
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Node {}

/// The LP every node solves: the model's rows, then the cut rows (lazy
/// rows and Gomory cuts) the search has added. Every node LP pays for
/// the cut rows, so new ones enter after a purge of slack old ones: a
/// dropped cut is still valid, and the separator can return it again.
struct Rows {
    work: Model,
    /// Index of the first cut row.
    base: usize,
    /// Bumped whenever a purge removes rows: a warm basis captured under
    /// an older generation is not reused.
    purge_gen: u64,
}

/// What one offer to the separator did: it returned rows (`rejected`),
/// some of them new to the LP (`added`), and ended past the budget
/// (`overshot`).
struct Offer {
    rejected: bool,
    added: bool,
    overshot: bool,
}

impl Rows {
    /// Past [`CUT_POOL`] cut rows, drop those strictly slack at `x`,
    /// always keeping the most recent [`CUT_KEEP_RECENT`].
    fn purge(&mut self, x: &[f64]) {
        let total = self.work.num_constrs();
        if total - self.base <= CUT_POOL {
            return;
        }
        let decisions: Vec<bool> = (self.base..total)
            .map(|k| {
                k + CUT_KEEP_RECENT >= total
                    || self.work.row_slack(&self.work.constrs()[k], x) <= 1e-6
            })
            .collect();
        let mut it = decisions.into_iter();
        self.work
            .purge_constrs(self.base, |_| it.next().unwrap_or(true));
        if self.work.num_constrs() != total {
            self.purge_gen += 1;
        }
    }

    /// Whether a cut row equal to `cut` is already in the LP.
    fn contains(&self, cut: &Cut) -> bool {
        let mut sorted = cut.coeffs.clone();
        sorted.sort_by_key(|&(v, _)| v);
        self.work.constrs()[self.base..].iter().any(|c| {
            (c.rhs - cut.rhs).abs() <= 1e-9
                && c.coeffs.len() == sorted.len()
                && c.coeffs
                    .iter()
                    .zip(&sorted)
                    .all(|(&(v1, a1), &(v2, a2))| v1 == v2 && (a1 - a2).abs() <= 1e-9)
        })
    }

    /// Offer `x` to the separator, if there is one, and account any
    /// overshoot of the budget. Rows it returns enter the LP after a
    /// purge at `x`, each unless an equal row is already there: a
    /// duplicate only degenerates the basis.
    fn offer(
        &mut self,
        separator: &mut Option<SeparatorFn<'_>>,
        x: &[f64],
        tally: &mut MipTally,
        budget: &Budget,
    ) -> Offer {
        let cuts = match separator.as_deref_mut() {
            Some(sep) => {
                tally.lazy_callbacks += 1;
                sep(x)
            }
            None => Vec::new(),
        };
        let over = budget.overshoot_us();
        tally.deadline_overshoot_us += over;
        let rejected = !cuts.is_empty();
        let mut added = false;
        if rejected {
            self.purge(x);
            for cut in cuts {
                if !self.contains(&cut) {
                    self.work
                        .add_constr(cut.name, cut.coeffs, cut.sense, cut.rhs);
                    tally.cuts_added += 1;
                    added = true;
                }
            }
        }
        Offer {
            rejected,
            added,
            overshot: over > 0,
        }
    }
}

/// Solve `model` to integer optimality (or a limit).
///
/// `separator`, if provided, is called on every integer-feasible LP
/// optimum; returning a non-empty set of violated, globally-valid cuts
/// rejects the candidate — the cuts are appended and the node re-solved.
pub fn solve_mip(
    model: &Model,
    config: &MipConfig,
    separator: Option<SeparatorFn<'_>>,
) -> MipSolution {
    solve_mip_telemetry(model, config, separator, &Telemetry::noop())
}

/// [`solve_mip`] with solver counters reported through `tel`: simplex
/// iterations, branch-and-bound nodes, lazy-callback invocations, Gomory
/// cuts, total cuts, incumbent updates, plus a `solve_mip` span.
pub fn solve_mip_telemetry(
    model: &Model,
    config: &MipConfig,
    mut separator: Option<SeparatorFn<'_>>,
    tel: &Telemetry,
) -> MipSolution {
    let _solve_span = tel.span(sys::LP, "solve_mip");
    let mut tally = MipTally::default();
    let budget = Budget {
        start: Instant::now(),
        limit_secs: config.time_limit_secs,
    };
    // Under the process-global `--profile` switch node LPs collect stage
    // times; timing never changes arithmetic.
    let simplex_cfg = SimplexConfig {
        collect_timing: tel.is_enabled() && np_telemetry::profiling(),
    };
    // The clock checks at node boundaries, LP re-solves and root
    // separation rounds are also chaos trigger points: an injected
    // `deadline` fault takes the path a real timeout takes.
    let chaos = np_chaos::global();
    let deadline_hit =
        |budget: &Budget| budget.expired() || chaos.should_fire(np_chaos::FaultClass::Deadline);
    let clock = || simplex_cfg.collect_timing.then(Instant::now);
    let t0 = clock();
    let mut work = model.clone();
    // Tightened bounds hold for every feasible point, so they are the
    // base the branching restores to.
    let infeasible = tighten_bounds(&mut work).1;
    tally.presolve_ns += t0.map_or(0, elapsed_ns);
    if infeasible {
        return tally.finish(
            tel,
            MipStatus::Infeasible,
            f64::INFINITY,
            vec![],
            f64::INFINITY,
            0,
        );
    }
    let mut rows = Rows {
        work,
        base: model.num_constrs(),
        purge_gen: 0,
    };
    let is_int: Vec<bool> = model.vars().iter().map(|v| v.integer).collect();
    let int_vars: Vec<VarId> = (0..is_int.len())
        .filter(|&j| is_int[j])
        .map(VarId)
        .collect();
    // Pruning margin: a quarter of the optimality gap. Pruning at the
    // full gap would freeze the incumbent at whatever warm start/cutoff
    // was provided and never collect the improvements inside the band.
    let prune_margin = |incumbent: f64| 0.25 * config.gap_tol * incumbent.abs().max(1.0);

    let mut incumbent_obj = config.cutoff.unwrap_or(f64::INFINITY);
    let mut incumbent_x: Vec<f64> = Vec::new();
    let mut nodes = 0usize;
    let mut root_cut_rounds = 0usize;
    let mut gmi_rounds = 0usize;
    let mut rounding_attempts = 0usize;
    let mut open = BinaryHeap::from(vec![Node {
        overrides: vec![],
        bound: f64::NEG_INFINITY,
        depth: 0,
        basis: None,
    }]);
    let mut best_bound = f64::NEG_INFINITY;
    // Highest LP objective ever seen at the root (no bound overrides):
    // a monotone global lower bound regardless of later purging.
    let mut root_bound = f64::NEG_INFINITY;
    let mut stop: Option<Stop> = None;

    'outer: while let Some(popped) = open.pop() {
        best_bound = popped.bound;
        // Plunge: after branching, dive straight into one child. Diving
        // reaches integer-feasible leaves (incumbents) orders of magnitude
        // sooner than pure best-first on wide integer ranges.
        let mut current = Some(popped);
        while let Some(node) = current.take() {
            if node.bound >= incumbent_obj - prune_margin(incumbent_obj) {
                continue 'outer;
            }
            if nodes >= config.node_limit {
                stop = stop.max(Some(Stop::Limit));
                // Preserve the bound information of the unexplored node.
                open.push(node);
                break 'outer;
            }
            if deadline_hit(&budget) {
                stop = Some(Stop::Deadline);
                open.push(node);
                break 'outer;
            }
            nodes += 1;
            let at_root = node.depth == 0;

            // Apply this node's bound overrides, keeping the displaced
            // bounds to revert them after the node in O(depth).
            let mut undo: Vec<(VarId, f64, f64)> = Vec::with_capacity(node.overrides.len());
            for &(v, lb, ub) in &node.overrides {
                let old = rows.work.var(v);
                undo.push((v, old.lb, old.ub));
                rows.work.set_bounds(v, lb, ub);
            }
            // The parent's optimal basis seeds this node's first LP; each
            // optimal re-solve refreshes it for the next one.
            let mut node_basis = node.basis.clone();
            // Separation loop: re-solve while rows enter the LP.
            loop {
                // The cut loop can dwarf a node's LP time; honor the
                // wall-clock budget inside it too.
                if deadline_hit(&budget) {
                    stop = Some(Stop::Deadline);
                    break;
                }
                // Warm-start from the parent's (or the previous round's)
                // basis unless a purge has deleted rows since. The tableau
                // view is only needed for root GMI generation.
                let warm_ref = node_basis
                    .as_ref()
                    .and_then(|(gen, b)| (*gen == rows.purge_gen).then(|| b.as_ref()));
                let t0 = clock();
                let out = solve_lp_warm_chaos(&rows.work, &simplex_cfg, warm_ref, at_root, chaos);
                let lp = out.solution;
                if let Some(b) = out.basis {
                    node_basis = Some((rows.purge_gen, Rc::new(b)));
                }
                tally.absorb(&lp, t0);
                match lp.status {
                    LpStatus::Infeasible => break,
                    // No overrides apply at the root, so `work` still
                    // carries the original bounds — nothing to undo.
                    LpStatus::Unbounded if at_root => {
                        return tally.finish(
                            tel,
                            MipStatus::Unbounded,
                            f64::NEG_INFINITY,
                            vec![],
                            f64::NEG_INFINITY,
                            nodes,
                        );
                    }
                    LpStatus::Unbounded => break,
                    LpStatus::IterationLimit | LpStatus::NumericalFailure => {
                        // Unknown, not infeasible (NumericalFailure comes
                        // after the whole recovery ladder): pruning the
                        // node could falsely prove infeasibility.
                        stop = stop.max(Some(Stop::Limit));
                        break;
                    }
                    LpStatus::Optimal => {}
                }
                if at_root {
                    root_bound = root_bound.max(lp.objective);
                }
                if lp.objective >= incumbent_obj - prune_margin(incumbent_obj) {
                    break; // bound-dominated
                }
                let frac = int_vars
                    .iter()
                    .map(|&v| {
                        let xi = lp.x[v.0];
                        (v, xi, (xi - xi.round()).abs())
                    })
                    .filter(|&(_, _, f)| f > INT_TOL)
                    .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
                let Some((v, xi, _)) = frac else {
                    // Integer feasible: offer to the separator.
                    if separator.is_some() {
                        // Out of budget before validation: the candidate
                        // stays unproven — leave without accepting it.
                        if budget.expired() {
                            stop = Some(Stop::Deadline);
                            break;
                        }
                        let offer = rows.offer(&mut separator, &lp.x, &mut tally, &budget);
                        if offer.overshot {
                            stop = Some(Stop::Deadline);
                        }
                        if offer.added {
                            if stop.is_some() {
                                break; // rows kept; no budget to re-solve
                            }
                            continue; // re-solve this node with the new rows
                        }
                        if offer.rejected {
                            // Every returned row was already in the LP,
                            // which the point satisfies: a numerical
                            // stalemate leaves the candidate unproven.
                            stop = stop.max(Some(Stop::Limit));
                            break;
                        }
                    }
                    if lp.objective < incumbent_obj {
                        incumbent_obj = lp.objective;
                        incumbent_x = lp.x;
                        tally.incumbent_updates += 1;
                    }
                    break;
                };
                // Root cutting-plane loop: separate *fractional* optima
                // too (Benders feasibility cuts are valid for any point),
                // driving the root bound to the full problem's LP
                // relaxation before any branching.
                if at_root && root_cut_rounds < 200 && separator.is_some() {
                    // The node LP may have eaten the remaining budget;
                    // don't start a separation round the deadline no
                    // longer covers.
                    if deadline_hit(&budget) {
                        stop = Some(Stop::Deadline);
                        break;
                    }
                    let offer = rows.offer(&mut separator, &lp.x, &mut tally, &budget);
                    root_cut_rounds += usize::from(offer.rejected);
                    // The round blew the deadline: keep the rows it paid
                    // for, but stop instead of re-solving.
                    if offer.overshot {
                        stop = Some(Stop::Deadline);
                        break;
                    }
                    if offer.added {
                        continue;
                    }
                }
                // Round-up primal heuristic: ceiling the root LP's integer
                // components often lands on a feasible point of
                // covering-type problems and gives the search an
                // incumbent long before any leaf does.
                if at_root && rounding_attempts < 12 {
                    rounding_attempts += 1;
                    let mut rounded = lp.x.clone();
                    for &vi in &int_vars {
                        rounded[vi.0] = rounded[vi.0].ceil().min(rows.work.var(vi).ub);
                    }
                    // Clamping to a fractional upper bound can leave a
                    // non-integral value: the point is then not a
                    // candidate at all.
                    let integral = int_vars
                        .iter()
                        .all(|&vi| (rounded[vi.0] - rounded[vi.0].round()).abs() <= INT_TOL);
                    let obj = rows.work.objective_value(&rounded);
                    if integral
                        && obj < incumbent_obj - config.gap_tol
                        && rows.work.is_feasible(&rounded, 1e-6)
                    {
                        if separator.is_some() && budget.expired() {
                            // Can't afford the validation round, and an
                            // unvalidated incumbent is worthless.
                            stop = Some(Stop::Deadline);
                            break;
                        }
                        let offer = rows.offer(&mut separator, &rounded, &mut tally, &budget);
                        if !offer.rejected {
                            incumbent_obj = obj;
                            incumbent_x = rounded;
                            tally.incumbent_updates += 1;
                        }
                        if offer.overshot {
                            // Keep the validated incumbent / new rows the
                            // round produced, then stop.
                            stop = Some(Stop::Deadline);
                            break;
                        }
                        if offer.rejected {
                            continue; // new rows: re-solve the root
                        }
                    }
                }
                // Root Gomory mixed-integer cuts: globally valid because
                // they are derived under the original bounds; they are
                // what actually closes the integrality gap the Benders
                // rows leave open.
                if at_root && gmi_rounds < 40 {
                    if let Some(view) = &out.view {
                        let t0 = clock();
                        let cuts = gomory::generate(&rows.work, view, &is_int, 10, 1e-6);
                        tally.gomory_ns += t0.map_or(0, elapsed_ns);
                        if !cuts.is_empty() {
                            gmi_rounds += 1;
                            rows.purge(&lp.x);
                            for (k, cut) in cuts.into_iter().enumerate() {
                                rows.work.add_constr(
                                    format!("gmi_{gmi_rounds}_{k}"),
                                    cut.coeffs,
                                    Sense::Ge,
                                    cut.rhs,
                                );
                                tally.cuts_added += 1;
                                tally.gomory_cuts += 1;
                            }
                            continue;
                        }
                    }
                }
                // Branch: park the down child on the heap, dive into the up
                // child (rounding up is a covering problem's way to feasibility).
                let (lb, ub) = (rows.work.var(v).lb, rows.work.var(v).ub);
                let child = |bounds: (VarId, f64, f64)| {
                    let mut overrides = node.overrides.clone();
                    overrides.push(bounds);
                    Node {
                        overrides,
                        bound: lp.objective,
                        depth: node.depth + 1,
                        basis: node_basis.clone(),
                    }
                };
                if xi.floor() >= lb - 1e-9 {
                    open.push(child((v, lb, xi.floor())));
                }
                if xi.ceil() <= ub + 1e-9 {
                    current = Some(child((v, xi.ceil(), ub)));
                }
                break;
            }
            // Revert this node's bound overrides before the next plunge
            // step / heap node. Reverse order so nested overrides of the
            // same variable unwind to the original bounds.
            for &(v, lb, ub) in undo.iter().rev() {
                rows.work.set_bounds(v, lb, ub);
            }
        }
    }

    // The remaining best bound is the smallest bound still in the heap (or
    // the incumbent if the tree is exhausted).
    let remaining = open.iter().map(|n| n.bound).fold(f64::INFINITY, f64::min);
    let mut proven = stop.is_none() && remaining.is_infinite();
    if proven {
        best_bound = incumbent_obj;
    } else {
        best_bound = best_bound.min(remaining);
        // Heap bounds are parent-era LP objectives and go stale as lazy
        // cuts accumulate globally. One fresh root LP over the *current*
        // row set is a valid global lower bound and usually much tighter.
        let t0 = clock();
        let root = solve_lp(&rows.work, &simplex_cfg);
        tally.absorb(&root, t0);
        if root.status == LpStatus::Optimal {
            best_bound = best_bound.max(root.objective);
        } else if root.status == LpStatus::Infeasible {
            best_bound = incumbent_obj;
        }
        best_bound = best_bound.max(root_bound);
        // Gap-based optimality: same criterion commercial solvers use.
        if incumbent_obj.is_finite()
            && incumbent_obj - best_bound <= config.gap_tol * incumbent_obj.abs().max(1.0)
        {
            proven = true;
            best_bound = best_bound.min(incumbent_obj);
        }
    }
    // Deadline expiry reports `TimeLimit` but never discards the
    // incumbent: a budget-limited caller consumes `x`/`objective` as
    // its best-effort plan.
    let has_incumbent = !incumbent_x.is_empty() || incumbent_obj.is_finite();
    let status = match (proven, stop, has_incumbent) {
        (true, _, true) => MipStatus::Optimal,
        (true, _, false) => MipStatus::Infeasible,
        (false, Some(Stop::Deadline), _) => MipStatus::TimeLimit,
        (false, _, true) => MipStatus::Feasible,
        (false, _, false) => MipStatus::Limit,
    };
    tally.finish(tel, status, incumbent_obj, incumbent_x, best_bound, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn solve(model: &Model) -> MipSolution {
        solve_mip(model, &MipConfig::default(), None)
    }

    #[test]
    fn knapsack_finds_known_optimum() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6, binary →
        // best is a + c (17) vs b + c (20, weight 6 ✓) → 20.
        let mut m = Model::new("knap");
        let a = m.add_var("a", 0.0, 1.0, -10.0, true);
        let b = m.add_var("b", 0.0, 1.0, -13.0, true);
        let c = m.add_var("c", 0.0, 1.0, -7.0, true);
        m.add_constr("w", vec![(a, 3.0), (b, 4.0), (c, 2.0)], Sense::Le, 6.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective + 20.0).abs() < 1e-6);
        assert!((s.x[1] - 1.0).abs() < 1e-6 && (s.x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn integrality_changes_the_answer() {
        // min x s.t. 2x ≥ 3: LP gives 1.5, MILP must give 2.
        let mut m = Model::new("round");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 2.0)], Sense::Ge, 3.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn already_integral_relaxation_short_circuits() {
        let mut m = Model::new("int");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, 4.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(s.nodes, 1);
        assert!((s.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn detects_integer_infeasibility() {
        // 0.4 ≤ x ≤ 0.6 with x integer: LP feasible, MILP infeasible.
        let mut m = Model::new("gapless");
        m.add_var("x", 0.4, 0.6, 1.0, true);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 3y + x s.t. x + y ≥ 2.5, y integer, x ∈ [0, 1] → y=2, x=0.5.
        let mut m = Model::new("mix");
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        let y = m.add_var("y", 0.0, 10.0, 3.0, true);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 2.5);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.x[1] - 2.0).abs() < 1e-6);
        assert!((s.objective - 6.5).abs() < 1e-6);
    }

    #[test]
    fn lazy_cuts_reject_candidates_until_valid() {
        // min x, x ∈ [0, 10] integer; the separator insists x ≥ 3 by
        // returning the (globally valid, initially violated) cut.
        let mut m = Model::new("lazy");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        let mut calls = 0usize;
        let mut sep = |point: &[f64]| -> Vec<Cut> {
            calls += 1;
            if point[0] < 3.0 - 1e-9 {
                vec![Cut {
                    name: "x>=3".into(),
                    coeffs: vec![(x, 1.0)],
                    sense: Sense::Ge,
                    rhs: 3.0,
                }]
            } else {
                vec![]
            }
        };
        let s = solve_mip(&m, &MipConfig::default(), Some(&mut sep));
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert_eq!(s.cuts_added, 1);
        assert!(
            calls >= 2,
            "separator must see the rejected and final candidates"
        );
    }

    #[test]
    fn cutoff_prunes_to_quick_proof() {
        let mut m = Model::new("cutoff");
        let x = m.add_var("x", 0.0, 100.0, 1.0, true);
        m.add_constr("c", vec![(x, 1.0)], Sense::Ge, 7.0);
        let cfg = MipConfig {
            cutoff: Some(7.0 + 1e-9),
            ..Default::default()
        };
        let s = solve_mip(&m, &cfg, None);
        // The cutoff equals the optimum: search may prune everything and
        // report the cutoff as objective with no x; accept either proven
        // outcome but never a worse objective.
        assert!(s.objective <= 7.0 + 1e-6);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        // A small hard-ish covering problem, then strangle the node budget.
        let mut m = Model::new("cover");
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_var(format!("x{i}"), 0.0, 1.0, 1.0 + 0.1 * i as f64, true))
            .collect();
        for i in 0..8 {
            let coeffs = vec![
                (vars[i], 1.0),
                (vars[(i + 1) % 8], 1.0),
                (vars[(i + 3) % 8], 1.0),
            ];
            m.add_constr(format!("c{i}"), coeffs, Sense::Ge, 1.0);
        }
        let cfg = MipConfig {
            node_limit: 1,
            ..Default::default()
        };
        let s = solve_mip(&m, &cfg, None);
        assert!(matches!(
            s.status,
            MipStatus::Feasible | MipStatus::Limit | MipStatus::Optimal
        ));
        let full = solve(&m);
        assert_eq!(full.status, MipStatus::Optimal);
        assert!(full.objective <= s.objective + 1e-9);
    }

    #[test]
    fn best_bound_tracks_gap() {
        let mut m = Model::new("gap");
        let x = m.add_var("x", 0.0, 9.0, 1.0, true);
        m.add_constr("c", vec![(x, 3.0)], Sense::Ge, 8.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.best_bound - s.objective).abs() < 1e-9);
    }

    #[test]
    fn gomory_cuts_close_a_pure_covering_gap() {
        // min x + y s.t. 2x + y >= 2, x + 2y >= 2, x,y integer.
        // LP optimum (2/3, 2/3) costs 4/3; the integer optimum costs 2.
        let mut m = Model::new("cover2");
        let x = m.add_var("x", 0.0, 5.0, 1.0, true);
        let y = m.add_var("y", 0.0, 5.0, 1.0, true);
        m.add_constr("c1", vec![(x, 2.0), (y, 1.0)], Sense::Ge, 2.0);
        m.add_constr("c2", vec![(x, 1.0), (y, 2.0)], Sense::Ge, 2.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!(
            (s.best_bound - 2.0).abs() < 1e-6,
            "bound must reach the optimum"
        );
    }

    #[test]
    fn wide_integer_ranges_are_handled_by_diving() {
        // A knapsack-cover with ranges up to 1000: plunge diving must
        // find the optimum without exploding the tree.
        let mut m = Model::new("wide");
        let x = m.add_var("x", 0.0, 1000.0, 3.0, true);
        let y = m.add_var("y", 0.0, 1000.0, 5.0, true);
        m.add_constr("c", vec![(x, 2.0), (y, 3.0)], Sense::Ge, 1001.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        // Best: maximize use of x (cost 1.5/unit of coverage vs 1.667):
        // x = 501 covers 1002 (cost 1503) vs x=499,y=1 -> 1001 (1502).
        assert!(
            (s.objective - 1502.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!(
            s.nodes < 3000,
            "diving should keep the tree small: {}",
            s.nodes
        );
    }

    #[test]
    fn purging_never_changes_the_answer() {
        // Enough lazy cuts to trigger the pool limit: the separator
        // insists on x >= k for growing k; the final answer is the largest.
        let mut m = Model::new("pool");
        let x = m.add_var("x", 0.0, 500.0, 1.0, true);
        let mut k = 0.0f64;
        let mut sep = |point: &[f64]| -> Vec<Cut> {
            if point[0] < 200.0 - 1e-9 {
                k += 1.0;
                vec![Cut {
                    name: format!("ge{k}"),
                    coeffs: vec![(x, 1.0)],
                    sense: Sense::Ge,
                    rhs: (point[0] + 1.0).min(200.0),
                }]
            } else {
                vec![]
            }
        };
        let s = solve_mip(&m, &MipConfig::default(), Some(&mut sep));
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 200.0).abs() < 1e-6);
        assert!(
            s.cuts_added > 150,
            "the run must have exercised the cut pool"
        );
    }

    #[test]
    fn telemetry_counters_track_the_search() {
        let mut m = Model::new("lazy-tel");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        let mut sep = |point: &[f64]| -> Vec<Cut> {
            if point[0] < 3.0 - 1e-9 {
                vec![Cut {
                    name: "x>=3".into(),
                    coeffs: vec![(x, 1.0)],
                    sense: Sense::Ge,
                    rhs: 3.0,
                }]
            } else {
                vec![]
            }
        };
        let tel = np_telemetry::Telemetry::memory();
        let s = solve_mip_telemetry(&m, &MipConfig::default(), Some(&mut sep), &tel);
        assert_eq!(s.status, MipStatus::Optimal);
        use np_telemetry::sys::LP;
        assert_eq!(s.nodes as u64, tel.counter(LP, "bb_nodes"));
        assert_eq!(s.cuts_added as u64, tel.counter(LP, "cuts_added"));
        assert!(tel.counter(LP, "lazy_callbacks") >= 2);
        assert!(tel.counter(LP, "simplex_iterations") >= 1);
        assert!(tel.counter(LP, "incumbent_updates") >= 1);
        let spans = tel.spans_self();
        assert!(
            spans.iter().any(|(s, n, ..)| s == LP && n == "solve_mip"),
            "solve span missing: {spans:?}"
        );
    }

    #[test]
    fn separation_overshoot_is_detected_and_reported() {
        // A separator that sleeps well past the whole wall-clock budget:
        // the round itself cannot be interrupted, but the solver must
        // notice immediately afterwards (not at the next node boundary),
        // stop, keep the cut it paid for, and report the overshoot.
        let mut m = Model::new("slow-sep");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 2.0)], Sense::Ge, 3.0); // fractional root
        let mut calls = 0usize;
        let mut sep = |point: &[f64]| -> Vec<Cut> {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(40));
            if point[0] < 5.0 - 1e-9 {
                vec![Cut {
                    name: "x>=5".into(),
                    coeffs: vec![(x, 1.0)],
                    sense: Sense::Ge,
                    rhs: 5.0,
                }]
            } else {
                vec![]
            }
        };
        let cfg = MipConfig {
            time_limit_secs: 0.005,
            ..Default::default()
        };
        let tel = np_telemetry::Telemetry::memory();
        let s = solve_mip_telemetry(&m, &cfg, Some(&mut sep), &tel);
        use np_telemetry::sys::LP;
        let over = tel.counter(LP, "deadline_overshoot_us");
        assert!(over > 0, "the blown round must be reported: {over}");
        assert_eq!(
            s.deadline_overshoot_us, over,
            "the solution must carry the same overshoot the counter reports"
        );
        assert_eq!(calls, 1, "no further separation after the deadline");
        assert_eq!(s.cuts_added, 1, "the paid-for cut is kept");
        assert_eq!(
            s.status,
            MipStatus::TimeLimit,
            "a deadline-limited run reports TimeLimit, not a proof"
        );
    }

    #[test]
    fn deadline_expiry_returns_the_incumbent_with_time_limit_status() {
        // min x + y s.t. 3x + 3y ≥ 8, integers: LP bound 8/3, optimum 3.
        // The root rounding heuristic finds the incumbent; the second
        // separator call then blows the whole wall budget. The solver
        // must return that incumbent with `TimeLimit`, not discard it.
        let mut m = Model::new("anytime");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        let y = m.add_var("y", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 3.0), (y, 3.0)], Sense::Ge, 8.0);
        let mut calls = 0usize;
        let mut sep = |_point: &[f64]| -> Vec<Cut> {
            calls += 1;
            if calls > 1 {
                std::thread::sleep(std::time::Duration::from_millis(80));
            }
            vec![]
        };
        let cfg = MipConfig {
            time_limit_secs: 0.04,
            ..Default::default()
        };
        let s = solve_mip(&m, &cfg, Some(&mut sep));
        assert_eq!(s.status, MipStatus::TimeLimit);
        assert!(!s.x.is_empty(), "the incumbent point must be returned");
        assert!((s.objective - 3.0).abs() < 1e-6, "obj {}", s.objective);
        assert!(s.deadline_overshoot_us > 0);
        assert!(
            s.objective > s.best_bound,
            "the proof was genuinely incomplete"
        );
    }

    #[test]
    fn zero_budget_reports_time_limit_with_no_incumbent() {
        let mut m = Model::new("hopeless");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constr("c", vec![(x, 2.0)], Sense::Ge, 3.0);
        let cfg = MipConfig {
            time_limit_secs: 0.0,
            ..Default::default()
        };
        let s = solve_mip(&m, &cfg, None);
        assert_eq!(s.status, MipStatus::TimeLimit);
        assert!(s.x.is_empty());
        assert!(s.objective.is_infinite());
    }

    #[test]
    fn infinite_budget_never_reports_overshoot() {
        let mut m = Model::new("lazy-unbudgeted");
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        let mut sep = |point: &[f64]| -> Vec<Cut> {
            if point[0] < 3.0 - 1e-9 {
                vec![Cut {
                    name: "x>=3".into(),
                    coeffs: vec![(x, 1.0)],
                    sense: Sense::Ge,
                    rhs: 3.0,
                }]
            } else {
                vec![]
            }
        };
        let tel = np_telemetry::Telemetry::memory();
        let s = solve_mip_telemetry(&m, &MipConfig::default(), Some(&mut sep), &tel);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(
            tel.counter(np_telemetry::sys::LP, "deadline_overshoot_us"),
            0
        );
    }

    #[test]
    fn equality_constrained_mip() {
        // x + y = 7, x,y ≥ 0 integer, min 2x + 3y → x=7, y=0.
        let mut m = Model::new("eqmip");
        let x = m.add_var("x", 0.0, 10.0, 2.0, true);
        let y = m.add_var("y", 0.0, 10.0, 3.0, true);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 7.0);
        let s = solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 14.0).abs() < 1e-6);
    }
}
