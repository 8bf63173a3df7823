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
use crate::simplex::{solve_lp, solve_lp_warm_chaos, LpSolution, LpStatus, SimplexConfig};
use crate::sparse::WarmBasis;
use np_telemetry::{sys, Telemetry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Solver-side counters, accumulated locally and emitted as one batch of
/// telemetry events per solve (so event volume stays bounded no matter
/// how many nodes the tree visits).
#[derive(Default)]
struct MipTally {
    simplex_iterations: u64,
    lazy_callbacks: u64,
    gomory_cuts: u64,
    incumbent_updates: u64,
    /// Microseconds the solve ran past `time_limit_secs` inside
    /// separation rounds (a single separator call is not interruptible,
    /// so the budget can only be honored at round boundaries).
    deadline_overshoot_us: u64,
    /// Basis factorizations across all node LPs.
    refactorizations: u64,
    /// Sum of per-solve peak eta-file lengths.
    eta_len: u64,
    /// Pivots spent in warm-started re-optimizations.
    warm_start_pivots: u64,
    /// Node LPs solved without a reusable basis.
    cold_solves: u64,
    /// Stage wall time across all node LPs (µs), populated only when
    /// [`SimplexConfig::collect_timing`] is on. Emitted as `lp` spans —
    /// never counters — so counter streams stay bit-identical with
    /// profiling on or off.
    factor_us: u64,
    ftran_btran_us: u64,
    pricing_us: u64,
}

impl MipTally {
    /// Fold one LP solution's counters into the tally.
    fn absorb(&mut self, lp: &LpSolution) {
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
    }

    fn emit(&self, tel: &Telemetry, nodes: usize, cuts_added: usize) {
        if !tel.is_enabled() {
            return;
        }
        tel.incr(sys::LP, "simplex_iterations", self.simplex_iterations);
        tel.incr(sys::LP, "bb_nodes", nodes as u64);
        tel.incr(sys::LP, "lazy_callbacks", self.lazy_callbacks);
        tel.incr(sys::LP, "gomory_cuts", self.gomory_cuts);
        tel.incr(sys::LP, "cuts_added", cuts_added as u64);
        tel.incr(sys::LP, "incumbent_updates", self.incumbent_updates);
        tel.incr(sys::LP, "deadline_overshoot_us", self.deadline_overshoot_us);
        tel.incr(sys::LP, "refactorizations", self.refactorizations);
        tel.incr(sys::LP, "eta_len", self.eta_len);
        tel.incr(sys::LP, "warm_start_pivots", self.warm_start_pivots);
        tel.incr(sys::LP, "cold_solves", self.cold_solves);
        // Stage times (present only under `--profile`) ride as deferred
        // leaf spans: `record_span` charges their self time to the live
        // enclosing `solve_mip` span, keeping self-time sums ≤ wall.
        if self.factor_us + self.ftran_btran_us + self.pricing_us > 0 {
            tel.record_span(sys::LP, "factorize", self.factor_us);
            tel.record_span(sys::LP, "ftran_btran", self.ftran_btran_us);
            tel.record_span(sys::LP, "pricing", self.pricing_us);
        }
    }
}

/// Microseconds by which the wall-clock budget is currently exceeded
/// (0 while inside the budget, and always 0 for an infinite budget).
fn overshoot_us(start: &Instant, limit_secs: f64) -> u64 {
    let over = start.elapsed().as_secs_f64() - limit_secs;
    if over > 0.0 {
        (over * 1e6) as u64
    } else {
        0
    }
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
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Configuration for the node LPs.
    pub simplex: SimplexConfig,
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
            int_tol: 1e-6,
            simplex: SimplexConfig::default(),
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
    /// Lazy cuts added by the separator.
    pub cuts_added: usize,
    /// Microseconds the solve ran past its wall-clock budget inside
    /// uninterruptible separation rounds (also emitted as the
    /// `lp.deadline_overshoot_us` telemetry counter).
    pub deadline_overshoot_us: u64,
}

impl MipSolution {
    /// Relative gap between incumbent and bound (0 when proven optimal).
    pub fn gap(&self) -> f64 {
        if !self.objective.is_finite() {
            return f64::INFINITY;
        }
        (self.objective - self.best_bound).max(0.0) / self.objective.abs().max(1.0)
    }
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

#[derive(PartialEq)]
struct HeapKey(f64, Reverse<usize>);

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the *smallest* bound first, and
        // among equal bounds the *deepest* node (drives to incumbents).
        other
            .0
            .partial_cmp(&self.0)
            .expect("bounds are never NaN")
            .then_with(|| other.1 .0.cmp(&self.1 .0).reverse())
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
    let start = Instant::now();
    // Under the process-global `--profile` switch, node LPs collect
    // stage times (factorize / ftran-btran / pricing). Timing never
    // changes arithmetic, so the solve path is otherwise identical.
    let simplex_cfg = SimplexConfig {
        collect_timing: config.simplex.collect_timing
            || (tel.is_enabled() && np_telemetry::profiling()),
        ..config.simplex
    };
    // Every wall-clock check is also a chaos trigger point: an injected
    // `deadline` fault exhausts the budget early, exercising the same
    // graceful limit-hit path a real timeout takes.
    let chaos = np_chaos::global();
    let deadline_hit = |start: &Instant| {
        start.elapsed().as_secs_f64() > config.time_limit_secs
            || chaos.should_fire(np_chaos::FaultClass::Deadline)
    };
    let mut work = model.clone();
    // Root bound tightening (rows untouched, so cut/dual indexing is
    // stable). Tightened bounds are valid for every feasible point, so
    // they become the base the branching restores to.
    let (_, presolve_infeasible) = crate::presolve::tighten_bounds(&mut work);
    if presolve_infeasible {
        tally.emit(tel, 0, 0);
        return MipSolution {
            status: MipStatus::Infeasible,
            objective: f64::INFINITY,
            x: vec![],
            best_bound: f64::INFINITY,
            nodes: 0,
            cuts_added: 0,
            deadline_overshoot_us: 0,
        };
    }
    let int_vars: Vec<VarId> = (0..model.num_vars())
        .map(VarId)
        .filter(|&v| model.var(v).integer)
        .collect();

    let mut incumbent_obj = config.cutoff.unwrap_or(f64::INFINITY);
    let mut incumbent_x: Vec<f64> = Vec::new();
    let mut nodes = 0usize;
    let mut cuts_added = 0usize;
    let mut root_cut_rounds = 0usize;
    let mut gmi_rounds = 0usize;
    let mut rounding_attempts = 0usize;
    let is_int: Vec<bool> = model.vars().iter().map(|v| v.integer).collect();
    // Cut-pool management: lazy cuts accumulate in `work` and every node
    // LP pays for them, so before adding new ones we purge cut rows that
    // are strictly slack at the current point (always keeping the most
    // recent block). Dropping a globally-valid cut is always safe — the
    // separator regenerates it from its certificate store if it ever
    // matters again.
    let base_rows = model.num_constrs();
    const CUT_POOL: usize = 120;
    const CUT_KEEP_RECENT: usize = 40;
    fn row_exists(work: &Model, base_rows: usize, coeffs: &[(VarId, f64)], rhs: f64) -> bool {
        work.constrs()[base_rows.min(work.num_constrs())..]
            .iter()
            .any(|c| {
                (c.rhs - rhs).abs() <= 1e-9 && c.coeffs.len() == coeffs.len() && {
                    let mut sorted = coeffs.to_vec();
                    sorted.sort_by_key(|&(v, _)| v);
                    c.coeffs
                        .iter()
                        .zip(&sorted)
                        .all(|(&(v1, a1), &(v2, a2))| v1 == v2 && (a1 - a2).abs() <= 1e-9)
                }
            })
    }
    /// Returns `true` when rows were removed (cut indices shifted, so any
    /// warm-basis snapshot from before the purge is stale).
    fn purge_cuts(work: &mut Model, base_rows: usize, x: &[f64]) -> bool {
        let total = work.num_constrs();
        if total - base_rows <= CUT_POOL {
            return false;
        }
        let decisions: Vec<bool> = (base_rows..total)
            .map(|k| k + CUT_KEEP_RECENT >= total || work.row_slack(&work.constrs()[k], x) <= 1e-6)
            .collect();
        let mut it = decisions.into_iter();
        work.purge_constrs(base_rows, |_| it.next().unwrap_or(true));
        work.num_constrs() != total
    }
    // Max-heap on HeapKey (inverted): we implemented Ord so that pop()
    // yields the smallest-bound node. Node payload must not affect order.
    struct ByKey(HeapKey, Node);
    impl PartialEq for ByKey {
        fn eq(&self, o: &Self) -> bool {
            self.0 == o.0
        }
    }
    impl Eq for ByKey {}
    impl PartialOrd for ByKey {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for ByKey {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.cmp(&o.0)
        }
    }
    let mut heap2: BinaryHeap<ByKey> = BinaryHeap::new();
    heap2.push(ByKey(
        HeapKey(f64::NEG_INFINITY, Reverse(0)),
        Node {
            overrides: vec![],
            bound: f64::NEG_INFINITY,
            depth: 0,
            basis: None,
        },
    ));
    // Cut-purge generation: bumped whenever `purge_cuts` removes rows.
    // Warm-basis snapshots are tagged with the generation they were
    // captured under and only reused while it is current.
    let mut purge_gen: u64 = 0;

    let mut best_bound = f64::NEG_INFINITY;
    // Highest LP objective ever seen at the root (no bound overrides):
    // a monotone global lower bound regardless of later purging.
    let mut root_bound = f64::NEG_INFINITY;
    let mut limit_hit = false;
    // Set alongside `limit_hit` when the limit was the wall clock (real
    // or chaos-injected) rather than nodes/iterations — distinguishes
    // `TimeLimit` from `Feasible`/`Limit` in the final status.
    let mut deadline_expired = false;

    'outer: while let Some(ByKey(_, popped)) = heap2.pop() {
        best_bound = popped.bound.max(f64::NEG_INFINITY);
        // Plunge: after branching, dive straight into one child instead of
        // going back to the heap. Diving reaches integer-feasible leaves
        // orders of magnitude sooner than pure best-first on wide integer
        // ranges, which is where incumbents come from.
        let mut current = Some(popped);
        while let Some(node) = current.take() {
            // Prune against the incumbent. The pruning margin is a quarter
            // of the optimality gap: pruning at the full gap would freeze
            // the incumbent at whatever warm start/cutoff was provided and
            // never collect the improvements inside the band.
            let prune_margin = 0.25 * config.gap_tol * incumbent_obj.abs().max(1.0);
            if node.bound >= incumbent_obj - prune_margin {
                continue 'outer;
            }
            if nodes >= config.node_limit {
                limit_hit = true;
                // Preserve the bound information of the unexplored node.
                heap2.push(ByKey(HeapKey(node.bound, Reverse(node.depth)), node));
                break 'outer;
            }
            if deadline_hit(&start) {
                limit_hit = true;
                deadline_expired = true;
                heap2.push(ByKey(HeapKey(node.bound, Reverse(node.depth)), node));
                break 'outer;
            }
            nodes += 1;

            // Apply this node's bound overrides, recording an undo stack
            // of the displaced bounds: reverting it after the node is
            // O(depth), instead of the O(num_vars) full restore the
            // solver used to pay per node.
            let mut undo: Vec<(VarId, f64, f64)> = Vec::with_capacity(node.overrides.len());
            for &(v, lb, ub) in &node.overrides {
                let old = work.var(v);
                undo.push((v, old.lb, old.ub));
                work.set_bounds(v, lb, ub);
            }
            // The parent's optimal basis seeds this node's first LP; each
            // optimal re-solve refreshes it for the next one.
            let mut node_basis = node.basis.clone();
            let mut candidate = None;
            // Separation loop: re-solve while the separator rejects candidates.
            loop {
                // The cut loop can dwarf a node's LP time; honor the
                // wall-clock budget inside it too.
                if deadline_hit(&start) {
                    limit_hit = true;
                    deadline_expired = true;
                    break;
                }
                // Warm-start from the parent's (or the previous round's)
                // optimal basis, unless a cut purge has invalidated it by
                // deleting rows. The tableau view is only needed for root
                // GMI generation.
                let warm_ref = node_basis
                    .as_ref()
                    .and_then(|(gen, b)| (*gen == purge_gen).then(|| b.as_ref()));
                let out = solve_lp_warm_chaos(
                    &work,
                    &simplex_cfg,
                    warm_ref,
                    node.depth == 0,
                    np_chaos::global(),
                );
                let lp = out.solution;
                let view = out.view;
                if let Some(b) = out.basis {
                    node_basis = Some((purge_gen, Rc::new(b)));
                }
                tally.absorb(&lp);
                match lp.status {
                    LpStatus::Infeasible => break,
                    LpStatus::Unbounded => {
                        if node.depth == 0 && node.overrides.is_empty() {
                            // No overrides were applied, so `work` still
                            // carries the original bounds — nothing to undo.
                            tally.emit(tel, nodes, cuts_added);
                            return MipSolution {
                                status: MipStatus::Unbounded,
                                objective: f64::NEG_INFINITY,
                                x: vec![],
                                best_bound: f64::NEG_INFINITY,
                                nodes,
                                cuts_added,
                                deadline_overshoot_us: tally.deadline_overshoot_us,
                            };
                        }
                        break;
                    }
                    LpStatus::IterationLimit | LpStatus::NumericalFailure => {
                        if std::env::var_os("NP_LP_DEBUG").is_some() {
                            eprintln!(
                                "[np-lp] node depth {} LP {:?} after {} iters, {} rows",
                                node.depth,
                                lp.status,
                                lp.iterations,
                                work.num_constrs()
                            );
                        }
                        // Unknown, not infeasible: abandoning this node as
                        // "pruned" could falsely prove infeasibility, so
                        // surface it as a limit instead. NumericalFailure
                        // lands here only after the simplex exhausted its
                        // whole recovery ladder.
                        limit_hit = true;
                        break;
                    }
                    LpStatus::Optimal => {}
                }
                if node.depth == 0 && node.overrides.is_empty() {
                    root_bound = root_bound.max(lp.objective);
                }
                if lp.objective
                    >= incumbent_obj - 0.25 * config.gap_tol * incumbent_obj.abs().max(1.0)
                {
                    break; // bound-dominated
                }
                // Fractional integer variable?
                let frac = int_vars
                    .iter()
                    .map(|&v| {
                        let xi = lp.x[v.0];
                        (v, xi, (xi - xi.round()).abs())
                    })
                    .filter(|&(_, _, f)| f > config.int_tol)
                    .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
                match frac {
                    Some((v, xi, _)) => {
                        // Root cutting-plane loop: separate *fractional*
                        // optima too (the separator's cuts must be valid for
                        // any point, which Benders feasibility cuts are).
                        // This drives the root bound to the true LP
                        // relaxation of the full problem before any
                        // branching happens.
                        if node.depth == 0 && root_cut_rounds < 200 {
                            if let Some(sep) = separator.as_deref_mut() {
                                // The node LP may have eaten the remaining
                                // budget; don't start a separation round the
                                // deadline no longer covers.
                                if deadline_hit(&start) {
                                    limit_hit = true;
                                    deadline_expired = true;
                                    break;
                                }
                                tally.lazy_callbacks += 1;
                                let cuts = sep(&lp.x);
                                let over = overshoot_us(&start, config.time_limit_secs);
                                let mut added_any = false;
                                if !cuts.is_empty() {
                                    root_cut_rounds += 1;
                                    if purge_cuts(&mut work, base_rows, &lp.x) {
                                        purge_gen += 1;
                                    }
                                    for cut in cuts {
                                        if row_exists(&work, base_rows, &cut.coeffs, cut.rhs) {
                                            continue; // duplicate row: adding it again
                                                      // only degenerates the basis
                                        }
                                        work.add_constr(cut.name, cut.coeffs, cut.sense, cut.rhs);
                                        cuts_added += 1;
                                        added_any = true;
                                    }
                                }
                                // The round blew the deadline: keep the cuts
                                // it paid for, but stop instead of re-solving.
                                if over > 0 {
                                    tally.deadline_overshoot_us += over;
                                    limit_hit = true;
                                    deadline_expired = true;
                                    break;
                                }
                                if added_any {
                                    continue;
                                }
                            }
                        }
                        // Round-up primal heuristic: ceiling the root LP's
                        // integer components often lands on a feasible
                        // point of covering-type problems and gives the
                        // search an incumbent long before any leaf does.
                        if node.depth == 0 && rounding_attempts < 12 {
                            rounding_attempts += 1;
                            let mut rounded = lp.x.clone();
                            for &vi in &int_vars {
                                let ub = work.var(vi).ub;
                                rounded[vi.0] = rounded[vi.0].ceil().min(ub);
                            }
                            // Clamping to a fractional upper bound can leave
                            // a non-integral value: the point is then not a
                            // candidate at all.
                            let integral = int_vars.iter().all(|&vi| {
                                (rounded[vi.0] - rounded[vi.0].round()).abs() <= config.int_tol
                            });
                            let obj = work.objective_value(&rounded);
                            if integral
                                && obj < incumbent_obj - config.gap_tol
                                && work.is_feasible(&rounded, 1e-6)
                            {
                                if separator.is_some()
                                    && start.elapsed().as_secs_f64() > config.time_limit_secs
                                {
                                    // Can't afford the validation round, and
                                    // an unvalidated incumbent is worthless.
                                    limit_hit = true;
                                    deadline_expired = true;
                                    break;
                                }
                                let rejected = separator
                                    .as_deref_mut()
                                    .map(|sep| {
                                        tally.lazy_callbacks += 1;
                                        let cuts = sep(&rounded);
                                        let any = !cuts.is_empty();
                                        for cut in cuts {
                                            work.add_constr(
                                                cut.name, cut.coeffs, cut.sense, cut.rhs,
                                            );
                                            cuts_added += 1;
                                        }
                                        any
                                    })
                                    .unwrap_or(false);
                                let over = overshoot_us(&start, config.time_limit_secs);
                                if !rejected {
                                    incumbent_obj = obj;
                                    incumbent_x = rounded;
                                    tally.incumbent_updates += 1;
                                }
                                if over > 0 {
                                    // Keep the validated incumbent / new rows
                                    // the round produced, then stop.
                                    tally.deadline_overshoot_us += over;
                                    limit_hit = true;
                                    deadline_expired = true;
                                    break;
                                }
                                if rejected {
                                    continue; // new rows: re-solve the root
                                }
                            }
                        }
                        // Root Gomory mixed-integer cuts: globally valid
                        // because they are derived under the original
                        // bounds; they are what actually closes the
                        // integrality gap the Benders rows leave open.
                        if node.depth == 0 && gmi_rounds < 40 {
                            if let Some(view) = &view {
                                let cuts = gomory::generate(&work, view, &is_int, 10, 1e-6);
                                if !cuts.is_empty() {
                                    gmi_rounds += 1;
                                    if purge_cuts(&mut work, base_rows, &lp.x) {
                                        purge_gen += 1;
                                    }
                                    for (k, cut) in cuts.into_iter().enumerate() {
                                        work.add_constr(
                                            format!("gmi_{gmi_rounds}_{k}"),
                                            cut.coeffs,
                                            Sense::Ge,
                                            cut.rhs,
                                        );
                                        cuts_added += 1;
                                        tally.gomory_cuts += 1;
                                    }
                                    continue;
                                }
                            }
                        }
                        // Branch: park the down child on the heap, dive into
                        // the up child (capacity problems are covering-like,
                        // so rounding up is the feasibility direction).
                        let (lb, ub) = current_bounds(&work, v);
                        let down = xi.floor();
                        let up = xi.ceil();
                        if down >= lb - 1e-9 {
                            let mut o = node.overrides.clone();
                            o.push((v, lb, down));
                            heap2.push(ByKey(
                                HeapKey(lp.objective, Reverse(node.depth + 1)),
                                Node {
                                    overrides: o,
                                    bound: lp.objective,
                                    depth: node.depth + 1,
                                    basis: node_basis.clone(),
                                },
                            ));
                        }
                        if up <= ub + 1e-9 {
                            let mut o = node.overrides.clone();
                            o.push((v, up, ub));
                            current = Some(Node {
                                overrides: o,
                                bound: lp.objective,
                                depth: node.depth + 1,
                                basis: node_basis.clone(),
                            });
                        }
                        break;
                    }
                    None => {
                        // Integer feasible: offer to the separator.
                        if let Some(sep) = separator.as_deref_mut() {
                            // Out of budget before validation: the candidate
                            // stays unproven — leave without accepting it.
                            if start.elapsed().as_secs_f64() > config.time_limit_secs {
                                limit_hit = true;
                                deadline_expired = true;
                                break;
                            }
                            tally.lazy_callbacks += 1;
                            let cuts = sep(&lp.x);
                            let over = overshoot_us(&start, config.time_limit_secs);
                            if over > 0 {
                                tally.deadline_overshoot_us += over;
                                limit_hit = true;
                                deadline_expired = true;
                            }
                            if !cuts.is_empty() {
                                if purge_cuts(&mut work, base_rows, &lp.x) {
                                    purge_gen += 1;
                                }
                                let mut added_any = false;
                                for cut in cuts {
                                    if row_exists(&work, base_rows, &cut.coeffs, cut.rhs) {
                                        continue;
                                    }
                                    work.add_constr(cut.name, cut.coeffs, cut.sense, cut.rhs);
                                    cuts_added += 1;
                                    added_any = true;
                                }
                                if added_any {
                                    if limit_hit {
                                        break; // rows kept; no budget to re-solve
                                    }
                                    continue; // re-solve this node with the new rows
                                }
                                // Every returned cut was already a row the LP
                                // point satisfies: numerical stalemate. Treat
                                // the candidate as unproven rather than loop.
                                if std::env::var_os("NP_LP_DEBUG").is_some() {
                                    eprintln!(
                                        "[np-lp] duplicate-cut stalemate at depth {}",
                                        node.depth
                                    );
                                }
                                limit_hit = true;
                                break;
                            }
                        }
                        candidate = Some((lp.objective, lp.x));
                        break;
                    }
                }
            }
            if let Some((obj, x)) = candidate {
                if obj < incumbent_obj {
                    incumbent_obj = obj;
                    incumbent_x = x;
                    tally.incumbent_updates += 1;
                }
            }
            // Revert this node's bound overrides before the next plunge
            // step / heap node. Reverse order so nested overrides of the
            // same variable unwind to the original bounds.
            for &(v, lb, ub) in undo.iter().rev() {
                work.set_bounds(v, lb, ub);
            }
        }
    }

    // The remaining best bound is the smallest bound still in the heap (or
    // the incumbent if the tree is exhausted).
    let remaining = heap2
        .iter()
        .map(|n| n.1.bound)
        .fold(f64::INFINITY, f64::min);
    let mut proven = !limit_hit && remaining.is_infinite();
    if proven {
        best_bound = incumbent_obj;
    } else {
        best_bound = best_bound.max(f64::NEG_INFINITY).min(remaining);
        // Heap bounds are parent-era LP objectives and go stale as lazy
        // cuts accumulate globally. One fresh root LP over the *current*
        // row set is a valid global lower bound and usually much tighter.
        let root = solve_lp(&work, &simplex_cfg);
        tally.absorb(&root);
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
    let status = if incumbent_x.is_empty() && !incumbent_obj.is_finite() {
        if proven {
            MipStatus::Infeasible
        } else if deadline_expired {
            MipStatus::TimeLimit
        } else {
            MipStatus::Limit
        }
    } else if proven {
        MipStatus::Optimal
    } else if deadline_expired {
        MipStatus::TimeLimit
    } else {
        MipStatus::Feasible
    };
    tally.emit(tel, nodes, cuts_added);
    MipSolution {
        status,
        objective: incumbent_obj,
        x: incumbent_x,
        best_bound,
        nodes,
        cuts_added,
        deadline_overshoot_us: tally.deadline_overshoot_us,
    }
}

fn current_bounds(model: &Model, v: VarId) -> (f64, f64) {
    let var = model.var(v);
    (var.lb, var.ub)
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
        assert!(s.gap() < 1e-9);
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
        let spans = tel.spans();
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
        assert!(s.gap() > 0.0, "the proof was genuinely incomplete");
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
