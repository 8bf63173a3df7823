//! # np-eval
//!
//! The NeuroPlan **plan evaluator** (Fig. 3): given the network plan (the
//! per-link capacities), decide per failure scenario whether every active
//! demand can be routed, and produce the reward-relevant verdicts for the
//! RL environment plus the infeasibility certificates (metric cuts) for
//! the ILP stage.
//!
//! The paper's evaluator is a Gurobi LP plus two throughput optimizations
//! (§5): **source aggregation** (flows sharing a source become one
//! multi-sink commodity, shrinking the constraint count from
//! `s(fm + 2l)` to `s(m² + 2l)`) and **stateful failure checking** (a
//! plan that survived a failure keeps surviving it as capacity only ever
//! grows, so checking resumes from the first previously-failed scenario).
//! Both are implemented here, along with two further from-scratch
//! accelerations that exploit our certificate machinery:
//!
//! * **certificate reuse** — the violated metric cut that failed a
//!   scenario last time is re-evaluated in `O(links)` first; while it
//!   stays violated the expensive check is skipped entirely;
//! * **witness fast path** — the flow that last routed a scenario is
//!   re-checked arc by arc; where some arcs no longer cover it, their
//!   overflow is detoured along spare capacity (`greedy::repair`), and
//!   only where that fails does a greedy multicommodity routing attempt
//!   run from scratch, which proves feasibility cheaply in the common
//!   late-trajectory case.
//!
//! A scenario's proofs — the cut that last failed it, the flow that last
//! routed it and its path LP — are one value on its [`ScenarioCtx`]: the
//! scan's undo, `fork`/`absorb`, the perturbation surgery and the
//! checkpoint snapshot each move it (DESIGN.md §9, §14, §17).
//!
//! The verdict pipeline per scenario ([`check_scenario`]) is: stored
//! cut → degree cuts → stored witness, reused or repaired → greedy
//! witness → rounded node cuts → MWU (coarse, then fine) with exact cut
//! verification → exact LP (max concurrent flow in path form, solved by
//! column generation on a model that persists per scenario; the paper's
//! edge formulation is the test oracle). Where the
//! exact LP may run and the scenario's model has already answered since
//! its last perturbation, a coarse pass that decides nothing goes straight
//! to a warm re-solve of that model instead of the fine pass (DESIGN.md
//! §17, "Escalation"); otherwise the coarse lengths are first rounded to a
//! node cut, and a verified violated one answers instead of the fine pass
//! (§17, "Rounding"). Every infeasibility answer is certified by an
//! exactly-checked metric inequality or the LP; every feasibility answer
//! by a primal flow or the LP. The one approximation is the RL loop's:
//! with [`CheckConfig::allow_exact_lp`] off, a fine pass that ends with
//! `λ < 1` and no verified cut is reported infeasible, without a cut.
//!
//! Parallel failure groups (§5's multi-machine trick, here scoped-thread
//! threads) are used when many scenarios must be checked at once.

pub mod checker;
#[cfg(test)]
mod edge_oracle;
pub mod evaluator;
pub mod scenario;
pub mod stats;
pub mod witness;

pub use checker::{check_scenario, CheckConfig, Verdict};
pub use evaluator::{caps_of, EvalConfig, PlanEvaluator, Separation, TrajectoryCheck};
pub use scenario::{scenario_count, Scenario, ScenarioCtx};
pub use stats::EvalStats;
pub use witness::path_witness;
