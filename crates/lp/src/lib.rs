//! # np-lp
//!
//! Linear and mixed-integer programming substrate for the NeuroPlan
//! reproduction — the from-scratch stand-in for the Gurobi/CPLEX solver
//! the paper calls (§3.2, §4.3, §5).
//!
//! * [`model`] — a solver-agnostic model builder: variables with bounds,
//!   objective coefficients and integrality; linear constraints with
//!   `≤ / = / ≥` senses. The same model type is consumed by both solvers.
//! * [`simplex`] — a **bounded-variable two-phase sparse revised
//!   simplex**: [`sparse`] CSC storage and a [`factor`] LU-factorized
//!   basis with eta updates and adaptive refactorization. Dantzig pricing
//!   with a Bland fallback guards against cycling.
//! * [`dual`] — a bounded-variable **dual simplex** used for
//!   warm-started re-optimization: reinstall a previously-optimal basis
//!   after a bound change or appended rows and restore feasibility in a
//!   handful of pivots instead of re-running both phases.
//! * `presolve` — root bound tightening for the MILP: row activity
//!   ranges narrow variable bounds (singleton rows unrounded, integer
//!   bounds rounded inward); no row is added, removed or reordered;
//! * [`milp`] — **branch & bound** over the simplex relaxation:
//!   best-bound node selection, most-fractional branching, incumbent and
//!   gap management, node/time limits, and — crucially for NeuroPlan —
//!   **lazy-constraint callbacks**: every integer-feasible candidate is
//!   offered to a user callback that may reject it with violated cuts
//!   (our Benders metric-inequality separation), exactly the mechanism
//!   commercial solvers expose for row generation. Each child node
//!   warm-starts from its parent's optimal basis.
//!
//! Scale honesty: the simplex is a real revised simplex with LU
//! updates, but tuned for the repository's problem sizes (hundreds to a
//! few thousand rows/columns per LP) — the factorization is left-looking
//! with a dense work column rather than a supernodal code, and pricing is
//! full Dantzig rather than partial/steepest-edge. See DESIGN.md §12 for
//! the warm-start contract and §1 for why the Benders decomposition keeps
//! every LP we solve inside this envelope.

pub mod dual;
pub mod factor;
pub mod gomory;
pub mod milp;
pub mod model;
mod presolve;
pub mod simplex;
pub mod sparse;

pub use gomory::GmiCut;
pub use milp::{
    solve_mip, solve_mip_telemetry, Cut, MipConfig, MipSolution, MipStatus, SeparatorFn,
};
pub use model::{ConstrId, Model, Sense, VarId};
pub use simplex::{
    solve_lp, solve_lp_warm, solve_lp_warm_chaos, LpOutcome, LpSolution, LpStatus, SimplexConfig,
    SolveStats, TableauView,
};
pub use sparse::{CscMatrix, IncrementalLp, WarmBasis, WarmCol};

#[cfg(test)]
mod pins;
