//! Regression pin for the adaptive refactorization trigger.
//!
//! The sparse revised simplex refactorizes when the eta file has grown
//! past its fill-in budget, not every fixed number of solve rounds (the
//! bug `--profile` exposed: round-counting refactorized warm re-solves
//! that had barely touched the basis). On the Figure-15 instance the
//! warm-started sparse backend must therefore factorize *less* often
//! than the dense reference, which cold-starts every solve — while still
//! reaching the same optimum.
//!
//! "The same optimum" is a cost at most a few ulps away, not the same
//! bits. This instance routes as cheaply over multihop link 23 as over
//! links 1, 5 and 16 (the same fiber kilometres), so the master's LP
//! optimum is a degenerate face and each engine may stop on its own
//! vertex of it: here two plans whose Eq. 1 sums are one ulp apart
//! (1242.565392336628 and 1242.5653923366283), as on preset A seeds 10
//! and 12.

use neuroplan::master::{solve_master_telemetry, MasterConfig};
use np_eval::{EvalConfig, PlanEvaluator};
use np_lp::LpBackend;
use np_telemetry::{sys, Telemetry};
use np_topology::{generator::preset_network, Network, TopologyPreset};

struct Run {
    cost: f64,
    refactorizations: u64,
    pivots: u64,
}

/// The fig15 master solve at a CI-sized node budget (the bench binary
/// uses 600; the trigger behaviour shows up well before that).
fn run(net: &Network, backend: LpBackend) -> Run {
    let tel = Telemetry::memory();
    let mut evaluator = PlanEvaluator::with_telemetry(net, EvalConfig::default(), tel.clone());
    let cfg = MasterConfig {
        lp_backend: backend,
        ..MasterConfig::new(MasterConfig::spectrum_bounds(net), 200, f64::INFINITY)
    };
    let out = solve_master_telemetry(net, &mut evaluator, &cfg, &tel);
    Run {
        cost: out.cost,
        refactorizations: tel.counter(sys::LP, "refactorizations"),
        pivots: tel.counter(sys::LP, "simplex_iterations"),
    }
}

#[test]
fn sparse_refactorizes_less_than_dense_on_fig15_instance() {
    let net = preset_network(TopologyPreset::B);
    let dense = run(&net, LpBackend::Dense);
    let sparse = run(&net, LpBackend::Sparse);
    assert!(
        dense.cost.to_bits().abs_diff(sparse.cost.to_bits()) <= 4,
        "backends must agree on the optimum: dense {} vs sparse {}",
        dense.cost,
        sparse.cost
    );
    assert!(
        sparse.refactorizations < dense.refactorizations,
        "adaptive trigger regressed: sparse {} refactorizations vs dense {}",
        sparse.refactorizations,
        dense.refactorizations
    );
    assert!(
        sparse.pivots < dense.pivots,
        "warm starts must reduce pivots: sparse {} vs dense {}",
        sparse.pivots,
        dense.pivots
    );
}
