//! Regression pin for the adaptive refactorization trigger.
//!
//! The revised simplex refactorizes when the eta file has grown past its
//! fill-in budget, not every fixed number of solve rounds (the bug
//! `--profile` exposed: round-counting refactorized warm re-solves that
//! had barely touched the basis). The preset-B Benders master at a
//! 200-node budget is held to the cost bits, factorization count and
//! pivot count it had when the simplex still had a second engine, a dense
//! `B⁻¹` that solved every LP cold (97 factorizations and 5 150 pivots
//! there, against 67 and 368): a trigger that fires more often, or a warm
//! start that stops paying, moves a count here before it moves a plan.
//! The counts also follow the cuts the separator certifies. Since it
//! rounds coarse MWU misses to node cuts (DESIGN.md §17, "Rounding") the
//! master needed 38 and 183, and ended on another optimum one ulp cheaper
//! (units that differ on four links; the old plan's exact cost is 5e-14
//! above the new one's, so it stays within the gap). Since it tries the
//! node cuts of the unit and inverse-capacity metrics before any MWU
//! pass, it needs 10 and 85 and ends on the cost bits it had before it
//! rounded (…6ce9).

use neuroplan::master::{solve_master_telemetry, MasterConfig};
use np_eval::{EvalConfig, PlanEvaluator};
use np_telemetry::{sys, Telemetry};
use np_topology::{generator::preset_network, TopologyPreset};

#[test]
fn preset_b_master_keeps_its_factorization_and_pivot_counts() {
    let net = preset_network(TopologyPreset::B);
    let tel = Telemetry::memory();
    let mut evaluator = PlanEvaluator::with_telemetry(&net, EvalConfig::default(), tel.clone());
    let cfg = MasterConfig::new(MasterConfig::spectrum_bounds(&net), 200, f64::INFINITY);
    let out = solve_master_telemetry(&net, &mut evaluator, &cfg, &tel);
    let got = (
        out.cost.to_bits(),
        tel.counter(sys::LP, "refactorizations"),
        tel.counter(sys::LP, "simplex_iterations"),
    );
    // Cost 1242.5653923366283.
    assert_eq!(
        got,
        (0x4093_6a42_f635_6ce9, 10, 85),
        "cost bits, refactorizations, pivots"
    );
}
