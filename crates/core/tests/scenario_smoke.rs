//! Pipeline smoke matrix: every topology family must survive the full
//! RL + ILP pipeline end to end.
//!
//! One cell per [`TopologyFamily`] at the smallest tier with the full
//! failure model, planned under a deliberately tight stage budget. The
//! supervisor is allowed to degrade (that is the point of the ladder) —
//! what it is *not* allowed to do is fail outright or emit a plan that
//! `validate_plan` rejects.

use neuroplan::{validate_plan, NeuroPlan, NeuroPlanConfig};
use np_topology::{FamilyConfig, SizeTier, TopologyFamily};

/// Small enough that the whole 7-family matrix runs in a debug-mode
/// `cargo test` without dominating the suite: the point is plumbing
/// (family surface → transform → RL → ILP → validation), not policy
/// quality.
fn smoke_config() -> NeuroPlanConfig {
    let mut cfg = NeuroPlanConfig::quick().with_seed(11);
    cfg.train.epochs = 2;
    cfg.train.steps_per_epoch = 64;
    cfg.train.max_traj_len = 48;
    cfg.mip_node_limit = 100;
    cfg.mip_time_limit_secs = 2.0;
    cfg.final_rollouts = 1;
    cfg.with_stage_budget(30.0)
}

#[test]
fn every_family_plans_end_to_end_at_tier_a() {
    let planner = NeuroPlan::new(smoke_config());
    for family in TopologyFamily::ALL {
        let net = FamilyConfig::new(family, SizeTier::A).generate();
        let result = planner.try_plan(&net).unwrap_or_else(|e| {
            panic!("{family}: pipeline failed outright: {e:?}");
        });
        validate_plan(&net, &result.final_units)
            .unwrap_or_else(|e| panic!("{family}: invalid final plan: {e:?}"));
        assert!(
            result.final_cost.is_finite() && result.final_cost > 0.0,
            "{family}: bad final cost {}",
            result.final_cost
        );
        assert!(
            result.final_cost <= result.first_stage_cost * (1.0 + 1e-9),
            "{family}: second stage made the plan worse ({} > {})",
            result.final_cost,
            result.first_stage_cost
        );
        // Whatever rung the ladder landed on, it is a named, real rung.
        assert!(result.quality.rung() <= 3, "{family}: unknown rung");
    }
}

/// Regression pin for the one cell of the Figure-16 matrix that used to
/// degrade under quick budgets: Erdős-Rényi at tier B. The stall was
/// never a branching pathology — `--profile` attributed the wall to the
/// evaluator (full-length fine-MWU runs on boundary-infeasible
/// scenarios, plus cold exact-LP re-solves), so the master's MILP budget
/// ran dry and the supervisor fell back to its incumbent. With the
/// re-budgeted fine ε, witness reuse and warm-started LPs the cell
/// proves optimality well inside the same budgets; this test keeps it
/// that way.
#[test]
fn er_tier_b_no_longer_degrades_to_incumbent() {
    let planner = NeuroPlan::new(smoke_config());
    let net = FamilyConfig::new(TopologyFamily::ErdosRenyi, SizeTier::B).generate();
    let result = planner
        .try_plan(&net)
        .unwrap_or_else(|e| panic!("er/B: pipeline failed outright: {e:?}"));
    validate_plan(&net, &result.final_units)
        .unwrap_or_else(|e| panic!("er/B: invalid final plan: {e:?}"));
    assert_eq!(
        result.quality.rung(),
        0,
        "er/B degraded to rung {} ({}) — the evaluator stall is back",
        result.quality.rung(),
        result.quality
    );
}
