//! # neuroplan
//!
//! The paper's primary contribution: **NeuroPlan**, a two-stage hybrid
//! network-planning system (SIGCOMM 2021).
//!
//! Stage 1 trains a deep-RL agent (GCN encoder over the node-link
//! transformed topology + actor-critic, §4.2) whose trajectories *add
//! capacity* to the network until the plan evaluator confirms every
//! demand survives every failure in the reliability policy. The best
//! feasible plan found becomes the **initial plan**.
//!
//! Stage 2 prunes the search space around that plan — each link's
//! capacity is bounded by `α ×` its first-stage value (the relax factor
//! of Fig. 2) — and solves the resulting ILP to optimality (§4.3). Our
//! ILP master works on capacity variables only, with the full
//! all-failures formulation enforced through lazy metric-inequality
//! (Benders) cuts separated by the plan evaluator; DESIGN.md §1 explains
//! why this is equivalent to the paper's monolithic ILP.
//!
//! The crate also ships the two comparison systems of §6:
//! [`baselines::solve_ilp`] (the raw ILP, which stops scaling beyond the
//! smallest topology) and [`baselines::solve_ilp_heur`] (hand-tuned
//! heuristics: capacity-unit enlargement and iterative failure
//! selection, the production workarounds of §3.2).

pub mod baselines;
pub mod certificate;
pub mod checkpoint;
pub mod config;
pub mod env;
pub mod greedy;
pub mod master;
pub mod pipeline;
pub mod replan;
pub mod report;
pub mod service;
pub mod spec;
pub mod sweep;

pub use certificate::{verify, Certificate};
pub use config::NeuroPlanConfig;
pub use env::PlanningEnv;
pub use greedy::{greedy_augment, greedy_augment_telemetry};
pub use master::{solve_master, solve_master_telemetry, MasterConfig, MasterOutcome};
pub use np_supervisor::{PlanQuality, StageBudget, SupervisionReport, SupervisorConfig};
pub use pipeline::{
    certify, validate_plan, FirstStage, NeuroPlan, NeuroPlanResult, PlanError, PlanFailure,
};
pub use replan::{EventReport, ReplanConfig, ReplanReport};
pub use report::PruningReport;
pub use service::NeuroPlanService;
pub use spec::PlanSpec;
