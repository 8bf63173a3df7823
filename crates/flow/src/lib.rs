//! # np-flow
//!
//! Graph and flow-computation substrate for the NeuroPlan reproduction.
//!
//! The plan evaluator (Fig. 3) must answer, per failure scenario, one
//! question: *can every active demand be routed simultaneously within the
//! surviving link capacities?* — i.e. feasibility of a fractional
//! multicommodity flow. The paper answers it with a Gurobi LP; this crate
//! provides the from-scratch machinery:
//!
//! * [`FlowGraph`] — a small directed graph with arc capacities, built by
//!   the evaluator from a topology + failure scenario, and [`Packed`],
//!   its arcs in CSR order;
//! * [`dijkstra`] — the one shortest-path kernel, under arbitrary
//!   non-negative arc lengths (used by everything below);
//! * [`dinic`] — exact single-commodity max-flow (fast necessary
//!   conditions and tests);
//! * [`greedy`] — a shortest-path multicommodity router; when it succeeds
//!   it is a *primal witness* of feasibility at a fraction of the LP cost;
//! * [`mwu`] — Fleischer's multiplicative-weights **max concurrent flow**
//!   approximation: λ ≥ 1 certifies feasibility, and its dual length
//!   function seeds…
//! * [`metric`] — metric-inequality extraction: an exactly-verified
//!   violated inequality `Σ_l u_l·C_l ≥ Σ_ω d_ω·dist_u(s_ω,t_ω)` is both
//!   an infeasibility *certificate* and a **Benders cut** for the
//!   capacity-only ILP master (see DESIGN.md §1).
//!
//! By LP duality, fractional multicommodity feasibility holds **iff every
//! metric inequality holds** (the feasibility LP's dual variables are
//! exactly length functions), which is what makes the cut loop in
//! `neuroplan` equivalent to the paper's joint formulation.

pub mod commodity;
pub mod dijkstra;
pub mod dinic;
pub mod error;
pub mod graph;
pub mod greedy;
pub mod ksp;
pub mod metric;
pub mod mwu;

pub use commodity::Commodity;
pub use dijkstra::ShortestPaths;
pub use error::FlowError;
pub use graph::{Arc, ArcId, FlowGraph, NodeId, Packed};
pub use ksp::{k_shortest_paths, Path};
pub use metric::MetricCut;
pub use mwu::{ConcurrentFlow, MwuConfig};
