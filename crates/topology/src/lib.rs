//! # np-topology
//!
//! Cross-layer WAN topology model for the NeuroPlan reproduction.
//!
//! A backbone network is modelled exactly as in §3.1 of the paper:
//!
//! * a **layer-1 (optical) graph** of [`Site`]s connected by [`Fiber`]s,
//!   each fiber with a finite usable spectrum;
//! * a **layer-3 (IP) overlay** of [`IpLink`]s, each riding a path of
//!   fibers (parallel IP links between the same site pair over different
//!   fiber paths are first-class);
//! * a set of [`Flow`]s (site-to-site demands with a class of service);
//! * a set of [`Failure`] scenarios (fiber cuts, site failures, shared-risk
//!   link groups);
//! * a [`ReliabilityPolicy`] saying which classes of service must survive
//!   which failures;
//! * a [`CostModel`] implementing the paper's Eq. 1 objective.
//!
//! The crate also provides the paper's **node-link transformation**
//! (§4.2, Fig. 5) used to feed the topology to a GNN, and one seeded,
//! deterministic instance builder behind two config front-ends:
//! [`generator`] holds the presets calibrated to the paper's production
//! topologies A–E, [`family`] a whole scenario matrix of seven
//! [`TopologyFamily`] graph processes × six [`SizeTier`]s (A–E plus a
//! 10× "F") × three [`FailureModel`]s. A front-end draws its own fiber
//! plant; every step from fibers to failures is shared.

mod builder;
pub mod cost;
pub mod error;
pub mod family;
pub mod generator;
pub mod ids;
pub mod model;
pub mod network;
pub mod perturb;
pub mod policy;
pub mod reference;
pub mod transform;

pub use cost::CostModel;
pub use error::TopologyError;
pub use family::{family_network, FailureModel, FamilyConfig, SizeTier, TopologyFamily};
pub use generator::{GeneratorConfig, TopologyPreset};
pub use ids::{FailureId, FiberId, FlowId, LinkId, SiteId};
pub use model::{CosClass, Failure, FailureKind, Fiber, Flow, IpLink, PathFlow, Site};
pub use network::{FailureImpact, Network, PlanSnapshot};
pub use perturb::{PerturbDelta, Perturbation};
pub use policy::ReliabilityPolicy;
pub use transform::{transform, TransformedGraph};
