//! # np-rl
//!
//! Reinforcement-learning substrate: the actor-critic machinery of the
//! paper's §4.2 / Algorithm 1, independent of the planning domain.
//!
//! * `env` — the [`GraphEnv`] trait: an environment
//!   whose observation is a node-feature matrix over a **fixed** graph
//!   (the node-link-transformed topology) plus an action mask;
//! * [`buffer`] — epoch buffers with trajectory bookkeeping, GAE(λ)
//!   advantages (Eq. 6) and discounted rewards-to-go;
//! * [`agent`] — the Fig. 6 network: shared GCN encoder, per-node actor
//!   head (masked categorical over `node × capacity-unit` actions),
//!   mean-pooled critic head; two Adam optimizers so the policy and value
//!   losses each update the shared GCN, exactly as Algorithm 1 lines
//!   16–22 prescribe;
//! * [`trainer`] — the epoch loop of Algorithm 1: sample trajectories
//!   with the current actor (reset on satisfaction / length cap / epoch
//!   cut), then one policy update and one value update per epoch.

pub mod agent;
pub mod buffer;
pub mod env;
pub mod trainer;

pub use agent::{ActorCritic, AgentConfig};
pub use buffer::{EpochBuffer, StepRecord};
pub use env::{GraphEnv, Observation};
pub use trainer::{
    train, train_resumable, EpochCallbacks, EpochHook, EpochStats, StopRule, TrainConfig,
    TrainProgress, TrainReport, TrainResume,
};
