//! NeuroPlan configuration (Table 2 hyperparameters and pipeline knobs).

use np_eval::EvalConfig;
use np_rl::{AgentConfig, TrainConfig};
use np_supervisor::SupervisorConfig;
use serde::{Deserialize, Serialize};

/// Everything that parameterizes a NeuroPlan run.
///
/// Defaults mirror Table 2 where they are model-shape parameters (GNN
/// layers, MLP hidden sizes, learning rates, γ, λ, relax factor) and are
/// scaled down where they are compute budgets (epochs, steps per epoch) —
/// see DESIGN.md §6 for the calibration.
#[derive(Clone, Debug)]
pub struct NeuroPlanConfig {
    /// Agent architecture & learning rates.
    pub agent: AgentConfig,
    /// Epoch loop parameters.
    pub train: TrainConfig,
    /// Plan-evaluator configuration for the RL inner loop.
    pub eval: EvalConfig,
    /// Relax factor α of the second stage (Table 2: {1, 1.25, 1.5, 2}).
    pub relax_factor: f64,
    /// `m`: max capacity units one action adds (Table 2: {1, 4, 16}).
    pub max_units_per_step: usize,
    /// Branch-and-bound node budget for the second stage.
    pub mip_node_limit: usize,
    /// Wall-clock budget for the second stage, seconds.
    pub mip_time_limit_secs: f64,
    /// Post-training greedy rollouts used to extract the final
    /// first-stage plan.
    pub final_rollouts: usize,
    /// Master seed for the whole pipeline.
    pub seed: u64,
    /// Anytime-planning supervision: per-stage budgets, retry policy and
    /// the degradation ladder (DESIGN.md §11).
    pub supervisor: SupervisorConfig,
    /// Carries nothing; goes when ROADMAP 1(b) drops the benchmark's line
    /// that reads it.
    pub lp_backend: (),
}

impl Default for NeuroPlanConfig {
    fn default() -> Self {
        NeuroPlanConfig {
            agent: AgentConfig {
                gnn_layers: 2,
                gnn_hidden: 64,
                mlp_hidden: vec![64, 64],
                // Table 2 learning rates are tuned for 1024 epochs of
                // GPU-scale batches; with our scaled-down epoch counts a
                // moderately larger step converges to the same plans.
                actor_lr: 3e-3,
                critic_lr: 1e-2,
                seed: 0,
            },
            train: TrainConfig {
                epochs: 80,
                ..TrainConfig::default()
            },
            eval: {
                let mut eval = EvalConfig::default();
                // The RL loop's thousands of checks never pay for the
                // exact LP; borderline-inconclusive verdicts come back
                // conservatively infeasible, which only makes the agent
                // add a unit the second stage will trim.
                eval.check.allow_exact_lp = false;
                eval
            },
            relax_factor: 1.5,
            max_units_per_step: 4,
            mip_node_limit: 4000,
            mip_time_limit_secs: 120.0,
            final_rollouts: 8,
            seed: 0,
            supervisor: SupervisorConfig::default(),
            lp_backend: (),
        }
    }
}

impl NeuroPlanConfig {
    /// A fast configuration for tests and `--quick` experiment runs: the
    /// Table 2 model shapes with a halved agent and the compute budgets
    /// of DESIGN.md §6, the same in every build.
    pub fn quick() -> Self {
        let mut cfg = Self::default();
        cfg.train.epochs = 20;
        cfg.train.steps_per_epoch = 384;
        cfg.train.max_traj_len = 128;
        cfg.mip_node_limit = 20_000;
        cfg.mip_time_limit_secs = 90.0;
        cfg.final_rollouts = 4;
        cfg.agent.gnn_hidden = 32;
        cfg.agent.mlp_hidden = vec![32, 32];
        cfg
    }

    /// Propagate the master seed into the sub-components.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.agent.seed = seed;
        self.train.rollout_seed = seed;
        self
    }

    /// Run the parallel execution paths on `workers` threads (the CLI's
    /// `--workers`): scenario evaluation and rollout collection share
    /// this budget. It is a thread budget only: training always runs the
    /// fixed pool of logical actors with per-actor RNG streams, so the
    /// learned policy and final plan depend on the seed, never on the
    /// worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let workers = workers.max(1);
        self.eval.parallel_workers = workers;
        self.train.rollout_workers = workers;
        self
    }

    /// Cap every supervised stage at `secs` wall-clock seconds (the
    /// CLI's `--stage-budget`).
    pub fn with_stage_budget(mut self, secs: f64) -> Self {
        self.supervisor.budget.wall_secs = secs;
        self
    }

    /// Retries allowed per stage before the supervisor degrades or gives
    /// up (the CLI's `--max-retries`).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.supervisor.retry.max_retries = retries;
        self
    }

    /// Enable or disable the degradation ladder (the CLI's
    /// `--no-degrade` passes `false`). With degradation off, a stage
    /// that exhausts its budget without an incumbent is a hard error
    /// instead of falling back to rounding or the heuristic plan.
    pub fn with_degrade(mut self, degrade: bool) -> Self {
        self.supervisor.degrade = degrade;
        self
    }
}

/// The paper's Table 2, as data — used by the docs and to sanity-check
/// that our defaults stay within the published grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2 {
    /// "Max length per trajectory".
    pub max_traj_len: Vec<usize>,
    /// "Max epochs to train".
    pub max_epochs: usize,
    /// "Max length per epoch".
    pub max_epoch_len: Vec<usize>,
    /// "Max capacity units per step".
    pub max_units: Vec<usize>,
    /// "Number of GNN layers".
    pub gnn_layers: Vec<usize>,
    /// "MLP hidden layers".
    pub mlp_hidden: Vec<[usize; 2]>,
    /// "Actor learning rate".
    pub actor_lr: f64,
    /// "Critic learning rate".
    pub critic_lr: f64,
    /// "Relax factor α".
    pub relax_factor: Vec<f64>,
    /// "Discount factor γ".
    pub gamma: f64,
    /// "GAE Lambda λ".
    pub lam: f64,
}

impl Table2 {
    /// The published values.
    pub fn paper() -> Self {
        Table2 {
            max_traj_len: vec![1024, 2048, 4096, 8192],
            max_epochs: 1024,
            max_epoch_len: vec![1024, 2048, 4096, 8192],
            max_units: vec![1, 4, 16],
            gnn_layers: vec![0, 2, 4],
            mlp_hidden: vec![[64, 64], [256, 256], [512, 512]],
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            relax_factor: vec![1.0, 1.25, 1.5, 2.0],
            gamma: 0.99,
            lam: 0.97,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_stay_on_the_published_grid() {
        let t2 = Table2::paper();
        let cfg = NeuroPlanConfig::default();
        assert!(t2.gnn_layers.contains(&cfg.agent.gnn_layers));
        assert!(t2.max_units.contains(&cfg.max_units_per_step));
        assert!(t2.relax_factor.contains(&cfg.relax_factor));
        assert_eq!(cfg.train.gamma, t2.gamma);
        assert_eq!(cfg.train.lam, t2.lam);
        assert_eq!(cfg.agent.mlp_hidden, vec![64, 64]);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = NeuroPlanConfig::quick();
        let d = NeuroPlanConfig::default();
        assert!(q.train.epochs < d.train.epochs);
        assert!(q.train.steps_per_epoch < d.train.steps_per_epoch);
    }

    #[test]
    fn seed_propagates() {
        let cfg = NeuroPlanConfig::default().with_seed(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.agent.seed, 99);
        assert_eq!(cfg.train.rollout_seed, 99);
    }

    #[test]
    fn workers_set_every_parallel_path_but_pin_the_actor_count() {
        let none = NeuroPlanConfig::default().with_seed(7);
        let one = none.clone().with_workers(1);
        let four = none.clone().with_workers(4);
        assert_eq!(one.eval.parallel_workers, 1);
        assert_eq!(four.eval.parallel_workers, 4);
        assert_eq!(four.train.rollout_workers, 4);
        // The logical actor count is a constant, so the training
        // trajectory is a function of the seed alone.
        assert_eq!(one.train.num_actors, four.train.num_actors);
        assert_eq!(none.train.num_actors, one.train.num_actors);
        assert_eq!(one.train.rollout_seed, 7);
    }
}
