//! Bit-identity pin for the actor-critic arithmetic on a real planning
//! environment: the full learning state after three epochs on preset A
//! must hash to the value recorded before the np-neural kernels were
//! rebuilt (DESIGN.md "neural kernel contract"). The `CounterEnv` half
//! of this pin lives in np-rl's trainer tests.

use neuroplan::PlanningEnv;
use np_chaos::checkpoint::fnv1a64;
use np_eval::EvalConfig;
use np_rl::{train, ActorCritic, AgentConfig, GraphEnv, TrainConfig};
use np_topology::{generator::preset_network, TopologyPreset};

fn state_hash() -> u64 {
    let net = preset_network(TopologyPreset::A);
    let mut env = PlanningEnv::new(net, EvalConfig::default(), 4, 1000.0);
    let mut agent = ActorCritic::new(
        env.adjacency().clone(),
        env.feature_dim(),
        4,
        &AgentConfig {
            gnn_hidden: 32,
            mlp_hidden: vec![32, 32],
            seed: 3,
            ..Default::default()
        },
    );
    let cfg = TrainConfig {
        epochs: 3,
        steps_per_epoch: 96,
        max_traj_len: 48,
        num_actors: 4,
        rollout_workers: 2,
        rollout_seed: 3,
        ..Default::default()
    };
    train(&mut env, &mut agent, &cfg);
    fnv1a64(agent.export_state().as_bytes())
}

#[test]
fn preset_a_learning_state_matches_the_recorded_hashes() {
    assert_eq!(state_hash(), 0x7847_aba8_5ac0_fa69, "num_actors = 4");
}
