//! The environment abstraction the trainer drives.

use np_neural::{Csr, Matrix};

/// One observation: node features over the fixed graph plus the action
/// mask.
///
/// Actions are encoded `node · num_unit_choices + (units − 1)`: pick a
/// node of the transformed graph (= an IP link of the topology) and how
/// many capacity units to add in this step (1..=m, Table 2's "max
/// capacity units per step"). The mask removes actions that would violate
/// the spectrum constraint (§4.2's domain-specific action mask).
#[derive(Clone, Debug)]
pub struct Observation {
    /// `n × f` node features (already normalized by the environment).
    pub features: Matrix,
    /// Validity of each of the `n·m` actions.
    pub action_mask: Vec<bool>,
}

impl Observation {
    /// Whether any action is available.
    pub fn has_valid_action(&self) -> bool {
        self.action_mask.iter().any(|&m| m)
    }
}

/// An episodic environment over a fixed graph.
///
/// `reset` starts a trajectory from the original topology (`RESET(G*)`);
/// `step` applies one action (`UPDATETOPO(G, a)`), returning the next
/// observation, the intermediate reward and whether the trajectory is
/// done (service expectations satisfied).
///
/// The trainer collects every epoch through forks: each rollout actor
/// steps its own [`GraphEnv::fork`], and [`GraphEnv::absorb`] merges the
/// forks back in actor order.
pub trait GraphEnv: Sized {
    /// Number of graph nodes (fixed for the environment's lifetime).
    fn num_nodes(&self) -> usize;
    /// Feature dimension of the observation matrix.
    fn feature_dim(&self) -> usize;
    /// `m`: largest number of capacity units a single action may add.
    fn num_unit_choices(&self) -> usize;
    /// The (symmetric, normalized) adjacency the GCN should use.
    fn adjacency(&self) -> &Csr;
    /// Start a new trajectory; returns the initial observation.
    fn reset(&mut self) -> Observation;
    /// Apply an action. Returns `(observation, reward, done)`.
    fn step(&mut self, action: usize) -> (Observation, f64, bool);

    /// Clone this environment for one rollout actor.
    fn fork(&self) -> Self;

    /// Merge state a forked child accumulated (best-plan bookkeeping,
    /// evaluator certificates, step counts) back into this environment.
    /// The trainer calls this once per actor, in actor order, so the
    /// merged state is independent of worker count.
    fn absorb(&mut self, _child: Self) {}

    /// Size of the (flat) action space.
    fn action_space(&self) -> usize {
        self.num_nodes() * self.num_unit_choices()
    }

    /// Decode a flat action into `(node, units)`.
    fn decode_action(&self, action: usize) -> (usize, u32) {
        let m = self.num_unit_choices();
        (action / m, (action % m) as u32 + 1)
    }
}

#[cfg(test)]
pub(crate) mod testenv {
    use super::*;

    /// A deterministic toy environment for trainer tests: a path graph of
    /// `n` nodes, each holding a counter. An action increments one node's
    /// counter by `units`. The episode ends when the total reaches
    /// `target`; each unit costs reward −0.1 except on the "cheap" node 0
    /// where it costs −0.01. The optimal policy therefore learns to pick
    /// node 0 every time.
    ///
    /// The observation carries two features per node: the counter and the
    /// node's unit cost. The static cost feature is what lets the policy
    /// break permutation symmetry — with identical features a GCN+MLP is
    /// permutation-equivariant and *cannot* prefer one node over another,
    /// the trap the paper's feature-normalization discussion alludes to.
    /// The planning environment does the analogous thing with link
    /// length/cost features.
    #[derive(Clone)]
    pub struct CounterEnv {
        pub n: usize,
        pub m: usize,
        pub target: u32,
        pub counts: Vec<u32>,
        adj: Csr,
    }

    impl CounterEnv {
        pub fn new(n: usize, m: usize, target: u32) -> Self {
            // Path-graph normalized adjacency with self-loops.
            let mut triples = vec![];
            for i in 0..n {
                let deg: f64 =
                    1.0 + if i > 0 { 1.0 } else { 0.0 } + if i + 1 < n { 1.0 } else { 0.0 };
                triples.push((i, i, 1.0 / deg));
                if i + 1 < n {
                    let degn = 1.0 + 1.0 + if i + 2 < n { 1.0 } else { 0.0 };
                    let w = 1.0 / (deg * degn).sqrt();
                    triples.push((i, i + 1, w));
                    triples.push((i + 1, i, w));
                }
            }
            CounterEnv {
                n,
                m,
                target,
                counts: vec![0; n],
                adj: Csr::from_triples(n, &triples),
            }
        }

        pub fn unit_cost(&self, node: usize) -> f64 {
            if node == 0 {
                0.01
            } else {
                0.1
            }
        }

        fn obs(&self) -> Observation {
            let mut feats = Vec::with_capacity(self.n * 2);
            for (i, &c) in self.counts.iter().enumerate() {
                feats.push(f64::from(c));
                feats.push(self.unit_cost(i) * 10.0);
            }
            Observation {
                features: Matrix::from_vec(self.n, 2, feats),
                action_mask: vec![true; self.n * self.m],
            }
        }
    }

    impl GraphEnv for CounterEnv {
        fn num_nodes(&self) -> usize {
            self.n
        }
        fn feature_dim(&self) -> usize {
            2
        }
        fn num_unit_choices(&self) -> usize {
            self.m
        }
        fn adjacency(&self) -> &Csr {
            &self.adj
        }
        fn fork(&self) -> Self {
            self.clone()
        }
        fn reset(&mut self) -> Observation {
            self.counts = vec![0; self.n];
            self.obs()
        }
        fn step(&mut self, action: usize) -> (Observation, f64, bool) {
            let (node, units) = self.decode_action(action);
            self.counts[node] += units;
            let unit_cost = self.unit_cost(node);
            let reward = -unit_cost * f64::from(units);
            let done = self.counts.iter().sum::<u32>() >= self.target;
            (self.obs(), reward, done)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testenv::CounterEnv;
    use super::*;

    #[test]
    fn action_encoding_roundtrips() {
        let env = CounterEnv::new(4, 3, 5);
        assert_eq!(env.action_space(), 12);
        assert_eq!(env.decode_action(0), (0, 1));
        assert_eq!(env.decode_action(2), (0, 3));
        assert_eq!(env.decode_action(3), (1, 1));
        assert_eq!(env.decode_action(11), (3, 3));
    }

    #[test]
    fn counter_env_terminates_at_target() {
        let mut env = CounterEnv::new(2, 1, 3);
        env.reset();
        let (_, r, done) = env.step(0);
        assert!(!done);
        assert!((r + 0.01).abs() < 1e-12);
        env.step(1);
        let (_, r, done) = env.step(1);
        assert!(done);
        assert!((r + 0.1).abs() < 1e-12);
    }

    #[test]
    fn observation_reports_mask_state() {
        let mut env = CounterEnv::new(2, 1, 3);
        let obs = env.reset();
        assert!(obs.has_valid_action());
        let none = Observation {
            features: Matrix::zeros(1, 1),
            action_mask: vec![false],
        };
        assert!(!none.has_valid_action());
    }
}
