//! The planning environment: the RL side of Fig. 3/Fig. 4.
//!
//! State = node features over the node-link-transformed topology (§4.2);
//! actions = "(link, how many units)" additions, masked by the spectrum
//! constraint; reward = −(marginal cost)/normalizer, in `[-1, 0]` per
//! step; a trajectory is `done` when the plan evaluator confirms the
//! service expectations under every failure scenario.

use np_eval::{EvalConfig, PlanEvaluator};
use np_neural::{Csr, Matrix};
use np_rl::{GraphEnv, Observation};
use np_topology::{transform, LinkId, Network, PlanSnapshot};

/// Environment over one planning instance.
pub struct PlanningEnv {
    net: Network,
    adjacency: Csr,
    evaluator: PlanEvaluator,
    num_unit_choices: usize,
    /// Reward scale: total plan costs are divided by this so per-step
    /// rewards land in `[-1, 0]` (§4.2's reward scaling). Chosen as the
    /// cost of a known feasible plan (from [`crate::greedy_augment`]).
    reward_norm: f64,
    /// Cheapest feasible plan seen across all trajectories.
    best: Option<(f64, PlanSnapshot)>,
    caps_scratch: Vec<f64>,
    steps_taken: u64,
}

impl PlanningEnv {
    /// Build the environment. `reward_norm` must be a positive cost scale
    /// (callers use the greedy reference plan's cost).
    pub fn new(
        net: Network,
        eval_cfg: EvalConfig,
        num_unit_choices: usize,
        reward_norm: f64,
    ) -> Self {
        assert!(num_unit_choices >= 1);
        assert!(reward_norm > 0.0, "reward normalizer must be positive");
        let adjacency = {
            let g = transform(&net);
            Csr::from_triples(g.num_nodes(), &g.normalized_adjacency())
        };
        let evaluator = PlanEvaluator::new(&net, eval_cfg);
        let caps_scratch = vec![0.0; net.links().len()];
        PlanningEnv {
            net,
            adjacency,
            evaluator,
            num_unit_choices,
            reward_norm,
            best: None,
            caps_scratch,
            steps_taken: 0,
        }
    }

    /// Features per transformed node (= IP link). Static columns (length,
    /// darkness) break permutation symmetry; dynamic columns carry the
    /// plan state. Each column is normalized to mean 0 / std 1 across
    /// nodes (§4.2's state normalization).
    fn features(&self) -> Matrix {
        let links = self.net.links();
        let n = links.len();
        const F: usize = 5;
        let mut m = Matrix::zeros(n, F);
        for (i, link) in links.iter().enumerate() {
            let added = link
                .capacity_units
                .saturating_sub(self.net.base_units(LinkId::new(i)));
            m.set(i, 0, f64::from(link.capacity_units));
            m.set(i, 1, f64::from(added));
            m.set(i, 2, link.length_km);
            m.set(
                i,
                3,
                f64::from(self.net.spectrum_room_units(LinkId::new(i)).min(1_000)),
            );
            m.set(
                i,
                4,
                if self.net.base_units(LinkId::new(i)) == 0 {
                    1.0
                } else {
                    0.0
                },
            );
        }
        // Column-wise standardization.
        for c in 0..F {
            let mut mean = 0.0;
            for r in 0..n {
                mean += m.get(r, c);
            }
            mean /= n as f64;
            let mut var = 0.0;
            for r in 0..n {
                var += (m.get(r, c) - mean).powi(2);
            }
            let std = (var / n as f64).sqrt();
            for r in 0..n {
                let v = if std > 1e-9 {
                    (m.get(r, c) - mean) / std
                } else {
                    0.0
                };
                m.set(r, c, v);
            }
        }
        m
    }

    fn mask(&self) -> Vec<bool> {
        let n = self.net.links().len();
        let m = self.num_unit_choices;
        let mut mask = vec![false; n * m];
        for i in 0..n {
            let room = self.net.spectrum_room_units(LinkId::new(i));
            for k in 0..m {
                mask[i * m + k] = room >= (k as u32 + 1);
            }
        }
        mask
    }

    fn observation(&self) -> Observation {
        Observation {
            features: self.features(),
            action_mask: self.mask(),
        }
    }

    /// The cheapest feasible plan found so far, if any.
    pub fn best_plan(&self) -> Option<&(f64, PlanSnapshot)> {
        self.best.as_ref()
    }

    /// Immutable access to the instance (capacities reflect the current
    /// trajectory state).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The evaluator (e.g. to read its accumulated [`np_eval::EvalStats`]).
    pub fn evaluator_mut(&mut self) -> &mut PlanEvaluator {
        &mut self.evaluator
    }

    /// Environment steps taken since construction.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// The reward normalizer in use.
    pub fn reward_norm(&self) -> f64 {
        self.reward_norm
    }

    /// Serialize what a checkpoint must preserve across a kill: the best
    /// plan (cost bit-exact as hex), the step counter and the evaluator's
    /// stateful cursor + certificate pool. Everything else (capacities,
    /// scratch) is rebuilt by the next `reset()`.
    pub fn state_json(&self) -> String {
        use np_chaos::checkpoint::f64_to_hex;
        let best = match &self.best {
            None => "-".to_string(),
            Some((cost, snap)) => {
                let units: Vec<String> = snap.as_slice().iter().map(u32::to_string).collect();
                format!("{}:{}", f64_to_hex(*cost), units.join(","))
            }
        };
        format!(
            "1|{}|{}|{}",
            self.steps_taken,
            best,
            self.evaluator.snapshot_state()
        )
    }

    /// Restore a [`PlanningEnv::state_json`] blob. Returns `false` (leaving
    /// the environment untouched) on any version, shape or encoding
    /// mismatch — a foreign or corrupt blob degrades to a fresh start.
    pub fn restore_state_json(&mut self, blob: &str) -> bool {
        use np_chaos::checkpoint::hex_to_f64;
        let mut parts = blob.splitn(4, '|');
        let (Some(version), Some(steps), Some(best), Some(eval)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return false;
        };
        if version != "1" {
            return false;
        }
        let Ok(steps) = steps.parse::<u64>() else {
            return false;
        };
        let best = if best == "-" {
            None
        } else {
            let Some((cost_hex, units_csv)) = best.split_once(':') else {
                return false;
            };
            let Some(cost) = hex_to_f64(cost_hex) else {
                return false;
            };
            let units: Option<Vec<u32>> = units_csv.split(',').map(|u| u.parse().ok()).collect();
            let Some(units) = units else {
                return false;
            };
            if !cost.is_finite() || units.len() != self.net.links().len() {
                return false;
            }
            Some((cost, PlanSnapshot::from_units(units)))
        };
        // The evaluator validates fully before mutating, so a rejected
        // blob leaves `self` untouched.
        if !self.evaluator.restore_state(eval) {
            return false;
        }
        self.steps_taken = steps;
        self.best = best;
        true
    }

    fn refresh_caps(&mut self) {
        for (i, link) in self.net.links().iter().enumerate() {
            self.caps_scratch[i] = f64::from(link.capacity_units) * self.net.unit_gbps;
        }
    }
}

impl GraphEnv for PlanningEnv {
    fn num_nodes(&self) -> usize {
        self.net.links().len()
    }

    fn feature_dim(&self) -> usize {
        5
    }

    fn num_unit_choices(&self) -> usize {
        self.num_unit_choices
    }

    fn adjacency(&self) -> &Csr {
        &self.adjacency
    }

    fn fork(&self) -> Self {
        // The child evaluates serially (the actor level owns the thread
        // budget) but keeps the parent's certificates, so every actor
        // starts with the short-circuit knowledge of the epochs before.
        PlanningEnv {
            net: self.net.clone(),
            adjacency: self.adjacency.clone(),
            evaluator: self.evaluator.fork(),
            num_unit_choices: self.num_unit_choices,
            reward_norm: self.reward_norm,
            best: None,
            caps_scratch: vec![0.0; self.net.links().len()],
            steps_taken: 0,
        }
    }

    fn absorb(&mut self, mut child: Self) {
        self.steps_taken += child.steps_taken;
        self.evaluator.absorb(&mut child.evaluator);
        // Strict `<` keeps the earlier-absorbed actor's plan on cost
        // ties, so the merged best is independent of worker count.
        if let Some((cost, snap)) = child.best.take() {
            if self.best.as_ref().is_none_or(|(c, _)| cost < *c) {
                self.best = Some((cost, snap));
            }
        }
    }

    fn reset(&mut self) -> Observation {
        self.net.reset_to_base();
        self.evaluator.reset();
        self.observation()
    }

    fn step(&mut self, action: usize) -> (Observation, f64, bool) {
        self.steps_taken += 1;
        let (node, units) = self.decode_action(action);
        let link = LinkId::new(node);
        debug_assert!(
            self.net.can_add_units(link, units),
            "masked action leaked through"
        );
        let marginal = self.net.marginal_cost(link, units);
        self.net
            .add_units(link, units)
            .expect("action mask guarantees spectrum room");
        let reward = -(marginal / self.reward_norm).min(1.0);
        self.refresh_caps();
        let caps = std::mem::take(&mut self.caps_scratch);
        let outcome = self.evaluator.check(&caps);
        self.caps_scratch = caps;
        let done = outcome.feasible;
        if done {
            let cost = self.net.plan_cost();
            if self.best.as_ref().is_none_or(|(c, _)| cost < *c) {
                self.best = Some((cost, self.net.snapshot()));
            }
        }
        (self.observation(), reward, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    fn env() -> PlanningEnv {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        PlanningEnv::new(net, EvalConfig::default(), 4, 100.0)
    }

    #[test]
    fn observation_shape_matches_topology() {
        let mut e = env();
        let n = e.network().links().len();
        let obs = e.reset();
        assert_eq!(obs.features.rows(), n);
        assert_eq!(obs.features.cols(), 5);
        assert_eq!(obs.action_mask.len(), n * 4);
        assert!(obs.has_valid_action());
    }

    #[test]
    fn features_are_column_standardized() {
        let mut e = env();
        let obs = e.reset();
        let n = obs.features.rows();
        for c in [0usize, 2] {
            let mean: f64 = (0..n).map(|r| obs.features.get(r, c)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 1e-9, "column {c} mean {mean}");
        }
    }

    #[test]
    fn step_adds_capacity_and_pays_cost() {
        let mut e = env();
        e.reset();
        let before = e.network().link(LinkId::new(0)).capacity_units;
        // Action 0 = (link 0, 1 unit).
        let (_, reward, _) = e.step(0);
        assert_eq!(e.network().link(LinkId::new(0)).capacity_units, before + 1);
        assert!(reward < 0.0, "adding capacity must cost");
        assert!(reward >= -1.0, "per-step reward is clamped to [-1, 0]");
    }

    #[test]
    fn reset_restores_base_capacities() {
        let mut e = env();
        e.reset();
        e.step(0);
        e.step(5);
        let obs = e.reset();
        let base: Vec<u32> = e
            .network()
            .link_ids()
            .map(|l| e.network().base_units(l))
            .collect();
        let now: Vec<u32> = e
            .network()
            .link_ids()
            .map(|l| e.network().link(l).capacity_units)
            .collect();
        assert_eq!(base, now);
        assert!(obs.has_valid_action());
    }

    #[test]
    fn trajectory_terminates_and_records_best_plan() {
        // Drive the env with a trivial round-robin policy until done; the
        // generator guarantees a feasible plan exists, so termination must
        // occur well within the step budget.
        let mut e = env();
        let mut obs = e.reset();
        let mut done = false;
        for step in 0..20_000 {
            let action = obs
                .action_mask
                .iter()
                .enumerate()
                .filter(|&(_, &ok)| ok)
                .map(|(i, _)| i)
                .nth(step % 7)
                .or_else(|| obs.action_mask.iter().position(|&ok| ok))
                .expect("some action must be valid");
            let (o, _, d) = e.step(action);
            obs = o;
            if d {
                done = true;
                break;
            }
        }
        assert!(
            done,
            "round-robin filling must eventually satisfy the demands"
        );
        let (cost, snap) = e.best_plan().expect("feasible plan recorded").clone();
        assert!(cost > 0.0);
        assert_eq!(snap.as_slice().len(), e.network().links().len());
    }

    #[test]
    fn state_blob_round_trips_best_plan_and_steps() {
        let mut e = env();
        let mut obs = e.reset();
        for _ in 0..20_000 {
            let action = obs
                .action_mask
                .iter()
                .position(|&ok| ok)
                .expect("an action must be valid");
            let (o, _, done) = e.step(action);
            obs = o;
            if done {
                break;
            }
        }
        let (cost, snap) = e.best_plan().expect("feasible plan found").clone();
        let blob = e.state_json();

        let mut fresh = env();
        assert!(fresh.restore_state_json(&blob), "blob must restore");
        assert_eq!(fresh.steps_taken(), e.steps_taken());
        let (rcost, rsnap) = fresh.best_plan().expect("best plan restored").clone();
        assert_eq!(cost.to_bits(), rcost.to_bits(), "cost is bit-exact");
        assert_eq!(snap.as_slice(), rsnap.as_slice());
        assert_eq!(fresh.state_json(), blob, "re-export is identical");
    }

    #[test]
    fn restore_rejects_foreign_blobs() {
        let mut e = env();
        e.reset();
        assert!(!e.restore_state_json("2|0|-|1|0|0"), "wrong version");
        assert!(!e.restore_state_json("1|x|-|1|0|0"), "bad step count");
        assert!(!e.restore_state_json("1|0|zz:1,2|1|0|0"), "bad best plan");
        // A blob from a different topology (wrong cert count) is refused.
        let blob = e.state_json();
        let net2 = GeneratorConfig::preset(TopologyPreset::B).generate();
        let mut other = PlanningEnv::new(net2, EvalConfig::default(), 4, 100.0);
        assert!(!other.restore_state_json(&blob));
        assert_eq!(other.steps_taken(), 0, "rejected restore leaves state");
    }

    #[test]
    fn action_mask_blocks_spectrum_violations() {
        let mut e = env();
        let mut obs = e.reset();
        // Exhaust link 0's spectrum by repeatedly adding max units.
        for _ in 0..100_000 {
            if !obs.action_mask[3] {
                break;
            }
            let (o, _, _) = e.step(3); // link 0, 4 units
            obs = o;
        }
        assert!(
            !obs.action_mask[3],
            "the 4-unit action on link 0 must eventually be masked"
        );
        // The 1-unit action may still be legal; if masked, room must be 0.
        let room = e.network().spectrum_room_units(LinkId::new(0));
        assert_eq!(obs.action_mask[0], room >= 1);
    }
}
