//! The actor-critic network of Fig. 6.
//!
//! Architecture: `L` GCN layers (Eq. 7) encode the node-link-transformed
//! topology into per-node embeddings `H`; the **actor** MLP is applied
//! per node to produce `m` logits per node (flattened to the
//! `node · m + units` action space and masked); the **critic** MLP reads
//! the mean-pooled embedding and outputs a scalar value.
//!
//! Both heads share the GCN (parameters `θ_g` of Algorithm 1), and both
//! the policy and value updates flow gradients into it — we keep two
//! Adam optimizers (actor lr / critic lr from Table 2) and let each step
//! the GCN with its own loss, mirroring Algorithm 1 lines 16–22.

use crate::buffer::StepRecord;
use np_neural::ops::{log_prob, masked_softmax_into, policy_logit_grad, sample_categorical};
use np_neural::{Adam, Csr, Gcn, Matrix, Mlp, Param, Scratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Agent hyperparameters (Table 2).
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// Number of GCN layers (0, 2 or 4 in the paper's sensitivity study).
    pub gnn_layers: usize,
    /// Width of the GCN embeddings.
    pub gnn_hidden: usize,
    /// Hidden widths of both MLP heads (e.g. `[64, 64]` … `[512, 512]`).
    pub mlp_hidden: Vec<usize>,
    /// Actor learning rate (Table 2: 3e-4).
    pub actor_lr: f64,
    /// Critic learning rate (Table 2: 1e-3).
    pub critic_lr: f64,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            gnn_layers: 2,
            gnn_hidden: 64,
            mlp_hidden: vec![64, 64],
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            seed: 0,
        }
    }
}

/// Run the GCN encoder; the embeddings are then [`embedding`].
fn encode(encoder: &mut [Gcn], features: &Matrix) {
    for i in 0..encoder.len() {
        let (below, rest) = encoder.split_at_mut(i);
        rest[0].forward(below.last().map_or(features, |l| l.output()));
    }
}

/// The node embeddings `H` of the last [`encode`] (the features
/// themselves with zero graph layers).
fn embedding<'a>(encoder: &'a [Gcn], features: &'a Matrix) -> &'a Matrix {
    encoder.last().map_or(features, |l| l.output())
}

/// Backpropagate `∂L/∂H` through the encoder, top layer first. The
/// first layer's `∂L/∂input` has no consumer, so it accumulates its
/// parameter gradients only.
fn backprop_encoder(encoder: &mut [Gcn], grad_h: &Matrix) {
    for i in (0..encoder.len()).rev() {
        let (lower, above) = encoder.split_at_mut(i + 1);
        let grad = above.first().map_or(grad_h, |l| l.input_grad());
        if i > 0 {
            lower[i].backward(grad);
        } else {
            lower[i].backward_params(grad);
        }
    }
}

/// Per-call buffers of the agent (the layers keep their own).
#[derive(Default)]
struct AgentScratch {
    /// Mean-pooled embedding fed to the critic.
    pooled: Matrix,
    /// Temperature-scaled logits (only when exploring off-policy).
    scaled: Vec<f64>,
    probs: Vec<f64>,
    /// Loss gradient at a head's output, and `∂L/∂H` of the value loss.
    head_grad: Matrix,
    grad_h: Matrix,
}

/// The shared-encoder actor-critic.
///
/// `Clone` duplicates the full parameter state (weights, optimizer
/// moments, sampling RNG) — parallel rollout actors clone the master
/// agent at the top of each epoch and act with private RNG streams. The
/// activation and gradient buffers are [`Scratch`]: a clone starts with
/// empty ones, and none of them is exported.
#[derive(Clone)]
pub struct ActorCritic {
    encoder: Vec<Gcn>,
    actor: Mlp,
    critic: Mlp,
    adam_actor: Adam,
    adam_critic: Adam,
    num_unit_choices: usize,
    /// RNG for action sampling (separate from init so runs with the same
    /// seed sample identically regardless of architecture size).
    sample_rng: StdRng,
    /// Exploration temperature dividing the logits at sampling time.
    /// 1.0 (the default) leaves the policy untouched — and is skipped
    /// entirely, so pre-existing runs stay bit-identical. The trainer
    /// raises it after a NaN rollback to reanneal exploration.
    explore_temp: f64,
    ws: Scratch<AgentScratch>,
}

impl ActorCritic {
    /// Build for a fixed graph (`adjacency` from the node-link
    /// transformation), `feature_dim` input features per node and `m`
    /// unit choices per node.
    pub fn new(
        adjacency: Csr,
        feature_dim: usize,
        num_unit_choices: usize,
        cfg: &AgentConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dim = feature_dim;
        let mut encoder = Vec::new();
        for _ in 0..cfg.gnn_layers {
            encoder.push(Gcn::new(adjacency.clone(), dim, cfg.gnn_hidden, &mut rng));
            dim = cfg.gnn_hidden;
        }
        let mut actor_widths = vec![dim];
        actor_widths.extend_from_slice(&cfg.mlp_hidden);
        actor_widths.push(num_unit_choices);
        let mut critic_widths = vec![dim];
        critic_widths.extend_from_slice(&cfg.mlp_hidden);
        critic_widths.push(1);
        ActorCritic {
            encoder,
            actor: Mlp::new(&actor_widths, &mut rng),
            critic: Mlp::new(&critic_widths, &mut rng),
            adam_actor: Adam::new(cfg.actor_lr),
            adam_critic: Adam::new(cfg.critic_lr),
            num_unit_choices,
            sample_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            explore_temp: 1.0,
            ws: Scratch::default(),
        }
    }

    /// GCN, actor head and critic head for one observation: the
    /// logits are then `self.actor.output()`, the return is the value.
    /// Rollouts and updates share it — the layers keep their outputs,
    /// which a backward pass reads in place, and nothing else.
    fn forward(&mut self, features: &Matrix) -> f64 {
        encode(&mut self.encoder, features);
        self.actor.forward(embedding(&self.encoder, features));
        self.value_head(features)
    }

    /// The critic on the embeddings of the last [`encode`].
    fn value_head(&mut self, features: &Matrix) -> f64 {
        let pooled = &mut self.ws.0.pooled;
        embedding(&self.encoder, features).mean_rows_into(pooled);
        self.critic.forward(pooled);
        self.critic.output().get(0, 0)
    }

    /// Flat masked logits and the critic value for an observation.
    pub fn policy_value(&mut self, features: &Matrix) -> (Vec<f64>, f64) {
        let value = self.forward(features);
        (self.actor.output().as_slice().to_vec(), value)
    }

    /// Critic value only.
    pub fn value(&mut self, features: &Matrix) -> f64 {
        encode(&mut self.encoder, features);
        self.value_head(features)
    }

    /// Sample an action from the masked policy; returns
    /// `(action, log_prob, value)`.
    pub fn act(&mut self, features: &Matrix, mask: &[bool]) -> (usize, f64, f64) {
        let mut rng = std::mem::replace(&mut self.sample_rng, StdRng::seed_from_u64(0));
        let out = self.act_with(features, mask, &mut rng);
        self.sample_rng = rng;
        out
    }

    /// Like [`ActorCritic::act`] but drawing from a caller-provided RNG.
    /// Rollout actors sample from private per-actor streams, so the
    /// action sequence depends only on the stream seeds — never on worker
    /// count or scheduling.
    pub fn act_with(
        &mut self,
        features: &Matrix,
        mask: &[bool],
        rng: &mut StdRng,
    ) -> (usize, f64, f64) {
        let value = self.forward(features);
        let ws = &mut self.ws.0;
        let mut logits = self.actor.output().as_slice();
        if self.explore_temp != 1.0 {
            let inv = 1.0 / self.explore_temp;
            ws.scaled.clear();
            ws.scaled.extend(logits.iter().map(|l| l * inv));
            logits = &ws.scaled;
        }
        masked_softmax_into(logits, mask, &mut ws.probs);
        let action = sample_categorical(&ws.probs, rng);
        (action, log_prob(&ws.probs, action), value)
    }

    /// Policy update (Algorithm 1's `ComputePLoss` + line 19): mean
    /// policy-gradient loss over the epoch, backpropagated through the
    /// actor *and* the shared GCN, then one Adam step on both.
    pub fn update_policy(&mut self, steps: &[StepRecord]) {
        let scale = 1.0 / steps.len().max(1) as f64;
        let ws = &mut self.ws.0;
        for step in steps {
            encode(&mut self.encoder, &step.features);
            self.actor.forward(embedding(&self.encoder, &step.features));
            let logits = self.actor.output();
            masked_softmax_into(logits.as_slice(), &step.mask, &mut ws.probs);
            ws.head_grad.resize(logits.rows(), logits.cols());
            policy_logit_grad(
                &ws.probs,
                &step.mask,
                step.action,
                step.advantage * scale,
                ws.head_grad.as_mut_slice(),
            );
            self.actor.backward(&ws.head_grad);
            backprop_encoder(&mut self.encoder, self.actor.input_grad());
        }
        let mut params = self.actor.params_mut();
        params.extend(self.encoder.iter_mut().flat_map(|l| l.params_mut()));
        self.adam_actor.step(&mut params);
    }

    /// Value update (`ComputeVLoss` + line 22): mean squared error against
    /// rewards-to-go, backpropagated through the critic *and* the GCN.
    pub fn update_value(&mut self, steps: &[StepRecord]) {
        let scale = 1.0 / steps.len().max(1) as f64;
        for step in steps {
            encode(&mut self.encoder, &step.features);
            let v = self.value_head(&step.features);
            let ws = &mut self.ws.0;
            ws.head_grad.resize(1, 1);
            ws.head_grad
                .set(0, 0, 2.0 * (v - step.reward_to_go) * scale);
            self.critic.backward(&ws.head_grad);
            // Mean-pool backward: distribute evenly over nodes.
            let h = embedding(&self.encoder, &step.features);
            let n = h.rows();
            ws.grad_h.resize(n, h.cols());
            let grad_pooled = self.critic.input_grad().as_slice();
            for row in ws.grad_h.as_mut_slice().chunks_exact_mut(h.cols().max(1)) {
                for (g, &p) in row.iter_mut().zip(grad_pooled) {
                    *g = p / n as f64;
                }
            }
            backprop_encoder(&mut self.encoder, &ws.grad_h);
        }
        let mut params = self.critic.params_mut();
        params.extend(self.encoder.iter_mut().flat_map(|l| l.params_mut()));
        self.adam_critic.step(&mut params);
    }

    /// `m`: unit choices per node.
    pub fn num_unit_choices(&self) -> usize {
        self.num_unit_choices
    }

    /// Total trainable parameter count (diagnostics).
    pub fn num_params(&mut self) -> usize {
        self.all_params().iter().map(|p| p.len()).sum()
    }

    /// Current exploration temperature.
    pub fn explore_temp(&self) -> f64 {
        self.explore_temp
    }

    /// Set the exploration temperature (must be positive and finite).
    pub fn set_explore_temp(&mut self, temp: f64) {
        assert!(temp.is_finite() && temp > 0.0, "bad temperature {temp}");
        self.explore_temp = temp;
    }

    fn all_params(&mut self) -> Vec<&mut Param> {
        let mut ps: Vec<&mut Param> = self
            .encoder
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect();
        ps.extend(self.actor.params_mut());
        ps.extend(self.critic.params_mut());
        ps
    }

    /// `true` iff every trainable weight is finite. The trainer checks
    /// this after each update and rolls back to the last good snapshot
    /// when it fails.
    pub fn params_finite(&mut self) -> bool {
        self.all_params()
            .iter()
            .all(|p| p.value.as_slice().iter().all(|v| v.is_finite()))
    }

    /// Corrupt the first trainable weight with NaN — the deterministic
    /// stand-in for a NaN gradient blowing through an update (the
    /// `nan-grad` chaos fault). Only the fault-injection path calls this.
    pub fn inject_nan(&mut self) {
        if let Some(p) = self.all_params().into_iter().next() {
            p.value.as_mut_slice()[0] = f64::NAN;
        }
    }

    /// Serialize the full learning state — optimizer step counts,
    /// sampling-RNG state, exploration temperature, and every parameter's
    /// value and Adam moments — as a version-tagged ASCII blob. All
    /// floats travel as little-endian hex, so
    /// [`ActorCritic::import_state`] restores them bit-for-bit.
    pub fn export_state(&mut self) -> String {
        let mut vals = Vec::new();
        for p in self.all_params() {
            vals.extend_from_slice(p.value.as_slice());
            vals.extend_from_slice(p.m.as_slice());
            vals.extend_from_slice(p.v.as_slice());
        }
        let rng_hex: String = self
            .sample_rng
            .state()
            .iter()
            .map(|w| format!("{w:016x}"))
            .collect();
        format!(
            "1|{}|{}|{}|{}|{}",
            self.adam_actor.steps(),
            self.adam_critic.steps(),
            rng_hex,
            np_chaos::checkpoint::f64_to_hex(self.explore_temp),
            np_chaos::checkpoint::f64s_to_hex(&vals),
        )
    }

    /// Restore state exported by [`ActorCritic::export_state`]. Returns
    /// `false` (leaving the agent untouched) if the blob's version,
    /// shape or encoding does not match this agent.
    pub fn import_state(&mut self, blob: &str) -> bool {
        let parts: Vec<&str> = blob.split('|').collect();
        if parts.len() != 6 || parts[0] != "1" {
            return false;
        }
        let (Ok(ta), Ok(tc)) = (parts[1].parse::<u64>(), parts[2].parse::<u64>()) else {
            return false;
        };
        if parts[3].len() != 64 {
            return false;
        }
        let mut rng_state = [0u64; 4];
        for (k, word) in rng_state.iter_mut().enumerate() {
            match u64::from_str_radix(&parts[3][16 * k..16 * (k + 1)], 16) {
                Ok(w) => *word = w,
                Err(_) => return false,
            }
        }
        let Some(temp) = np_chaos::checkpoint::hex_to_f64(parts[4]) else {
            return false;
        };
        if !(temp.is_finite() && temp > 0.0) {
            return false;
        }
        let Some(vals) = np_chaos::checkpoint::hex_to_f64s(parts[5]) else {
            return false;
        };
        let total: usize = self.all_params().iter().map(|p| p.len()).sum();
        if vals.len() != 3 * total {
            return false;
        }
        let mut at = 0;
        for p in self.all_params() {
            let n = p.len();
            p.value.as_mut_slice().copy_from_slice(&vals[at..at + n]);
            p.m.as_mut_slice()
                .copy_from_slice(&vals[at + n..at + 2 * n]);
            p.v.as_mut_slice()
                .copy_from_slice(&vals[at + 2 * n..at + 3 * n]);
            at += 3 * n;
        }
        self.adam_actor.restore_steps(ta);
        self.adam_critic.restore_steps(tc);
        self.sample_rng = StdRng::from_state(rng_state);
        self.explore_temp = temp;
        true
    }

    /// Sample greedily (argmax) instead of stochastically — used when
    /// extracting the final first-stage plan.
    pub fn act_greedy(&mut self, features: &Matrix, mask: &[bool]) -> usize {
        self.forward(features);
        let probs = &mut self.ws.0.probs;
        masked_softmax_into(self.actor.output().as_slice(), mask, probs);
        // `total_cmp`: a NaN logit must not panic the final decode.
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty action space")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_neural::ops::masked_softmax;

    fn agent(n: usize, layers: usize) -> ActorCritic {
        let adj = Csr::identity(n);
        ActorCritic::new(
            adj,
            1,
            2,
            &AgentConfig {
                gnn_layers: layers,
                gnn_hidden: 8,
                mlp_hidden: vec![16],
                actor_lr: 0.02,
                critic_lr: 0.05,
                ..Default::default()
            },
        )
    }

    fn obs(n: usize) -> Matrix {
        Matrix::from_vec(n, 1, (0..n).map(|i| i as f64 / n as f64).collect())
    }

    #[test]
    fn logits_cover_the_flat_action_space() {
        let mut a = agent(5, 2);
        let (logits, _) = a.policy_value(&obs(5));
        assert_eq!(logits.len(), 10);
    }

    #[test]
    fn zero_gnn_layers_degenerates_to_mlp() {
        let mut a = agent(4, 0);
        let (logits, v) = a.policy_value(&obs(4));
        assert_eq!(logits.len(), 8);
        assert!(v.is_finite());
    }

    #[test]
    fn act_respects_the_mask() {
        let mut a = agent(3, 1);
        let mut mask = vec![false; 6];
        mask[4] = true;
        for _ in 0..10 {
            let (action, logp, _) = a.act(&obs(3), &mask);
            assert_eq!(action, 4);
            assert!((logp - 0.0).abs() < 1e-9, "single valid action has prob 1");
        }
    }

    #[test]
    fn policy_update_shifts_probability_toward_advantaged_actions() {
        let mut a = agent(3, 1);
        let features = obs(3);
        let mask = vec![true; 6];
        let (logits0, _) = a.policy_value(&features);
        let p0 = masked_softmax(&logits0, &mask)[2];
        // Fake an epoch where action 2 had positive advantage: descending
        // the −logp·A loss must raise its probability.
        let steps: Vec<StepRecord> = (0..8)
            .map(|_| StepRecord {
                features: features.clone(),
                mask: mask.clone(),
                action: 2,
                reward: 0.0,
                value: 0.0,
                advantage: 1.0,
                reward_to_go: 0.0,
            })
            .collect();
        a.update_policy(&steps);
        let (logits1, _) = a.policy_value(&features);
        let p1 = masked_softmax(&logits1, &mask)[2];
        assert!(
            p1 > p0,
            "positive advantage must increase the action's probability (p0={p0}, p1={p1})"
        );
        // And sustained negative advantage must push it back down (several
        // updates: a single step cannot overcome Adam's first-moment
        // momentum from the positive phase).
        let mut down = steps;
        for s in &mut down {
            s.advantage = -1.0;
        }
        for _ in 0..10 {
            a.update_policy(&down);
        }
        let (logits2, _) = a.policy_value(&features);
        let p2 = masked_softmax(&logits2, &mask)[2];
        assert!(
            p2 < p1,
            "sustained negative advantage must decrease the probability"
        );
    }

    #[test]
    fn value_update_regresses_toward_targets() {
        let mut a = agent(3, 1);
        let features = obs(3);
        let target = -5.0;
        for _ in 0..300 {
            let v = a.value(&features);
            let steps = vec![StepRecord {
                features: features.clone(),
                mask: vec![true; 6],
                action: 0,
                reward: 0.0,
                value: v,
                advantage: 0.0,
                reward_to_go: target,
            }];
            a.update_value(&steps);
        }
        assert!((a.value(&features) - target).abs() < 0.5);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mk = || {
            let mut a = agent(4, 1);
            let mask = vec![true; 8];
            (0..5).map(|_| a.act(&obs(4), &mask).0).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn greedy_action_is_the_argmax() {
        let mut a = agent(3, 0);
        let mask = vec![true; 6];
        let (logits, _) = a.policy_value(&obs(3));
        let probs = masked_softmax(&logits, &mask);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(a.act_greedy(&obs(3), &mask), argmax);
    }

    #[test]
    fn greedy_decode_survives_a_nan_logit() {
        // A NaN in the actor's output bias makes one logit per node — and
        // through the softmax's normalizer every probability — NaN.
        let mut a = agent(3, 1);
        let bias = a.actor.params_mut().pop().expect("output bias");
        bias.value.as_mut_slice()[0] = f64::NAN;
        let (logits, _) = a.policy_value(&obs(3));
        assert!(logits[0].is_nan() && logits[1].is_finite());
        assert!(a.act_greedy(&obs(3), &[true; 6]) < 6);
    }

    #[test]
    fn clones_and_exports_leave_the_workspace_behind() {
        let mut a = agent(4, 2);
        a.act(&obs(4), &[true; 8]);
        assert_eq!(a.ws.0.probs.len(), 8);
        let mut twin = a.clone();
        assert!(
            twin.ws.0.probs.is_empty(),
            "a clone starts with empty buffers"
        );
        // Same learning state either way: the twin acts and exports alike.
        assert_eq!(twin.export_state(), a.export_state());
        assert_eq!(twin.act(&obs(4), &[true; 8]), a.act(&obs(4), &[true; 8]));
    }

    #[test]
    fn state_blob_roundtrips_bit_exactly() {
        let mut a = agent(4, 2);
        let mask = vec![true; 8];
        // Advance everything that lives in the blob: weights, Adam
        // moments and step counts, the sampling RNG.
        let steps: Vec<StepRecord> = (0..4)
            .map(|_| StepRecord {
                features: obs(4),
                mask: mask.clone(),
                action: 1,
                reward: 0.0,
                value: 0.0,
                advantage: 0.7,
                reward_to_go: -1.3,
            })
            .collect();
        a.update_policy(&steps);
        a.update_value(&steps);
        a.act(&obs(4), &mask);
        let blob = a.export_state();

        let mut b = agent(4, 2);
        assert!(b.import_state(&blob), "blob must restore into a twin");
        assert_eq!(b.export_state(), blob, "round-trip is bit-exact");
        let drive =
            |ag: &mut ActorCritic| (0..6).map(|_| ag.act(&obs(4), &mask).0).collect::<Vec<_>>();
        assert_eq!(drive(&mut a), drive(&mut b), "restored RNG stream");
    }

    #[test]
    fn import_rejects_mismatched_or_corrupt_blobs() {
        let mut big = agent(5, 2);
        let blob = big.export_state();
        let mut small = agent(3, 1);
        assert!(!small.import_state(&blob), "wrong shape");
        let mut twin = agent(5, 2);
        assert!(!twin.import_state("2|0|0|00|x|y"), "wrong version");
        assert!(!twin.import_state("garbage"), "not a blob at all");
        // Rejection must leave the agent usable.
        assert!(twin.params_finite());
    }

    #[test]
    fn nan_injection_is_detected_by_the_finite_check() {
        let mut a = agent(3, 1);
        assert!(a.params_finite());
        a.inject_nan();
        assert!(!a.params_finite());
    }

    #[test]
    fn explore_temperature_flattens_sampling_but_not_updates() {
        let mut a = agent(3, 1);
        let mask = vec![true; 6];
        let (logits, _) = a.policy_value(&obs(3));
        let p_ref = masked_softmax(&logits, &mask);
        a.set_explore_temp(4.0);
        // policy_value (used by updates) is untouched by temperature.
        let (logits_t, _) = a.policy_value(&obs(3));
        assert_eq!(logits, logits_t);
        // Sampling frequencies flatten toward uniform.
        let mut counts = [0usize; 6];
        for _ in 0..2000 {
            counts[a.act(&obs(3), &mask).0] += 1;
        }
        let max_ref = p_ref.iter().cloned().fold(f64::MIN, f64::max);
        let max_obs = counts.iter().cloned().max().unwrap() as f64 / 2000.0;
        assert!(
            max_obs < max_ref + 0.05,
            "temperature must not sharpen the policy (ref {max_ref}, obs {max_obs})"
        );
    }

    #[test]
    fn num_params_counts_all_components() {
        let mut with_gnn = agent(4, 2);
        let mut without = agent(4, 0);
        assert!(with_gnn.num_params() > without.num_params());
    }
}
