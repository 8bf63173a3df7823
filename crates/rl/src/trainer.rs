//! The epoch loop of Algorithm 1.

use crate::agent::ActorCritic;
use crate::buffer::EpochBuffer;
use crate::env::GraphEnv;
use np_telemetry::{sys, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training hyperparameters (Table 2 defaults, scaled for CPU).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Epochs to train ("Max epochs to train").
    pub epochs: usize,
    /// Steps collected per epoch ("Max length per epoch").
    pub steps_per_epoch: usize,
    /// Trajectory length cap ("Max length per trajectory") — the early
    /// stop on unpromising trajectories.
    pub max_traj_len: usize,
    /// Discount factor γ (Table 2: 0.99).
    pub gamma: f64,
    /// GAE smoothing λ (Table 2: 0.97).
    pub lam: f64,
    /// Logical rollout actors per epoch (0 counts as 1). This is part of
    /// the determinism contract, not a thread count: each actor collects
    /// a fixed share of `steps_per_epoch` on its own fork of the
    /// environment with its own `(rollout_seed, epoch, actor)` RNG
    /// stream, and buffers merge in actor order — so results depend on
    /// `num_actors` but never on `rollout_workers`.
    pub num_actors: usize,
    /// Worker threads for rollout collection (1 = all actors run inline).
    pub rollout_workers: usize,
    /// Base seed of the per-actor RNG streams.
    pub rollout_seed: u64,
    /// Wall-clock budget for the whole training loop, seconds
    /// (`f64::INFINITY` disables). Checked only at epoch boundaries so a
    /// budgeted run still ends on a complete, checkpointable epoch; a
    /// finite budget also honors chaos-injected `deadline` faults at the
    /// same boundary, which is how the anytime tests cut training
    /// deterministically (DESIGN.md §11).
    pub wall_limit_secs: f64,
    /// Cooperative cancellation, polled at the same epoch boundary as
    /// `wall_limit_secs` so a cancelled run still ends on a complete,
    /// checkpointable epoch and resumes bit-exactly. `None` (the
    /// default) never stops.
    pub stop: Option<np_chaos::CancelToken>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 120,
            steps_per_epoch: 1024,
            max_traj_len: 512,
            gamma: 0.99,
            lam: 0.97,
            num_actors: 4,
            rollout_workers: 1,
            rollout_seed: 0,
            wall_limit_secs: f64::INFINITY,
            stop: None,
        }
    }
}

/// Extra penalty added when a trajectory hits the length cap without
/// satisfying the service expectations (§4.2: "we add −1 as the extra
/// penalty").
const TRUNCATION_PENALTY: f64 = -1.0;

/// Per-epoch training statistics.
#[derive(Clone, Debug, Default)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean return over the trajectories finished this epoch.
    pub mean_return: f64,
    /// Trajectories that reached `done` (satisfied the expectations).
    pub completed: usize,
    /// Trajectories cut by the length cap or epoch end.
    pub truncated: usize,
    /// Mean length of finished trajectories.
    pub mean_length: f64,
}

/// Result of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochStats>,
    /// Whether the caller's stop rule ended training (see
    /// [`EpochCallbacks::stop`]), on a completed epoch or on the boundary
    /// a resume restored.
    pub stopped: bool,
}

impl TrainReport {
    /// Mean return of the final epoch (the paper's "epoch reward").
    pub fn final_return(&self) -> f64 {
        self.epochs
            .last()
            .map(|e| e.mean_return)
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Epochs actually run (a wall budget, a cancellation, a NaN
    /// give-up or the stop rule may cut `cfg.epochs` short).
    pub fn epochs_run(&self) -> usize {
        self.epochs.len()
    }
}

/// Train `agent` on `env` per Algorithm 1. Returns per-epoch statistics;
/// the environment itself is the owner of any best-plan bookkeeping.
pub fn train<E: GraphEnv + Send>(
    env: &mut E,
    agent: &mut ActorCritic,
    cfg: &TrainConfig,
) -> TrainReport {
    train_resumable(
        env,
        agent,
        cfg,
        &Telemetry::noop(),
        np_chaos::global(),
        None,
        EpochCallbacks::default(),
    )
}

/// What one actor gathered for an epoch.
#[derive(Default)]
struct Collected {
    buffer: EpochBuffer,
    returns: Vec<f64>,
    lengths: Vec<usize>,
    completed: usize,
    truncated: usize,
}

/// Collect `quota` steps from `env`, sampling actions from `rng` — the
/// rollout loop of Algorithm 1, as one actor runs it.
fn collect_quota(
    env: &mut impl GraphEnv,
    agent: &mut ActorCritic,
    cfg: &TrainConfig,
    quota: usize,
    rng: &mut StdRng,
) -> Collected {
    let mut out = Collected::default();
    let mut obs = env.reset();
    let mut traj_len = 0usize;
    let mut traj_return = 0.0f64;
    while out.buffer.len() < quota {
        if !obs.has_valid_action() {
            // Fully masked state: nothing can be added; the trajectory
            // cannot proceed (spectrum exhausted everywhere). Treat as
            // truncation with the penalty.
            out.buffer.finish_path(0.0, cfg.gamma, cfg.lam);
            out.truncated += 1;
            out.returns.push(traj_return + TRUNCATION_PENALTY);
            out.lengths.push(traj_len);
            obs = env.reset();
            traj_len = 0;
            traj_return = 0.0;
            continue;
        }
        let (action, _logp, value) = agent.act_with(&obs.features, &obs.action_mask, rng);
        let (next_obs, mut reward, done) = env.step(action);
        traj_len += 1;
        let cut = traj_len >= cfg.max_traj_len && !done;
        if cut {
            reward += TRUNCATION_PENALTY;
        }
        traj_return += reward;
        out.buffer
            .push(obs.features, obs.action_mask, action, reward, value);
        obs = next_obs;
        if done || cut {
            let bootstrap = if done {
                0.0
            } else {
                agent.value(&obs.features)
            };
            out.buffer.finish_path(bootstrap, cfg.gamma, cfg.lam);
            if done {
                out.completed += 1;
            } else {
                out.truncated += 1;
            }
            out.returns.push(traj_return);
            out.lengths.push(traj_len);
            obs = env.reset();
            traj_len = 0;
            traj_return = 0.0;
        }
    }
    // Epoch cut of the in-flight trajectory.
    if traj_len > 0 {
        let bootstrap = agent.value(&obs.features);
        out.buffer.finish_path(bootstrap, cfg.gamma, cfg.lam);
        out.truncated += 1;
        out.returns.push(traj_return);
        out.lengths.push(traj_len);
    }
    out
}

/// The RNG stream seed of one `(rollout_seed, epoch, actor)` cell — a
/// splitmix-style hash so neighboring cells decorrelate.
fn actor_stream_seed(base: u64, epoch: usize, actor: usize) -> u64 {
    let mut z = base ^ 0x9e37_79b9_7f4a_7c15;
    for x in [epoch as u64, actor as u64] {
        z = z.wrapping_add(x).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
    }
    z
}

/// Fan rollout collection out over `num_actors` forks of `env`, each with
/// a cloned agent and a private RNG stream, run on at most
/// `rollout_workers` threads. Returns the per-actor results in actor
/// order. `stream_base` is the (possibly rollback-remixed) base seed of
/// the actor streams.
fn collect<E: GraphEnv + Send>(
    env: &mut E,
    agent: &ActorCritic,
    cfg: &TrainConfig,
    epoch: usize,
    stream_base: u64,
    tel: &Telemetry,
) -> Vec<Collected> {
    let actors = cfg.num_actors.max(1);
    // Contiguous quota split: actor a collects its fixed share no matter
    // which thread runs it.
    let base = cfg.steps_per_epoch / actors;
    let rem = cfg.steps_per_epoch % actors;
    let tasks: Vec<_> = (0..actors)
        .map(|a| {
            let mut child_env = env.fork();
            let mut child_agent = agent.clone();
            let quota = base + usize::from(a < rem);
            let seed = actor_stream_seed(stream_base, epoch, a);
            move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let collected =
                    collect_quota(&mut child_env, &mut child_agent, cfg, quota, &mut rng);
                (collected, child_env)
            }
        })
        .collect();
    let results = np_pool::run_tasks_telemetry(cfg.rollout_workers.max(1), tasks, tel);
    let mut out = Vec::with_capacity(actors);
    for (collected, child_env) in results {
        env.absorb(child_env);
        out.push(collected);
    }
    out
}

/// The actor-stream base seed after `nonce` NaN rollbacks. Nonce 0 (no
/// rollback yet) leaves the configured seed untouched, so healthy runs
/// stay bit-identical to the pre-recovery trainer.
fn effective_rollout_seed(base: u64, nonce: u64) -> u64 {
    base ^ nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Consecutive NaN rollbacks tolerated before the trainer stops early
/// with the last good parameters instead of looping forever.
const MAX_CONSECUTIVE_ROLLBACKS: u32 = 5;

/// Exploration temperature set right after a NaN rollback; it decays
/// geometrically back to 1.0 over the following healthy epochs.
const REANNEAL_TEMP: f64 = 1.5;

/// Where a resumed run picks up: the loop counters that, together with
/// the restored agent and environment, make the continuation
/// bit-identical to the uninterrupted run.
#[derive(Clone, Debug)]
pub struct TrainResume {
    /// First epoch index the resumed run executes.
    pub next_epoch: usize,
    /// NaN-rollback count carried across the cut (feeds the stream seed).
    pub recovery_nonce: u64,
    /// Stats of the epochs already completed before the cut.
    pub stats: Vec<EpochStats>,
}

/// Everything a checkpoint hook needs to persist after a completed epoch.
pub struct TrainProgress<'a> {
    /// This epoch's statistics.
    pub stats: &'a EpochStats,
    /// Epoch index a resume should continue from.
    pub next_epoch: usize,
    /// NaN rollbacks so far.
    pub recovery_nonce: u64,
}

/// Per-epoch callback: runs after the epoch's updates (none on an epoch
/// the stop rule ended) and stats, before the injected-kill check.
/// Receives the agent and environment mutably so it can serialize their
/// state; it records, and has no say in whether training goes on.
pub type EpochHook<'a, E> = dyn FnMut(&mut ActorCritic, &mut E, &TrainProgress<'_>) + 'a;

/// A pure stop rule: `rule(env, next_epoch)` is `true` where training
/// should end on the boundary before epoch `next_epoch`.
pub type StopRule<'a, E> = dyn Fn(&E, usize) -> bool + 'a;

/// The caller's part in [`train_resumable`]'s epoch boundaries. The
/// default neither stops nor records.
pub struct EpochCallbacks<'a, E> {
    /// Asked once per completed epoch, after its rollouts and before its
    /// updates, and once on the boundary a resume restores. When it says
    /// stop, that epoch runs no policy or value update (nothing would
    /// read them), still passes the NaN check, stats, telemetry, the hook
    /// and the injected-kill check, and training ends there. A NaN
    /// rollback of that epoch re-collects and asks again.
    pub stop: Option<&'a StopRule<'a, E>>,
    /// Runs after each completed epoch so the caller can write the
    /// checkpoint.
    pub on_epoch: Option<&'a mut EpochHook<'a, E>>,
}

impl<E> Default for EpochCallbacks<'_, E> {
    fn default() -> Self {
        EpochCallbacks {
            stop: None,
            on_epoch: None,
        }
    }
}

/// The full-featured epoch loop: [`train`] plus telemetry through `tel`
/// (per-epoch return/completion/length metrics under the `rl` subsystem,
/// `epoch` and `policy_update` spans), NaN/divergence rollback, fault
/// injection, and checkpoint/resume.
///
/// After every epoch's updates the trainer verifies that all parameters
/// and the epoch's mean return are finite. If not, it rolls the agent
/// back to the snapshot taken at the top of the epoch, remixes the
/// rollout streams with a recovery nonce, raises the exploration
/// temperature to [`REANNEAL_TEMP`] (decaying back to 1.0 over later
/// epochs) and retries the same epoch — up to
/// [`MAX_CONSECUTIVE_ROLLBACKS`] times before giving up with the last
/// good parameters.
///
/// `resume` restores the loop counters of a checkpointed run (the caller
/// restores agent and environment). `callbacks.stop` decides, after each
/// epoch's rollouts, whether that epoch is the last (and skips its
/// updates); `callbacks.on_epoch` runs after each completed epoch so the
/// caller can write the checkpoint. A resume whose restored boundary the
/// rule stops on runs no epoch at all.
pub fn train_resumable<E: GraphEnv + Send>(
    env: &mut E,
    agent: &mut ActorCritic,
    cfg: &TrainConfig,
    tel: &Telemetry,
    chaos: &np_chaos::Chaos,
    resume: Option<TrainResume>,
    callbacks: EpochCallbacks<'_, E>,
) -> TrainReport {
    let _train_span = tel.span(sys::RL, "train");
    let EpochCallbacks { stop, mut on_epoch } = callbacks;
    let stops_at = |env: &E, next_epoch: usize| stop.is_some_and(|rule| rule(env, next_epoch));
    let mut report = TrainReport::default();
    let mut buffer = EpochBuffer::new();
    let resumed = resume.is_some();
    let (mut epoch, mut recovery_nonce) = match resume {
        Some(r) => {
            report.epochs = r.stats;
            (r.next_epoch, r.recovery_nonce)
        }
        None => (0, 0),
    };
    // A resume asks the rule on the boundary it restored, so it ends
    // where the uninterrupted run ended.
    if resumed && stops_at(env, epoch) {
        report.stopped = true;
        return report;
    }
    let mut consecutive_rollbacks = 0u32;
    let started = std::time::Instant::now();
    while epoch < cfg.epochs {
        // Budget check at the epoch boundary only: the finished epochs
        // behind us are all checkpointed, so a budget stop is always
        // resumable. Chaos deadlines are consumed only under a finite
        // budget so unbudgeted runs keep their historical fault
        // ordering.
        if cfg.wall_limit_secs.is_finite()
            && (started.elapsed().as_secs_f64() >= cfg.wall_limit_secs
                || chaos.should_fire(np_chaos::FaultClass::Deadline))
        {
            tel.incr(sys::RL, "budget_stops", 1);
            break;
        }
        // Cooperative cancellation stops at the same boundary for the
        // same reason: everything behind us is checkpointed.
        if cfg.stop.as_ref().is_some_and(|t| t.is_cancelled()) {
            tel.incr(sys::RL, "cancel_stops", 1);
            break;
        }
        let _epoch_span = tel.span(sys::RL, "epoch");
        let snapshot = agent.clone();
        buffer.clear();
        let stream_base = effective_rollout_seed(cfg.rollout_seed, recovery_nonce);
        // Rollout collection is dominated by policy forward passes; under
        // profiling it reports as the `rl.forward` stage of the breakdown.
        // A *live* span (not a deferred one) so the evaluator spans nested
        // inside the rollouts subtract from its self time.
        let parts = {
            let _fwd_span = np_telemetry::profiling().then(|| tel.span(sys::RL, "forward"));
            collect(env, agent, cfg, epoch, stream_base, tel)
        };
        // Merge in actor order — fixed regardless of worker scheduling.
        let mut returns: Vec<f64> = Vec::new();
        let mut lengths: Vec<usize> = Vec::new();
        let mut completed = 0usize;
        let mut truncated = 0usize;
        for mut part in parts {
            buffer.absorb(&mut part.buffer);
            returns.append(&mut part.returns);
            lengths.append(&mut part.lengths);
            completed += part.completed;
            truncated += part.truncated;
        }
        // The last epoch's updates would go unread: decide before them.
        let stopping = stops_at(env, epoch + 1);
        if !stopping {
            buffer.normalize_advantages();
            let _update_span = tel.span(sys::RL, "policy_update");
            // The update is the backward/optimizer stage of the profile
            // breakdown; live so it nets out of `policy_update`'s self.
            let _bwd_span = np_telemetry::profiling().then(|| tel.span(sys::RL, "backward"));
            agent.update_policy(buffer.steps());
            agent.update_value(buffer.steps());
        }
        if chaos.should_fire(np_chaos::FaultClass::NanGrad) {
            agent.inject_nan();
        }

        let mean_return = returns.iter().sum::<f64>() / returns.len().max(1) as f64;
        let mean_length = lengths.iter().sum::<usize>() as f64 / lengths.len().max(1) as f64;
        if !(agent.params_finite() && mean_return.is_finite()) {
            // Numerical blow-up: discard this epoch's updates entirely and
            // retry it from the last good parameters, with fresh rollout
            // streams and reannealed exploration so the retry does not
            // deterministically reproduce the blow-up.
            *agent = snapshot;
            recovery_nonce += 1;
            consecutive_rollbacks += 1;
            tel.incr(sys::RL, "nan_rollbacks", 1);
            if consecutive_rollbacks > MAX_CONSECUTIVE_ROLLBACKS {
                tel.incr(sys::RL, "nan_giveup", 1);
                break;
            }
            agent.set_explore_temp(REANNEAL_TEMP);
            continue;
        }
        consecutive_rollbacks = 0;
        let temp = agent.explore_temp();
        if temp != 1.0 {
            let next = 1.0 + (temp - 1.0) * 0.7;
            agent.set_explore_temp(if next - 1.0 < 1e-3 { 1.0 } else { next });
        }
        if tel.is_enabled() {
            tel.incr(sys::RL, "epochs", 1);
            tel.incr(sys::RL, "env_steps", buffer.len() as u64);
            tel.incr(sys::RL, "trajectories_completed", completed as u64);
            tel.incr(sys::RL, "trajectories_truncated", truncated as u64);
            tel.record(sys::RL, "mean_return", mean_return);
            tel.record(sys::RL, "mean_length", mean_length);
        }
        report.epochs.push(EpochStats {
            epoch,
            mean_return,
            completed,
            truncated,
            mean_length,
        });
        if let Some(hook) = on_epoch.as_mut() {
            let stats = report.epochs.last().expect("epoch just pushed");
            hook(
                agent,
                env,
                &TrainProgress {
                    stats,
                    next_epoch: epoch + 1,
                    recovery_nonce,
                },
            );
        }
        // The injected kill lands after the checkpoint hook, so a killed
        // run always leaves a resumable epoch record behind.
        if chaos.should_fire(np_chaos::FaultClass::Kill) {
            panic!("chaos: injected kill after epoch {epoch}");
        }
        epoch += 1;
        if stopping {
            report.stopped = true;
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{ActorCritic, AgentConfig};
    use crate::env::testenv::CounterEnv;
    use crate::env::GraphEnv;

    fn small_agent(env: &CounterEnv, seed: u64) -> ActorCritic {
        ActorCritic::new(
            env.adjacency().clone(),
            env.feature_dim(),
            env.num_unit_choices(),
            &AgentConfig {
                gnn_layers: 1,
                gnn_hidden: 8,
                mlp_hidden: vec![16],
                actor_lr: 0.05,
                critic_lr: 0.05,
                seed,
            },
        )
    }

    #[test]
    fn training_improves_the_counter_policy() {
        // Optimal return: all 6 units on node 0 → −0.06. Random policy over
        // 4 nodes averages ≈ −0.4. Training must close most of the gap.
        let mut env = CounterEnv::new(4, 1, 6);
        let mut agent = small_agent(&env, 3);
        let cfg = TrainConfig {
            epochs: 80,
            steps_per_epoch: 256,
            max_traj_len: 64,
            ..Default::default()
        };
        let report = train(&mut env, &mut agent, &cfg);
        let first = report.epochs[0].mean_return;
        let last = report.final_return();
        assert!(
            last > first + 0.05,
            "training must improve returns (first {first}, last {last})"
        );
        assert!(last > -0.2, "policy should be near-optimal, got {last}");
    }

    #[test]
    fn every_epoch_reports_statistics() {
        let mut env = CounterEnv::new(3, 2, 4);
        let mut agent = small_agent(&env, 1);
        let cfg = TrainConfig {
            epochs: 3,
            steps_per_epoch: 64,
            max_traj_len: 16,
            ..Default::default()
        };
        let report = train(&mut env, &mut agent, &cfg);
        assert_eq!(report.epochs_run(), 3);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert!(e.completed + e.truncated > 0);
            assert!(e.mean_length > 0.0);
        }
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let run = || {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let cfg = TrainConfig {
                epochs: 4,
                steps_per_epoch: 64,
                max_traj_len: 32,
                ..Default::default()
            };
            train(&mut env, &mut agent, &cfg)
                .epochs
                .iter()
                .map(|e| e.mean_return)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rollout_worker_count_never_changes_training() {
        // num_actors fixes the determinism contract (per-actor RNG
        // streams, actor-order merge); rollout_workers only changes which
        // thread runs each actor. Training must be bit-identical.
        let run = |workers: usize| {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let cfg = TrainConfig {
                epochs: 3,
                steps_per_epoch: 64,
                max_traj_len: 16,
                num_actors: 4,
                rollout_workers: workers,
                rollout_seed: 11,
                ..Default::default()
            };
            train(&mut env, &mut agent, &cfg)
                .epochs
                .iter()
                .map(|e| (e.mean_return, e.completed, e.truncated, e.mean_length))
                .collect::<Vec<_>>()
        };
        let base = run(1);
        assert_eq!(run(2), base);
        assert_eq!(run(4), base);
    }

    #[test]
    fn zero_actors_train_as_one() {
        let run = |num_actors: usize| {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let cfg = TrainConfig {
                epochs: 2,
                steps_per_epoch: 32,
                max_traj_len: 8,
                num_actors,
                ..Default::default()
            };
            train(&mut env, &mut agent, &cfg);
            agent.export_state()
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn multi_actor_training_still_improves_the_policy() {
        let mut env = CounterEnv::new(4, 1, 6);
        let mut agent = small_agent(&env, 3);
        let cfg = TrainConfig {
            epochs: 80,
            steps_per_epoch: 256,
            max_traj_len: 64,
            num_actors: 4,
            rollout_workers: 2,
            ..Default::default()
        };
        let report = train(&mut env, &mut agent, &cfg);
        let first = report.epochs[0].mean_return;
        let last = report.final_return();
        assert!(
            last > first + 0.05,
            "multi-actor training must improve returns (first {first}, last {last})"
        );
    }

    #[test]
    fn truncation_penalty_is_applied() {
        // Impossible target with a tiny length cap: every trajectory is
        // truncated and the mean return must include the −1 penalty.
        let mut env = CounterEnv::new(2, 1, 1000);
        let mut agent = small_agent(&env, 2);
        let cfg = TrainConfig {
            epochs: 1,
            steps_per_epoch: 32,
            max_traj_len: 4,
            ..Default::default()
        };
        let report = train(&mut env, &mut agent, &cfg);
        let e = &report.epochs[0];
        assert_eq!(e.completed, 0);
        assert!(e.truncated > 0);
        assert!(
            e.mean_return < -0.9,
            "penalty must dominate: {}",
            e.mean_return
        );
    }

    #[test]
    fn nan_injection_rolls_back_and_training_recovers() {
        let plan = np_chaos::FaultPlan::parse("seed=1,nan-grad@1").unwrap();
        let chaos = np_chaos::Chaos::new(plan);
        let tel = Telemetry::memory();
        let mut env = CounterEnv::new(3, 1, 5);
        let mut agent = small_agent(&env, 7);
        let cfg = TrainConfig {
            epochs: 4,
            steps_per_epoch: 64,
            max_traj_len: 32,
            ..Default::default()
        };
        let report = train_resumable(
            &mut env,
            &mut agent,
            &cfg,
            &tel,
            &chaos,
            None,
            EpochCallbacks::default(),
        );
        assert_eq!(report.epochs_run(), 4, "rolled-back epoch is retried");
        assert!(report.epochs.iter().all(|e| e.mean_return.is_finite()));
        assert!(agent.params_finite(), "recovery leaves finite parameters");
        assert_eq!(chaos.fired(np_chaos::FaultClass::NanGrad), 1);
        assert!(tel.render_summary().contains("nan_rollbacks"));
    }

    #[test]
    fn persistent_nan_injection_gives_up_with_good_parameters() {
        // Every attempt is poisoned: the trainer must stop instead of
        // looping, and the agent must still hold the last good snapshot.
        let plan = np_chaos::FaultPlan::parse("seed=1,nan-grad@0-999").unwrap();
        let chaos = np_chaos::Chaos::new(plan);
        let mut env = CounterEnv::new(3, 1, 5);
        let mut agent = small_agent(&env, 7);
        let cfg = TrainConfig {
            epochs: 4,
            steps_per_epoch: 32,
            max_traj_len: 16,
            ..Default::default()
        };
        let report = train_resumable(
            &mut env,
            &mut agent,
            &cfg,
            &Telemetry::noop(),
            &chaos,
            None,
            EpochCallbacks::default(),
        );
        assert!(report.epochs.is_empty(), "no epoch survives the injection");
        assert!(agent.params_finite());
    }

    #[test]
    fn resume_from_a_mid_run_checkpoint_is_bit_identical() {
        let cfg = TrainConfig {
            epochs: 5,
            steps_per_epoch: 64,
            max_traj_len: 16,
            ..Default::default()
        };
        let run_full = || {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let report = train(&mut env, &mut agent, &cfg);
            (agent.export_state(), report)
        };
        let (full_state, full_report) = run_full();

        // First half: capture the checkpoint the hook hands us at epoch 1.
        let mut cut: Option<(String, TrainResume)> = None;
        {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let mut stats: Vec<EpochStats> = Vec::new();
            let mut hook = |ag: &mut ActorCritic, _env: &mut CounterEnv, p: &TrainProgress<'_>| {
                stats.push(p.stats.clone());
                if p.next_epoch == 2 {
                    cut = Some((
                        ag.export_state(),
                        TrainResume {
                            next_epoch: p.next_epoch,
                            recovery_nonce: p.recovery_nonce,
                            stats: stats.clone(),
                        },
                    ));
                }
            };
            // Simulate the kill by only running the first two epochs.
            let short = TrainConfig {
                epochs: 2,
                ..cfg.clone()
            };
            train_resumable(
                &mut env,
                &mut agent,
                &short,
                &Telemetry::noop(),
                &np_chaos::Chaos::disabled(),
                None,
                EpochCallbacks {
                    stop: None,
                    on_epoch: Some(&mut hook),
                },
            );
        }
        let (blob, resume) = cut.expect("checkpoint captured at epoch 1");

        // Second half: fresh env + agent, restore, continue.
        let mut env = CounterEnv::new(3, 1, 5);
        let mut agent = small_agent(&env, 7);
        assert!(agent.import_state(&blob), "blob must restore");
        let report = train_resumable(
            &mut env,
            &mut agent,
            &cfg,
            &Telemetry::noop(),
            &np_chaos::Chaos::disabled(),
            Some(resume),
            EpochCallbacks::default(),
        );
        assert_eq!(agent.export_state(), full_state, "parameters diverged");
        let key = |r: &TrainReport| {
            r.epochs
                .iter()
                .map(|e| (e.epoch, e.mean_return.to_bits(), e.completed, e.truncated))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&report), key(&full_report), "stats diverged");
    }

    #[test]
    fn a_hook_that_stops_ends_training_on_that_epoch() {
        let cfg = TrainConfig {
            epochs: 5,
            steps_per_epoch: 32,
            max_traj_len: 16,
            ..Default::default()
        };
        let run = |chaos: &np_chaos::Chaos| {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let mut seen = Vec::new();
            let mut hook = |_: &mut ActorCritic, _: &mut CounterEnv, p: &TrainProgress<'_>| {
                seen.push(p.next_epoch);
            };
            let rule = |_: &CounterEnv, next_epoch: usize| next_epoch == 2;
            let tel = Telemetry::noop();
            let report = train_resumable(
                &mut env,
                &mut agent,
                &cfg,
                &tel,
                chaos,
                None,
                EpochCallbacks {
                    stop: Some(&rule),
                    on_epoch: Some(&mut hook),
                },
            );
            (report.epochs_run(), report.stopped, seen)
        };
        assert_eq!(run(&np_chaos::Chaos::disabled()), (2, true, vec![1, 2]));
        // The stopping epoch still passes the kill check, so a kill there
        // lands after its checkpoint as on any other epoch.
        let kill = np_chaos::Chaos::new(np_chaos::FaultPlan::parse("kill@1").unwrap());
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&kill)));
        assert!(killed.is_err(), "kill@1 fires after the stopping epoch");
    }

    /// Epoch keys of a report: index, return bits, completed, truncated.
    fn epoch_keys(r: &TrainReport) -> Vec<(usize, u64, usize, usize)> {
        r.epochs
            .iter()
            .map(|e| (e.epoch, e.mean_return.to_bits(), e.completed, e.truncated))
            .collect()
    }

    /// Spans `rl/name` recorded on `tel`.
    fn span_count(tel: &Telemetry, name: &str) -> u64 {
        (tel.spans_self().iter())
            .find(|(s, n, ..)| s == "rl" && n == name)
            .map_or(0, |&(_, _, count, ..)| count)
    }

    #[test]
    fn the_epoch_a_rule_stops_runs_no_update() {
        let cfg = TrainConfig {
            epochs: 5,
            steps_per_epoch: 64,
            max_traj_len: 16,
            num_actors: 4,
            rollout_seed: 11,
            ..Default::default()
        };
        let unstopped = |epochs: usize| {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let report = train(
                &mut env,
                &mut agent,
                &TrainConfig {
                    epochs,
                    ..cfg.clone()
                },
            );
            (agent.export_state(), report)
        };
        for k in 1..=3 {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let rule = |_: &CounterEnv, next_epoch: usize| next_epoch == k;
            let tel = Telemetry::memory();
            let mut records = Vec::new();
            let mut hook = |ag: &mut ActorCritic, _: &mut CounterEnv, p: &TrainProgress<'_>| {
                records.push((p.next_epoch, ag.export_state()));
            };
            let report = train_resumable(
                &mut env,
                &mut agent,
                &cfg,
                &tel,
                &np_chaos::Chaos::disabled(),
                None,
                EpochCallbacks {
                    stop: Some(&rule),
                    on_epoch: Some(&mut hook),
                },
            );
            assert!(report.stopped, "boundary {k}");
            // k epochs of rollouts, as an unstopped k-epoch run collects...
            assert_eq!(epoch_keys(&report), epoch_keys(&unstopped(k).1));
            // ...but only k - 1 updates: the agent, and the stopping
            // epoch's record of it, are those of k - 1 unstopped epochs.
            let (before, _) = unstopped(k - 1);
            assert_eq!(agent.export_state(), before, "boundary {k}");
            assert_eq!(records.last(), Some(&(k, before.clone())));
            assert_eq!(span_count(&tel, "policy_update"), k as u64 - 1);

            // A resume on that boundary stops there again and runs no
            // epoch: the agent does not move.
            let tel = Telemetry::memory();
            let resume = TrainResume {
                next_epoch: k,
                recovery_nonce: 0,
                stats: report.epochs.clone(),
            };
            let resumed = train_resumable(
                &mut env,
                &mut agent,
                &cfg,
                &tel,
                &np_chaos::Chaos::disabled(),
                Some(resume),
                EpochCallbacks {
                    stop: Some(&rule),
                    on_epoch: None,
                },
            );
            assert!(resumed.stopped);
            assert_eq!(epoch_keys(&resumed), epoch_keys(&report));
            assert_eq!(span_count(&tel, "epoch"), 0);
            assert_eq!(agent.export_state(), before);
        }
    }

    #[test]
    fn a_nan_rollback_on_the_stopping_epoch_decides_again_and_stops_once() {
        // nan-grad@1 poisons the second epoch, the one the rule stops on.
        let chaos = np_chaos::Chaos::new(np_chaos::FaultPlan::parse("nan-grad@1").unwrap());
        let tel = Telemetry::memory();
        let mut env = CounterEnv::new(3, 1, 5);
        let mut agent = small_agent(&env, 7);
        let asked = std::cell::Cell::new(0);
        let rule = |_: &CounterEnv, next_epoch: usize| {
            asked.set(asked.get() + usize::from(next_epoch == 2));
            next_epoch == 2
        };
        let mut seen = Vec::new();
        let mut hook = |_: &mut ActorCritic, _: &mut CounterEnv, p: &TrainProgress<'_>| {
            seen.push(p.next_epoch);
        };
        let cfg = TrainConfig {
            epochs: 4,
            steps_per_epoch: 64,
            max_traj_len: 16,
            ..Default::default()
        };
        let report = train_resumable(
            &mut env,
            &mut agent,
            &cfg,
            &tel,
            &chaos,
            None,
            EpochCallbacks {
                stop: Some(&rule),
                on_epoch: Some(&mut hook),
            },
        );
        assert_eq!(chaos.fired(np_chaos::FaultClass::NanGrad), 1);
        assert_eq!(tel.counter("rl", "nan_rollbacks"), 1);
        assert_eq!(asked.get(), 2, "the retried epoch decides again");
        assert!(report.stopped);
        assert_eq!(report.epochs_run(), 2);
        assert_eq!(seen, vec![1, 2], "the stopping epoch is recorded once");
        assert!(agent.params_finite());
    }

    #[test]
    fn resume_is_bit_identical_with_parallel_actors_too() {
        let cfg = TrainConfig {
            epochs: 4,
            steps_per_epoch: 64,
            max_traj_len: 16,
            num_actors: 4,
            rollout_workers: 2,
            rollout_seed: 11,
            ..Default::default()
        };
        let full = {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            train(&mut env, &mut agent, &cfg);
            agent.export_state()
        };
        let halves = {
            let mut env = CounterEnv::new(3, 1, 5);
            let mut agent = small_agent(&env, 7);
            let short = TrainConfig {
                epochs: 2,
                ..cfg.clone()
            };
            train(&mut env, &mut agent, &short);
            let blob = agent.export_state();
            let mut env2 = CounterEnv::new(3, 1, 5);
            let mut agent2 = small_agent(&env2, 7);
            assert!(agent2.import_state(&blob));
            let resume = TrainResume {
                next_epoch: 2,
                recovery_nonce: 0,
                stats: Vec::new(),
            };
            train_resumable(
                &mut env2,
                &mut agent2,
                &cfg,
                &Telemetry::noop(),
                &np_chaos::Chaos::disabled(),
                Some(resume),
                EpochCallbacks::default(),
            );
            agent2.export_state()
        };
        assert_eq!(halves, full);
    }

    /// Bit-identity pin for the actor-critic arithmetic: the learning
    /// state after three epochs hashes to the value recorded before the
    /// np-neural kernels were rebuilt (DESIGN.md "neural kernel
    /// contract"). The preset-A `PlanningEnv` half of the pin is
    /// crates/core/tests/agent_golden.rs.
    #[test]
    fn counter_env_learning_state_matches_the_recorded_hashes() {
        let state_hash = || {
            let mut env = CounterEnv::new(5, 3, 7);
            let mut agent = ActorCritic::new(
                env.adjacency().clone(),
                env.feature_dim(),
                env.num_unit_choices(),
                &AgentConfig {
                    gnn_layers: 2,
                    gnn_hidden: 12,
                    mlp_hidden: vec![20, 9],
                    seed: 5,
                    ..Default::default()
                },
            );
            let cfg = TrainConfig {
                epochs: 3,
                steps_per_epoch: 64,
                max_traj_len: 16,
                num_actors: 4,
                rollout_workers: 2,
                rollout_seed: 11,
                ..Default::default()
            };
            train(&mut env, &mut agent, &cfg);
            np_chaos::checkpoint::fnv1a64(agent.export_state().as_bytes())
        };
        assert_eq!(state_hash(), 0xcea1_d121_0900_a66f);
    }
}
