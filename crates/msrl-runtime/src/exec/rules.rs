//! The six sync rules: what the seats of a run say to each other, and
//! when. Each body is handed its [`Frame`] by the skeleton and spells
//! only its own exchange — messages, their order and the work between
//! them. Worker seats address the hub as rank `f.workers`.

use std::collections::VecDeque;
use std::sync::Arc;

use msrl_algos::a3c::A3cWorker;
use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::ppo::{ActingSnapshot, PpoActor, PpoLearner};
use msrl_algos::rollout::{collect, decode_actions};
use msrl_comm::PendingRecv;
use msrl_core::api::{Actor, Learner, SampleBatch};
use msrl_core::Result;
use msrl_env::batched::BatchedEnv;
use msrl_env::{Action, MultiAgentEnvironment, VecEnv};
use msrl_tensor::{Tensor, TensorError};

use super::runner::{learn, rollout, Frame};
use super::{DistPpoConfig, DpDConfig, DpEConfig};
use crate::actsrv::ActServer;
use crate::config::RuntimeConfig;
use crate::wire::{decode_batch, encode_batch};

// ── gather + version-stamped broadcast (DP-A) ──────────────────────────
//
// Once per iteration every actor ships its whole trajectory to the one
// learner and gets the new weights back. The weights are double-buffered:
// the actor posts an `irecv` for the next broadcast and rolls out on what
// it has. Each broadcast is version-stamped, and at iteration `i` an
// actor runs on version `i − bound` exactly, blocking only if that one
// has not landed — the schedule is a function of the iteration, never of
// which thread got ahead, so a seed replays bit-identically. Bound 0
// (overlap off, or the act server) is the fully synchronous exchange
// through the same code.

/// The actor seat. With an act server the forwards of all actors are
/// micro-batched across fragments (bit-identical, see `crate::actsrv`).
pub(super) fn gather_actor(
    f: &mut Frame,
    mut envs: VecEnv,
    dist: &DistPpoConfig,
    srv: Option<&Arc<ActServer>>,
) -> Result<()> {
    let (hub, bound) = (f.workers, dist.stale_bound());
    let seed = dist.seed + 1 + f.rank as u64;
    let mut actor: Box<dyn Actor> = match srv {
        Some(srv) => Box::new(srv.client(f.rank, seed)),
        None => Box::new(PpoActor::new(f.policy.clone(), seed)),
    };
    // `pending` holds posted irecvs for broadcasts still in flight;
    // `version` is the iteration whose learn step produced the weights
    // the actor runs on (0 = initial weights).
    let mut pending: VecDeque<PendingRecv> = VecDeque::new();
    let mut version = 0usize;
    for iter in 0..dist.iterations {
        {
            let _s = msrl_telemetry::span!("phase.weight_sync");
            // Swap in broadcasts, oldest first, up to the version the
            // bound entitles this rollout to. A newer one that happens
            // to have landed stays pending: whether it has is a matter
            // of thread scheduling, and the weights a rollout sees must
            // not be.
            while iter - version > bound {
                let w = pending
                    .pop_front()
                    .expect("a broadcast is outstanding whenever version lags")
                    .wait()?;
                version = w[0] as usize;
                actor.set_policy_params(&w[1..])?;
            }
        }
        let stale = version < iter;
        if stale {
            msrl_telemetry::static_counter!("comm.stale_iters").add(1);
        }
        let batch = {
            // comm.overlap marks rollout executed while the next weight
            // broadcast is still in flight.
            let _ov = stale.then(|| msrl_telemetry::span!("comm.overlap"));
            rollout(|| collect(actor.as_mut(), &mut envs, dist.steps_per_iter))?
        };
        let _s = msrl_telemetry::span!("phase.weight_sync");
        f.ep.send(hub, encode_batch(&batch))?;
        f.ep.send(hub, envs.take_finished_returns())?;
        pending.push_back(f.ep.irecv(hub)?);
    }
    drain(pending);
    Ok(())
}

/// Consumes the replies still in flight, so the hub's last sends never
/// hit a dropped endpoint.
fn drain(pending: VecDeque<PendingRecv>) {
    for reply in pending {
        let _ = reply.wait();
    }
}

/// The learner seat.
pub(super) fn gather_learner(f: &mut Frame, dist: &DistPpoConfig) -> Result<()> {
    let p = f.workers;
    // Resolved once, at entry: the fault hook is not a config field.
    let fault_nan = RuntimeConfig::default().fault_nan_iter;
    let mut learner = PpoLearner::new(f.policy.clone(), dist.ppo.clone());
    for iter in 0..dist.iterations {
        let mut batches = Vec::with_capacity(p);
        let mut finished = Vec::new();
        for rank in 0..p {
            batches.push(decode_batch(&f.ep.recv(rank)?)?);
            finished.extend(f.ep.recv(rank)?);
        }
        let batch = SampleBatch::concat(&batches)?;
        let loss = learn(|| learner.learn(&batch))?;
        if fault_nan == Some(iter as u64) {
            // Fault injection (`MSRL_FAULT_NAN_ITER`): one weight goes to
            // infinity so this iteration's health pass must flag the
            // parameter vector. At the run's last iteration the poisoned
            // broadcast stays unused — actors only drain it.
            let mut w = learner.policy_params();
            if let Some(v) = w.first_mut() {
                *v = f32::INFINITY;
            }
            learner.set_policy_params(&w)?;
        }
        // Learning from iteration `iter`'s batches produces the version
        // `iter + 1` weights (exact as f32 for any realistic count).
        let mut weights = vec![(iter + 1) as f32];
        weights.extend(learner.policy_params());
        {
            let _s = msrl_telemetry::span!("phase.weight_sync");
            for rank in 0..p {
                f.ep.send(rank, weights.clone())?;
            }
        }
        f.report.losses.push(loss);
        f.close_finished(&finished, Some(loss), learner.last_entropy(), Some(&learner))?;
    }
    f.report.final_params = learner.policy_params();
    Ok(())
}

// ── per-step exchange (DP-B) ───────────────────────────────────────────
//
// Actors hold no policy copy: every step the learner infers on all
// actors' observations at once, records the behaviour statistics and
// returns actions (SEED-RL's central inference), and each actor answers
// with `rewards ++ dones ++ next_obs`, whose `next_obs` the next step
// acts on. No trajectory and no weights ever travel; the price is a
// round trip per step.
//
// The round trip waits only on what the actions need: the learner runs
// the policy head over a packed snapshot of the iteration's weights,
// samples and sends. The critic over the same rows, which only GAE
// reads, and the recording of the previous step's transitions run while
// the actors step their environments. Rows are independent and the
// draws keep their order, so the buffers hold what acting, valuing and
// recording one step at a time would put there.

/// The actor seat: environments only.
pub(super) fn step_actor(f: &mut Frame, mut envs: VecEnv, dist: &DistPpoConfig) -> Result<()> {
    let (hub, n, spec) = (f.workers, envs.len(), envs.action_spec());
    for _ in 0..dist.iterations {
        rollout(|| -> Result<()> {
            // Only the reset observations travel on their own.
            f.ep.send(hub, envs.reset().into_vec())?;
            for _ in 0..dist.steps_per_iter {
                // The step is round-trip bound: the env cannot advance
                // without the actions.
                let wire = f.ep.recv(hub)?;
                let actions = if spec.is_discrete() {
                    Tensor::from_vec(wire, &[n])
                } else {
                    Tensor::from_vec(wire, &[n, spec.policy_width()])
                }?;
                let step = envs.step(&decode_actions(&actions, spec));
                let mut fb = Vec::with_capacity(2 * n + step.obs.len());
                fb.extend_from_slice(step.rewards.data());
                fb.extend(step.dones.iter().map(|&d| if d { 1.0 } else { 0.0 }));
                fb.extend_from_slice(step.obs.data());
                step.obs.recycle();
                f.ep.send(hub, fb)?;
            }
            Ok(f.ep.send(hub, envs.take_finished_returns())?)
        })?;
    }
    Ok(())
}

/// The learner seat: central inference, then training on the union of
/// the per-actor trajectories it recorded itself.
pub(super) fn step_learner(f: &mut Frame, dist: &DistPpoConfig, obs_dim: usize) -> Result<()> {
    let (p, n) = (f.workers, dist.envs_per_actor.max(1));
    let mut learner = PpoLearner::new(f.policy.clone(), dist.ppo.clone());
    let mut acting = ActingSnapshot::default();
    let mut rng = msrl_tensor::init::rng(dist.seed + 17);
    for _ in 0..dist.iterations {
        let mut buffers: Vec<TrajectoryBuffer> = (0..p).map(|_| TrajectoryBuffer::new()).collect();
        rollout(|| -> Result<()> {
            let (policy, packed) = (&learner.policy, Some(acting.of(&learner.policy)));
            // What the next step acts on, every actor's rows in rank
            // order: the reset observations first, from then on the
            // `next_obs` of the last feedback.
            let resets = recv_each(f)?;
            let mut obs = stack_obs(&resets, 0, n, obs_dim)?;
            // The last step, acted on and answered, not yet recorded.
            let mut unrecorded: Option<Acted> = None;
            for _ in 0..dist.steps_per_iter {
                let head = policy.head_with(&obs, packed)?;
                let act = policy.sample(&head, &mut rng)?;
                head.recycle();
                for (rank, block) in act.actions.data().chunks(act.actions.len() / p).enumerate() {
                    f.ep.send(rank, block.to_vec())?;
                }
                // In the shadow of the actors' env step.
                let values = policy.values_with(&obs, packed)?;
                if let Some(acted) = unrecorded.take() {
                    record(&mut buffers, acted, obs_dim)?;
                }
                let feedback = recv_each(f)?;
                let next_obs = stack_obs(&feedback, 2 * n, n, obs_dim)?;
                unrecorded = Some(Acted {
                    obs: std::mem::replace(&mut obs, next_obs),
                    actions: act.actions,
                    log_probs: act.log_probs,
                    values,
                    feedback,
                });
            }
            if let Some(acted) = unrecorded {
                record(&mut buffers, acted, obs_dim)?;
            }
            Ok(())
        })?;
        let mut batches = Vec::with_capacity(p);
        for buffer in &mut buffers {
            batches.push(buffer.drain_env_major()?);
        }
        let batch = SampleBatch::concat(&batches)?;
        let loss = learn(|| learner.learn(&batch))?;
        acting.invalidate();
        let mut finished = Vec::new();
        for rank in 0..p {
            finished.extend(f.ep.recv(rank)?);
        }
        f.report.losses.push(loss);
        f.close_finished(&finished, Some(loss), learner.last_entropy(), Some(&learner))?;
    }
    f.report.final_params = learner.policy_params();
    Ok(())
}

/// One message from every worker seat, in rank order.
fn recv_each(f: &Frame) -> Result<Vec<Vec<f32>>> {
    Ok((0..f.workers).map(|rank| f.ep.recv(rank)).collect::<std::result::Result<_, _>>()?)
}

/// One step: what the learner acted on and what it drew, stacked over
/// the actors, and each actor's feedback (`rewards ++ dones ++
/// next_obs`, checked by [`stack_obs`]).
struct Acted {
    obs: Tensor,
    actions: Tensor,
    log_probs: Tensor,
    values: Tensor,
    feedback: Vec<Vec<f32>>,
}

/// The `[p·n, obs_dim]` observations in `messages` (one per actor, in
/// rank order), each message's first `skip` values left out.
///
/// # Errors
///
/// A message whose observations are not `n × obs_dim` values.
fn stack_obs(messages: &[Vec<f32>], skip: usize, n: usize, obs_dim: usize) -> Result<Tensor> {
    let mut rows = Vec::with_capacity(messages.len() * n * obs_dim);
    for m in messages {
        let obs = m.get(skip..).unwrap_or_default();
        if obs.len() != n * obs_dim {
            let (expected, actual) = (skip + n * obs_dim, m.len());
            return Err(TensorError::LengthMismatch { expected, actual }.into());
        }
        rows.extend_from_slice(obs);
    }
    Ok(Tensor::from_vec(rows, &[messages.len() * n, obs_dim])?)
}

/// Appends one step to each actor's buffer: its rows of what the learner
/// acted on, and its feedback.
fn record(buffers: &mut [TrajectoryBuffer], acted: Acted, obs_dim: usize) -> Result<()> {
    let p = buffers.len();
    let n = acted.obs.shape()[0] / p;
    let mut rows = [acted.obs, acted.actions, acted.log_probs, acted.values]
        .map(|t| actor_rows(t, p, n).into_iter());
    for (buffer, fb) in buffers.iter_mut().zip(&acted.feedback) {
        let [obs, actions, log_probs, values] =
            rows.each_mut().map(|rows| rows.next().expect("a block per actor"));
        let rewards = Tensor::from_vec(fb[..n].to_vec(), &[n])?;
        let dones: Vec<bool> = fb[n..2 * n].iter().map(|&d| d > 0.5).collect();
        let next_obs = Tensor::from_vec(fb[2 * n..].to_vec(), &[n, obs_dim])?;
        buffer.insert(step_batch(obs, actions, rewards, next_obs, dones, log_probs, values));
    }
    Ok(())
}

/// Splits a tensor stacked over `p` actors into each actor's `n` rows,
/// every block of the tensor's rank (a one-wide continuous action stays
/// `[n, 1]`). A single actor's block is the tensor itself, moved.
pub(super) fn actor_rows(t: Tensor, p: usize, n: usize) -> Vec<Tensor> {
    let mut dims = t.shape().to_vec();
    dims[0] = n;
    let block = |data: Vec<f32>| Tensor::from_vec(data, &dims).expect("block keeps the width");
    if p == 1 {
        return vec![block(t.into_vec())];
    }
    t.data().chunks(t.len() / p).map(|rows| block(rows.to_vec())).collect()
}

// ── gradient all-reduce (DP-C) ─────────────────────────────────────────
//
// Every replica collects its own rollouts, differentiates its local
// batch, all-reduce-averages the gradient with its peers and applies the
// average. Identical starting weights and identical averaged gradients
// keep the replicas bit-synchronised without a weight ever travelling.
// With overlap on, the episode returns ride the final epoch's reduction
// (`all_reduce_mean_concat`, bit-identical to the unfused path), so an
// iteration pays exactly one collective barrier per epoch.

/// The fused actor+learner seat.
pub(super) fn grad_all_reduce(f: &mut Frame, mut envs: VecEnv, dist: &DistPpoConfig) -> Result<()> {
    let mut actor = PpoActor::new(f.policy.clone(), dist.seed + 1 + f.rank as u64);
    let mut learner = PpoLearner::new(f.policy.clone(), dist.ppo.clone());
    let epochs = dist.ppo.epochs;
    let fused = dist.overlap && epochs > 0;
    for _ in 0..dist.iterations {
        let batch = rollout(|| collect(&mut actor, &mut envs, dist.steps_per_iter))?;
        let mut fused_returns: Option<Vec<f32>> = None;
        learn(|| -> Result<()> {
            for epoch in 0..epochs {
                let local = learner.grads(&batch)?;
                let averaged = if fused && epoch + 1 == epochs {
                    let (averaged, extras) =
                        f.ep.all_reduce_mean_concat(local, envs.take_finished_returns())?;
                    fused_returns = Some(extras.into_iter().flatten().collect());
                    averaged
                } else {
                    f.ep.all_reduce_mean(local)?
                };
                learner.apply_grads(&averaged)?;
            }
            Ok(())
        })?;
        let _s = msrl_telemetry::span!("phase.weight_sync");
        actor.set_policy_params(&learner.policy_params())?;
        let finished: Vec<f32> = match fused_returns {
            Some(returns) => returns,
            None => f.ep.all_gather(envs.take_finished_returns())?.into_iter().flatten().collect(),
        };
        f.close_finished(&finished, learner.last_loss(), learner.last_entropy(), Some(&learner))?;
    }
    f.report.final_params = learner.policy_params();
    Ok(())
}

// ── weight all-reduce (DP-D) ───────────────────────────────────────────
//
// The whole loop — inference, environment, update — is one fragment per
// device, possible because the environment is batched and
// device-executable. Replicas all-reduce-average their weights once per
// episode and exchange nothing else, so the skeleton averages their
// reward curves.

/// The fused-loop seat.
pub(super) fn weight_all_reduce<B: BatchedEnv>(
    f: &mut Frame,
    mut env: B,
    cfg: &DpDConfig,
) -> Result<()> {
    let mut learner = PpoLearner::new(f.policy.clone(), cfg.ppo.clone());
    let mut acting = ActingSnapshot::default();
    let mut rng = msrl_tensor::init::rng(cfg.seed + 100 + f.rank as u64);
    for _ in 0..cfg.episodes {
        let mut buf = TrajectoryBuffer::new();
        let mut total_reward = 0.0;
        let mut steps = 0usize;
        rollout(|| -> Result<()> {
            let packed = Some(acting.of(&learner.policy));
            let mut obs = env.reset();
            loop {
                let out = learner.policy.act_with(&obs, &mut rng, packed)?;
                let actions: Vec<usize> = out.actions.data().iter().map(|&a| a as usize).collect();
                let step = env.step(&actions);
                total_reward += step.rewards.data().iter().sum::<f32>();
                steps += 1;
                let n = env.total_agents();
                buf.insert(step_batch(
                    obs.clone(),
                    out.actions,
                    step.rewards.clone(),
                    step.obs.clone(),
                    vec![step.done; n],
                    out.log_probs,
                    out.values.expect("PPO policy has a critic"),
                ));
                obs = step.obs;
                if step.done {
                    return Ok(());
                }
            }
        })?;
        let batch = buf.drain_env_major()?;
        let loss = learn(|| learner.learn(&batch))?;
        if f.workers > 1 {
            let _s = msrl_telemetry::span!("phase.weight_sync");
            let avg = f.ep.all_reduce_mean(learner.policy_params())?;
            learner.set_policy_params(&avg)?;
        }
        acting.invalidate();
        let mean = total_reward / (env.total_agents() * steps.max(1)) as f32;
        f.close(mean, Some(loss), learner.last_entropy(), Some(&learner))?;
    }
    f.report.final_params = learner.policy_params();
    Ok(())
}

// ── env-worker messaging (DP-E) ────────────────────────────────────────
//
// One dedicated seat owns the multi-agent environment and does nothing
// else; one seat per agent owns that agent's policy replica and its
// training. Each step the env worker sends every agent `[done, reward,
// obs…]` and gets an action back. After an episode the agents train
// locally and average their weights (MAPPO's parameter sharing); the
// env worker joins that all-gather as a passive rank.

/// The agent seat: act per step, learn per episode, share parameters.
pub(super) fn env_agent(f: &mut Frame, cfg: &DpEConfig) -> Result<()> {
    let (hub, n) = (f.workers, f.workers);
    let mut actor = PpoActor::new(f.policy.clone(), cfg.seed + 1 + f.rank as u64);
    let mut learner = PpoLearner::new(f.policy.clone(), cfg.ppo.clone());
    for _ in 0..cfg.episodes {
        let mut buf = TrajectoryBuffer::new();
        rollout(|| -> Result<()> {
            let mut prev: Option<(Tensor, Tensor, Tensor, Tensor)> = None;
            loop {
                let msg = f.ep.recv(hub)?;
                let (done, reward) = (msg[0] > 0.5, msg[1]);
                let obs = Tensor::from_vec(msg[2..].to_vec(), &[1, msg.len() - 2])?;
                if let Some((pobs, pact, plp, pval)) = prev.take() {
                    let reward = Tensor::from_vec(vec![reward], &[1])?;
                    buf.insert(step_batch(pobs, pact, reward, obs.clone(), vec![done], plp, pval));
                }
                if done {
                    return Ok(());
                }
                let out = actor.act(&obs)?;
                f.ep.send(hub, out.actions.data().to_vec())?;
                let values = out.values.expect("PPO policy has a critic");
                prev = Some((obs, out.actions, out.log_probs, values));
            }
        })?;
        let batch = buf.drain_env_major()?;
        if !batch.is_empty() {
            learn(|| learner.learn(&batch))?;
        }
        let _s = msrl_telemetry::span!("phase.weight_sync");
        let avg = shared_params(&f.ep.all_gather(learner.policy_params())?, n);
        learner.set_policy_params(&avg)?;
        actor.set_policy_params(&avg)?;
    }
    Ok(())
}

/// The parameters every agent continues from: the mean of the `n`
/// agents' parts of an all-gather (the env worker's empty part last).
fn shared_params(parts: &[Vec<f32>], n: usize) -> Vec<f32> {
    let mut avg = vec![0.0f32; parts[0].len()];
    for part in &parts[..n] {
        for (a, v) in avg.iter_mut().zip(part) {
            *a += v;
        }
    }
    for a in &mut avg {
        *a /= n as f32;
    }
    avg
}

/// The environment-worker seat. It sees every agent's reward, so it
/// reports the run; losses stay with the agents. It joins each
/// episode's parameter all-gather, so its report's final weights are
/// the shared ones every agent continues from.
pub(super) fn env_worker<M: MultiAgentEnvironment>(
    f: &mut Frame,
    mut env: M,
    episodes: usize,
) -> Result<()> {
    let (n, horizon) = (f.workers, env.horizon());
    let tell = |f: &Frame, done: bool, rewards: &[f32], obs: &[Tensor]| -> Result<()> {
        for (agent, o) in obs.iter().enumerate() {
            let mut msg = vec![if done { 1.0 } else { 0.0 }, rewards[agent]];
            msg.extend_from_slice(o.data());
            f.ep.send(agent, msg)?;
        }
        Ok(())
    };
    for _ in 0..episodes {
        let mut obs = env.reset();
        let mut total = 0.0;
        let mut rewards = vec![0.0f32; n];
        let mut steps = 0usize;
        loop {
            tell(f, steps >= horizon, &rewards, &obs)?;
            if steps >= horizon {
                break;
            }
            let mut actions = Vec::with_capacity(n);
            for agent in 0..n {
                actions.push(Action::Discrete(f.ep.recv(agent)?[0] as usize));
            }
            let step = env.step(&actions);
            total += step.rewards.iter().sum::<f32>();
            rewards = step.rewards;
            obs = step.obs;
            steps += 1;
            if step.done && steps < horizon {
                // Early termination ends the episode for everyone.
                tell(f, true, &rewards, &obs)?;
                break;
            }
        }
        f.report.final_params = shared_params(&f.ep.all_gather(Vec::new())?, n);
        f.close(total / (n * steps.max(1)) as f32, None, None, None)?;
    }
    Ok(())
}

// ── push–pull (DP-F and A3C) ───────────────────────────────────────────
//
// A server seat holds the authoritative policy and its optimiser state;
// workers collect experience, differentiate locally, *push* the gradient
// and *pull* fresh weights. Updates apply in arrival order: a worker
// never waits for its peers, only for the reply to its own push. The
// pull is an `irecv` posted right after the push and swapped in when it
// lands; at most `bound` pulls may be outstanding when a rollout starts.
// DP-F's bound is the staleness window. A3C is the same exchange with a
// bound of 0 — every pull is waited before the next rollout — one
// environment per worker, `A3cWorker` in the grad-engine seat and
// `A3cLearner` in the server's, reporting per push instead of per round.

/// What sits in the worker seat: something that acts, differentiates a
/// batch and takes weights.
pub(super) trait GradEngine {
    fn actor(&mut self) -> &mut dyn Actor;
    fn grads(&mut self, batch: &SampleBatch) -> Result<Vec<f32>>;
    fn set_weights(&mut self, w: &[f32]) -> Result<()>;
}

impl GradEngine for (PpoActor, PpoLearner) {
    fn actor(&mut self) -> &mut dyn Actor {
        &mut self.0
    }
    fn grads(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        self.1.grads(batch)
    }
    fn set_weights(&mut self, w: &[f32]) -> Result<()> {
        self.0.set_policy_params(w)?;
        self.1.set_policy_params(w)
    }
}

impl GradEngine for A3cWorker {
    fn actor(&mut self) -> &mut dyn Actor {
        self
    }
    fn grads(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        self.local_grads(batch)
    }
    fn set_weights(&mut self, w: &[f32]) -> Result<()> {
        self.set_policy_params(w)
    }
}

/// The worker seat: `rounds` pushes of one `steps`-long rollout each,
/// at most `bound` pulls outstanding when a rollout starts.
pub(super) fn push_pull_worker(
    f: &mut Frame,
    mut engine: impl GradEngine,
    mut envs: VecEnv,
    rounds: usize,
    steps: usize,
    bound: usize,
) -> Result<()> {
    let hub = f.workers;
    // Outstanding pulls, oldest first.
    let mut pending: VecDeque<PendingRecv> = VecDeque::new();
    for _ in 0..rounds {
        {
            let _s = msrl_telemetry::span!("phase.weight_sync");
            // Swap in any pull that already landed, then block until
            // within the bound.
            while let Some(front) = pending.front_mut() {
                if !front.poll()? && pending.len() <= bound {
                    break;
                }
                let w = pending.pop_front().expect("front exists").wait()?;
                engine.set_weights(&w)?;
            }
        }
        let stale = !pending.is_empty();
        if stale {
            msrl_telemetry::static_counter!("comm.stale_iters").add(1);
        }
        let batch = {
            let _ov = stale.then(|| msrl_telemetry::span!("comm.overlap"));
            rollout(|| collect(engine.actor(), &mut envs, steps))?
        };
        let grads = learn(|| engine.grads(&batch))?;
        let _s = msrl_telemetry::span!("phase.weight_sync");
        f.ep.send(hub, grads)?;
        f.ep.send(hub, envs.take_finished_returns())?;
        pending.push_back(f.ep.irecv(hub)?);
    }
    drain(pending);
    Ok(())
}

/// The server seat: applies `rounds` pushes per worker as they arrive
/// and closes an iteration every `per_report` of them. It sees only
/// gradients, so the stream carries reward, throughput and staleness.
pub(super) fn push_pull_server(
    f: &mut Frame,
    mut server: impl Learner,
    rounds: usize,
    per_report: usize,
) -> Result<()> {
    let p = f.workers;
    let mut owed = vec![rounds; p];
    for _ in 0..rounds * p / per_report {
        let mut finished = Vec::new();
        for _ in 0..per_report {
            // Arrival order: with overlapped workers a fast rank's next
            // push may beat a slow rank's first. Only ranks that still
            // owe a push are polled — one that sent its last may have
            // exited and dropped its endpoint.
            let active: Vec<usize> = (0..p).filter(|&r| owed[r] > 0).collect();
            let (rank, grads) = f.ep.recv_any(&active)?;
            owed[rank] -= 1;
            finished.extend(f.ep.recv(rank)?);
            learn(|| server.apply_grads(&grads))?;
            f.ep.send(rank, server.policy_params())?;
        }
        f.close_finished(&finished, None, None, Some(&server))?;
    }
    f.report.final_params = server.policy_params();
    Ok(())
}
