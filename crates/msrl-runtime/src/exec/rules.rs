//! The five sync rules: what the seats of a run say to each other, and
//! when. Each body is handed its [`Frame`] by the skeleton and spells
//! only its own exchange — messages, their order and the work between
//! them. Worker seats address the hub as rank `f.workers`.

use msrl_algos::a3c::A3cWorker;
use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::ppo::{PpoActor, PpoAgent, PpoLearner};
use msrl_algos::rollout::{collect, decode_actions};
use msrl_core::api::{Actor, Learner, SampleBatch};
use msrl_core::Result;
use msrl_env::batched::BatchedEnv;
use msrl_env::{Action, MultiAgentEnvironment, VecEnv};
use msrl_tensor::{Tensor, TensorError};

use super::runner::{learn, rollout, Frame};
use super::{DistPpoConfig, DpDConfig, DpEConfig};
use crate::wire::{decode_batch, encode_batch};

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
// the policy head over the iteration's weights, packed once (`PackedPpo`),
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
    let mut agent = PpoAgent::new(f.policy.clone(), dist.ppo.clone(), dist.seed + 17);
    for _ in 0..dist.iterations {
        let mut buffers: Vec<TrajectoryBuffer> = (0..p).map(|_| TrajectoryBuffer::new()).collect();
        rollout(|| -> Result<()> {
            let (policy, packed, rng) = agent.acting();
            let packed = Some(packed);
            // What the next step acts on, every actor's rows in rank
            // order: the reset observations first, from then on the
            // `next_obs` of the last feedback.
            let resets = recv_each(f)?;
            let mut obs = stack_obs(&resets, 0, n, obs_dim)?;
            // The last step, acted on and answered, not yet recorded.
            let mut unrecorded: Option<Acted> = None;
            for _ in 0..dist.steps_per_iter {
                let head = policy.head_with(&obs, packed)?;
                let act = policy.sample(&head, rng)?;
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
        let loss = learn(|| agent.learner_mut().learn(&batch))?;
        let mut finished = Vec::new();
        for rank in 0..p {
            finished.extend(f.ep.recv(rank)?);
        }
        f.report.losses.push(loss);
        f.close_finished(&finished, Some(agent.learner()))?;
    }
    f.report.final_params = agent.learner().policy_params();
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
// The episode returns ride the last epoch's reduction
// (`all_reduce_mean_concat`), so an iteration pays exactly one
// collective barrier per epoch; an iteration with no epoch sends them on
// one reduction of nothing.

/// The fused actor+learner seat.
pub(super) fn grad_all_reduce(f: &mut Frame, mut envs: VecEnv, dist: &DistPpoConfig) -> Result<()> {
    let mut agent =
        PpoAgent::new(f.policy.clone(), dist.ppo.clone(), dist.seed + 1 + f.rank as u64);
    let epochs = dist.ppo.epochs;
    for _ in 0..dist.iterations {
        let batch = rollout(|| collect(&mut agent, &mut envs, dist.steps_per_iter))?;
        let finished = learn(|| -> Result<Vec<f32>> {
            for _ in 1..epochs {
                let averaged = f.ep.all_reduce_mean(agent.learner_mut().grads(&batch)?)?;
                agent.learner_mut().apply_grads(&averaged)?;
            }
            let last = if epochs > 0 { agent.learner_mut().grads(&batch)? } else { Vec::new() };
            let (averaged, returns) =
                f.ep.all_reduce_mean_concat(last, envs.take_finished_returns())?;
            if epochs > 0 {
                agent.learner_mut().apply_grads(&averaged)?;
            }
            Ok(returns.into_iter().flatten().collect())
        })?;
        f.close_finished(&finished, Some(agent.learner()))?;
    }
    f.report.final_params = agent.learner().policy_params();
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
    let mut agent =
        PpoAgent::new(f.policy.clone(), cfg.ppo.clone(), cfg.seed + 100 + f.rank as u64);
    for _ in 0..cfg.episodes {
        let mut buf = TrajectoryBuffer::new();
        let mut total_reward = 0.0;
        let mut steps = 0usize;
        rollout(|| -> Result<()> {
            let mut obs = env.reset();
            loop {
                let out = agent.act(&obs)?;
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
        learn(|| agent.learner_mut().learn(&batch))?;
        if f.workers > 1 {
            let _s = msrl_telemetry::span!("phase.weight_sync");
            let avg = f.ep.all_reduce_mean(agent.learner().policy_params())?;
            agent.set_policy_params(&avg)?;
        }
        let mean = total_reward / (env.total_agents() * steps.max(1)) as f32;
        f.close(mean, Some(agent.learner()))?;
    }
    f.report.final_params = agent.learner().policy_params();
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
    let mut agent = PpoAgent::new(f.policy.clone(), cfg.ppo.clone(), cfg.seed + 1 + f.rank as u64);
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
                let out = agent.act(&obs)?;
                f.ep.send(hub, out.actions.data().to_vec())?;
                let values = out.values.expect("PPO policy has a critic");
                prev = Some((obs, out.actions, out.log_probs, values));
            }
        })?;
        let batch = buf.drain_env_major()?;
        if !batch.is_empty() {
            learn(|| agent.learner_mut().learn(&batch))?;
        }
        let _s = msrl_telemetry::span!("phase.weight_sync");
        let avg = shared_params(&f.ep.all_gather(agent.learner().policy_params())?, n);
        agent.set_policy_params(&avg)?;
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
        f.close(total / (n * steps.max(1)) as f32, None)?;
    }
    Ok(())
}

// ── push–pull (DP-A, DP-F and A3C) ─────────────────────────────────────
//
// A worker rolls out, turns the batch into its *push* and sends it with
// the returns of the episodes it finished. It takes a reply (weights)
// only when more than `bound` are outstanding at the top of a round, the
// oldest first: at round `i` it runs on the reply to its push `i − 1 −
// bound`, so the schedule is a function of the round, never of which
// thread got ahead, and a seed replays bit for bit. The `recv` that
// takes a reply pays only the wait the rollout did not hide.
//
// The hub takes pushes a *group* at a time, one per rank in arrival
// order, folds the group into its learner in rank order and answers each
// push with the learner's weights. The rows differ only in arguments.
// DP-A: the push is the encoded trajectory, the group every actor, the
// fold one `learn` on their union (bound 0 is the synchronous exchange).
// DP-F: the push is a gradient and the group one push, applied in
// arrival order, so a worker waits only for the reply to its own push. A3C: DP-F with bound 0, one
// environment per worker, `A3cLearner` and a report per push.

/// What sits in the push–pull worker seat: something that acts and
/// turns a batch into a push. A reply is weights for its actor.
pub(super) trait PushPullSeat {
    fn actor(&mut self) -> &mut dyn Actor;
    fn push(&mut self, batch: &SampleBatch) -> Result<Vec<f32>>;
}

/// DP-A: the trajectory goes.
impl PushPullSeat for PpoActor {
    fn actor(&mut self) -> &mut dyn Actor {
        self
    }
    fn push(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        Ok(encode_batch(batch))
    }
}

/// DP-F: the gradient of the batch goes.
impl PushPullSeat for PpoAgent {
    fn actor(&mut self) -> &mut dyn Actor {
        self
    }
    fn push(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        learn(|| self.learner_mut().grads(batch))
    }
}

/// A3C: DP-F's exchange with A3C's loss.
impl PushPullSeat for A3cWorker {
    fn actor(&mut self) -> &mut dyn Actor {
        &mut self.actor
    }
    fn push(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        learn(|| self.local_grads(batch))
    }
}

/// The worker seat: `rounds` pushes of one `steps`-long rollout each,
/// at most `bound` replies outstanding when a rollout starts.
pub(super) fn push_pull_worker(
    f: &mut Frame,
    mut seat: impl PushPullSeat,
    mut envs: VecEnv,
    rounds: usize,
    steps: usize,
    bound: usize,
) -> Result<()> {
    let hub = f.workers;
    // Replies the hub owes this seat, one per push not yet taken.
    let mut owed = 0usize;
    for _ in 0..rounds {
        {
            let _s = msrl_telemetry::span!("phase.weight_sync");
            while owed > bound {
                seat.actor().set_policy_params(&f.ep.recv(hub)?)?;
                owed -= 1;
            }
        }
        let stale = owed > 0;
        if stale {
            msrl_telemetry::static_counter!("comm.stale_iters").add(1);
        }
        let batch = {
            // comm.overlap marks rollout executed while a reply is
            // still owed.
            let _ov = stale.then(|| msrl_telemetry::span!("comm.overlap"));
            rollout(|| collect(seat.actor(), &mut envs, steps))?
        };
        let push = seat.push(&batch)?;
        let _s = msrl_telemetry::span!("phase.weight_sync");
        f.ep.send(hub, push)?;
        f.ep.send(hub, envs.take_finished_returns())?;
        owed += 1;
    }
    // Consume the replies still owed, so the hub's last sends never hit
    // a dropped endpoint.
    for _ in 0..owed {
        let _ = f.ep.recv(hub);
    }
    Ok(())
}

/// A group of pushes: `(rank, push)`, one per rank, in rank order.
pub(super) type Group = [(usize, Vec<f32>)];

/// The hub seat: takes `rounds` pushes from every worker, `group` at a
/// time, folds each group into `learner`, answers every push with the
/// learner's weights and closes an iteration every `per_report` pushes.
pub(super) fn push_pull_hub<L: Learner>(
    f: &mut Frame,
    mut learner: L,
    rounds: usize,
    group: usize,
    per_report: usize,
    mut fold: impl FnMut(&mut L, &Group) -> Result<()>,
) -> Result<()> {
    let p = f.workers;
    let mut owed = vec![rounds; p];
    for _ in 0..rounds * p / per_report {
        let mut finished = Vec::new();
        for _ in 0..per_report / group {
            let mut pushes: Vec<(usize, Vec<f32>)> = Vec::with_capacity(group);
            while pushes.len() < group {
                // Arrival order: with overlapped workers a fast rank's
                // next push may beat a slow rank's first. Only ranks
                // that still owe a push are polled — one that sent its
                // last may have exited and dropped its endpoint.
                let needed = |r: &usize| owed[*r] > 0 && pushes.iter().all(|(q, _)| q != r);
                let (rank, push) = f.ep.recv_any(&(0..p).filter(needed).collect::<Vec<_>>())?;
                owed[rank] -= 1;
                pushes.push((rank, push));
            }
            pushes.sort_by_key(|&(rank, _)| rank);
            for &(rank, _) in &pushes {
                finished.extend(f.ep.recv(rank)?);
            }
            fold(&mut learner, &pushes)?;
            let weights = learner.policy_params();
            let _s = msrl_telemetry::span!("phase.weight_sync");
            for &(rank, _) in &pushes {
                f.ep.send(rank, weights.clone())?;
            }
        }
        f.report.losses.extend(learner.signals().loss);
        f.close_finished(&finished, Some(&learner))?;
    }
    f.report.final_params = learner.policy_params();
    Ok(())
}

/// DP-A's fold: the group's trajectories, decoded and learned on as one
/// batch.
pub(super) fn learn_union(learner: &mut PpoLearner, pushes: &Group) -> Result<()> {
    let batches = pushes.iter().map(|(_, push)| decode_batch(push)).collect::<Result<Vec<_>>>()?;
    let batch = SampleBatch::concat(&batches)?;
    learn(|| learner.learn(&batch))?;
    Ok(())
}

/// DP-F's and A3C's fold: each gradient applied in turn.
pub(super) fn apply_grads(learner: &mut impl Learner, pushes: &Group) -> Result<()> {
    for (_, grads) in pushes {
        learn(|| learner.apply_grads(grads))?;
    }
    Ok(())
}
