//! DP-B (single learner, fine synchronisation).
//!
//! Actor fragments fuse with their environments on CPU devices and hold
//! **no policy copy**: every step, the learner performs the (batched)
//! inference on the actors' observations, records the behaviour
//! statistics, and returns actions — SEED-RL-style central inference —
//! and each actor answers with the step's `rewards ++ dones ++ next_obs`,
//! whose `next_obs` are the observations the next step acts on. Training
//! data therefore never needs a separate exchange, and no weights are
//! ever broadcast; the price is a synchronisation (two messages) per
//! step (Tab. 2's "fine" granularity).

use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::ppo::{PpoLearner, PpoPolicy};
use msrl_algos::rollout::decode_actions;
use msrl_comm::Fabric;
use msrl_core::api::{Learner, SampleBatch};
use msrl_core::{FdgError, Result};
use msrl_env::{Environment, VecEnv};
use msrl_tensor::{ops, Tensor};

use super::{
    drive, enter_fragment, mean_or_prev, spawn_fragment, DistPpoConfig, RunObserver, TrainingReport,
};

/// Runs PPO under DP-B.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_b<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    drive("dp_b", dist.fusion, || dp_b(make_env, dist))
}

fn dp_b<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    let p = dist.actors.max(1);
    let mut endpoints = Fabric::with_latency(p + 1, dist.link_latency);
    let learner_ep = endpoints.pop().expect("fabric yields p+1 endpoints");

    let probe = make_env(0, 0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let policy = if spec.is_discrete() {
        PpoPolicy::discrete(obs_dim, spec.policy_width(), &dist.hidden, dist.seed)
    } else {
        PpoPolicy::continuous(obs_dim, spec.policy_width(), &dist.hidden, dist.seed)
    };
    let envs_i = dist.envs_per_actor.max(1);

    std::thread::scope(|scope| -> Result<TrainingReport> {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let make_env = &make_env;
            handles.push(spawn_fragment(scope, "fragment.actor", rank, move || -> Result<()> {
                let mut envs = VecEnv::new(
                    (0..envs_i)
                        .map(|i| Box::new(make_env(rank, i)) as Box<dyn Environment>)
                        .collect(),
                );
                for _ in 0..dist.iterations {
                    let _iter = msrl_telemetry::span!("phase.rollout");
                    let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
                    // Only the reset observations travel on their own:
                    // from then on each step's feedback carries the
                    // observations the next step acts on.
                    ep.send(p, envs.reset().into_vec())?;
                    for _ in 0..dist.steps_per_iter {
                        // Fine-grained exchange: feedback up, actions
                        // down. The step is round-trip bound (the env
                        // cannot advance without the actions), which is
                        // exactly Tab. 2's "fine" granularity cost.
                        let wire_actions = ep.recv(p)?;
                        let actions_t = if spec.is_discrete() {
                            Tensor::from_vec(wire_actions, &[envs_i])
                        } else {
                            Tensor::from_vec(wire_actions, &[envs_i, spec.policy_width()])
                        }
                        .map_err(FdgError::Tensor)?;
                        let actions = decode_actions(&actions_t, spec);
                        let step = envs.step(&actions);
                        // Feedback for the learner-side buffer:
                        // rewards ++ dones ++ next_obs.
                        let mut fb = step.rewards.data().to_vec();
                        fb.extend(step.dones.iter().map(|&d| if d { 1.0 } else { 0.0 }));
                        fb.extend_from_slice(step.obs.data());
                        ep.send(p, fb)?;
                    }
                    ep.send(p, envs.take_finished_returns())?;
                }
                Ok(())
            }));
        }

        let frag = enter_fragment("fragment.learner", 0);
        let mut learner = PpoLearner::new(policy, dist.ppo.clone());
        let mut rng = msrl_tensor::init::rng(dist.seed + 17);
        let mut report = TrainingReport::default();
        let mut prev_reward = 0.0;
        let mut obs_stream = RunObserver::new("dp_b", 0);
        for _ in 0..dist.iterations {
            let mut buffers: Vec<TrajectoryBuffer> =
                (0..p).map(|_| TrajectoryBuffer::new()).collect();
            let rollout = msrl_telemetry::span!("phase.rollout");
            let rollout_attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
            // What each actor's next step acts on: its reset observations
            // first, from then on the `next_obs` of its last feedback.
            let mut per_actor_obs = Vec::with_capacity(p);
            for rank in 0..p {
                let wire = learner_ep.recv(rank)?;
                per_actor_obs
                    .push(Tensor::from_vec(wire, &[envs_i, obs_dim]).map_err(FdgError::Tensor)?);
            }
            for _ in 0..dist.steps_per_iter {
                // Infer centrally on every actor's observations.
                let stacked = if p == 1 {
                    per_actor_obs.pop().expect("one actor, one observation block")
                } else {
                    let refs: Vec<&Tensor> = per_actor_obs.iter().collect();
                    ops::concat(&refs, 0).map_err(FdgError::Tensor)?
                };
                per_actor_obs.clear();
                let out = learner.policy.act(&stacked, &mut rng)?;
                let values = out.values.expect("PPO policy has a critic");
                // Scatter actions, then collect the env feedback.
                let act_w = if spec.is_discrete() { 1 } else { spec.policy_width() };
                for rank in 0..p {
                    let lo = rank * envs_i * act_w;
                    let hi = lo + envs_i * act_w;
                    learner_ep.send(rank, out.actions.data()[lo..hi].to_vec())?;
                }
                let mut stacked_rows = [stacked, out.actions, out.log_probs, values]
                    .map(|t| actor_rows(t, p, envs_i).into_iter());
                for (rank, buffer) in buffers.iter_mut().enumerate() {
                    let fb = learner_ep.recv(rank)?;
                    let rewards = Tensor::from_vec(fb[..envs_i].to_vec(), &[envs_i])
                        .map_err(FdgError::Tensor)?;
                    let dones: Vec<bool> =
                        fb[envs_i..2 * envs_i].iter().map(|&d| d > 0.5).collect();
                    let next_obs = Tensor::from_vec(fb[2 * envs_i..].to_vec(), &[envs_i, obs_dim])
                        .map_err(FdgError::Tensor)?;
                    per_actor_obs.push(next_obs.clone());
                    let [obs, actions, log_probs, values] =
                        stacked_rows.each_mut().map(|rows| rows.next().expect("a block per actor"));
                    buffer.insert(step_batch(
                        obs, actions, rewards, next_obs, dones, log_probs, values,
                    ));
                }
            }
            drop(rollout_attr);
            drop(rollout);
            // Train on the union of the per-actor trajectories.
            let mut batches = Vec::with_capacity(p);
            for buffer in &mut buffers {
                batches.push(buffer.drain_env_major()?);
            }
            let batch = SampleBatch::concat(&batches)?;
            let loss = {
                let _s = msrl_telemetry::span!("phase.learn");
                let _h = msrl_telemetry::static_histogram!("phase.learn").time();
                let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                learner.learn(&batch)?
            };
            let mut finished = Vec::new();
            for rank in 0..p {
                finished.extend(learner_ep.recv(rank)?);
            }
            prev_reward = mean_or_prev(&finished, prev_reward);
            report.iteration_rewards.push(prev_reward);
            report.losses.push(loss);
            let params = msrl_telemetry::health_enabled().then(|| learner.policy_params());
            obs_stream.observe(prev_reward, Some(loss), learner.last_entropy(), params.as_deref());
        }
        drop(frag);
        for h in handles {
            h.join().expect("actor thread must not panic")?;
        }
        report.final_params = learner.policy_params();
        Ok(report)
    })
}

/// Splits a tensor stacked over `p` actors into each actor's `envs_i`
/// rows (`[envs_i]` when one column wide). A single actor's block is the
/// tensor itself, moved.
fn actor_rows(t: Tensor, p: usize, envs_i: usize) -> Vec<Tensor> {
    let w = t.len() / (p * envs_i);
    let dims: &[usize] = if w == 1 { &[envs_i] } else { &[envs_i, w] };
    let block = |data: Vec<f32>| Tensor::from_vec(data, dims).expect("block keeps the width");
    if p == 1 {
        return vec![block(t.into_vec())];
    }
    t.data().chunks(envs_i * w).map(|rows| block(rows.to_vec())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::cartpole::CartPole;

    #[test]
    fn dp_b_trains_cartpole_with_central_inference() {
        let dist = DistPpoConfig {
            actors: 2,
            envs_per_actor: 2,
            steps_per_iter: 48,
            iterations: 25,
            hidden: vec![32],
            seed: 3,
            ..DistPpoConfig::default()
        };
        let report = run_dp_b(|a, i| CartPole::new((a * 7 + i) as u64), &dist).unwrap();
        assert_eq!(report.iteration_rewards.len(), 25);
        assert!(
            report.recent_reward(5) > report.early_reward(5),
            "DP-B must improve: {} → {}",
            report.early_reward(5),
            report.recent_reward(5)
        );
    }
}
