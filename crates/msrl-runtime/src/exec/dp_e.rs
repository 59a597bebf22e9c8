//! DP-E (dedicated environment workers) — the MARL configuration of
//! Fig. 11.
//!
//! A dedicated worker thread owns the multi-agent environment and does
//! nothing else; one fragment per agent owns that agent's policy replica
//! and training. Each step, the env worker sends every agent its local
//! observation and receives an action back; at the end of an episode it
//! ships each agent its own trajectory. Agents then train locally and
//! AllReduce-average their weights, realising MAPPO's parameter sharing
//! across distributed agent fragments.

use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::ppo::{PpoActor, PpoConfig, PpoLearner, PpoPolicy};
use msrl_comm::Fabric;
use msrl_core::api::{Actor, Learner};
use msrl_core::{FdgError, Result};
use msrl_env::{Action, MultiAgentEnvironment};
use msrl_tensor::Tensor;

use super::{drive, enter_fragment, spawn_fragment, RunObserver, TrainingReport};

/// Configuration for the DP-E MARL driver.
#[derive(Debug, Clone)]
pub struct DpEConfig {
    /// Episodes to train.
    pub episodes: usize,
    /// Hidden widths of per-agent policies.
    pub hidden: Vec<usize>,
    /// PPO hyper-parameters for each agent learner.
    pub ppo: PpoConfig,
    /// Base seed.
    pub seed: u64,
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel (bit-identical to the unfused path).
    pub fusion: bool,
}

/// Runs MAPPO under DP-E on the environment produced by `make_env`.
///
/// Returns per-episode mean per-agent step reward.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_e<M, F>(make_env: F, cfg: &DpEConfig) -> Result<TrainingReport>
where
    M: MultiAgentEnvironment + 'static,
    F: FnOnce() -> M + Send,
{
    drive("dp_e", cfg.fusion, || dp_e(make_env, cfg))
}

fn dp_e<M, F>(make_env: F, cfg: &DpEConfig) -> Result<TrainingReport>
where
    M: MultiAgentEnvironment + 'static,
    F: FnOnce() -> M + Send,
{
    let env = make_env();
    let n = env.n_agents();
    let obs_dim = env.obs_dim();
    let n_actions = env.action_spec().policy_width();
    let horizon = env.horizon();
    // Ranks 0..n are agents; rank n is the environment worker.
    let mut endpoints = Fabric::new(n + 1);
    let env_ep = endpoints.pop().expect("fabric yields n+1 endpoints");
    let policy = PpoPolicy::discrete(obs_dim, n_actions, &cfg.hidden, cfg.seed);

    std::thread::scope(|scope| -> Result<TrainingReport> {
        let mut handles = Vec::new();
        for (rank, mut ep) in endpoints.into_iter().enumerate() {
            let policy = policy.clone();
            let ppo = cfg.ppo.clone();
            // Agent fragment: act per step, learn per episode, share
            // parameters with peers (ranks 0..n are agents; the env
            // worker does not join the weight AllReduce).
            handles.push(spawn_fragment(scope, "fragment.agent", rank, move || -> Result<()> {
                let mut actor = PpoActor::new(policy.clone(), cfg.seed + 1 + rank as u64);
                let mut learner = PpoLearner::new(policy, ppo);
                for _ in 0..cfg.episodes {
                    let mut buf = TrajectoryBuffer::new();
                    let mut prev: Option<(Tensor, Tensor, Tensor, Tensor)> = None;
                    let rollout = msrl_telemetry::span!("phase.rollout");
                    let rollout_attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
                    loop {
                        // [done_flag, obs...] from the env worker.
                        let msg = ep.recv(n)?;
                        let done = msg[0] > 0.5;
                        let reward = msg[1];
                        let obs = Tensor::from_vec(msg[2..].to_vec(), &[1, obs_dim])
                            .map_err(FdgError::Tensor)?;
                        if let Some((pobs, pact, plp, pval)) = prev.take() {
                            buf.insert(step_batch(
                                pobs,
                                pact,
                                Tensor::from_vec(vec![reward], &[1]).map_err(FdgError::Tensor)?,
                                obs.clone(),
                                vec![done],
                                plp,
                                pval,
                            ));
                        }
                        if done {
                            break;
                        }
                        let out = actor.act(&obs)?;
                        ep.send(n, out.actions.data().to_vec())?;
                        prev = Some((
                            obs,
                            out.actions,
                            out.log_probs,
                            out.values.expect("PPO policy has a critic"),
                        ));
                    }
                    drop(rollout_attr);
                    drop(rollout);
                    let batch = buf.drain_env_major()?;
                    if !batch.is_empty() {
                        let _s = msrl_telemetry::span!("phase.learn");
                        let _h = msrl_telemetry::static_histogram!("phase.learn").time();
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                        learner.learn(&batch)?;
                    }
                    // MAPPO parameter sharing across agent fragments.
                    let _sync = msrl_telemetry::span!("phase.weight_sync");
                    let avg = {
                        let mine = learner.policy_params();
                        let parts = ep.all_gather(mine)?;
                        let agents = &parts[..n];
                        let len = agents[0].len();
                        let mut acc = vec![0.0f32; len];
                        for part in agents {
                            for (a, v) in acc.iter_mut().zip(part) {
                                *a += v;
                            }
                        }
                        for a in &mut acc {
                            *a /= n as f32;
                        }
                        acc
                    };
                    learner.set_policy_params(&avg)?;
                    actor.set_policy_params(&avg)?;
                }
                Ok(())
            }));
        }

        // Environment-worker fragment.
        let frag = enter_fragment("fragment.env_worker", n);
        let mut env = env;
        let mut env_ep = env_ep;
        let mut report = TrainingReport::default();
        // The env worker sees every agent's reward, so it streams the
        // run's metrics; per-agent losses stay local to agent fragments.
        let mut obs_stream = RunObserver::new("dp_e", 0);
        for _ in 0..cfg.episodes {
            let mut obs = env.reset();
            let mut total = 0.0;
            let mut rewards = vec![0.0f32; n];
            let mut steps = 0usize;
            loop {
                let done_now = steps >= horizon;
                for (agent, o) in obs.iter().enumerate() {
                    let mut msg = vec![if done_now { 1.0 } else { 0.0 }, rewards[agent]];
                    msg.extend_from_slice(o.data());
                    env_ep.send(agent, msg)?;
                }
                if done_now {
                    break;
                }
                let mut actions = Vec::with_capacity(n);
                for agent in 0..n {
                    let a = env_ep.recv(agent)?;
                    actions.push(Action::Discrete(a[0] as usize));
                }
                let step = env.step(&actions);
                total += step.rewards.iter().sum::<f32>();
                rewards = step.rewards;
                obs = step.obs;
                steps += 1;
                if step.done && steps < horizon {
                    // Environments with early termination end the episode
                    // for everyone.
                    for (agent, o) in obs.iter().enumerate() {
                        let mut msg = vec![1.0, rewards[agent]];
                        msg.extend_from_slice(o.data());
                        env_ep.send(agent, msg)?;
                    }
                    break;
                }
            }
            // The env worker participates in the agents' AllGather as a
            // passive rank so group semantics hold.
            env_ep.all_gather(Vec::new())?;
            let mean = total / (n * steps.max(1)) as f32;
            report.iteration_rewards.push(mean);
            // DP-E's driver thread owns no policy replica (the agent
            // fragments train their own); no parameter scan here.
            obs_stream.observe(mean, None, None, None);
        }
        drop(frag);
        for h in handles {
            h.join().expect("agent thread must not panic")?;
        }
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::mpe::SimpleSpread;

    #[test]
    fn dp_e_runs_mappo_with_env_worker() {
        let cfg = DpEConfig {
            episodes: 20,
            hidden: vec![32],
            ppo: PpoConfig { lr: 7e-4, epochs: 4, entropy_coef: 0.005, ..PpoConfig::default() },
            seed: 9,
            fusion: msrl_tensor::par::fusion_enabled(),
        };
        let report = run_dp_e(|| SimpleSpread::new(3, 5).with_horizon(20), &cfg).unwrap();
        assert_eq!(report.iteration_rewards.len(), 20);
        assert!(report.iteration_rewards.iter().all(|r| r.is_finite()));
    }
}
