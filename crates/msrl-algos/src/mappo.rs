//! Multi-Agent PPO (Yu et al. 2021) with parameter sharing.
//!
//! MAPPO extends PPO to cooperative multi-agent settings: all agents
//! share one parametrised policy (so experience from every agent trains
//! the same network), while each agent acts on its own observation.
//! With the MPE `simple_spread` global-observation variant, each agent's
//! observation already carries the joint information the central critic
//! needs (§7.4 of the paper) — so the critic here *is* central in the
//! CTDE sense while remaining a per-agent module.

use msrl_core::api::{Actor, Learner, SampleBatch};
use msrl_core::Result;
use msrl_env::{Action, MultiAgentEnvironment};
use msrl_tensor::{ops, Tensor};

use crate::buffer::{step_batch, TrajectoryBuffer};
use crate::ppo::{PpoAgent, PpoConfig, PpoPolicy};

/// A MAPPO trainer: `n` agents sharing one policy, trained by one
/// PPO learner over the union of all agents' experience.
pub struct Mappo {
    /// The shared policy: every agent's inference, and its learner.
    pub agent: PpoAgent,
    n_agents: usize,
}

impl Mappo {
    /// Creates a MAPPO trainer for an environment's spec.
    pub fn new(
        env: &dyn MultiAgentEnvironment,
        hidden: &[usize],
        cfg: PpoConfig,
        seed: u64,
    ) -> Self {
        let n_actions = env.action_spec().policy_width();
        let policy = PpoPolicy::discrete(env.obs_dim(), n_actions, hidden, seed);
        Mappo { agent: PpoAgent::new(policy, cfg, seed + 1), n_agents: env.n_agents() }
    }

    /// Number of agents this trainer drives.
    pub fn n_agents(&self) -> usize {
        self.n_agents
    }

    /// Collects one full episode from the multi-agent environment,
    /// stacking all agents' observations into one inference batch per
    /// step (MSRL's fragment fusion applied at the algorithm level).
    ///
    /// Returns the env-major batch and the episode's mean per-agent
    /// return.
    ///
    /// # Errors
    ///
    /// Propagates tensor/actor failures.
    pub fn collect_episode(
        &mut self,
        env: &mut dyn MultiAgentEnvironment,
    ) -> Result<(SampleBatch, f32)> {
        let mut buf = TrajectoryBuffer::new();
        let mut obs = env.reset();
        let mut total_reward = 0.0;
        let mut steps = 0;
        loop {
            let obs_refs: Vec<&Tensor> = obs.iter().collect();
            let stacked = ops::stack(&obs_refs).map_err(msrl_core::FdgError::Tensor)?;
            let out = self.agent.act(&stacked)?;
            let actions: Vec<Action> =
                out.actions.data().iter().map(|&a| Action::Discrete(a as usize)).collect();
            let step = env.step(&actions);
            total_reward += step.rewards.iter().sum::<f32>();
            let next_refs: Vec<&Tensor> = step.obs.iter().collect();
            let next_stacked = ops::stack(&next_refs).map_err(msrl_core::FdgError::Tensor)?;
            let rewards = Tensor::from_vec(step.rewards.clone(), &[self.n_agents])
                .map_err(msrl_core::FdgError::Tensor)?;
            let values = out.values.clone().expect("PPO policy has a critic");
            buf.insert(step_batch(
                stacked,
                out.actions,
                rewards,
                next_stacked.clone(),
                vec![step.done; self.n_agents],
                out.log_probs,
                values,
            ));
            obs = step.obs;
            steps += 1;
            if step.done {
                break;
            }
        }
        let batch = buf.drain_env_major()?;
        Ok((batch, total_reward / (self.n_agents * steps.max(1)) as f32))
    }

    /// One training iteration: collect `episodes` episodes and update the
    /// shared policy on their union.
    /// Returns the mean per-agent step reward across the collected
    /// episodes.
    ///
    /// # Errors
    ///
    /// Propagates failures from collection or learning.
    pub fn train_iteration(
        &mut self,
        env: &mut dyn MultiAgentEnvironment,
        episodes: usize,
    ) -> Result<f32> {
        let mut batches = Vec::with_capacity(episodes);
        let mut reward = 0.0;
        for _ in 0..episodes.max(1) {
            let (b, r) = self.collect_episode(env)?;
            batches.push(b);
            reward += r;
        }
        let batch = SampleBatch::concat(&batches)?;
        self.agent.learner_mut().learn(&batch)?;
        Ok(reward / episodes.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::mpe::SimpleSpread;

    #[test]
    fn collect_episode_shapes() {
        let mut env = SimpleSpread::new(3, 0).with_horizon(6);
        let mut mappo = Mappo::new(&env, &[16], PpoConfig::default(), 1);
        let (batch, _) = mappo.collect_episode(&mut env).unwrap();
        // 3 agents × 6 steps, env-major with 6-step segments.
        assert_eq!(batch.len(), 18);
        assert_eq!(batch.segment_len, 6);
        assert_eq!(batch.obs.shape(), &[18, env.obs_dim()]);
    }

    #[test]
    fn shared_policy_is_truly_shared() {
        let mut env = SimpleSpread::new(2, 0).with_horizon(6);
        let mut mappo = Mappo::new(&env, &[8], PpoConfig::default(), 2);
        // One copy of the weights: after training, the agents act on what
        // the learner trained, not on the weights they collected with.
        let before = mappo.agent.policy_params();
        mappo.train_iteration(&mut env, 1).unwrap();
        assert_ne!(mappo.agent.policy_params(), before);
        let trained = mappo.agent.learner().policy.clone();
        let obs = Tensor::full(&[2, env.obs_dim()], 0.3);
        let (policy, packed, _) = mappo.agent.acting();
        let acted = policy.head_with(&obs, Some(packed)).unwrap();
        assert_eq!(acted.data(), trained.head_with(&obs, None).unwrap().data());
    }

    /// MAPPO improves cooperative coverage on simple_spread: the mean
    /// per-agent step reward (negative coverage distance) rises.
    #[test]
    fn mappo_improves_spread() {
        let mut env = SimpleSpread::new(2, 7).with_horizon(20);
        let cfg = PpoConfig { lr: 7e-4, epochs: 4, entropy_coef: 0.005, ..PpoConfig::default() };
        let mut mappo = Mappo::new(&env, &[32], cfg, 1);
        let mut first = 0.0;
        let mut last = 0.0;
        let rounds = 40;
        for i in 0..rounds {
            let r = mappo.train_iteration(&mut env, 8).unwrap();
            if i < 8 {
                first += r;
            }
            if i >= rounds - 8 {
                last += r;
            }
        }
        assert!(
            last > first,
            "mean step reward should improve: first8 {first:.3} vs last8 {last:.3}"
        );
    }
}
