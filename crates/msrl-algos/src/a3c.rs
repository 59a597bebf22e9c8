//! Asynchronous Advantage Actor-Critic (Mnih et al. 2016).
//!
//! In the paper's A3C experiments (Fig. 7b, 9b), each actor owns exactly
//! one environment, computes policy gradients *locally* after an n-step
//! rollout, and ships the gradients asynchronously to a single learner,
//! which applies them and returns fresh weights. Per-actor work is
//! therefore independent of the actor count — the flat curves of
//! Figs. 7b/9b.

use msrl_core::api::{Learner, SampleBatch, Signals};
use msrl_core::{FdgError, Result};
use msrl_tensor::autograd::Tape;
use msrl_tensor::dist::categorical_stats;
use msrl_tensor::optim::{clip_grad_norm, Adam};
use msrl_tensor::Tensor;

use crate::gae::discounted_returns;
use crate::ppo::{PpoActor, PpoPolicy};

/// A3C hyper-parameters.
#[derive(Debug, Clone)]
pub struct A3cConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Learning rate of the central Adam optimiser.
    pub lr: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Gradient clip.
    pub max_grad_norm: f32,
}

impl Default for A3cConfig {
    fn default() -> Self {
        A3cConfig { gamma: 0.99, lr: 1e-3, entropy_coef: 0.01, value_coef: 0.5, max_grad_norm: 1.0 }
    }
}

/// An A3C worker: a policy replica that acts *and* computes local
/// gradients over its own rollouts (discrete actions), one copy of the
/// weights for both.
pub struct A3cWorker {
    /// The local policy replica and how it acts.
    pub actor: PpoActor,
    cfg: A3cConfig,
}

impl A3cWorker {
    /// Creates a worker over a policy replica.
    pub fn new(policy: PpoPolicy, cfg: A3cConfig, seed: u64) -> Self {
        A3cWorker { actor: PpoActor::new(policy, seed), cfg }
    }

    /// Computes the flattened actor-critic gradient for an n-step rollout
    /// batch (single environment; time-ordered rows).
    ///
    /// # Errors
    ///
    /// Propagates tensor failures.
    pub fn local_grads(&self, batch: &SampleBatch) -> Result<Vec<f32>> {
        let policy = &self.actor.policy;
        let n = batch.len();
        if n == 0 {
            return Err(FdgError::MissingKernel { op: "A3C grads on empty rollout".into() });
        }
        // n-step returns bootstrapped from the critic at the final state.
        let last_value = if batch.dones[n - 1] {
            0.0
        } else {
            let w = batch.next_obs.shape()[1];
            let row = Tensor::from_vec(batch.next_obs.data()[(n - 1) * w..n * w].to_vec(), &[1, w])
                .map_err(FdgError::Tensor)?;
            policy.values(&row)?.item().map_err(FdgError::Tensor)?
        };
        let returns =
            discounted_returns(batch.rewards.data(), &batch.dones, self.cfg.gamma, last_value);
        let adv: Vec<f32> = returns.iter().zip(batch.values.data()).map(|(r, v)| r - v).collect();

        let tape = Tape::new();
        let actor = policy.actor.bind(&tape);
        let critic = policy.critic.bind(&tape);
        let obs = tape.constant(batch.obs.clone());
        let logits = actor.forward(&obs)?;
        let idx: Vec<usize> = batch.actions.data().iter().map(|&a| a as usize).collect();
        let (log_prob, entropy) = categorical_stats(&logits, &idx)?;
        let adv_t = tape.constant(Tensor::from_vec(adv, &[n]).map_err(FdgError::Tensor)?);
        let pg = log_prob.mul(&adv_t)?.mean().neg();
        let ret_t = tape.constant(Tensor::from_vec(returns, &[n]).map_err(FdgError::Tensor)?);
        let v = critic.forward(&obs)?.reshape(&[n])?;
        let value_loss = v.sub(&ret_t)?.square().mean();
        let loss = pg
            .add(&value_loss.mul_scalar(self.cfg.value_coef))?
            .add(&entropy.mean().mul_scalar(-self.cfg.entropy_coef))?;
        let mut grads = tape.backward(&loss)?;
        let mut gs = actor.take_grads(&mut grads);
        gs.extend(critic.take_grads(&mut grads));
        clip_grad_norm(&mut gs, self.cfg.max_grad_norm);
        Ok(gs.iter().flat_map(|g| g.data().iter().copied()).collect())
    }
}

/// The central A3C learner: applies worker gradients with a shared Adam
/// optimiser (the Hogwild-style asynchronous update, serialised here by
/// the runtime's message ordering).
pub struct A3cLearner {
    /// The authoritative policy.
    pub policy: PpoPolicy,
    cfg: A3cConfig,
    opt: Adam,
    updates: usize,
    /// The parameters before the current update, for the health sentinel
    /// (allocated with the learner, as `PpoLearner`'s).
    before: Vec<f32>,
    /// What the last gradient application computed.
    signals: Signals,
}

impl A3cLearner {
    /// Creates the learner.
    pub fn new(policy: PpoPolicy, cfg: &A3cConfig) -> Self {
        let before = Vec::with_capacity(policy.num_params());
        let (opt, signals) = (Adam::new(cfg.lr), Signals::default());
        A3cLearner { policy, cfg: cfg.clone(), opt, updates: 0, before, signals }
    }

    /// Number of gradient applications so far.
    pub fn updates(&self) -> usize {
        self.updates
    }
}

impl Learner for A3cLearner {
    fn learn(&mut self, batch: &SampleBatch) -> Result<f32> {
        // A3C learners consume gradients, not batches; route through a
        // local worker for single-process configurations.
        let worker = A3cWorker::new(self.policy.clone(), self.cfg.clone(), 0);
        let g = worker.local_grads(batch)?;
        self.apply_grads(&g)?;
        Ok(0.0)
    }

    fn policy_params(&self) -> Vec<f32> {
        self.policy.flatten()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        self.policy.unflatten(flat)
    }

    fn apply_grads(&mut self, flat: &[f32]) -> Result<()> {
        let sentinel = msrl_telemetry::health_enabled();
        if sentinel {
            crate::sentinel::snapshot(&mut self.before, self.policy.params());
        }
        let mut params = self.policy.actor.params_mut();
        params.extend(self.policy.critic.params_mut());
        self.opt.step_flat(&mut params, flat).map_err(FdgError::Tensor)?;
        self.updates += 1;
        if sentinel {
            self.signals = Signals {
                grad_norm: Some(crate::sentinel::l2_norm(flat) as f32),
                update: Some(crate::sentinel::update(&self.before, self.policy.params())),
                ..Signals::default()
            };
        }
        Ok(())
    }

    fn signals(&self) -> Signals {
        self.signals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::collect;
    use msrl_core::api::Actor;
    use msrl_env::cartpole::CartPole;
    use msrl_env::VecEnv;

    #[test]
    fn local_grads_have_full_length() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 0);
        let worker = A3cWorker::new(policy.clone(), A3cConfig::default(), 1);
        let mut actor = PpoActor::new(policy.clone(), 2);
        let mut envs = VecEnv::from_fn(1, |_| CartPole::new(0));
        let batch = collect(&mut actor, &mut envs, 20).unwrap();
        let g = worker.local_grads(&batch).unwrap();
        assert_eq!(g.len(), policy.actor.num_params() + policy.critic.num_params());
        assert!(g.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn learner_applies_gradients() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 3);
        let cfg = A3cConfig::default();
        let worker = A3cWorker::new(policy.clone(), cfg.clone(), 4);
        let mut learner = A3cLearner::new(policy.clone(), &cfg);
        let mut actor = PpoActor::new(policy, 5);
        let mut envs = VecEnv::from_fn(1, |_| CartPole::new(1));
        let batch = collect(&mut actor, &mut envs, 10).unwrap();
        let g = worker.local_grads(&batch).unwrap();
        let before = learner.policy_params();
        learner.apply_grads(&g).unwrap();
        assert_ne!(learner.policy_params(), before);
        assert_eq!(learner.updates(), 1);
        assert!(learner.apply_grads(&[1.0]).is_err());
    }

    /// `learn` computes its gradient under the learner's own config: it
    /// leaves the weights a worker of that config would, bit for bit.
    #[test]
    fn learn_uses_the_learners_config() {
        let cfg = A3cConfig {
            gamma: 0.9,
            lr: 3e-3,
            entropy_coef: 0.05,
            value_coef: 0.25,
            max_grad_norm: 0.1,
        };
        let policy = PpoPolicy::discrete(4, 2, &[8], 6);
        let mut actor = PpoActor::new(policy.clone(), 7);
        let mut envs = VecEnv::from_fn(1, |_| CartPole::new(2));
        let batch = collect(&mut actor, &mut envs, 16).unwrap();
        let mut learner = A3cLearner::new(policy.clone(), &cfg);
        learner.learn(&batch).unwrap();
        let mut twin = A3cLearner::new(policy.clone(), &cfg);
        let grads = A3cWorker::new(policy, cfg, 8).local_grads(&batch).unwrap();
        twin.apply_grads(&grads).unwrap();
        let bits =
            |l: &A3cLearner| l.policy_params().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&learner), bits(&twin));
    }

    /// A3C improves CartPole with a few async-style workers applying
    /// gradients to a central learner.
    #[test]
    fn a3c_improves_cartpole() {
        let cfg = A3cConfig { lr: 2e-3, ..A3cConfig::default() };
        let policy = PpoPolicy::discrete(4, 2, &[32], 11);
        let mut learner = A3cLearner::new(policy.clone(), &cfg);
        let mut workers: Vec<(A3cWorker, VecEnv)> = (0..3)
            .map(|i| {
                (
                    A3cWorker::new(policy.clone(), cfg.clone(), 20 + i),
                    VecEnv::from_fn(1, move |_| CartPole::new(40 + i)),
                )
            })
            .collect();
        let mut eval = CartPole::new(777);
        let before = crate::ppo::evaluate(&learner.policy, &mut eval, 500).unwrap();
        for _round in 0..60 {
            for (worker, envs) in &mut workers {
                let batch = collect(&mut worker.actor, envs, 32).unwrap();
                let g = worker.local_grads(&batch).unwrap();
                learner.apply_grads(&g).unwrap();
                worker.actor.set_policy_params(&learner.policy_params()).unwrap();
            }
        }
        let mut total = 0.0;
        for seed in 0..5 {
            let mut env = CartPole::new(3000 + seed);
            total += crate::ppo::evaluate(&learner.policy, &mut env, 500).unwrap();
        }
        let after = total / 5.0;
        assert!(after > before + 30.0, "A3C must improve: {before} → {after}");
    }
}
