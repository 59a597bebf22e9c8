//! Deep Q-Networks (Mnih et al. 2015) — the *value-based* class of the
//! paper's §2.1 taxonomy.
//!
//! DQN rounds out the algorithm suite: where PPO/MAPPO/A3C are on-policy
//! and exchange trajectories, DQN is off-policy and exercises the replay
//! buffer's uniform-sampling path (`MSRL.replay_buffer_sample` with a
//! bounded ring buffer). It implements the same component API, so every
//! distribution driver that moves `SampleBatch`es can host it.

use msrl_core::api::{ActOutput, Actor, Learner, SampleBatch};
use msrl_core::{FdgError, Result};
use msrl_tensor::autograd::Tape;
use msrl_tensor::nn::{Activation, Mlp};
use msrl_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use msrl_tensor::{init, ops, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DQN hyper-parameters.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Initial exploration rate.
    pub epsilon_start: f32,
    /// Final exploration rate.
    pub epsilon_end: f32,
    /// Steps over which ε decays linearly.
    pub epsilon_decay_steps: usize,
    /// Learner updates between target-network refreshes.
    pub target_update_every: usize,
    /// Gradient clip.
    pub max_grad_norm: f32,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            gamma: 0.99,
            lr: 1e-3,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 2_000,
            target_update_every: 100,
            max_grad_norm: 5.0,
        }
    }
}

/// A DQN agent: an online Q-network, a frozen target network, and an
/// ε-greedy behaviour policy. Implements both halves of the component
/// API (it is its own actor and learner, the common DQN structure).
pub struct Dqn {
    /// The online Q-network (`obs → Q(s, ·)`).
    pub q: Mlp,
    target: Mlp,
    cfg: DqnConfig,
    opt: Adam,
    rng: StdRng,
    act_steps: usize,
    updates: usize,
    /// The parameters before the current update, for the health sentinel
    /// (allocated with the learner, as `PpoLearner`'s).
    before: Vec<f32>,
}

impl Dqn {
    /// Creates a DQN over the given observation/action widths.
    pub fn new(
        obs_dim: usize,
        n_actions: usize,
        hidden: &[usize],
        cfg: DqnConfig,
        seed: u64,
    ) -> Self {
        let mut rng = init::rng(seed);
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(n_actions);
        let q = Mlp::new(&sizes, Activation::Relu, Activation::Linear, &mut rng);
        let target = q.clone();
        let opt = Adam::new(cfg.lr);
        let (rng, before) = (StdRng::seed_from_u64(seed + 1), Vec::with_capacity(q.num_params()));
        Dqn { q, target, cfg, opt, rng, act_steps: 0, updates: 0, before }
    }

    /// The current exploration rate (linear decay).
    pub fn epsilon(&self) -> f32 {
        let t = (self.act_steps as f32 / self.cfg.epsilon_decay_steps as f32).min(1.0);
        self.cfg.epsilon_start + t * (self.cfg.epsilon_end - self.cfg.epsilon_start)
    }

    /// Learner updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Greedy Q-argmax actions (no exploration) — for evaluation.
    ///
    /// # Errors
    ///
    /// Propagates tensor failures.
    pub fn greedy(&self, obs: &Tensor) -> Result<Vec<usize>> {
        let qv = self.q.infer(obs)?;
        let am = ops::argmax_rows(&qv).map_err(FdgError::Tensor)?;
        Ok(am.data().iter().map(|&a| a as usize).collect())
    }
}

impl Actor for Dqn {
    fn act(&mut self, obs: &Tensor) -> Result<ActOutput> {
        let n = obs.shape()[0];
        let n_actions = self.q.output_dim();
        let greedy = self.greedy(obs)?;
        let eps = self.epsilon();
        self.act_steps += n;
        let actions: Vec<f32> = greedy
            .iter()
            .map(|&g| {
                if self.rng.gen_range(0.0..1.0f32) < eps {
                    self.rng.gen_range(0..n_actions) as f32
                } else {
                    g as f32
                }
            })
            .collect();
        Ok(ActOutput {
            actions: Tensor::from_vec(actions, &[n]).map_err(FdgError::Tensor)?,
            // DQN has no behaviour log-prob; zeros keep the batch shape.
            log_probs: Tensor::zeros(&[n]),
            values: None,
        })
    }

    fn policy_params(&self) -> Vec<f32> {
        self.q.flatten_params()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        Ok(self.q.unflatten_params(flat)?)
    }
}

impl Learner for Dqn {
    /// One TD(0) update on a replay sample:
    /// `Q(s,a) ← r + γ·(1−done)·max_a' Q_target(s', a')`.
    fn learn(&mut self, batch: &SampleBatch) -> Result<f32> {
        if batch.is_empty() {
            return Err(FdgError::MissingKernel { op: "DQN learn on empty batch".into() });
        }
        let n = batch.len();
        // Bootstrapped targets from the frozen network (no gradient).
        let next_q = self.target.infer(&batch.next_obs)?;
        let next_max = ops::max_axis(&next_q, 1).map_err(FdgError::Tensor)?;
        let targets: Vec<f32> = (0..n)
            .map(|i| {
                let done = if batch.dones[i] { 0.0 } else { 1.0 };
                batch.rewards.data()[i] + self.cfg.gamma * done * next_max.data()[i]
            })
            .collect();

        let tape = Tape::new();
        let qnet = self.q.bind(&tape);
        let obs = tape.constant(batch.obs.clone());
        let qv = qnet.forward(&obs)?;
        let idx: Vec<usize> = batch.actions.data().iter().map(|&a| a as usize).collect();
        let taken = qv.select_per_row(&idx)?;
        let target_t = tape.constant(Tensor::from_vec(targets, &[n]).map_err(FdgError::Tensor)?);
        let loss = taken.sub(&target_t)?.square().mean();
        let mut grads = tape.backward(&loss)?;
        let mut gs = qnet.take_grads(&mut grads);
        let grad_norm = clip_grad_norm(&mut gs, self.cfg.max_grad_norm);
        let sentinel = msrl_telemetry::health_enabled();
        if sentinel {
            crate::sentinel::snapshot(&mut self.before, self.q.params());
        }
        {
            let mut params = self.q.params_mut();
            self.opt.step(&mut params, &gs).map_err(FdgError::Tensor)?;
        }
        if sentinel {
            crate::sentinel::publish_update(grad_norm, &self.before, self.q.params());
        }
        self.updates += 1;
        if self.updates.is_multiple_of(self.cfg.target_update_every) {
            self.target.load_from(&self.q)?;
        }
        loss.value().item().map_err(FdgError::Tensor)
    }

    fn policy_params(&self) -> Vec<f32> {
        self.q.flatten_params()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        Ok(self.q.unflatten_params(flat)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{step_batch, ReplayBuffer};
    use msrl_env::gridworld::GridWorld;
    use msrl_env::{Action, Environment};

    #[test]
    fn epsilon_decays_linearly() {
        let mut dqn = Dqn::new(4, 2, &[8], DqnConfig::default(), 0);
        assert!((dqn.epsilon() - 1.0).abs() < 1e-6);
        let obs = Tensor::zeros(&[1000, 4]);
        dqn.act(&obs).unwrap();
        let mid = dqn.epsilon();
        assert!(mid < 1.0 && mid > 0.05, "mid-decay ε = {mid}");
        dqn.act(&obs).unwrap();
        dqn.act(&obs).unwrap();
        assert!((dqn.epsilon() - 0.05).abs() < 1e-6, "fully decayed");
    }

    #[test]
    fn target_network_refreshes_on_schedule() {
        let cfg = DqnConfig { target_update_every: 2, ..DqnConfig::default() };
        let mut dqn = Dqn::new(2, 2, &[4], cfg, 1);
        let batch = step_batch(
            Tensor::zeros(&[4, 2]),
            Tensor::zeros(&[4]),
            Tensor::ones(&[4]),
            Tensor::zeros(&[4, 2]),
            vec![false; 4],
            Tensor::zeros(&[4]),
            Tensor::zeros(&[4]),
        );
        let before_target = dqn.target.flatten_params();
        dqn.learn(&batch).unwrap();
        assert_eq!(dqn.target.flatten_params(), before_target, "not yet refreshed");
        dqn.learn(&batch).unwrap();
        assert_eq!(
            dqn.target.flatten_params(),
            dqn.q.flatten_params(),
            "refreshed after 2 updates"
        );
    }

    #[test]
    fn learn_reduces_td_error_on_fixed_batch() {
        let mut dqn = Dqn::new(2, 2, &[16], DqnConfig::default(), 2);
        let batch = step_batch(
            Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]).unwrap(),
            Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap(),
            Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap(),
            Tensor::zeros(&[2, 2]),
            vec![true, true],
            Tensor::zeros(&[2]),
            Tensor::zeros(&[2]),
        );
        let first = dqn.learn(&batch).unwrap();
        for _ in 0..50 {
            dqn.learn(&batch).unwrap();
        }
        let last = dqn.learn(&batch).unwrap();
        assert!(last < first * 0.5, "TD loss must shrink: {first} → {last}");
    }

    /// DQN with a replay buffer solves the 3×3 GridWorld (optimal return
    /// is 7: four moves, −1 × 3 + 10).
    #[test]
    fn dqn_solves_gridworld() {
        let mut env = GridWorld::new(3);
        let cfg = DqnConfig {
            epsilon_decay_steps: 1_500,
            target_update_every: 50,
            ..DqnConfig::default()
        };
        let mut dqn = Dqn::new(env.obs_dim(), 4, &[32], cfg, 3);
        let mut replay = ReplayBuffer::new(2_000);
        let mut rng = init::rng(9);
        let mut obs = env.reset();
        for step in 0..3_000 {
            let row = obs.reshape(&[1, env.obs_dim()]).unwrap();
            let out = dqn.act(&row).unwrap();
            let a = out.actions.data()[0] as usize;
            let s = env.step(&Action::Discrete(a));
            replay.insert(&step_batch(
                row,
                out.actions,
                Tensor::from_vec(vec![s.reward], &[1]).unwrap(),
                s.obs.reshape(&[1, env.obs_dim()]).unwrap(),
                vec![s.done],
                Tensor::zeros(&[1]),
                Tensor::zeros(&[1]),
            ));
            obs = if s.done { env.reset() } else { s.obs };
            if step > 64 {
                let batch = replay.sample(32, &mut rng).unwrap();
                dqn.learn(&batch).unwrap();
            }
        }
        // Greedy rollout must reach the goal near-optimally.
        let mut env = GridWorld::new(3);
        let mut obs = env.reset();
        let mut total = 0.0;
        for _ in 0..12 {
            let row = obs.reshape(&[1, env.obs_dim()]).unwrap();
            let a = dqn.greedy(&row).unwrap()[0];
            let s = env.step(&Action::Discrete(a));
            total += s.reward;
            obs = s.obs;
            if s.done {
                break;
            }
        }
        assert!(total >= 5.0, "greedy policy should be near-optimal, got {total}");
    }
}
