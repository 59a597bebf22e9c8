//! Vectorised execution of many environment instances.
//!
//! The paper's actors each interact with a *set* of environments ("each
//! actor interacts with 32 environments", §3). [`VecEnv`] is that set: it
//! steps every instance with a batch of actions, auto-resets finished
//! episodes, and returns batched tensors ready for fused policy inference.
//!
//! The instances step one after another on the calling thread, in
//! instance order: a set is one fragment's work, and parallelism comes
//! from running more fragments, not from splitting a set.

use msrl_tensor::{alloc, Tensor};

use crate::spec::{Action, ActionSpec};
use crate::Environment;

/// A batch of environments stepped in lockstep.
pub struct VecEnv {
    envs: Vec<Box<dyn Environment>>,
    obs_dim: usize,
    spec: ActionSpec,
    /// Episode return accumulated per instance (diagnostics).
    returns: Vec<f32>,
    /// Returns of episodes completed since the last query.
    finished_returns: Vec<f32>,
}

/// Result of stepping a [`VecEnv`].
#[derive(Debug, Clone)]
pub struct VecStep {
    /// Batched next observations, `[n, obs_dim]` (auto-reset on done).
    pub obs: Tensor,
    /// Rewards, `[n]`.
    pub rewards: Tensor,
    /// Per-instance terminal flags for this step.
    pub dones: Vec<bool>,
}

impl VecEnv {
    /// Wraps a non-empty set of homogeneous environments.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or instances disagree on observation or
    /// action specs — a construction-time configuration error.
    pub fn new(envs: Vec<Box<dyn Environment>>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one environment");
        let obs_dim = envs[0].obs_dim();
        let spec = envs[0].action_spec();
        for e in &envs {
            assert_eq!(e.obs_dim(), obs_dim, "heterogeneous obs dims");
            assert_eq!(e.action_spec(), spec, "heterogeneous action specs");
        }
        let n = envs.len();
        VecEnv { envs, obs_dim, spec, returns: vec![0.0; n], finished_returns: Vec::new() }
    }

    /// Builds `n` instances from a constructor taking the instance index
    /// (typically used to derive per-instance seeds).
    pub fn from_fn<E, F>(n: usize, f: F) -> Self
    where
        E: Environment + 'static,
        F: Fn(usize) -> E,
    {
        VecEnv::new((0..n).map(|i| Box::new(f(i)) as Box<dyn Environment>).collect())
    }

    /// Number of environment instances.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Whether the batch is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Per-instance observation width.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// The shared action spec.
    pub fn action_spec(&self) -> ActionSpec {
        self.spec
    }

    /// Total virtual CPU cost of one batched step (sum over instances).
    pub fn step_cost(&self) -> f64 {
        self.envs.iter().map(|e| e.step_cost()).sum()
    }

    /// Resets every instance; returns `[n, obs_dim]`, each instance's
    /// observation written straight into its row of one pool-drawn
    /// buffer.
    pub fn reset(&mut self) -> Tensor {
        let _span = msrl_telemetry::span!("env.vec_reset");
        self.returns.fill(0.0);
        let (n, d) = (self.envs.len(), self.obs_dim);
        let mut obs = alloc::take_for_overwrite(n * d);
        for (env, row) in self.envs.iter_mut().zip(obs.chunks_exact_mut(d)) {
            env.reset_into(row);
        }
        Tensor::from_vec(obs, &[n, d]).expect("volume matches")
    }

    /// Steps every instance with its action; finished instances are
    /// reset, and their observation in the result is the fresh reset.
    /// Every instance writes its observation into its row of one
    /// pool-drawn `[n, obs_dim]` buffer: a caller done with
    /// [`VecStep::obs`] can [`Tensor::recycle`] it for the next step.
    /// Returns of the episodes that ended are kept in instance order for
    /// [`Self::take_finished_returns`].
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() != self.len()` — a caller bug, since the
    /// batch size is fixed at construction.
    pub fn step(&mut self, actions: &[Action]) -> VecStep {
        let _span = msrl_telemetry::span!("env.vec_step");
        let (n, d) = (self.envs.len(), self.obs_dim);
        assert_eq!(actions.len(), n, "one action per instance");
        msrl_telemetry::static_counter!("env.steps").add(n as u64);
        let mut obs = alloc::take_for_overwrite(n * d);
        let mut rewards = vec![0.0; n];
        let mut dones = vec![false; n];
        for (i, (env, row)) in self.envs.iter_mut().zip(obs.chunks_exact_mut(d)).enumerate() {
            let (reward, done) = env.step_into(&actions[i], row);
            self.returns[i] += reward;
            rewards[i] = reward;
            dones[i] = done;
            if done {
                self.finished_returns.push(self.returns[i]);
                self.returns[i] = 0.0;
                env.reset_into(row);
            }
        }
        VecStep {
            obs: Tensor::from_vec(obs, &[n, d]).expect("volume matches"),
            rewards: Tensor::from_vec(rewards, &[n]).expect("length matches"),
            dones,
        }
    }

    /// Drains the returns of episodes that finished since the last call.
    pub fn take_finished_returns(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.finished_returns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cartpole::CartPole;

    #[test]
    fn reset_shapes() {
        let mut v = VecEnv::from_fn(3, |i| CartPole::new(i as u64));
        let obs = v.reset();
        assert_eq!(obs.shape(), &[3, 4]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.obs_dim(), 4);
    }

    #[test]
    fn step_returns_batched_results() {
        let mut v = VecEnv::from_fn(2, |i| CartPole::new(i as u64));
        v.reset();
        let s = v.step(&[Action::Discrete(0), Action::Discrete(1)]);
        assert_eq!(s.obs.shape(), &[2, 4]);
        assert_eq!(s.rewards.shape(), &[2]);
        assert_eq!(s.dones.len(), 2);
    }

    #[test]
    fn auto_reset_and_finished_returns() {
        let mut v = VecEnv::from_fn(1, |_| CartPole::new(0).with_horizon(3));
        v.reset();
        // Survive via alternation until the 3-step horizon truncates.
        for i in 0..3 {
            v.step(&[Action::Discrete(i % 2)]);
        }
        let finished = v.take_finished_returns();
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0], 3.0, "3 survival rewards");
        assert!(v.take_finished_returns().is_empty(), "drained");
    }

    #[test]
    #[should_panic(expected = "one action per instance")]
    fn wrong_action_count_panics() {
        let mut v = VecEnv::from_fn(2, |i| CartPole::new(i as u64));
        v.reset();
        v.step(&[Action::Discrete(0)]);
    }
}
