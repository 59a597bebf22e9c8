//! Vectorised execution of many environment instances.
//!
//! The paper's actors each interact with a *set* of environments ("each
//! actor interacts with 32 environments", §3). [`VecEnv`] is that set: it
//! steps every instance with a batch of actions, auto-resets finished
//! episodes, and returns batched tensors ready for fused policy inference.
//!
//! Under [`msrl_tensor::Backend::Threaded`], large-enough sets step and
//! reset their instances in contiguous blocks through
//! [`par::map_each`], on whatever cores are free. Each instance owns its
//! RNG and state, so the
//! partitioned schedule produces results identical to the serial one —
//! per-instance trajectories, auto-reset behaviour, and the order of
//! [`VecEnv::take_finished_returns`] are all preserved.

use msrl_tensor::{alloc, par, Tensor};

use crate::spec::{Action, ActionSpec};
use crate::Environment;

/// Instance count below which a threaded step is not worth the hand-off
/// to another core (environment steps are far heavier than one element-wise
/// flop, so this is much lower than [`par::PAR_MIN_ELEMS`]). Tests
/// override via [`par::with_par_min`].
const PAR_MIN_ENVS: usize = 8;

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
    ///
    /// Large sets reset block by block on free cores under the threaded
    /// backend; each instance's RNG is its own, so results match the
    /// serial order.
    pub fn reset(&mut self) -> Tensor {
        let _span = msrl_telemetry::span!("env.vec_reset");
        self.returns.fill(0.0);
        let (n, d) = (self.envs.len(), self.obs_dim);
        let mut obs = alloc::take_for_overwrite(n * d);
        if par::should_parallelize(n, PAR_MIN_ENVS) {
            let len = chunk_len(n);
            let blocks = self.envs.chunks_mut(len).zip(obs.chunks_mut(len * d)).collect();
            par::map_each(blocks, |(envs, rows)| reset_rows(envs, rows));
        } else {
            reset_rows(&mut self.envs, &mut obs);
        }
        Tensor::from_vec(obs, &[n, d]).expect("volume matches")
    }

    /// Steps every instance with its action; finished instances are
    /// reset, and their observation in the result is the fresh reset.
    /// Every instance writes its observation into its row of one
    /// pool-drawn `[n, obs_dim]` buffer: a caller done with
    /// [`VecStep::obs`] can [`Tensor::recycle`] it for the next step.
    ///
    /// Large sets step block by block on free cores under the threaded
    /// backend: the instances split into contiguous blocks, one per
    /// intra-op chunk, each writing its own rows of the outputs, and the
    /// blocks' finished-episode returns merge back in instance order —
    /// trajectories, rewards, and finished-episode bookkeeping are
    /// identical to the serial schedule.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() != self.len()` — a caller bug, since the
    /// batch size is fixed at construction.
    pub fn step(&mut self, actions: &[Action]) -> VecStep {
        let _span = msrl_telemetry::span!("env.vec_step");
        let _hist = msrl_telemetry::static_histogram!("env.vec_step").time();
        let (n, d) = (self.envs.len(), self.obs_dim);
        assert_eq!(actions.len(), n, "one action per instance");
        msrl_telemetry::static_counter!("env.steps").add(n as u64);
        let mut obs = alloc::take_for_overwrite(n * d);
        let mut rewards = vec![0.0; n];
        let mut dones = vec![false; n];
        if par::should_parallelize(n, PAR_MIN_ENVS) {
            let len = chunk_len(n);
            let blocks = (self.envs.chunks_mut(len).zip(self.returns.chunks_mut(len)))
                .zip(actions.chunks(len).zip(obs.chunks_mut(len * d)))
                .zip(rewards.chunks_mut(len).zip(dones.chunks_mut(len)))
                .map(|(((envs, returns), (actions, obs)), (rewards, dones))| Block {
                    envs,
                    returns,
                    actions,
                    obs,
                    rewards,
                    dones,
                })
                .collect();
            let finished = par::map_each(blocks, |block| {
                let mut finished = Vec::new();
                block.step(&mut finished);
                finished
            });
            self.finished_returns.extend(finished.into_iter().flatten());
        } else {
            let block = Block {
                envs: &mut self.envs,
                returns: &mut self.returns,
                actions,
                obs: &mut obs,
                rewards: &mut rewards,
                dones: &mut dones,
            };
            block.step(&mut self.finished_returns);
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

/// Resets a contiguous block of instances into their rows of `obs`.
fn reset_rows(envs: &mut [Box<dyn Environment>], obs: &mut [f32]) {
    let d = obs.len() / envs.len();
    for (env, row) in envs.iter_mut().zip(obs.chunks_exact_mut(d)) {
        env.reset_into(row);
    }
}

/// A contiguous block of instances and its rows of a step's outputs —
/// the unit of work shared by the serial and threaded schedules, so
/// both produce identical results.
struct Block<'a> {
    envs: &'a mut [Box<dyn Environment>],
    returns: &'a mut [f32],
    actions: &'a [Action],
    obs: &'a mut [f32],
    rewards: &'a mut [f32],
    dones: &'a mut [bool],
}

impl Block<'_> {
    /// Steps every instance of the block, resetting the ones whose
    /// episode ended, and appends their episode returns to `finished`
    /// in instance order.
    fn step(self, finished: &mut Vec<f32>) {
        let d = self.obs.len() / self.envs.len();
        for (i, (env, row)) in self.envs.iter_mut().zip(self.obs.chunks_exact_mut(d)).enumerate() {
            let (reward, done) = env.step_into(&self.actions[i], row);
            self.returns[i] += reward;
            self.rewards[i] = reward;
            self.dones[i] = done;
            if done {
                finished.push(self.returns[i]);
                self.returns[i] = 0.0;
                env.reset_into(row);
            }
        }
    }
}

/// Length of the contiguous blocks `n` instances split into, one block
/// per intra-op chunk (the last one shorter).
pub(crate) fn chunk_len(n: usize) -> usize {
    n.div_ceil(par::thread_count().min(n.max(1))).max(1)
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

    /// The threaded schedule partitions instances across workers but must
    /// reproduce the serial schedule exactly: same trajectories, same
    /// auto-resets, same finished-return order.
    #[test]
    fn threaded_step_matches_serial() {
        use msrl_tensor::{par, Backend};
        let run = || {
            let mut v = VecEnv::from_fn(12, |i| CartPole::new(i as u64).with_horizon(5));
            let mut last = v.reset();
            let mut rewards = Vec::new();
            for s in 0..12 {
                let acts: Vec<Action> = (0..12).map(|i| Action::Discrete((s + i) % 2)).collect();
                let st = v.step(&acts);
                last = st.obs;
                rewards.push(st.rewards);
            }
            (last, rewards, v.take_finished_returns())
        };
        let (serial, threaded) = par::with_threads(4, || {
            par::with_par_min(1, || {
                (par::with_backend(Backend::Scalar, run), par::with_backend(Backend::Threaded, run))
            })
        });
        assert_eq!(serial.0, threaded.0, "final observations");
        assert_eq!(serial.1, threaded.1, "per-step rewards");
        assert_eq!(serial.2, threaded.2, "finished-return order");
    }
}
