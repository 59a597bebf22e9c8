//! # msrl-env
//!
//! Reinforcement-learning environments for the msrl-rs reproduction of the
//! MSRL paper (USENIX ATC 2023).
//!
//! The paper's evaluation (§7.1) uses MuJoCo continuous-control games and
//! the Multi-Agent Particle Environment (MPE). Neither is available as a
//! Rust library, so this crate implements from-scratch substitutes with the
//! same observation/action interfaces and tunable per-step CPU cost:
//!
//! * [`cartpole::CartPole`] / [`pendulum::Pendulum`] — classic control
//!   tasks for fast end-to-end training tests;
//! * [`halfcheetah::HalfCheetah`] — a planar six-joint locomotion
//!   simulator standing in for MuJoCo HalfCheetah (17-dim observations,
//!   6-dim continuous torques, forward-velocity reward);
//! * [`mpe`] — the Multi-Agent Particle Environment: 2-D point-mass
//!   physics with the `simple_spread` and `simple_tag` scenarios, including
//!   the global-observation variant of §7.4 whose observation volume grows
//!   as *O(n³)* in the number of agents;
//! * [`batched`] — pure-tensor, batched environment implementations: the
//!   "GPU implementation of the environment" required by distribution
//!   policy DP-D (GPU-only training, Fig. 10).
//!
//! Environment *cost hints* ([`Environment::step_cost`]) report how many
//! virtual CPU-seconds one step costs; the discrete-event simulator in
//! `msrl-sim` charges this when replaying the paper's cluster experiments.

#![warn(missing_docs)]

pub mod batched;
pub mod cartpole;
#[doc(hidden)]
pub mod conformance;
pub mod gridworld;
pub mod halfcheetah;
pub mod mpe;
pub mod pendulum;
pub mod spec;
pub mod vec_env;

pub use spec::{Action, ActionSpec, MultiStep, Step};
pub use vec_env::VecEnv;

use msrl_tensor::Tensor;

/// A single-agent environment.
///
/// Mirrors the Gym-style interface the paper's algorithm code assumes:
/// `reset` yields an observation, `step` consumes an action and yields the
/// next observation, a reward, and a terminal flag. An environment writes
/// its observations into a slice the caller owns ([`reset_into`],
/// [`step_into`]): a [`VecEnv`] hands each instance its row of one
/// batched buffer. [`reset`] and [`step`] are the allocating spellings of
/// the same two bodies.
///
/// [`reset_into`]: Environment::reset_into
/// [`step_into`]: Environment::step_into
/// [`reset`]: Environment::reset
/// [`step`]: Environment::step
pub trait Environment: Send {
    /// Dimensionality of the flat observation vector.
    fn obs_dim(&self) -> usize;

    /// The action specification (discrete arity or continuous bounds).
    fn action_spec(&self) -> ActionSpec;

    /// Resets to an initial state and writes the first observation into
    /// `obs` (`obs_dim` long, every element overwritten).
    fn reset_into(&mut self, obs: &mut [f32]);

    /// Advances one step, writes the next observation into `obs`
    /// (`obs_dim` long, every element overwritten) and returns the
    /// reward and whether the episode terminated with this step.
    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool);

    /// Resets to an initial state and returns the first observation
    /// (`[obs_dim]`).
    fn reset(&mut self) -> Tensor {
        let dim = self.obs_dim();
        let mut obs = vec![0.0; dim];
        self.reset_into(&mut obs);
        Tensor::from_vec(obs, &[dim]).expect("length is obs_dim")
    }

    /// Advances one step.
    fn step(&mut self, action: &Action) -> Step {
        let dim = self.obs_dim();
        let mut obs = vec![0.0; dim];
        let (reward, done) = self.step_into(action, &mut obs);
        Step { obs: Tensor::from_vec(obs, &[dim]).expect("length is obs_dim"), reward, done }
    }

    /// Virtual CPU-seconds a single step costs on one core — the cost
    /// model used by the discrete-event simulator. Defaults to a cheap
    /// classic-control step.
    fn step_cost(&self) -> f64 {
        2e-6
    }

    /// Maximum episode length before truncation.
    fn horizon(&self) -> usize {
        1000
    }
}

/// A cooperative/competitive multi-agent environment (for MARL).
pub trait MultiAgentEnvironment: Send {
    /// Number of agents.
    fn n_agents(&self) -> usize;

    /// Per-agent observation dimensionality.
    fn obs_dim(&self) -> usize;

    /// Per-agent action specification (homogeneous agents).
    fn action_spec(&self) -> ActionSpec;

    /// Resets and returns one observation per agent.
    fn reset(&mut self) -> Vec<Tensor>;

    /// Advances one step given one action per agent.
    fn step(&mut self, actions: &[Action]) -> MultiStep;

    /// Virtual CPU-seconds per multi-agent step (see
    /// [`Environment::step_cost`]).
    fn step_cost(&self) -> f64 {
        2e-6 * self.n_agents() as f64
    }

    /// Maximum episode length before truncation.
    fn horizon(&self) -> usize {
        25
    }
}
