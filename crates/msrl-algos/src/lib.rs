//! # msrl-algos
//!
//! The RL algorithms of the paper's evaluation (§7.1) — PPO, MAPPO and
//! A3C — implemented against the MSRL component API (`msrl_core::api`).
//!
//! Algorithm code here knows nothing about devices, workers or
//! distribution policies: actors consume observation tensors and emit
//! actions; learners consume [`msrl_core::api::SampleBatch`]es and update
//! weights. The runtime (`msrl-runtime`) replicates, places and
//! synchronises these components according to the deployment
//! configuration — which is the paper's core claim: the same algorithm
//! implementation runs under every distribution policy.
//!
//! * [`gae`] — generalised advantage estimation and discounted returns;
//! * [`buffer`] — on-policy trajectory buffers (the interaction API's
//!   `replay_buffer_insert`/`_sample`);
//! * [`ppo`] — Proximal Policy Optimization (clipped surrogate, GAE,
//!   entropy bonus) with discrete and continuous policies;
//! * [`mappo`] — multi-agent PPO with parameter sharing across agents;
//! * [`a3c`] — asynchronous advantage actor-critic: actors compute
//!   gradients locally and ship them to a central learner;
//! * [`rollout`] — vectorised experience collection shared by the
//!   runtime's actor fragments.

#![warn(missing_docs)]

pub mod a3c;
pub mod buffer;
pub mod gae;
pub mod mappo;
pub mod ppo;
pub mod rollout;
pub mod sentinel;

pub use buffer::TrajectoryBuffer;
pub use ppo::{PpoConfig, PpoLearner, PpoPolicy};
