//! # msrl-runtime
//!
//! The coordinator/worker runtime of the msrl-rs reproduction (§5 of the
//! paper).
//!
//! The flow mirrors Fig. 6: the **coordinator** ([`coordinator`]) traces
//! the algorithm into a fragmented dataflow graph, applies the deployment
//! configuration's *distribution policy* ([`policy`]) to obtain a
//! fragment-to-device [`policy::Placement`], and dispatches fragments;
//! **workers** ([`exec`]) then run the placed fragments — here, one OS
//! thread per device — exchanging data through `msrl-comm` collectives
//! bound to the fragments' interfaces. The [`wire`] module is the
//! serialisation layer fragments use at their boundaries.
//!
//! [`exec`] is one fragment runner. A skeleton owns what every run
//! shares (fabric, starting policy, fragment threads, join, replica
//! check, metrics stream, report); five sync rules are the bodies of the
//! seats; and a table keyed by `PolicyName`, spelled in the
//! [`policy::Role`] / [`policy::SyncGranularity`] vocabulary that
//! [`policy::place`] returns, picks the rule:
//!
//! | Policy | hub seat | worker seats | sync | rule |
//! |--------|----------|--------------|------|------|
//! | DP-A   | `Learner` | `ActorEnv` | per episode | push–pull: trajectories in, one group of every actor, weights out |
//! | DP-B   | `Learner` | `ActorEnv` | per step | central inference, per-step exchange |
//! | DP-C   | —         | `ActorLearner` | per epoch | gradient AllReduce |
//! | DP-D   | —         | `FusedLoop` | per episode | weight AllReduce |
//! | DP-E   | `Env`     | `ActorLearner` | per episode | environment-worker messaging (MARL) |
//! | DP-F   | `ParamServer` | `ActorLearner` | per episode | push–pull: gradients in, groups of one (A3C: every reply waited) |
//!
//! Switching between the policies that share a configuration is changing
//! the `PolicyName` handed to [`exec::run_ppo`] — the algorithm
//! implementation (in `msrl-algos`) is untouched, which is the paper's
//! central claim.

#![warn(missing_docs)]

pub mod advisor;
pub mod config;
pub mod coordinator;
pub mod exec;
mod observe;
pub mod policy;
pub mod trace_algos;
pub mod wire;

pub use config::ConfigError;
pub use coordinator::{Coordinator, Deployment};
pub use exec::TrainingReport;
pub use policy::{Placement, Role};
