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
//! All six default distribution policies of Tab. 2 are implemented:
//!
//! | Policy | Strategy |
//! |--------|----------|
//! | DP-A   | replicated actor+env fragments, single learner, per-episode batched sync |
//! | DP-B   | actor fused with env on CPU, learner-side inference, per-step exchange |
//! | DP-C   | fused actor+learner replicas, data-parallel gradient AllReduce |
//! | DP-D   | whole training loop fused per GPU, replicated |
//! | DP-E   | dedicated environment workers (MARL) |
//! | DP-F   | central parameter-server fragment |
//!
//! Switching between them is a one-line change to the deployment
//! configuration — the algorithm implementation (in `msrl-algos`) is
//! untouched, which is the paper's central claim.

#![warn(missing_docs)]

pub mod actsrv;
pub mod advisor;
pub mod config;
pub mod coordinator;
pub mod exec;
pub mod policy;
pub mod trace_algos;
pub mod wire;

pub use config::{ConfigError, RuntimeConfig};
pub use coordinator::{Coordinator, Deployment};
pub use exec::TrainingReport;
pub use policy::{Placement, Role};
