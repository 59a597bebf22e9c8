//! # msrl-sim
//!
//! A discrete-event cluster simulator for the msrl-rs reproduction.
//!
//! The paper evaluates MSRL on two GPU clusters (Tab. 3): 16 Azure VMs
//! with 64 P100s on PCIe/10 GbE, and a 4-node machine with 32 V100s on
//! NVLink/InfiniBand. Neither is available here, so every timing figure
//! (Figs. 7–11) is regenerated on this simulator:
//!
//! * [`device`] — throughput models for a P100-class GPU, a V100-class
//!   GPU, and a CPU core, including kernel-launch overhead (which is what
//!   makes unfused fragments slow, §5.2) and host↔device copy costs;
//! * [`engine`] — a virtual-clock task-graph scheduler: tasks occupy
//!   resources (devices or links), respect dependencies, and the engine
//!   reports per-task completion times and the makespan;
//! * [`scenarios`] — workload models that assemble, for each distribution
//!   policy of Tab. 2, the per-episode task graph of PPO/A3C/MAPPO
//!   training and price it on a cluster — the generators behind every
//!   figure binary in `msrl-bench`;
//! * [`stats`] — the statistical-efficiency model linking per-learner
//!   batch size to episodes-to-convergence (the Hoffer et al. \[16\]
//!   argument the paper uses to explain DP-C's behaviour in Fig. 7a/8a).
//!
//! The simulator consumes the *same* FDG cost quantities (`msrl_core::cost`)
//! and the *same* collective formulas (`msrl_comm::model`) that the real
//! execution path uses, so simulated and real runs share one semantics.

#![warn(missing_docs)]

pub mod device;
pub mod engine;
pub mod fdg_sim;
pub mod scenarios;
pub mod stats;

pub use device::DeviceModel;
pub use engine::{Resource, Schedule, SimTask, TaskGraph};
