//! # msrl-comm
//!
//! The communication substrate of the msrl-rs reproduction.
//!
//! The original MSRL synchronises fragments with NCCL collectives between
//! GPUs and MPI over InfiniBand between workers (§5.2 of the paper).
//! Neither a GPU fabric nor a multi-node cluster is available here, so
//! this crate substitutes both layers:
//!
//! * [`topology`] — devices, nodes and cluster descriptions, including the
//!   paper's two testbeds (Tab. 3);
//! * [`fabric`] — a *real* in-process transport: one endpoint per fragment
//!   replica, one inbox each (FIFO per sender), and the collectives
//!   MSRL's partition annotations name (`AllGather`, `AllReduce`,
//!   `Broadcast`, point-to-point send/receive). Used when FDGs execute
//!   for real on threads.
//! * [`model`] — α–β (latency–bandwidth) cost models for PCIe, NVLink,
//!   10 GbE and 100 Gb InfiniBand links, and analytic collective cost
//!   formulas. Used by the discrete-event simulator to price the same
//!   collectives on the paper's clusters.
//!
//! Keeping the *semantics* (who blocks on whom) in [`fabric`] and the
//! *timing* in [`model`] means both execution modes share one notion of a
//! collective, so the simulator cannot drift from real behaviour.

#![warn(missing_docs)]

pub mod fabric;
pub mod model;
pub mod topology;

pub use fabric::{CommError, Endpoint, Fabric};
pub use model::{LinkModel, NetworkModel};
pub use topology::{ClusterSpec, DeviceId, DeviceKind, NodeSpec};
