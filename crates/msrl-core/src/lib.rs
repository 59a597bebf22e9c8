//! # msrl-core
//!
//! The core abstraction of the msrl-rs reproduction of *"MSRL: Distributed
//! Reinforcement Learning with Dataflow Fragments"* (USENIX ATC 2023): the
//! **fragmented dataflow graph (FDG)**.
//!
//! MSRL decouples an RL algorithm's *specification* from its *execution*.
//! The pipeline this crate implements mirrors §3–§5 of the paper:
//!
//! 1. **Specification** ([`api`]) — users implement agents, actors,
//!    learners and trainers against familiar component traits, and
//!    interact through an interaction API (replay-buffer insert/sample,
//!    `env_step`, `agent_learn`, …). Nothing in the specification names a
//!    device or a worker.
//! 2. **Tracing** ([`trace`], [`graph`]) — the training-loop body is
//!    recorded as a [`graph::DataflowGraph`] of operator and
//!    RL-macro nodes. The original system obtains this graph by statically
//!    analysing Python source; tracing produces the identical artifact
//!    (a dataflow graph with labelled data nodes) without a Python
//!    frontend.
//! 3. **Partition annotations** ([`annotate`]) — explicit calls that
//!    reproduce the `#@MSRL.fragment(type=…, ops=[…], data=[…])` comments
//!    of the paper's Alg. 1, marking *common nodes* and the collective
//!    used when computation is split at them.
//! 4. **FDG generation** ([`partition`]) — the paper's Algorithm 2: split
//!    the dataflow graph at the common nodes into [`fragment::Fragment`]s,
//!    duplicate common nodes at the boundaries, and synthesise entry/exit
//!    interfaces bound to the annotated collectives.
//! 5. **Fusion** ([`fusion`]) — co-located fragment replicas are fused by
//!    batching their tensors along a leading replica axis (§5.2), so one
//!    batched operator replaces N kernel launches.
//! 6. **Execution** ([`interp`], [`cost`]) — the drivers in
//!    `msrl-runtime` run fragment bodies written by hand in Rust; the
//!    reference evaluator runs a traced graph or fragment node by node
//!    (compute nodes through `msrl-tensor`, stateful RL macro ops through
//!    registered kernels), and per-node flop/byte costs feed the
//!    discrete-event cluster simulator in `msrl-sim`.

#![warn(missing_docs)]

pub mod annotate;
pub mod api;
pub mod compile;
pub mod config;
pub mod cost;
pub mod fragment;
pub mod fusion;
pub mod graph;
pub mod interp;
pub mod partition;
pub mod trace;

pub use annotate::{Collective, FragmentKind, PartitionAnnotation};
pub use fragment::{Fragment, FragmentId, Interface};
pub use graph::{DataflowGraph, DeviceReq, NodeId, OpKind, OpNode};
pub use partition::{build_fdg, Fdg};
pub use trace::{TraceCtx, TracedVar};

/// Errors from FDG construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FdgError {
    /// A node id referenced by an edge or annotation does not exist.
    UnknownNode {
        /// The offending id.
        id: usize,
    },
    /// An annotation names no data nodes.
    EmptyAnnotation,
    /// The graph is not a DAG (tracing should make this impossible; it
    /// guards hand-built graphs).
    CyclicGraph,
    /// Interpretation reached a node whose inputs were unavailable.
    MissingInput {
        /// Node whose evaluation failed.
        node: usize,
    },
    /// A stateful macro op had no registered kernel.
    MissingKernel {
        /// The op's display name.
        op: String,
    },
    /// A tensor-level error surfaced during interpretation.
    Tensor(msrl_tensor::TensorError),
    /// A fragment's communication with a peer failed.
    Comm(msrl_comm::CommError),
    /// Fusion was asked for an invalid replica count.
    InvalidFusion {
        /// The requested replica count.
        replicas: usize,
    },
    /// The distribution policy has no sync rule the caller could run
    /// (a custom name, or one whose environments and configuration the
    /// entry point does not take).
    NoSyncRule {
        /// The policy's short code or custom name.
        policy: String,
    },
    /// The run-health watchdog fired a critical finding: the run stops
    /// after that iteration's metrics line and flight-recorder dump.
    Unhealthy {
        /// The detector that fired (`"nonfinite"`, ...).
        detector: &'static str,
        /// The iteration it fired at.
        iteration: u64,
    },
}

impl std::fmt::Display for FdgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FdgError::UnknownNode { id } => write!(f, "unknown node id {id}"),
            FdgError::EmptyAnnotation => write!(f, "partition annotation with no data nodes"),
            FdgError::CyclicGraph => write!(f, "dataflow graph contains a cycle"),
            FdgError::MissingInput { node } => {
                write!(f, "node {node} evaluated before its inputs")
            }
            FdgError::MissingKernel { op } => write!(f, "no kernel registered for op {op}"),
            FdgError::Tensor(e) => write!(f, "tensor error: {e}"),
            FdgError::Comm(e) => write!(f, "comm error: {e}"),
            FdgError::InvalidFusion { replicas } => {
                write!(f, "cannot fuse {replicas} replicas")
            }
            FdgError::NoSyncRule { policy } => {
                write!(f, "no sync rule runs distribution policy {policy} here")
            }
            FdgError::Unhealthy { detector, iteration } => {
                write!(f, "critical health finding {detector} at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for FdgError {}

impl From<msrl_tensor::TensorError> for FdgError {
    fn from(e: msrl_tensor::TensorError) -> Self {
        FdgError::Tensor(e)
    }
}

impl From<msrl_comm::CommError> for FdgError {
    fn from(e: msrl_comm::CommError) -> Self {
        FdgError::Comm(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FdgError>;
