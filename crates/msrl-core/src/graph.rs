//! The dataflow graph: nodes, operators and device requirements.

use serde::{Deserialize, Serialize};

use crate::annotate::PartitionAnnotation;
use crate::{FdgError, Result};

/// Index of a node within a [`DataflowGraph`].
pub type NodeId = usize;

/// What hardware a node's implementation needs (§4.1: "depending on how a
/// fragment's code is implemented, fragments require specific hardware
/// resources").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceReq {
    /// Runs anywhere (pure dataflow operators; a DL engine can compile
    /// them for GPU, or they interpret on CPU).
    Any,
    /// Requires a CPU (native host code, e.g. a non-batched environment).
    CpuOnly,
    /// Requires a GPU-class device (e.g. a fused batched environment
    /// kernel written for the device).
    GpuOnly,
}

impl DeviceReq {
    /// Combines requirements of two nodes placed in one fragment.
    ///
    /// `CpuOnly` and `GpuOnly` in one fragment is a placement conflict;
    /// the stricter requirement wins and validation reports it separately.
    pub fn merge(self, other: DeviceReq) -> DeviceReq {
        use DeviceReq::*;
        match (self, other) {
            (Any, x) | (x, Any) => x,
            (CpuOnly, CpuOnly) => CpuOnly,
            (GpuOnly, GpuOnly) => GpuOnly,
            // Conflict: be conservative, pin to CPU (always exists).
            _ => CpuOnly,
        }
    }
}

/// The operator set.
///
/// Compute ops map one-to-one onto `msrl-tensor` operators — the "DL
/// engine operators" of §5.1. Macro ops are the stateful RL interactions
/// of the paper's interaction API (environment stepping, replay buffers,
/// learning); their implementations are *kernels* registered with the
/// interpreter, which is how the original system binds `MSRL.env_step()`
/// et al. to component code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    // -- sources ---------------------------------------------------------
    /// External input fed at execution time.
    Input {
        /// Binding name.
        name: String,
    },
    /// A trainable parameter tensor.
    Param {
        /// Parameter name.
        name: String,
    },
    /// An embedded constant.
    Const,
    /// Identity: a pure data node. Boundaries annotate identity nodes so
    /// the producing op stays interior to its fragment (the paper's
    /// Fig. 5 separates op nodes from data nodes at fragment boundaries).
    Identity,

    // -- compute operators ------------------------------------------------
    /// Matrix multiply.
    MatMul,
    /// Element-wise add (broadcasting).
    Add,
    /// Element-wise subtract (broadcasting).
    Sub,
    /// Element-wise multiply (broadcasting).
    Mul,
    /// Element-wise divide (broadcasting).
    Div,
    /// ReLU activation.
    Relu,
    /// Tanh activation.
    Tanh,
    /// Sigmoid activation.
    Sigmoid,
    /// Element-wise exponential.
    Exp,
    /// Element-wise natural log.
    Ln,
    /// Element-wise square.
    Square,
    /// Negation.
    Neg,
    /// Clamp into `[lo, hi]`.
    Clamp {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Row-wise softmax.
    Softmax,
    /// Row-wise log-softmax.
    LogSoftmax,
    /// Sum of all elements.
    SumAll,
    /// Mean of all elements.
    MeanAll,
    /// Sum along an axis.
    SumAxis {
        /// Reduced axis.
        axis: usize,
    },
    /// Concatenate inputs along an axis.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Reshape to fixed dimensions.
    Reshape {
        /// Target shape.
        dims: Vec<usize>,
    },

    // -- RL macro ops (stateful kernels) ----------------------------------
    /// Reset the environment set; yields batched observations.
    EnvReset,
    /// Step the environment set with actions; yields (obs, rewards).
    EnvStep,
    /// Sample actions from a policy distribution given network output.
    SampleAction,
    /// Insert a transition batch into the replay buffer.
    ReplayInsert,
    /// Sample a training batch from the replay buffer.
    ReplaySample,
    /// Run the learner's update on a sampled batch; yields the loss.
    Learn,
    /// Read the current policy parameters (for weight synchronisation).
    ReadParams,
    /// Overwrite policy parameters from a synced tensor.
    WriteParams,
}

impl OpKind {
    /// The default device requirement for this op (§4.1: operator code is
    /// device-agnostic; native environment code is CPU-bound).
    pub fn default_device_req(&self) -> DeviceReq {
        match self {
            OpKind::EnvReset | OpKind::EnvStep => DeviceReq::CpuOnly,
            _ => DeviceReq::Any,
        }
    }

    /// Whether this is a stateful macro op needing a registered kernel.
    pub fn is_macro(&self) -> bool {
        matches!(
            self,
            OpKind::EnvReset
                | OpKind::EnvStep
                | OpKind::SampleAction
                | OpKind::ReplayInsert
                | OpKind::ReplaySample
                | OpKind::Learn
                | OpKind::ReadParams
                | OpKind::WriteParams
        )
    }

    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input { .. } => "Input",
            OpKind::Param { .. } => "Param",
            OpKind::Const => "Const",
            OpKind::Identity => "Identity",
            OpKind::MatMul => "MatMul",
            OpKind::Add => "Add",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::Div => "Div",
            OpKind::Relu => "Relu",
            OpKind::Tanh => "Tanh",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Exp => "Exp",
            OpKind::Ln => "Ln",
            OpKind::Square => "Square",
            OpKind::Neg => "Neg",
            OpKind::Clamp { .. } => "Clamp",
            OpKind::Softmax => "Softmax",
            OpKind::LogSoftmax => "LogSoftmax",
            OpKind::SumAll => "SumAll",
            OpKind::MeanAll => "MeanAll",
            OpKind::SumAxis { .. } => "SumAxis",
            OpKind::Concat { .. } => "Concat",
            OpKind::Reshape { .. } => "Reshape",
            OpKind::EnvReset => "EnvReset",
            OpKind::EnvStep => "EnvStep",
            OpKind::SampleAction => "SampleAction",
            OpKind::ReplayInsert => "ReplayInsert",
            OpKind::ReplaySample => "ReplaySample",
            OpKind::Learn => "Learn",
            OpKind::ReadParams => "ReadParams",
            OpKind::WriteParams => "WriteParams",
        }
    }
}

/// One node of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpNode {
    /// The node's id (its index in the graph).
    pub id: NodeId,
    /// The operator.
    pub kind: OpKind,
    /// Producer nodes, in argument order.
    pub inputs: Vec<NodeId>,
    /// Static output shape (empty vec = scalar; used by the fusion pass
    /// and the cost model).
    pub shape: Vec<usize>,
    /// Hardware requirement.
    pub device_req: DeviceReq,
    /// Which algorithmic component traced this node (actor/learner/…);
    /// used by the default partitioning when no annotations exist.
    pub component: String,
}

/// A dataflow graph plus its partition annotations.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowGraph {
    /// Nodes, indexed by [`NodeId`]. Tracing appends in topological
    /// order (inputs always precede consumers).
    pub nodes: Vec<OpNode>,
    /// Partition annotations collected during tracing.
    pub annotations: Vec<PartitionAnnotation>,
}

impl DataflowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DataflowGraph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a node and returns its id.
    pub fn push(
        &mut self,
        kind: OpKind,
        inputs: Vec<NodeId>,
        shape: Vec<usize>,
        component: &str,
    ) -> NodeId {
        let id = self.nodes.len();
        let device_req = kind.default_device_req();
        self.nodes.push(OpNode {
            id,
            kind,
            inputs,
            shape,
            device_req,
            component: component.to_string(),
        });
        id
    }

    /// The node with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`FdgError::UnknownNode`] for out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<&OpNode> {
        self.nodes.get(id).ok_or(FdgError::UnknownNode { id })
    }

    /// Consumers of each node (adjacency in the forward direction).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                if let Some(list) = out.get_mut(i) {
                    list.push(n.id);
                }
            }
        }
        out
    }

    /// Validates edges and acyclicity.
    ///
    /// Tracing builds nodes in topological order, so `inputs[i] < id`
    /// suffices; hand-built graphs violating it are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`FdgError::UnknownNode`] for dangling edges or
    /// [`FdgError::CyclicGraph`] for forward references.
    pub fn validate(&self) -> Result<()> {
        for n in &self.nodes {
            for &i in &n.inputs {
                if i >= self.nodes.len() {
                    return Err(FdgError::UnknownNode { id: i });
                }
                if i >= n.id {
                    return Err(FdgError::CyclicGraph);
                }
            }
        }
        for a in &self.annotations {
            if a.data.is_empty() {
                return Err(FdgError::EmptyAnnotation);
            }
            for &d in &a.data {
                if d >= self.nodes.len() {
                    return Err(FdgError::UnknownNode { id: d });
                }
            }
        }
        Ok(())
    }

    /// All node ids named by any annotation — the *common nodes* of §4.3.
    pub fn common_nodes(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        for a in &self.annotations {
            for &d in &a.data {
                if d < seen.len() && !seen[d] {
                    seen[d] = true;
                    out.push(d);
                }
            }
        }
        out
    }

    /// Total bytes of the given nodes' outputs (f32 payloads).
    pub fn bytes_of(&self, ids: &[NodeId]) -> u64 {
        ids.iter()
            .filter_map(|&i| self.nodes.get(i))
            .map(|n| 4 * n.shape.iter().product::<usize>().max(1) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{Collective, FragmentKind};

    fn toy_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let x = g.push(OpKind::Input { name: "x".into() }, vec![], vec![4], "actor");
        let w = g.push(OpKind::Param { name: "w".into() }, vec![], vec![4, 2], "actor");
        let h = g.push(OpKind::MatMul, vec![x, w], vec![2], "actor");
        let _y = g.push(OpKind::Tanh, vec![h], vec![2], "actor");
        g
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let g = toy_graph();
        assert_eq!(g.len(), 4);
        assert_eq!(g.nodes[2].inputs, vec![0, 1]);
    }

    #[test]
    fn validate_accepts_topological_graph() {
        assert!(toy_graph().validate().is_ok());
    }

    #[test]
    fn validate_rejects_forward_edge() {
        let mut g = toy_graph();
        g.nodes[0].inputs = vec![3];
        assert_eq!(g.validate(), Err(FdgError::CyclicGraph));
    }

    #[test]
    fn validate_rejects_dangling_edge() {
        let mut g = toy_graph();
        g.nodes[2].inputs = vec![0, 99];
        assert_eq!(g.validate(), Err(FdgError::UnknownNode { id: 99 }));
    }

    #[test]
    fn consumers_are_forward_adjacency() {
        let g = toy_graph();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![2]);
        assert_eq!(cons[2], vec![3]);
        assert!(cons[3].is_empty());
    }

    #[test]
    fn common_nodes_dedup_in_order() {
        let mut g = toy_graph();
        g.annotations.push(PartitionAnnotation {
            kind: FragmentKind::Action,
            collective: Collective::AllGather,
            data: vec![2, 3],
        });
        g.annotations.push(PartitionAnnotation {
            kind: FragmentKind::Step,
            collective: Collective::AllGather,
            data: vec![3],
        });
        assert_eq!(g.common_nodes(), vec![2, 3]);
    }

    #[test]
    fn wire_format_is_nodes_and_annotations() {
        let g = toy_graph();
        let json = serde_json::to_string(&g).unwrap();
        let v = serde_json::value_from_str(&json).unwrap();
        let serde::Value::Map(fields) = &v else { panic!("a graph serialises as a map: {v:?}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["nodes", "annotations"]);
        let back: DataflowGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        assert_eq!(g.clone(), g);
    }

    #[test]
    fn env_ops_default_to_cpu() {
        assert_eq!(OpKind::EnvStep.default_device_req(), DeviceReq::CpuOnly);
        assert_eq!(OpKind::MatMul.default_device_req(), DeviceReq::Any);
    }

    #[test]
    fn device_req_merge() {
        use DeviceReq::*;
        assert_eq!(Any.merge(GpuOnly), GpuOnly);
        assert_eq!(CpuOnly.merge(Any), CpuOnly);
        assert_eq!(CpuOnly.merge(GpuOnly), CpuOnly, "conflict pins to CPU");
    }

    #[test]
    fn bytes_of_counts_f32_payloads() {
        let g = toy_graph();
        // x: 4 floats, h: 2 floats ⇒ 24 bytes.
        assert_eq!(g.bytes_of(&[0, 2]), 24);
        // Scalars count as one element.
        let mut g2 = DataflowGraph::new();
        let s = g2.push(OpKind::Const, vec![], vec![], "c");
        assert_eq!(g2.bytes_of(&[s]), 4);
    }
}
