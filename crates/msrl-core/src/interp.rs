//! The reference evaluator: runs a dataflow (sub)graph one node at a time.
//!
//! Workers in the original system hand each fragment's operator graph to
//! MindSpore, which compiles it for the device (§5.2). No run here does:
//! every driver's fragment bodies are hand-written Rust over `msrl-tensor`
//! (DESIGN §3.9). This module is the executable reference for what
//! Algorithm 2 produces — [`Interpreter::eval`] runs a traced graph,
//! [`Interpreter::eval_fragment`] one fragment of its FDG. Pure compute
//! nodes evaluate through `msrl_tensor::ops`; stateful RL macro ops
//! (environment stepping, replay buffers, learning) dispatch to *kernels*
//! registered by the caller — the analogue of the generated
//! `Fragment.run()` code binding `MSRL.env_step()` to component objects.
//!
//! The schedule is [`compile`]'s: ascending node id, which tracing makes
//! topological, so macro kernels fire in id order under every backend.
//!
//! # Telemetry
//!
//! Fragment evaluations record a `fragment.eval` span labelled with the
//! fragment id, a `fragment.eval` histogram sample and an attribution
//! `Eval` stamp; macro-op kernel invocations record `interp.macro` spans
//! (spans are no-ops unless `MSRL_TRACE` is set). The always-on
//! `interp.ops` counter totals evaluated nodes; with tracing enabled,
//! per-op-class totals land under `interp.op.<Name>`.

use std::collections::HashMap;

use msrl_tensor::{ops, Tensor};

use crate::compile::compile;
use crate::fragment::Fragment;
use crate::graph::{DataflowGraph, NodeId, OpKind, OpNode};
use crate::{FdgError, Result};

/// A stateful kernel for macro ops. Receives the node being evaluated and
/// references to its input values; returns the node's output.
pub type Kernel<'a> = Box<dyn FnMut(&OpNode, &[&Tensor]) -> Result<Tensor> + 'a>;

/// Evaluates dataflow (sub)graphs.
#[derive(Default)]
pub struct Interpreter<'a> {
    kernels: HashMap<&'static str, Kernel<'a>>,
    /// Values for `Input` nodes, by name.
    pub inputs: HashMap<String, Tensor>,
    /// Values for `Param` nodes, by name.
    pub params: HashMap<String, Tensor>,
    /// Values for `Const` nodes, by id.
    pub consts: HashMap<NodeId, Tensor>,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with no kernels or bindings.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Registers the kernel for a macro op (keyed by [`OpKind::name`]).
    pub fn register(&mut self, op: &'static str, kernel: Kernel<'a>) {
        self.kernels.insert(op, kernel);
    }

    /// Binds an input by name.
    pub fn bind_input(&mut self, name: &str, value: Tensor) {
        self.inputs.insert(name.to_string(), value);
    }

    /// Binds a parameter by name.
    pub fn bind_param(&mut self, name: &str, value: Tensor) {
        self.params.insert(name.to_string(), value);
    }

    /// Evaluates the whole graph; returns every node's value.
    ///
    /// # Errors
    ///
    /// Returns an error on missing bindings/kernels or tensor failures.
    pub fn eval(&mut self, graph: &DataflowGraph) -> Result<Vec<Tensor>> {
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let mut values = self.run(graph, &ids, HashMap::new())?;
        ids.iter().map(|i| values.remove(i).ok_or(FdgError::MissingInput { node: *i })).collect()
    }

    /// Evaluates one fragment. `preset` supplies values for entry
    /// boundary nodes (data received over the fragment's entry
    /// interface); returns the values of all evaluated nodes plus the
    /// presets, from which exit payloads can be read.
    ///
    /// # Errors
    ///
    /// Returns an error on missing bindings/kernels or tensor failures.
    pub fn eval_fragment(
        &mut self,
        graph: &DataflowGraph,
        fragment: &Fragment,
        preset: HashMap<NodeId, Tensor>,
    ) -> Result<HashMap<NodeId, Tensor>> {
        let _span = msrl_telemetry::span!("fragment.eval", fragment.id.0);
        let _hist = msrl_telemetry::static_histogram!("fragment.eval").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Eval);
        self.run(graph, &fragment.all_nodes(), preset)
    }

    /// Walks [`compile`]'s schedule for `ids`, starting from the preset
    /// values; returns them together with every value it computed.
    fn run(
        &mut self,
        graph: &DataflowGraph,
        ids: &[NodeId],
        preset: HashMap<NodeId, Tensor>,
    ) -> Result<HashMap<NodeId, Tensor>> {
        let preset_ids: Vec<NodeId> = preset.keys().copied().collect();
        let schedule = compile(graph, ids, &preset_ids, None, false)?;
        let mut values = preset;
        for id in schedule {
            let node = graph.node(id)?;
            let ins = node
                .inputs
                .iter()
                .map(|i| values.get(i))
                .collect::<Option<Vec<&Tensor>>>()
                .ok_or(FdgError::MissingInput { node: id })?;
            let name = node.kind.name();
            msrl_telemetry::static_counter!("interp.ops").add(1);
            if msrl_telemetry::enabled() {
                msrl_telemetry::counter(&format!("interp.op.{name}"), 1);
            }
            let value = if node.kind.is_macro() {
                let kernel = self
                    .kernels
                    .get_mut(name)
                    .ok_or_else(|| FdgError::MissingKernel { op: name.to_string() })?;
                let _macro = msrl_telemetry::span!("interp.macro");
                kernel(node, &ins)?
            } else {
                self.eval_pure(node, &ins)?
            };
            values.insert(id, value);
        }
        Ok(values)
    }

    /// Evaluates one pure (stateless) node.
    fn eval_pure(&self, node: &OpNode, ins: &[&Tensor]) -> Result<Tensor> {
        let need = |n: usize| -> Result<()> {
            if ins.len() < n {
                Err(FdgError::MissingInput { node: node.id })
            } else {
                Ok(())
            }
        };
        Ok(match &node.kind {
            OpKind::Input { name } => self
                .inputs
                .get(name)
                .cloned()
                .ok_or(FdgError::MissingKernel { op: format!("Input({name})") })?,
            OpKind::Param { name } => self
                .params
                .get(name)
                .cloned()
                .ok_or(FdgError::MissingKernel { op: format!("Param({name})") })?,
            OpKind::Const => {
                self.consts.get(&node.id).cloned().unwrap_or_else(|| Tensor::zeros(&node.shape))
            }
            OpKind::Identity => {
                need(1)?;
                ins[0].clone()
            }
            OpKind::MatMul => {
                need(2)?;
                ops::matmul(ins[0], ins[1])?
            }
            OpKind::Add => {
                need(2)?;
                ops::add(ins[0], ins[1])?
            }
            OpKind::Sub => {
                need(2)?;
                ops::sub(ins[0], ins[1])?
            }
            OpKind::Mul => {
                need(2)?;
                ops::mul(ins[0], ins[1])?
            }
            OpKind::Div => {
                need(2)?;
                ops::div(ins[0], ins[1])?
            }
            OpKind::Relu => {
                need(1)?;
                ops::relu(ins[0])
            }
            OpKind::Tanh => {
                need(1)?;
                ops::tanh(ins[0])
            }
            OpKind::Sigmoid => {
                need(1)?;
                ops::sigmoid(ins[0])
            }
            OpKind::Exp => {
                need(1)?;
                ops::exp(ins[0])
            }
            OpKind::Ln => {
                need(1)?;
                ops::ln(ins[0])
            }
            OpKind::Square => {
                need(1)?;
                ops::square(ins[0])
            }
            OpKind::Neg => {
                need(1)?;
                ops::neg(ins[0])
            }
            OpKind::Clamp { lo, hi } => {
                need(1)?;
                ops::clamp(ins[0], *lo, *hi)
            }
            OpKind::Softmax => {
                need(1)?;
                ops::softmax_rows(ins[0])?
            }
            OpKind::LogSoftmax => {
                need(1)?;
                ops::log_softmax_rows(ins[0])?
            }
            OpKind::SumAll => {
                need(1)?;
                ops::sum_all(ins[0])
            }
            OpKind::MeanAll => {
                need(1)?;
                ops::mean_all(ins[0])
            }
            OpKind::SumAxis { axis } => {
                need(1)?;
                ops::sum_axis(ins[0], *axis)?
            }
            OpKind::Concat { axis } => {
                need(1)?;
                ops::concat(ins, *axis)?
            }
            OpKind::Reshape { dims } => {
                need(1)?;
                ins[0].reshape(dims)?
            }
            // Macro ops never reach here: `run` routes them to kernels.
            macro_op => {
                return Err(FdgError::MissingKernel { op: macro_op.name().to_string() });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{Collective, FragmentKind};
    use crate::partition::build_fdg;
    use crate::trace::{trace_mlp, TraceCtx};
    use msrl_tensor::{par, Backend};

    #[test]
    fn evaluates_mlp_like_tensor_lib() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[2, 3]);
        let out = trace_mlp(&ctx, "net", &x, &[3, 4, 2]);
        let graph = ctx.finish();

        let mut interp = Interpreter::new();
        let xv = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.5, 0.5, -0.5], &[2, 3]).unwrap();
        interp.bind_input("x", xv.clone());
        let w0 = Tensor::full(&[3, 4], 0.1);
        let b0 = Tensor::zeros(&[4]);
        let w1 = Tensor::full(&[4, 2], 0.2);
        let b1 = Tensor::full(&[2], 0.5);
        interp.bind_param("net.w0", w0.clone());
        interp.bind_param("net.b0", b0.clone());
        interp.bind_param("net.w1", w1.clone());
        interp.bind_param("net.b1", b1.clone());
        let values = interp.eval(&graph).unwrap();

        // Reference computation with the tensor library directly.
        let h = ops::tanh(&ops::add(&ops::matmul(&xv, &w0).unwrap(), &b0).unwrap());
        let expect = ops::add(&ops::matmul(&h, &w1).unwrap(), &b1).unwrap();
        let got = &values[out.id()];
        assert_eq!(got.shape(), expect.shape());
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn missing_input_binding_is_reported() {
        let ctx = TraceCtx::new();
        let _x = ctx.input("x", &[2]);
        let graph = ctx.finish();
        let mut interp = Interpreter::new();
        assert!(matches!(interp.eval(&graph), Err(FdgError::MissingKernel { .. })));
    }

    #[test]
    fn macro_op_without_kernel_is_reported() {
        let ctx = TraceCtx::new();
        let _obs = ctx.env_reset(4, 3);
        let graph = ctx.finish();
        let mut interp = Interpreter::new();
        let err = interp.eval(&graph).unwrap_err();
        assert!(matches!(err, FdgError::MissingKernel { op } if op == "EnvReset"));
    }

    #[test]
    fn kernels_receive_inputs_and_keep_state() {
        let ctx = TraceCtx::new();
        let obs = ctx.env_reset(1, 2);
        let act = obs.relu();
        let (obs2, rew) = ctx.env_step(&act, 1, 2);
        let graph = ctx.finish();

        let mut interp = Interpreter::new();
        interp.register("EnvReset", Box::new(|node, _| Ok(Tensor::ones(&node.shape))));
        let mut step_count = 0;
        interp.register(
            "EnvStep",
            Box::new(move |node, ins| {
                // First EnvStep node (1 input) performs the step; the
                // second (2 inputs) reports rewards.
                if ins.len() == 1 {
                    step_count += 1;
                    Ok(Tensor::full(&node.shape, step_count as f32))
                } else {
                    Ok(Tensor::full(&node.shape, 0.5))
                }
            }),
        );
        let values = interp.eval(&graph).unwrap();
        assert_eq!(values[obs2.id()].data(), &[1.0, 1.0]);
        assert_eq!(values[rew.id()].data(), &[0.5]);
    }

    #[test]
    fn fragment_eval_uses_preset_entries() {
        // Split x.relu() | square().sum() at the relu output; evaluate the
        // learner-side fragment alone by presetting the entry value.
        let ctx = TraceCtx::new();
        let saved = ctx.enter_component("actor");
        let x = ctx.input("x", &[3]);
        let a = x.relu();
        ctx.annotate(FragmentKind::Action, Collective::SendRecv, &[&a]);
        ctx.exit_component(saved);
        let saved = ctx.enter_component("learner");
        let loss = a.square().sum_all();
        ctx.exit_component(saved);
        let fdg = build_fdg(ctx.finish()).unwrap();
        let learner =
            fdg.fragments.iter().find(|f| f.entries.iter().any(|i| i.node == a.id())).unwrap();

        let mut interp = Interpreter::new();
        let preset =
            HashMap::from([(a.id(), Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap())]);
        let values = interp.eval_fragment(&fdg.graph, learner, preset).unwrap();
        assert_eq!(values[&loss.id()].item().unwrap(), 14.0);
    }

    #[test]
    fn fragment_eval_without_entry_fails() {
        let ctx = TraceCtx::new();
        let saved = ctx.enter_component("actor");
        let x = ctx.input("x", &[3]);
        let a = x.relu();
        ctx.annotate(FragmentKind::Action, Collective::SendRecv, &[&a]);
        ctx.exit_component(saved);
        let saved2 = ctx.enter_component("learner");
        let _loss = a.square().sum_all();
        ctx.exit_component(saved2);
        let fdg = build_fdg(ctx.finish()).unwrap();
        let learner =
            fdg.fragments.iter().find(|f| f.entries.iter().any(|i| i.node == a.id())).unwrap();
        let mut interp = Interpreter::new();
        // The boundary node's own inputs are outside the fragment: with no
        // preset the evaluation must fail rather than silently recompute.
        let err = interp.eval_fragment(&fdg.graph, learner, HashMap::new()).unwrap_err();
        assert!(matches!(err, FdgError::MissingInput { .. } | FdgError::MissingKernel { .. }));
    }

    /// Macro kernels fire in ascending id order under the threaded
    /// backend too: the schedule does not depend on the backend.
    #[test]
    fn macro_order_is_preserved_under_threading() {
        let ctx = TraceCtx::new();
        let obs = ctx.env_reset(1, 2);
        let a = obs.relu();
        let (obs2, _rew) = ctx.env_step(&a, 1, 2);
        let b = obs2.tanh();
        let (obs3, _rew2) = ctx.env_step(&b, 1, 2);
        let graph = ctx.finish();

        let order = std::cell::RefCell::new(Vec::new());
        let mut interp = Interpreter::new();
        interp.register("EnvReset", Box::new(|node, _| Ok(Tensor::ones(&node.shape))));
        interp.register(
            "EnvStep",
            Box::new(|node, _| {
                order.borrow_mut().push(node.id);
                Ok(Tensor::ones(&node.shape))
            }),
        );
        par::with_backend(Backend::Threaded, || interp.eval(&graph)).unwrap();
        let recorded = order.borrow().clone();
        assert_eq!(recorded.len(), 4, "both EnvStep pairs fire");
        assert!(recorded.windows(2).all(|w| w[0] < w[1]), "ids ascend: {recorded:?}");
        assert!(obs3.id() > obs2.id());
    }
}
