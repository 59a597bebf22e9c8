//! The operator interpreter: msrl-rs's stand-in for a DL engine backend.
//!
//! Workers in the original system generate executable code for their
//! fragments and hand it to MindSpore, which compiles the operator graph
//! for the device (§5.2). Here, [`Interpreter::eval`] plays the engine:
//! compute nodes evaluate through `msrl-tensor` operators, and stateful RL
//! macro ops (environment stepping, replay buffers, learning) dispatch to
//! *kernels* registered by the runtime — the analogue of the generated
//! `Fragment.run()` code binding `MSRL.env_step()` to component objects.
//!
//! # Execution model
//!
//! Evaluation walks nodes in ascending id order (tracing appends
//! topologically), but independent *pure* compute nodes are grouped into
//! dependency levels and, under [`msrl_tensor::Backend::Threaded`], a
//! sufficiently large level evaluates concurrently on the free cores of
//! `msrl_tensor::par`'s pool —
//! the intra-fragment analogue of a DL engine scheduling independent
//! operators in parallel streams. Macro ops act as barriers and always
//! run serially in ascending id order, so stateful kernels observe
//! exactly the same invocation sequence under every backend.
//!
//! Values live in a dense arena indexed by [`NodeId`]. Inputs are passed
//! to operators by reference (no per-node clones), and
//! [`Interpreter::eval_fragment_outputs`] additionally refcounts each
//! value's remaining consumers: a dead intermediate's buffer is returned
//! to the [`msrl_tensor::alloc`] pool, so steady-state fragment
//! evaluation reuses storage instead of allocating per node.
//!
//! # Telemetry
//!
//! Fragment evaluations record `fragment.eval` spans labelled with the
//! fragment id, macro-op kernel invocations record `interp.macro` spans,
//! and the pure-batch flush a macro op must wait for records an
//! `interp.barrier_wait` span (all no-ops unless `MSRL_TRACE` is set).
//! The always-on `interp.ops` counter totals evaluated nodes; with
//! tracing enabled, per-op-class totals land under `interp.op.<Name>`.
//!
//! # Hot-plan promotion
//!
//! A cached plan that keeps getting replayed is *hot*: once its
//! execution count reaches [`TIER_THRESHOLD`], the interpreter promotes
//! it — every `MatMul` or fused-linear op whose weight input is a [`OpKind::Param`] of at
//! least 64×64 elements gets that weight packed once into the
//! register-tiled layout of [`msrl_tensor::kernels`], and the packed
//! buffers ride along inside the swapped-in plan. Steady-state hot-plan
//! evaluation then performs **zero** packing and zero kernel selection
//! per call (observable: the `tensor.pack_b` counter goes flat while
//! `interp.plan_cache.hit` keeps climbing). Rebinding any parameter
//! bumps the interpreter's params epoch, which invalidates packed
//! weights and triggers a repack at the next promotion check. Packed
//! kernels replay the naive per-element accumulation order, so a
//! promoted plan's results are bit-identical to the evaluations before
//! promotion (property-tested against the naive loops in
//! `msrl-tensor`).

use std::collections::HashMap;
use std::rc::Rc;

use msrl_tensor::{kernels, ops, par, Tensor};

use crate::compile::{self, CompiledPlan, ExecOp, PlanOp, Step, TierData};
use crate::fragment::Fragment;
use crate::graph::{DataflowGraph, NodeId, OpKind, OpNode};
use crate::{FdgError, Result};

/// A stateful kernel for macro ops. Receives the node being evaluated and
/// references to its input values; returns the node's output.
pub type Kernel<'a> = Box<dyn FnMut(&OpNode, &[&Tensor]) -> Result<Tensor> + 'a>;

/// The dense value arena plus out-of-graph preset survivors produced by
/// one evaluation run.
type RunState = (Vec<Option<Tensor>>, Vec<(NodeId, Tensor)>);

/// Identity of one evaluation request, used as the compiled-plan cache
/// key. The graph contributes its process-unique
/// [`DataflowGraph::stamp`], so no node contents are hashed; the rest
/// pins everything [`compile::compile`] depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    stamp: u64,
    ids: Vec<NodeId>,
    presets: Vec<NodeId>,
    outputs: Option<Vec<NodeId>>,
    fusion: bool,
}

/// One cached plan plus the execution count that drives promotion.
struct PlanEntry {
    plan: Rc<CompiledPlan>,
    execs: u64,
}

/// Minimum weight element count (`k * n`) worth packing at promotion:
/// below this the pack amortisation never pays for itself.
const TIER_MIN_WEIGHT_ELEMS: usize = 64 * 64;

/// Executions of a cached plan before it is promoted: the first replays
/// prove the plan is reused at all before any weight is packed.
pub const TIER_THRESHOLD: u64 = 3;

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
    /// Compiled plans by request identity. Bounded by the number of
    /// distinct (graph, fragment, outputs) requests this interpreter
    /// serves — a handful per worker in practice.
    plans: HashMap<PlanKey, PlanEntry>,
    /// Bumped on every [`Self::bind_param`]; tiered plans remember the
    /// epoch they packed at, so stale packed weights are never used.
    /// (Pointer identity would be unsound here — the buffer pool
    /// recycles storage, so a *new* param value can alias an old
    /// allocation.)
    params_epoch: u64,
}

/// The read-only bindings pure nodes evaluate against; shared with worker
/// threads during level-parallel evaluation (kernels, which are neither
/// `Sync` nor pure, never cross a thread boundary).
struct Bindings<'b> {
    inputs: &'b HashMap<String, Tensor>,
    params: &'b HashMap<String, Tensor>,
    consts: &'b HashMap<NodeId, Tensor>,
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

    /// Binds a parameter by name. Rebinding invalidates any packed
    /// kernel-tier weights; hot plans repack on their next execution.
    pub fn bind_param(&mut self, name: &str, value: Tensor) {
        self.params_epoch += 1;
        self.params.insert(name.to_string(), value);
    }

    /// Evaluates the whole graph; returns every node's value.
    ///
    /// # Errors
    ///
    /// Returns an error on missing bindings/kernels or tensor failures.
    pub fn eval(&mut self, graph: &DataflowGraph) -> Result<Vec<Tensor>> {
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let (mut values, _extra) = self.run(graph, &ids, HashMap::new(), None)?;
        ids.iter().map(|&i| values[i].take().ok_or(FdgError::MissingInput { node: i })).collect()
    }

    /// Evaluates one fragment. `preset` supplies values for entry
    /// boundary nodes (data received over the fragment's entry
    /// interface); returns the values of all evaluated nodes, from which
    /// exit payloads can be read.
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
        let (values, extra) = self.run(graph, &fragment.all_nodes(), preset, None)?;
        let mut out: HashMap<NodeId, Tensor> =
            values.into_iter().enumerate().filter_map(|(id, v)| v.map(|t| (id, t))).collect();
        out.extend(extra);
        Ok(out)
    }

    /// Evaluates one fragment and returns only the requested `outputs`
    /// (typically its exit-interface nodes).
    ///
    /// This is the steady-state execution path: values are refcounted by
    /// remaining consumers, and every tensor that is neither requested
    /// nor needed again is recycled into the [`msrl_tensor::alloc`]
    /// buffer pool the moment its last consumer has run, so repeated
    /// fragment evaluation approaches zero allocations per step.
    ///
    /// # Errors
    ///
    /// Returns an error on missing bindings/kernels, tensor failures, or
    /// if an output id was not evaluated.
    pub fn eval_fragment_outputs(
        &mut self,
        graph: &DataflowGraph,
        fragment: &Fragment,
        preset: HashMap<NodeId, Tensor>,
        outputs: &[NodeId],
    ) -> Result<HashMap<NodeId, Tensor>> {
        let _span = msrl_telemetry::span!("fragment.eval", fragment.id.0);
        let _hist = msrl_telemetry::static_histogram!("fragment.eval").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Eval);
        let (mut values, extra) = self.run(graph, &fragment.all_nodes(), preset, Some(outputs))?;
        let mut out = HashMap::with_capacity(outputs.len());
        for &id in outputs {
            let v =
                values.get_mut(id).and_then(Option::take).ok_or(FdgError::UnknownNode { id })?;
            out.insert(id, v);
        }
        // Whatever survives (dead ends, unconsumed presets) feeds the pool.
        for v in values.into_iter().flatten() {
            v.recycle();
        }
        for (_, v) in extra {
            v.recycle();
        }
        Ok(out)
    }

    /// The evaluation engine behind all public entry points: looks up
    /// (or compiles and caches) the [`CompiledPlan`] for this request,
    /// then replays it. Steady-state evaluation therefore does zero
    /// per-call planning — no topology sort, no consumer counting —
    /// which the always-on `interp.plan_cache.hit` / `.miss` counters
    /// make observable.
    ///
    /// Returns the dense value arena plus any preset entries whose ids
    /// lie outside the graph (kept so callers see presets round-trip).
    /// `retain` switches on consumer refcounting: `Some(keep)` recycles
    /// every value not in `keep` once its last in-set consumer has run.
    fn run(
        &mut self,
        graph: &DataflowGraph,
        ids: &[NodeId],
        preset: HashMap<NodeId, Tensor>,
        retain: Option<&[NodeId]>,
    ) -> Result<RunState> {
        let n = graph.len();
        let mut presets: Vec<NodeId> = preset.keys().copied().collect();
        presets.sort_unstable();
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let key = PlanKey {
            stamp: graph.stamp(),
            ids: sorted,
            presets,
            outputs: retain.map(|outs| {
                let mut v = outs.to_vec();
                v.sort_unstable();
                v.dedup();
                v
            }),
            fusion: par::fusion_enabled(),
        };
        let plan = if let Some(entry) = self.plans.get_mut(&key) {
            msrl_telemetry::static_counter!("interp.plan_cache.hit").add(1);
            entry.execs += 1;
            Rc::clone(&entry.plan)
        } else {
            msrl_telemetry::static_counter!("interp.plan_cache.miss").add(1);
            let p = Rc::new(compile::compile(graph, &key.ids, &key.presets, retain, key.fusion)?);
            self.plans.insert(key.clone(), PlanEntry { plan: Rc::clone(&p), execs: 1 });
            p
        };
        let plan = self.maybe_promote(graph, &key, plan);

        let mut values: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        let mut extra: Vec<(NodeId, Tensor)> = Vec::new();
        for (id, v) in preset {
            if id < n {
                values[id] = Some(v);
            } else {
                extra.push((id, v));
            }
        }
        self.run_plan(graph, &plan, &mut values, &extra)?;
        Ok((values, extra))
    }

    /// Promotion check, run once per evaluation: when the plan is hot
    /// (execution count at [`TIER_THRESHOLD`]) and has no tier data
    /// packed at the current params epoch, pack every qualifying weight
    /// once and swap a tiered clone of the plan into the cache. Qualifying ops are
    /// `MatMul` and fused-linear pure ops whose weight input is a
    /// rank-2 [`OpKind::Param`] of at least [`TIER_MIN_WEIGHT_ELEMS`]
    /// elements. Promotion happens at most once per (plan, epoch):
    /// even a plan with no qualifying weights records empty tier data
    /// so the walk never repeats.
    fn maybe_promote(
        &mut self,
        graph: &DataflowGraph,
        key: &PlanKey,
        plan: Rc<CompiledPlan>,
    ) -> Rc<CompiledPlan> {
        let hot = self.plans.get(key).is_some_and(|e| e.execs >= TIER_THRESHOLD);
        if !hot || plan.tier.as_ref().is_some_and(|t| t.epoch == self.params_epoch) {
            return plan;
        }
        let mut packed = HashMap::new();
        for op in plan.steps.iter().flat_map(|s| match s {
            Step::Pure { levels, .. } => levels.iter().flatten().collect::<Vec<_>>(),
            Step::Macro { .. } => Vec::new(),
        }) {
            let tierable = match &op.op {
                PlanOp::Node(node) => node.kind == OpKind::MatMul,
                PlanOp::LinearAct(_) => true,
                _ => false,
            };
            let Some(&wid) = op.inputs.get(1).filter(|_| tierable) else { continue };
            if packed.contains_key(&wid) {
                continue;
            }
            let Ok(wnode) = graph.node(wid) else { continue };
            let OpKind::Param { name } = &wnode.kind else { continue };
            let Some(w) = self.params.get(name) else { continue };
            let [k, n] = *w.shape() else { continue };
            if k * n >= TIER_MIN_WEIGHT_ELEMS {
                packed.insert(wid, kernels::pack_b(w.data(), k, n));
            }
        }
        let tiered = Rc::new(CompiledPlan {
            tier: Some(TierData { packed, epoch: self.params_epoch }),
            ..(*plan).clone()
        });
        if let Some(entry) = self.plans.get_mut(key) {
            entry.plan = Rc::clone(&tiered);
        }
        msrl_telemetry::static_counter!("interp.tier.promoted").add(1);
        tiered
    }

    /// Replays a compiled plan: macro steps run serially on registered
    /// kernels, pure steps level-parallel through [`Self::exec_pure`].
    fn run_plan(
        &mut self,
        graph: &DataflowGraph,
        plan: &CompiledPlan,
        values: &mut [Option<Tensor>],
        extra: &[(NodeId, Tensor)],
    ) -> Result<()> {
        let mut uses = plan.uses.clone();
        // A stash holds buffers of dead donors until their planned
        // cross-level stealer runs.
        let tier = plan.tier.as_ref();
        let mut stash: HashMap<NodeId, Vec<f32>> = HashMap::new();
        let result = (|| {
            for step in &plan.steps {
                match step {
                    Step::Pure { levels, before_macro } => {
                        let _wait =
                            before_macro.then(|| msrl_telemetry::span!("interp.barrier_wait"));
                        self.exec_pure(
                            levels,
                            values,
                            extra,
                            &mut uses,
                            &plan.keep,
                            &plan.donors,
                            &mut stash,
                            tier,
                        )?;
                    }
                    Step::Macro { id, inputs } => {
                        let node = graph.node(*id)?;
                        let ins = gather(inputs, values, extra)
                            .ok_or(FdgError::MissingInput { node: *id })?;
                        let name = node.kind.name();
                        let kernel = self
                            .kernels
                            .get_mut(name)
                            .ok_or_else(|| FdgError::MissingKernel { op: name.to_string() })?;
                        msrl_telemetry::static_counter!("interp.ops").add(1);
                        if msrl_telemetry::enabled() {
                            msrl_telemetry::counter(&format!("interp.op.{name}"), 1);
                        }
                        let v = {
                            let _macro = msrl_telemetry::span!("interp.macro");
                            kernel(node, &ins)?
                        };
                        values[*id] = Some(v);
                        release(inputs, values, &mut uses, &plan.keep, &plan.donors, &mut stash);
                    }
                }
            }
            Ok(())
        })();
        // Stealers skipped at runtime (parallel level, shape fallback,
        // early error) leave their donation unclaimed: feed the pool.
        for (_, buf) in stash.drain() {
            msrl_tensor::alloc::give(buf);
        }
        result
    }

    /// Executes one pure step's pre-computed levels; a level with enough
    /// independent work runs through `par::map_ranges` (results land in id order
    /// either way, so the two schedules are indistinguishable). Serial
    /// levels honour each op's in-place hint, running fused chains
    /// directly in a dying input's buffer.
    #[allow(clippy::too_many_arguments)]
    fn exec_pure(
        &self,
        levels: &[Vec<ExecOp>],
        values: &mut [Option<Tensor>],
        extra: &[(NodeId, Tensor)],
        uses: &mut [usize],
        keep: &[bool],
        donors: &HashMap<NodeId, NodeId>,
        stash: &mut HashMap<NodeId, Vec<f32>>,
        tier: Option<&TierData>,
    ) -> Result<()> {
        let count: usize = levels.iter().map(Vec::len).sum();
        msrl_telemetry::static_counter!("interp.ops").add(count as u64);
        if msrl_telemetry::enabled() {
            // Per-op-class attribution costs a map walk and a by-name
            // registry add per class, so it only runs under MSRL_TRACE.
            let mut by_class: HashMap<&'static str, u64> = HashMap::new();
            for op in levels.iter().flatten() {
                *by_class.entry(op.op.class()).or_default() += 1;
            }
            for (name, n) in by_class {
                msrl_telemetry::counter(&format!("interp.op.{name}"), n);
            }
        }
        let bind = Bindings { inputs: &self.inputs, params: &self.params, consts: &self.consts };

        for level in levels {
            let work: usize = level.iter().map(|op| op.workload).sum();
            if level.len() > 1 && par::should_parallelize(work, par::PAR_MIN_ELEMS) {
                let mut jobs: Vec<(&ExecOp, Vec<&Tensor>)> = Vec::with_capacity(level.len());
                for op in level {
                    let ins = gather(&op.inputs, values, extra)
                        .ok_or(FdgError::MissingInput { node: op.id })?;
                    jobs.push((op, ins));
                }
                let results: Vec<Result<Tensor>> = par::map_ranges(jobs.len(), |r| {
                    r.map(|j| exec_op(&bind, jobs[j].0, &jobs[j].1, tier)).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
                for (op, res) in level.iter().zip(results) {
                    values[op.id] = Some(res?);
                }
            } else {
                for op in level {
                    let v = self.exec_serial(&bind, op, values, extra, stash, tier)?;
                    values[op.id] = Some(v);
                }
            }
            for op in level {
                release(&op.inputs, values, uses, keep, donors, stash);
            }
        }
        Ok(())
    }

    /// Serial execution of one op, taking the in-place route when the
    /// liveness plan donated an input buffer and it actually matches at
    /// runtime (presets may have unexpected shapes; then we fall back).
    /// Chain ops with no same-level donor may instead claim a stashed
    /// cross-level donation, writing their output straight into it.
    fn exec_serial(
        &self,
        bind: &Bindings<'_>,
        op: &ExecOp,
        values: &mut [Option<Tensor>],
        extra: &[(NodeId, Tensor)],
        stash: &mut HashMap<NodeId, Vec<f32>>,
        tier: Option<&TierData>,
    ) -> Result<Tensor> {
        if let (PlanOp::EwChain(prog), Some(p)) = (&op.op, op.inplace) {
            let donor = op.inputs[p];
            let fits =
                values.get(donor).and_then(Option::as_ref).is_some_and(|t| t.shape() == op.shape);
            if fits && gather(&op.inputs, values, extra).is_some() {
                let own = values[donor].take().expect("donor presence checked above");
                let others: Vec<Option<&Tensor>> = op
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        if k == p {
                            None
                        } else {
                            values
                                .get(i)
                                .and_then(Option::as_ref)
                                .or_else(|| extra.iter().find(|(e, _)| *e == i).map(|(_, v)| v))
                        }
                    })
                    .collect();
                return compile::run_ew_inplace(prog, own, p, &others);
            }
        }
        if let PlanOp::EwChain(prog) = &op.op {
            let vol: usize = op.shape.iter().product();
            if stash.get(&op.id).is_some_and(|b| b.len() == vol) {
                if let Some(ins) = gather(&op.inputs, values, extra) {
                    let data = stash.remove(&op.id).expect("stash presence checked above");
                    return compile::run_ew_into(prog, &ins, &op.shape, data);
                }
            }
        }
        let ins =
            gather(&op.inputs, values, extra).ok_or(FdgError::MissingInput { node: op.id })?;
        exec_op(bind, op, &ins, tier)
    }
}

/// Executes one planned pure op. When tier data carries a packed weight
/// for the op's second input, matmul-family ops dispatch straight to the
/// pre-packed kernels — no packing, no layout decisions per call.
fn exec_op(
    bind: &Bindings<'_>,
    op: &ExecOp,
    ins: &[&Tensor],
    tier: Option<&TierData>,
) -> Result<Tensor> {
    if let Some(bp) = tier.and_then(|t| op.inputs.get(1).and_then(|wid| t.packed.get(wid))) {
        match &op.op {
            PlanOp::Node(node) if node.kind == OpKind::MatMul && ins.len() >= 2 => {
                return Ok(ops::matmul_prepacked(ins[0], bp)?);
            }
            PlanOp::LinearAct(act) if ins.len() >= 3 => {
                return Ok(ops::linear_act_prepacked(ins[0], bp, ins[2], *act)?);
            }
            _ => {}
        }
    }
    match &op.op {
        PlanOp::Node(node) => eval_pure(bind, node, ins),
        PlanOp::LinearAct(act) => {
            if ins.len() < 3 {
                return Err(FdgError::MissingInput { node: op.id });
            }
            Ok(ops::linear_act(ins[0], ins[1], ins[2], *act)?)
        }
        PlanOp::LinearSoftmax => {
            if ins.len() < 3 {
                return Err(FdgError::MissingInput { node: op.id });
            }
            Ok(ops::linear_softmax(ins[0], ins[1], ins[2])?)
        }
        PlanOp::EwChain(prog) => compile::run_ew(prog, ins, &op.shape),
    }
}

/// Collects references to the given input values, from the arena or the
/// out-of-graph presets.
fn gather<'v>(
    inputs: &[NodeId],
    values: &'v [Option<Tensor>],
    extra: &'v [(NodeId, Tensor)],
) -> Option<Vec<&'v Tensor>> {
    inputs
        .iter()
        .map(|&i| {
            values
                .get(i)
                .and_then(Option::as_ref)
                .or_else(|| extra.iter().find(|(id, _)| *id == i).map(|(_, v)| v))
        })
        .collect()
}

/// Drops one consumer reference per input; a value whose count reaches
/// zero and is not marked `keep` goes back to the buffer pool — unless
/// the plan names it a cross-level donor, in which case its buffer is
/// stashed for the stealer op instead of round-tripping the pool.
fn release(
    inputs: &[NodeId],
    values: &mut [Option<Tensor>],
    uses: &mut [usize],
    keep: &[bool],
    donors: &HashMap<NodeId, NodeId>,
    stash: &mut HashMap<NodeId, Vec<f32>>,
) {
    for &i in inputs {
        if i >= uses.len() || uses[i] == 0 {
            continue;
        }
        uses[i] -= 1;
        if uses[i] == 0 && !keep[i] {
            if let Some(t) = values[i].take() {
                if let Some(&stealer) = donors.get(&i) {
                    stash.insert(stealer, t.into_vec());
                } else {
                    t.recycle();
                }
            }
        }
    }
}

/// Evaluates one pure (stateless) node. Called from worker threads during
/// level-parallel evaluation, so it only touches the `Sync` bindings.
fn eval_pure(bind: &Bindings<'_>, node: &OpNode, ins: &[&Tensor]) -> Result<Tensor> {
    let need = |n: usize| -> Result<()> {
        if ins.len() < n {
            Err(FdgError::MissingInput { node: node.id })
        } else {
            Ok(())
        }
    };
    Ok(match &node.kind {
        OpKind::Input { name } => bind
            .inputs
            .get(name)
            .cloned()
            .ok_or(FdgError::MissingKernel { op: format!("Input({name})") })?,
        OpKind::Param { name } => bind
            .params
            .get(name)
            .cloned()
            .ok_or(FdgError::MissingKernel { op: format!("Param({name})") })?,
        OpKind::Const => {
            bind.consts.get(&node.id).cloned().unwrap_or_else(|| Tensor::zeros(&node.shape))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{Collective, FragmentKind};
    use crate::partition::build_fdg;
    use crate::trace::{trace_mlp, TraceCtx};
    use msrl_tensor::Backend;

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

    /// A wide graph of independent branches must produce identical
    /// results whether levels run serially or split over the pool.
    #[test]
    fn level_parallel_matches_serial() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4, 8]);
        // 6 independent unary branches off x, then a reduction of each:
        // every branch sits in the same dependency level.
        let branches = [
            x.relu().sum_all(),
            x.tanh().sum_all(),
            x.square().sum_all(),
            x.sigmoid().sum_all(),
            x.exp().sum_all(),
            x.neg().sum_all(),
        ];
        let graph = ctx.finish();

        let run = || {
            let mut interp = Interpreter::new();
            let xv: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.1).collect();
            interp.bind_input("x", Tensor::from_vec(xv, &[4, 8]).unwrap());
            interp.eval(&graph).unwrap()
        };
        let (serial, threaded) = par::with_threads(4, || {
            par::with_par_min(1, || {
                (par::with_backend(Backend::Scalar, run), par::with_backend(Backend::Threaded, run))
            })
        });
        for b in &branches {
            // sum_all combines per-chunk partials under threading, so the
            // branches agree to rounding rather than bit-for-bit.
            let (s, t) = (serial[b.id()].item().unwrap(), threaded[b.id()].item().unwrap());
            assert!((s - t).abs() <= 1e-5 * (1.0 + s.abs()), "{s} vs {t}");
        }
    }

    /// Macro kernels fire in ascending id order under the threaded
    /// backend too — they are serialisation barriers.
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
        let res = par::with_threads(4, || {
            par::with_par_min(1, || par::with_backend(Backend::Threaded, || interp.eval(&graph)))
        });
        res.unwrap();
        let recorded = order.borrow().clone();
        assert_eq!(recorded.len(), 4, "both EnvStep pairs fire");
        assert!(recorded.windows(2).all(|w| w[0] < w[1]), "ids ascend: {recorded:?}");
        assert!(obs3.id() > obs2.id());
    }

    /// The outputs-only path returns the same answers as full evaluation
    /// and feeds dead intermediates back to the buffer pool.
    #[test]
    fn fragment_outputs_match_and_recycle() {
        let ctx = TraceCtx::new();
        let saved = ctx.enter_component("actor");
        let x = ctx.input("x", &[64]);
        let a = x.relu();
        ctx.annotate(FragmentKind::Action, Collective::SendRecv, &[&a]);
        ctx.exit_component(saved);
        let saved = ctx.enter_component("learner");
        let loss = a.square().square().sum_all();
        ctx.exit_component(saved);
        let fdg = build_fdg(ctx.finish()).unwrap();
        let learner =
            fdg.fragments.iter().find(|f| f.entries.iter().any(|i| i.node == a.id())).unwrap();

        let entry = Tensor::from_vec((0..64).map(|i| i as f32 * 0.01).collect(), &[64]).unwrap();
        let mut interp = Interpreter::new();
        let full = interp
            .eval_fragment(&fdg.graph, learner, HashMap::from([(a.id(), entry.clone())]))
            .unwrap();

        // Unfused path: intermediates are materialised, so the recycler
        // must feed them back to the pool and the second run must hit it.
        par::with_fusion(false, || {
            msrl_tensor::alloc::clear();
            let only = interp
                .eval_fragment_outputs(
                    &fdg.graph,
                    learner,
                    HashMap::from([(a.id(), entry.clone())]),
                    &[loss.id()],
                )
                .unwrap();
            assert_eq!(only.len(), 1);
            assert_eq!(only[&loss.id()], full[&loss.id()]);
            let after_first = msrl_tensor::alloc::stats();
            assert!(after_first.pooled_elems > 0, "dead intermediates must be recycled");

            // A second evaluation is served from the pool.
            let again = interp
                .eval_fragment_outputs(
                    &fdg.graph,
                    learner,
                    HashMap::from([(a.id(), entry.clone())]),
                    &[loss.id()],
                )
                .unwrap();
            assert_eq!(again[&loss.id()], full[&loss.id()]);
            let after_second = msrl_tensor::alloc::stats();
            assert!(after_second.hits > after_first.hits, "second run must reuse buffers");
        });

        // Fused path: the square→square chain runs in place in the entry
        // buffer, so steady-state evaluation allocates nothing new — the
        // pool's miss count stays flat across repeats.
        par::with_fusion(true, || {
            msrl_tensor::alloc::clear();
            let first = interp
                .eval_fragment_outputs(
                    &fdg.graph,
                    learner,
                    HashMap::from([(a.id(), entry.clone())]),
                    &[loss.id()],
                )
                .unwrap();
            assert_eq!(first[&loss.id()], full[&loss.id()]);
            let baseline = msrl_tensor::alloc::stats();
            let again = interp
                .eval_fragment_outputs(
                    &fdg.graph,
                    learner,
                    HashMap::from([(a.id(), entry)]),
                    &[loss.id()],
                )
                .unwrap();
            assert_eq!(again[&loss.id()], full[&loss.id()]);
            let after = msrl_tensor::alloc::stats();
            assert_eq!(after.misses, baseline.misses, "in-place chains must not allocate");
        });
        msrl_tensor::alloc::clear();
    }

    #[test]
    fn cross_level_steal_keeps_dead_buffers_out_of_the_pool() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[16, 16]);
        let w = ctx.param("w", &[16, 16]);
        let p = x.matmul(&w);
        let a = p.square().tanh();
        let b = a.sum_all();
        let y0 = x.tanh();
        let c = y0.mul(&b).tanh();
        let _ = (&p, &b);
        let graph = ctx.finish();
        let fdg = build_fdg(graph).unwrap();
        let frag = &fdg.fragments[0];
        let xv = Tensor::from_vec((0..256).map(|i| (i as f32 * 0.013).sin()).collect(), &[16, 16])
            .unwrap();
        let wv = Tensor::from_vec((0..256).map(|i| (i as f32 * 0.007).cos()).collect(), &[16, 16])
            .unwrap();
        let outputs = [c.id(), y0.id(), x.id(), w.id()];
        let run = |fusion: bool| {
            par::with_fusion(fusion, || {
                let mut interp = Interpreter::new();
                interp.bind_input("x", xv.clone());
                interp.bind_param("w", wv.clone());
                msrl_tensor::alloc::clear();
                let out = interp
                    .eval_fragment_outputs(&fdg.graph, frag, HashMap::new(), &outputs)
                    .unwrap();
                (out, msrl_tensor::alloc::stats().high_water_elems)
            })
        };
        let (plain, plain_hw) = run(false);
        let (fused, fused_hw) = run(true);
        for id in outputs {
            assert_eq!(fused[&id].data(), plain[&id].data(), "steals must not change values");
        }
        // Unfused, every dead 256-element intermediate cycles through
        // the pool. Fused, the a-chain claims p in place and the final
        // chain claims a's buffer across the level boundary, so only
        // scalar scratch ever reaches the free list.
        assert!(plain_hw >= 256, "unfused run must pool dead intermediates, got {plain_hw}");
        assert!(fused_hw < 256, "steals must keep dead buffers out of the pool, got {fused_hw}");
        msrl_tensor::alloc::clear();
    }

    #[test]
    fn donor_chains_carry_one_buffer_through_successive_stealers() {
        // p -> a (in place) -> c (cross-level) -> e (cross-level): the
        // same physical buffer serves three chain outputs, so the pool
        // never sees a single 256-element intermediate even though the
        // unfused schedule cycles three of them through it.
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[16, 16]);
        let w = ctx.param("w", &[16, 16]);
        let p = x.matmul(&w);
        let a = p.square().tanh();
        let b = a.sum_all();
        let y0 = x.tanh();
        let c = y0.mul(&b).tanh();
        let d = c.sum_all();
        let y1 = x.relu();
        let e = y1.mul(&d).tanh();
        let _ = (&p, &b, &d);
        let graph = ctx.finish();
        let fdg = build_fdg(graph).unwrap();
        let frag = &fdg.fragments[0];
        let xv = Tensor::from_vec((0..256).map(|i| (i as f32 * 0.013).sin()).collect(), &[16, 16])
            .unwrap();
        let wv = Tensor::from_vec((0..256).map(|i| (i as f32 * 0.007).cos()).collect(), &[16, 16])
            .unwrap();
        let outputs = [e.id(), y0.id(), y1.id(), x.id(), w.id()];
        let run = |fusion: bool| {
            par::with_fusion(fusion, || {
                let mut interp = Interpreter::new();
                interp.bind_input("x", xv.clone());
                interp.bind_param("w", wv.clone());
                msrl_tensor::alloc::clear();
                let out = interp
                    .eval_fragment_outputs(&fdg.graph, frag, HashMap::new(), &outputs)
                    .unwrap();
                (out, msrl_tensor::alloc::stats().high_water_elems)
            })
        };
        let (plain, plain_hw) = run(false);
        let (fused, fused_hw) = run(true);
        for id in outputs {
            assert_eq!(
                fused[&id].data(),
                plain[&id].data(),
                "chained steals must not change values"
            );
        }
        assert!(plain_hw >= 256, "unfused run must pool dead intermediates, got {plain_hw}");
        assert!(
            fused_hw < 256,
            "a chained steal must keep every hop out of the pool, got {fused_hw}"
        );
        msrl_tensor::alloc::clear();
    }

    #[test]
    fn tier_promotes_hot_plans_once_and_repacks_on_rebind() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4, 64]);
        let w = ctx.param("w", &[64, 64]);
        let y = x.matmul(&w);
        let graph = ctx.finish();
        let fdg = build_fdg(graph).unwrap();
        let frag = &fdg.fragments[0];
        let xv = Tensor::from_vec((0..256).map(|i| (i as f32 * 0.011).sin()).collect(), &[4, 64])
            .unwrap();
        let wv = Tensor::from_vec((0..4096).map(|i| (i as f32 * 0.003).cos()).collect(), &[64, 64])
            .unwrap();
        let mut interp = Interpreter::new();
        interp.bind_input("x", xv.clone());
        interp.bind_param("w", wv.clone());
        let tier_state = |interp: &Interpreter| {
            let entry = interp.plans.values().next().expect("one cached plan");
            (entry.execs, entry.plan.tier.as_ref().map(|t| (t.packed.len(), t.epoch)))
        };
        // The oracle is the naive loop, not another interpreter mode.
        let naive = |w: &Tensor| msrl_tensor::reference::matmul(xv.data(), w.data(), 4, 64, 64);
        let eval = |interp: &mut Interpreter| {
            let mut out =
                interp.eval_fragment_outputs(&fdg.graph, frag, HashMap::new(), &[y.id()]).unwrap();
            out.remove(&y.id()).expect("requested output")
        };
        for i in 1..TIER_THRESHOLD {
            assert_eq!(eval(&mut interp).data(), naive(&wv), "unpromoted must be bitwise");
            assert_eq!(tier_state(&interp), (i, None), "below the threshold: no packing");
        }
        // The next execution crosses the threshold: the weight packs
        // once and the tiered plan swaps into the cache.
        assert_eq!(eval(&mut interp).data(), naive(&wv), "promoted must be bitwise");
        let (execs, tier) = tier_state(&interp);
        assert_eq!(execs, TIER_THRESHOLD);
        let (packed, epoch) = tier.expect("hot plan promoted");
        assert_eq!(packed, 1, "exactly the weight operand packs");
        // Steady state: further hot evaluations never repack.
        for _ in 0..5 {
            assert_eq!(eval(&mut interp).data(), naive(&wv));
            assert_eq!(tier_state(&interp).1, Some((1, epoch)), "steady state repacked");
        }
        // Rebinding a parameter bumps the epoch: the next hot
        // evaluation repacks exactly once against the new weights.
        let wv2 = Tensor::full(&[64, 64], 0.02);
        interp.bind_param("w", wv2.clone());
        assert_eq!(eval(&mut interp).data(), naive(&wv2), "repack must be bitwise");
        let (_, tier) = tier_state(&interp);
        let (packed2, epoch2) = tier.expect("still promoted");
        assert_eq!(packed2, 1);
        assert_ne!(epoch2, epoch, "rebind must bump the pack epoch");
    }
}
