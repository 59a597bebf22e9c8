//! Graph compiler: cached execution plans, operator fusion, and
//! liveness-planned buffers.
//!
//! The original system compiles each fragment's operator graph once with
//! the DL engine and then replays the compiled artefact every iteration
//! (§5.2). This module is that compilation step for msrl-rs:
//! [`compile`] turns one evaluation request — a graph, the node set to
//! evaluate, the preset (entry) ids, and the requested outputs — into a
//! [`CompiledPlan`] that the interpreter caches per
//! [`DataflowGraph::stamp`] and replays with zero per-call planning.
//!
//! A plan holds the macro-op barrier schedule, the pure stretches
//! pre-grouped into dependency levels, consumer refcounts for buffer
//! recycling, and the results of the optimization passes:
//!
//! 1. **Common-subexpression elimination** — pure nodes with identical
//!    `(kind, resolved inputs)` evaluate once; duplicates either
//!    disappear or degrade to `Identity` when their value is retained.
//! 2. **Linear fusion** — `MatMul → Add(bias) → activation` (and the
//!    bare `MatMul → Add(bias)`) patterns lower to the fused
//!    [`msrl_tensor::ops::linear_act`] kernel: one output buffer and one
//!    memory pass instead of three. The fused kernel reuses the exact
//!    matmul inner loops, so results are bit-identical. The policy
//!    head's `MatMul → Add(bias) → Softmax` tail lowers the same way to
//!    [`msrl_tensor::ops::linear_softmax`].
//! 3. **Elementwise-chain fusion** — straight-line runs of elementwise
//!    ops (e.g. `Mul → Add → Tanh`) compile to a small register program
//!    ([`EwProgram`]) executed [`EW_LANE`] elements per instruction
//!    dispatch. Per-element scalar arithmetic is copied verbatim from
//!    `msrl_tensor::ops` and lanes are independent, so fused chains are
//!    bit-identical too.
//! 4. **Dead-node elimination** — nodes that cannot reach a requested
//!    output or a stateful macro op are dropped (outputs mode only).
//! 5. **Liveness-planned buffers** — in outputs mode the plan marks
//!    chain ops whose first dying input can donate its buffer; the
//!    interpreter then runs the chain in place, skipping the
//!    [`msrl_tensor::alloc`] pool round-trip entirely. Chain ops with
//!    no in-level donor may instead steal the buffer of a node that
//!    died at an earlier level ([`CompiledPlan::donors`]); because a
//!    stealer's output is itself an ordinary dying node, donations
//!    chain — one physical buffer flows a→b→c through successive
//!    stealers, most-recent death offered first.
//!
//! All passes are gated on the fusion flag
//! ([`msrl_tensor::par::ExecCtx::fusion`]): with fusion off the plan reproduces the uncompiled interpreter's schedule
//! exactly, op for op. Because fusion may elide dead computation, a
//! *dead* node's missing binding no longer errors under fusion — live
//! behaviour is unchanged.
//!
//! Compile-time totals land on the always-on counters `compile.plans`,
//! `compile.cse`, `compile.fused_linear`, `compile.fused_softmax`,
//! `compile.fused_ew` and `compile.dce`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use msrl_tensor::fastmath::{self, Unary};
use msrl_tensor::{ops, par, Tensor};

use crate::graph::{DataflowGraph, NodeId, OpKind, OpNode};
use crate::{FdgError, Result};

/// `u` of one value through [`fastmath::apply_slice`], whose scalar edge
/// runs in a feature-enabled body: spelled `fast_tanh(v)` here, each
/// fused polynomial step would be a libm `fmaf` call. The same bits.
fn transcendental(u: Unary, v: f32) -> f32 {
    let mut v = [v];
    fastmath::apply_slice(u, &mut v);
    v[0]
}

/// Where one elementwise instruction reads an operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EwSrc {
    /// The `k`-th external input of the fused chain.
    Ext(usize),
    /// The result of instruction `r` of the same program.
    Reg(usize),
}

/// One instruction of a fused elementwise program. The scalar semantics
/// of every variant are copied verbatim from `msrl_tensor::ops`, which
/// is what makes fused chains bit-identical to the unfused ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EwInst {
    /// `a + b`.
    Add(EwSrc, EwSrc),
    /// `a - b`.
    Sub(EwSrc, EwSrc),
    /// `a * b`.
    Mul(EwSrc, EwSrc),
    /// `a / b`.
    Div(EwSrc, EwSrc),
    /// `v.max(0.0)`.
    Relu(EwSrc),
    /// `fast_tanh(v)`.
    Tanh(EwSrc),
    /// `fast_sigmoid(v)`.
    Sigmoid(EwSrc),
    /// `fast_exp(v)`.
    Exp(EwSrc),
    /// `v.max(MIN_POSITIVE).ln()`.
    Ln(EwSrc),
    /// `v * v`.
    Square(EwSrc),
    /// `-v`.
    Neg(EwSrc),
    /// `v.clamp(lo, hi)`.
    Clamp(EwSrc, f32, f32),
}

/// A fused elementwise chain: a straight-line register program applied
/// independently at every element of the output.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EwProgram {
    pub(crate) insts: Vec<EwInst>,
}

impl EwProgram {
    /// Evaluates the program at linear index `idx`. `regs` is scratch of
    /// `insts.len()` slots; `srcs`/`strides` describe the external
    /// inputs (stride 0 = scalar broadcast).
    #[inline]
    fn eval_at(&self, srcs: &[&[f32]], strides: &[usize], idx: usize, regs: &mut [f32]) -> f32 {
        for (r, inst) in self.insts.iter().enumerate() {
            let ld = |s: EwSrc, regs: &[f32]| match s {
                EwSrc::Ext(k) => srcs[k][idx * strides[k]],
                EwSrc::Reg(p) => regs[p],
            };
            regs[r] = match *inst {
                EwInst::Add(a, b) => ld(a, regs) + ld(b, regs),
                EwInst::Sub(a, b) => ld(a, regs) - ld(b, regs),
                EwInst::Mul(a, b) => ld(a, regs) * ld(b, regs),
                EwInst::Div(a, b) => ld(a, regs) / ld(b, regs),
                EwInst::Relu(a) => ld(a, regs).max(0.0),
                EwInst::Tanh(a) => transcendental(Unary::Tanh, ld(a, regs)),
                EwInst::Sigmoid(a) => transcendental(Unary::Sigmoid, ld(a, regs)),
                EwInst::Exp(a) => transcendental(Unary::Exp, ld(a, regs)),
                EwInst::Ln(a) => ld(a, regs).max(f32::MIN_POSITIVE).ln(),
                EwInst::Square(a) => {
                    let v = ld(a, regs);
                    v * v
                }
                EwInst::Neg(a) => -ld(a, regs),
                EwInst::Clamp(a, lo, hi) => ld(a, regs).clamp(lo, hi),
            };
        }
        regs[self.insts.len() - 1]
    }

    /// Evaluates the program for [`EW_LANE`] consecutive elements
    /// starting at `base`, leaving each instruction's lane of results in
    /// `regs` (the output is the last instruction's lane).
    ///
    /// Instruction-outer / lane-inner order performs, for each element,
    /// exactly the scalar sequence [`EwProgram::eval_at`] performs —
    /// elements are independent, so interleaving them cannot change any
    /// element's own operation order, and results stay bit-identical.
    /// What it removes is the per-element instruction dispatch: each
    /// instruction decodes once per lane, and the fixed-bound inner
    /// loops unroll/vectorize. `self_ext` substitutes a pre-loaded lane
    /// for one external slot (the in-place executor's own buffer, read
    /// before overwrite).
    #[inline]
    fn eval_lane(
        &self,
        srcs: &[&[f32]],
        strides: &[usize],
        base: usize,
        self_ext: Option<(usize, &[f32; EW_LANE])>,
        regs: &mut [[f32; EW_LANE]],
    ) {
        for r in 0..self.insts.len() {
            // Register programs are SSA: instruction `r` only reads
            // registers `< r`, so the split borrows are disjoint.
            let (done, rest) = regs.split_at_mut(r);
            let dst = &mut rest[0];
            let ld = |s: EwSrc, l: usize, done: &[[f32; EW_LANE]]| match s {
                EwSrc::Ext(k) => match self_ext {
                    Some((sp, lane)) if k == sp => lane[l],
                    _ => srcs[k][(base + l) * strides[k]],
                },
                EwSrc::Reg(p) => done[p][l],
            };
            macro_rules! lanes {
                ($l:ident => $e:expr) => {
                    for $l in 0..EW_LANE {
                        dst[$l] = $e;
                    }
                };
            }
            match self.insts[r] {
                EwInst::Add(a, b) => lanes!(l => ld(a, l, done) + ld(b, l, done)),
                EwInst::Sub(a, b) => lanes!(l => ld(a, l, done) - ld(b, l, done)),
                EwInst::Mul(a, b) => lanes!(l => ld(a, l, done) * ld(b, l, done)),
                EwInst::Div(a, b) => lanes!(l => ld(a, l, done) / ld(b, l, done)),
                EwInst::Relu(a) => lanes!(l => ld(a, l, done).max(0.0)),
                EwInst::Tanh(a) => {
                    lanes!(l => ld(a, l, done));
                    fastmath::apply_slice(Unary::Tanh, dst);
                }
                EwInst::Sigmoid(a) => {
                    lanes!(l => ld(a, l, done));
                    fastmath::apply_slice(Unary::Sigmoid, dst);
                }
                EwInst::Exp(a) => {
                    lanes!(l => ld(a, l, done));
                    fastmath::apply_slice(Unary::Exp, dst);
                }
                EwInst::Ln(a) => lanes!(l => ld(a, l, done).max(f32::MIN_POSITIVE).ln()),
                EwInst::Square(a) => lanes!(l => {
                    let v = ld(a, l, done);
                    v * v
                }),
                EwInst::Neg(a) => lanes!(l => -ld(a, l, done)),
                EwInst::Clamp(a, lo, hi) => lanes!(l => ld(a, l, done).clamp(lo, hi)),
            }
        }
    }
}

/// Lane width of the chunked elementwise executor: each instruction
/// dispatch covers this many consecutive output elements. 16 is the
/// widest [`fastmath::apply_slice`] vector, so a transcendental
/// instruction's lane is whole vectors on every family and never its
/// scalar edge.
pub(crate) const EW_LANE: usize = 16;

/// What one planned pure op executes as.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanOp {
    /// An unfused node, evaluated exactly as the uncompiled interpreter
    /// would.
    Node(OpNode),
    /// A fused `MatMul + bias + activation`; inputs are `[x, w, b]`.
    LinearAct(ops::Act),
    /// A fused policy head `softmax_rows(x·w + b)`; inputs are
    /// `[x, w, b]`.
    LinearSoftmax,
    /// A fused elementwise chain.
    EwChain(EwProgram),
}

impl PlanOp {
    /// Telemetry class label for per-op-class counters.
    pub(crate) fn class(&self) -> &'static str {
        match self {
            PlanOp::Node(node) => node.kind.name(),
            PlanOp::LinearAct(_) => "FusedLinear",
            PlanOp::LinearSoftmax => "FusedLinearSoftmax",
            PlanOp::EwChain(_) => "FusedEw",
        }
    }
}

/// One schedulable pure op of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExecOp {
    /// The node id whose arena slot receives the result.
    pub(crate) id: NodeId,
    /// What to execute.
    pub(crate) op: PlanOp,
    /// Input node ids after rewriting by the passes.
    pub(crate) inputs: Vec<NodeId>,
    /// Static output shape.
    pub(crate) shape: Vec<usize>,
    /// Element count (min 1), for the parallelism heuristic.
    pub(crate) workload: usize,
    /// Input position whose buffer this op may steal (chain ops only):
    /// proven by liveness to die here, with exactly matching shape.
    pub(crate) inplace: Option<usize>,
}

/// One step of the barrier schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    /// A stretch of pure ops, pre-grouped into dependency levels.
    Pure {
        /// Ops by level; every input of a level-`l` op was produced at a
        /// level `< l` or before this step.
        levels: Vec<Vec<ExecOp>>,
        /// Whether a macro op follows (the uncompiled interpreter wraps
        /// such flushes in an `interp.barrier_wait` span).
        before_macro: bool,
    },
    /// A stateful macro op; always a serialisation barrier.
    Macro {
        /// The macro node.
        id: NodeId,
        /// Its inputs after rewriting.
        inputs: Vec<NodeId>,
    },
}

/// What the optimization passes did to one plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Duplicate pure nodes merged by common-subexpression elimination.
    pub cse_merged: usize,
    /// `MatMul(+Add)(+activation)` patterns lowered to the fused kernel.
    pub fused_linear: usize,
    /// `MatMul → Add(bias) → Softmax` policy heads lowered to the fused
    /// [`msrl_tensor::ops::linear_softmax`] kernel.
    pub fused_softmax: usize,
    /// Elementwise nodes absorbed into fused chains.
    pub fused_ew: usize,
    /// Nodes removed as dead (unable to reach an output or macro op).
    pub dce_removed: usize,
    /// Ops the plan executes per evaluation (macro + pure).
    pub ops: usize,
}

/// A compiled, replayable execution plan for one evaluation request.
///
/// Built once by [`compile`] and cached by the interpreter keyed on
/// [`DataflowGraph::stamp`] plus the request parameters; replaying it
/// does no topology sorting, no consumer counting and no pass work.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    pub(crate) steps: Vec<Step>,
    /// Per-node remaining-consumer counts (all zero in keep-all mode).
    pub(crate) uses: Vec<usize>,
    /// Per-node retain flags (true everywhere in keep-all mode).
    pub(crate) keep: Vec<bool>,
    /// Cross-level buffer steals: dying node → the EwChain op (by id)
    /// that reuses its buffer as the output, skipping the pool
    /// round-trip. Planned statically from the schedule; the serial
    /// executor stashes the donor at release and the stealer claims it.
    pub(crate) donors: HashMap<NodeId, NodeId>,
    /// Kernel-tier data the interpreter attaches when it promotes a hot
    /// plan: weights packed once for the register-tiled microkernels.
    /// `None` until promotion; [`compile`] always produces `None`.
    pub(crate) tier: Option<TierData>,
    /// What the passes did.
    pub stats: PlanStats,
}

/// Pre-packed operands for a tiered-up hot plan (see
/// [`crate::interp::Interpreter`]): the packed right-hand sides of the
/// plan's `MatMul` / fused-linear ops whose weight input is a `Param`,
/// keyed by that input's node id.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierData {
    /// Packed weight per weight-input node id.
    pub(crate) packed: HashMap<NodeId, msrl_tensor::kernels::PackedB>,
    /// The interpreter's params epoch at packing time; a later
    /// `bind_param` bumps the epoch and forces a repack on next
    /// promotion check.
    pub(crate) epoch: u64,
}

/// True for ops whose output element `i` depends only on element `i`
/// (after broadcast) of each input — the fusable elementwise set.
fn is_elementwise(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Relu
            | OpKind::Tanh
            | OpKind::Sigmoid
            | OpKind::Exp
            | OpKind::Ln
            | OpKind::Square
            | OpKind::Neg
            | OpKind::Clamp { .. }
    )
}

/// Required input count for a fusable elementwise op.
fn ew_arity(kind: &OpKind) -> usize {
    match kind {
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => 2,
        _ => 1,
    }
}

/// The fused-activation equivalent of an activation node kind.
fn act_of(kind: &OpKind) -> Option<ops::Act> {
    match kind {
        OpKind::Relu => Some(ops::Act::Relu),
        OpKind::Tanh => Some(ops::Act::Tanh),
        OpKind::Sigmoid => Some(ops::Act::Sigmoid),
        _ => None,
    }
}

/// Whether node `i` may feed a fused chain of shape `shape` as an
/// external: either exactly that shape, or a one-element broadcast.
fn ext_ok(graph: &DataflowGraph, i: NodeId, shape: &[usize]) -> bool {
    match graph.node(i) {
        Ok(nd) => {
            nd.shape == shape
                || (nd.shape.iter().product::<usize>() == 1 && nd.shape.len() <= shape.len())
        }
        Err(_) => false,
    }
}

/// Upper bound on fused-chain length; beyond this the register program's
/// scratch outgrows any realistic win.
const MAX_CHAIN: usize = 16;

/// Compiles one evaluation request into a replayable plan.
///
/// `ids` is the node set to evaluate, `preset_ids` the ids whose values
/// the caller supplies (fragment entries), and `outputs` switches
/// retain mode: `None` keeps every value (whole-graph / full-fragment
/// evaluation), `Some(outs)` keeps only `outs` and plans consumer
/// refcounts so everything else recycles. `fusion` gates every
/// optimization pass; with it off the plan replays the unoptimized
/// schedule exactly.
///
/// # Errors
///
/// Returns [`FdgError::UnknownNode`] when `ids` references a node that
/// is neither in the graph nor preset.
pub fn compile(
    graph: &DataflowGraph,
    ids: &[NodeId],
    preset_ids: &[NodeId],
    outputs: Option<&[NodeId]>,
    fusion: bool,
) -> Result<CompiledPlan> {
    let n = graph.len();
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    // Out-of-graph ids are legal only as presets (mirrors the
    // uncompiled interpreter, which fails the same way on first use).
    if let Some(&id) = sorted.iter().find(|&&id| id >= n && !preset_ids.contains(&id)) {
        return Err(FdgError::UnknownNode { id });
    }
    let todo: Vec<NodeId> =
        sorted.into_iter().filter(|&id| id < n && !preset_ids.contains(&id)).collect();

    let keep_all = outputs.is_none();
    let mut keep = vec![keep_all; n];
    if let Some(outs) = outputs {
        for &id in outs {
            if id < n {
                keep[id] = true;
            }
        }
    }

    let mut in_set = vec![false; n];
    let mut alive = vec![false; n];
    let mut inputs_of: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut batch_of = vec![0usize; n];
    let mut batch = 0usize;
    for &id in &todo {
        let node = graph.node(id)?;
        in_set[id] = true;
        alive[id] = true;
        inputs_of[id] = node.inputs.clone();
        if node.kind.is_macro() {
            batch += 1;
            batch_of[id] = batch;
            batch += 1;
        } else {
            batch_of[id] = batch;
        }
    }

    let mut lowered: Vec<Option<PlanOp>> = (0..n).map(|_| None).collect();
    let mut stats = PlanStats::default();

    if fusion {
        cse_pass(graph, &todo, &mut inputs_of, &mut alive, &mut lowered, &keep, &mut stats)?;
        linear_pass(
            graph,
            &todo,
            &mut inputs_of,
            &mut alive,
            &mut lowered,
            &keep,
            &in_set,
            &batch_of,
            &mut stats,
        )?;
        ew_chain_pass(
            graph,
            &todo,
            &mut inputs_of,
            &mut alive,
            &mut lowered,
            &keep,
            &in_set,
            &batch_of,
            &mut stats,
        )?;
        if !keep_all {
            dce_pass(graph, &todo, &inputs_of, &mut alive, &keep, &mut stats)?;
        }
    }

    // Consumer refcounts over the *final* edges; the uncompiled
    // interpreter only counts (and therefore only recycles) in retain
    // mode, and the plan matches that.
    let mut uses = vec![0usize; n];
    if !keep_all {
        for &id in &todo {
            if !alive[id] {
                continue;
            }
            for &i in &inputs_of[id] {
                if i < n {
                    uses[i] += 1;
                }
            }
        }
    }

    // Barrier schedule: pure stretches level-grouped, macros serial.
    let mut steps: Vec<Step> = Vec::new();
    let mut pure: Vec<NodeId> = Vec::new();
    for &id in &todo {
        if !alive[id] {
            continue;
        }
        if graph.node(id)?.kind.is_macro() {
            if !pure.is_empty() {
                let levels = levelize(graph, &pure, &inputs_of, &mut lowered)?;
                steps.push(Step::Pure { levels, before_macro: true });
                pure.clear();
            }
            steps.push(Step::Macro { id, inputs: inputs_of[id].clone() });
            stats.ops += 1;
        } else {
            pure.push(id);
        }
    }
    if !pure.is_empty() {
        let levels = levelize(graph, &pure, &inputs_of, &mut lowered)?;
        steps.push(Step::Pure { levels, before_macro: false });
    }
    for step in &steps {
        if let Step::Pure { levels, .. } = step {
            stats.ops += levels.iter().map(Vec::len).sum::<usize>();
        }
    }

    // Liveness-planned buffers: a chain op may steal the buffer of its
    // first input that (a) dies at this op (sole remaining consumer,
    // not retained) and (b) has exactly the output's shape. Only
    // meaningful in retain mode — with uses all zero nothing matches.
    if fusion {
        for step in &mut steps {
            let Step::Pure { levels, .. } = step else { continue };
            for op in levels.iter_mut().flatten() {
                if !matches!(op.op, PlanOp::EwChain(_)) {
                    continue;
                }
                op.inplace = op.inputs.iter().position(|&i| {
                    i < n
                        && uses[i] == 1
                        && !keep[i]
                        && graph.node(i).map(|nd| nd.shape == op.shape).unwrap_or(false)
                });
            }
        }
    }

    // Cross-level buffer steals: an EwChain op with no in-level donor
    // may instead reuse the buffer of a node that died at an *earlier*
    // level (or before an earlier macro barrier) with exactly its
    // volume. Times are level-granular, and only strictly-earlier
    // deaths qualify, so the donor's buffer is provably free when the
    // stealer runs — its own inputs (which die *at* the op) never
    // match. The proof extends to chains by induction: a stealer's
    // output lives in its donor's buffer, and because that output is
    // an ordinary dying node it re-enters the death map and may be
    // donated onward once it dies — again strictly before its own
    // stealer's level. One physical buffer thus flows a→b→c through
    // successive stealers, each hop justified by the same
    // strictly-earlier-death argument, with no hop limit.
    let mut donors: HashMap<NodeId, NodeId> = HashMap::new();
    if fusion && !keep_all {
        let mut death: HashMap<NodeId, usize> = HashMap::new();
        let mut t = 0usize;
        for step in &steps {
            match step {
                Step::Pure { levels, .. } => {
                    for level in levels {
                        t += 1;
                        for op in level {
                            for &i in &op.inputs {
                                if i < n && !keep[i] && uses[i] > 0 {
                                    let slot = death.entry(i).or_insert(t);
                                    *slot = (*slot).max(t);
                                }
                            }
                        }
                    }
                }
                Step::Macro { inputs, .. } => {
                    t += 1;
                    for &i in inputs {
                        if i < n && !keep[i] && uses[i] > 0 {
                            let slot = death.entry(i).or_insert(t);
                            *slot = (*slot).max(t);
                        }
                    }
                }
            }
        }
        // An input consumed by an in-place chain never reaches the
        // release path — its buffer becomes the chain's output — so it
        // must not be offered as a cross-level donor.
        for step in &steps {
            let Step::Pure { levels, .. } = step else { continue };
            for op in levels.iter().flatten() {
                if let Some(&i) = op.inplace.and_then(|p| op.inputs.get(p)) {
                    death.remove(&i);
                }
            }
        }
        // Deterministic candidate order (HashMap iteration is not):
        // most recent death first, node id breaking ties. A stealer
        // then prefers the buffer that just went cold — usually the
        // previous stealer's output, so chains keep riding one
        // cache-warm buffer instead of resurrecting one that died (and
        // was evicted) many levels ago.
        let mut dying: Vec<(NodeId, usize)> = death.into_iter().collect();
        dying.sort_unstable_by_key(|&(d, dt)| (std::cmp::Reverse(dt), d));
        let mut t = 0usize;
        for step in &steps {
            let Step::Pure { levels, .. } = step else {
                t += 1;
                continue;
            };
            for level in levels {
                t += 1;
                for op in level {
                    if !matches!(op.op, PlanOp::EwChain(_)) || op.inplace.is_some() {
                        continue;
                    }
                    let vol: usize = op.shape.iter().product();
                    if vol == 0 {
                        continue;
                    }
                    let donor = dying.iter().find(|&&(d, dt)| {
                        dt < t
                            && !donors.contains_key(&d)
                            && graph
                                .node(d)
                                .map(|nd| nd.shape.iter().product::<usize>() == vol)
                                .unwrap_or(false)
                    });
                    if let Some(&(d, _)) = donor {
                        donors.insert(d, op.id);
                    }
                }
            }
        }
    }

    msrl_telemetry::static_counter!("compile.plans").add(1);
    msrl_telemetry::static_counter!("compile.cse").add(stats.cse_merged as u64);
    msrl_telemetry::static_counter!("compile.fused_linear").add(stats.fused_linear as u64);
    msrl_telemetry::static_counter!("compile.fused_softmax").add(stats.fused_softmax as u64);
    msrl_telemetry::static_counter!("compile.fused_ew").add(stats.fused_ew as u64);
    msrl_telemetry::static_counter!("compile.dce").add(stats.dce_removed as u64);

    Ok(CompiledPlan { steps, uses, keep, donors, tier: None, stats })
}

/// Common-subexpression elimination. Inputs of *every* node (macros
/// included) are resolved through the redirect map; duplicate pure
/// nodes then either die or, when retained, degrade to `Identity`.
fn cse_pass(
    graph: &DataflowGraph,
    todo: &[NodeId],
    inputs_of: &mut [Vec<NodeId>],
    alive: &mut [bool],
    lowered: &mut [Option<PlanOp>],
    keep: &[bool],
    stats: &mut PlanStats,
) -> Result<()> {
    let mut redirect: HashMap<NodeId, NodeId> = HashMap::new();
    let mut seen: HashMap<(String, Vec<NodeId>), NodeId> = HashMap::new();
    for &id in todo {
        for i in inputs_of[id].iter_mut() {
            if let Some(&r) = redirect.get(i) {
                *i = r;
            }
        }
        let node = graph.node(id)?;
        // Macros are stateful (never mergeable); Const values live in a
        // side table keyed by id, so two Const nodes are not equal.
        if node.kind.is_macro() || matches!(node.kind, OpKind::Const) {
            continue;
        }
        let key = (format!("{:?}", node.kind), inputs_of[id].clone());
        match seen.entry(key) {
            Entry::Occupied(e) => {
                let rep = *e.get();
                stats.cse_merged += 1;
                redirect.insert(id, rep);
                if keep[id] {
                    // The caller wants this slot populated: alias it.
                    lowered[id] = Some(PlanOp::Node(OpNode {
                        id,
                        kind: OpKind::Identity,
                        inputs: vec![rep],
                        shape: node.shape.clone(),
                        device_req: node.device_req,
                        component: node.component.clone(),
                    }));
                    inputs_of[id] = vec![rep];
                } else {
                    alive[id] = false;
                    inputs_of[id].clear();
                }
            }
            Entry::Vacant(e) => {
                e.insert(id);
            }
        }
    }
    Ok(())
}

/// Rebuilds consumer lists over the current (post-pass) edges of alive
/// nodes.
fn build_cons(
    todo: &[NodeId],
    inputs_of: &[Vec<NodeId>],
    alive: &[bool],
    n: usize,
) -> Vec<Vec<NodeId>> {
    let mut cons: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &id in todo {
        if !alive[id] {
            continue;
        }
        for &i in &inputs_of[id] {
            if i < n {
                cons[i].push(id);
            }
        }
    }
    cons
}

/// Lowers `MatMul → Add(bias) → activation` and bare `MatMul → Add(bias)`
/// patterns to [`PlanOp::LinearAct`].
#[allow(clippy::too_many_arguments)]
fn linear_pass(
    graph: &DataflowGraph,
    todo: &[NodeId],
    inputs_of: &mut [Vec<NodeId>],
    alive: &mut [bool],
    lowered: &mut [Option<PlanOp>],
    keep: &[bool],
    in_set: &[bool],
    batch_of: &[usize],
    stats: &mut PlanStats,
) -> Result<()> {
    let n = graph.len();
    let mut cons = build_cons(todo, inputs_of, alive, n);

    // A MatMul is absorbable into a consumer `user` when it is interior:
    // same batch, not retained, and `user` its only consumer.
    let mm_ok = |m: NodeId,
                 user: NodeId,
                 alive: &[bool],
                 lowered: &[Option<PlanOp>],
                 inputs_of: &[Vec<NodeId>],
                 cons: &[Vec<NodeId>]|
     -> bool {
        m < n
            && in_set[m]
            && alive[m]
            && lowered[m].is_none()
            && !keep[m]
            && cons[m].len() == 1
            && cons[m][0] == user
            && batch_of[m] == batch_of[user]
            && graph
                .node(m)
                .map(|nd| nd.kind == OpKind::MatMul && nd.shape.len() == 2)
                .unwrap_or(false)
            && inputs_of[m].len() == 2
    };
    // The bias must be rank-1 of the matmul's column count, so the fused
    // kernel's row epilogue matches the broadcast `Add` exactly.
    let bias_ok = |b: NodeId, m: NodeId| -> bool {
        match (graph.node(b), graph.node(m)) {
            (Ok(bn), Ok(mn)) => {
                bn.shape.len() == 1 && mn.shape.len() == 2 && bn.shape[0] == mn.shape[1]
            }
            _ => false,
        }
    };

    // Pass A: tail-anchored — MatMul → Add → Relu/Tanh/Sigmoid lowers to
    // the fused linear kernel, MatMul → Add → Softmax (the policy head)
    // to the fused linear-softmax kernel.
    for &act_id in todo {
        if !alive[act_id] || lowered[act_id].is_some() {
            continue;
        }
        let anchor_kind = graph.node(act_id)?.kind.clone();
        let softmax = anchor_kind == OpKind::Softmax;
        let act = act_of(&anchor_kind);
        if act.is_none() && !softmax {
            continue;
        }
        if inputs_of[act_id].len() != 1 {
            continue;
        }
        let d = inputs_of[act_id][0];
        let add_ok = d < n
            && in_set[d]
            && alive[d]
            && lowered[d].is_none()
            && !keep[d]
            && cons[d].len() == 1
            && cons[d][0] == act_id
            && batch_of[d] == batch_of[act_id]
            && graph.node(d)?.kind == OpKind::Add
            && inputs_of[d].len() == 2;
        if !add_ok {
            continue;
        }
        let (a0, a1) = (inputs_of[d][0], inputs_of[d][1]);
        // Addition commutes bitwise, so Add(m, b) and Add(b, m) both fuse.
        let pick = if mm_ok(a0, d, alive, lowered, inputs_of, &cons) && bias_ok(a1, a0) {
            Some((a0, a1))
        } else if mm_ok(a1, d, alive, lowered, inputs_of, &cons) && bias_ok(a0, a1) {
            Some((a1, a0))
        } else {
            None
        };
        let Some((m, b)) = pick else { continue };
        let (x, w) = (inputs_of[m][0], inputs_of[m][1]);
        if softmax {
            lowered[act_id] = Some(PlanOp::LinearSoftmax);
            stats.fused_softmax += 1;
        } else {
            lowered[act_id] = Some(PlanOp::LinearAct(act.expect("anchor is an activation")));
            stats.fused_linear += 1;
        }
        inputs_of[act_id] = vec![x, w, b];
        alive[d] = false;
        alive[m] = false;
        inputs_of[d].clear();
        inputs_of[m].clear();
        // Keep `cons` exact so a later pattern never matches through a
        // node this fusion already consumed.
        for c in cons[x].iter_mut() {
            if *c == m {
                *c = act_id;
            }
        }
        for c in cons[w].iter_mut() {
            if *c == m {
                *c = act_id;
            }
        }
        for c in cons[b].iter_mut() {
            if *c == d {
                *c = act_id;
            }
        }
        cons[m].clear();
        cons[d].clear();
    }

    // Pass B: bare MatMul → Add(bias), fused with a linear epilogue.
    for &add_id in todo {
        if !alive[add_id] || lowered[add_id].is_some() {
            continue;
        }
        if graph.node(add_id)?.kind != OpKind::Add || inputs_of[add_id].len() != 2 {
            continue;
        }
        let (a0, a1) = (inputs_of[add_id][0], inputs_of[add_id][1]);
        let pick = if mm_ok(a0, add_id, alive, lowered, inputs_of, &cons) && bias_ok(a1, a0) {
            Some((a0, a1))
        } else if mm_ok(a1, add_id, alive, lowered, inputs_of, &cons) && bias_ok(a0, a1) {
            Some((a1, a0))
        } else {
            None
        };
        let Some((m, b)) = pick else { continue };
        let (x, w) = (inputs_of[m][0], inputs_of[m][1]);
        lowered[add_id] = Some(PlanOp::LinearAct(ops::Act::Linear));
        inputs_of[add_id] = vec![x, w, b];
        alive[m] = false;
        inputs_of[m].clear();
        stats.fused_linear += 1;
        for c in cons[x].iter_mut() {
            if *c == m {
                *c = add_id;
            }
        }
        for c in cons[w].iter_mut() {
            if *c == m {
                *c = add_id;
            }
        }
        cons[m].clear();
    }
    Ok(())
}

/// Greedily fuses straight-line elementwise chains into
/// [`PlanOp::EwChain`] register programs.
#[allow(clippy::too_many_arguments)]
fn ew_chain_pass(
    graph: &DataflowGraph,
    todo: &[NodeId],
    inputs_of: &mut [Vec<NodeId>],
    alive: &mut [bool],
    lowered: &mut [Option<PlanOp>],
    keep: &[bool],
    in_set: &[bool],
    batch_of: &[usize],
    stats: &mut PlanStats,
) -> Result<()> {
    let n = graph.len();
    let cons = build_cons(todo, inputs_of, alive, n);
    let mut in_chain = vec![false; n];

    for &start in todo {
        if !alive[start] || lowered[start].is_some() || in_chain[start] {
            continue;
        }
        let node = graph.node(start)?;
        if !is_elementwise(&node.kind) || inputs_of[start].len() != ew_arity(&node.kind) {
            continue;
        }
        let shape = &node.shape;
        if !inputs_of[start].iter().all(|&i| ext_ok(graph, i, shape)) {
            continue;
        }
        let mut chain = vec![start];
        loop {
            let last = *chain.last().unwrap();
            if keep[last] || cons[last].len() != 1 || chain.len() >= MAX_CHAIN {
                break;
            }
            let c = cons[last][0];
            if c >= n
                || !in_set[c]
                || !alive[c]
                || lowered[c].is_some()
                || in_chain[c]
                || batch_of[c] != batch_of[start]
            {
                break;
            }
            let cn = graph.node(c)?;
            if !is_elementwise(&cn.kind)
                || cn.shape != *shape
                || inputs_of[c].len() != ew_arity(&cn.kind)
                || !inputs_of[c].iter().all(|&i| i == last || ext_ok(graph, i, shape))
            {
                break;
            }
            chain.push(c);
        }
        if chain.len() < 2 {
            continue;
        }

        let mut insts: Vec<EwInst> = Vec::with_capacity(chain.len());
        let mut reg_of: HashMap<NodeId, usize> = HashMap::new();
        let mut ext: Vec<NodeId> = Vec::new();
        for &id in &chain {
            let mut src = |i: NodeId| -> EwSrc {
                if let Some(&r) = reg_of.get(&i) {
                    return EwSrc::Reg(r);
                }
                match ext.iter().position(|&e| e == i) {
                    Some(k) => EwSrc::Ext(k),
                    None => {
                        ext.push(i);
                        EwSrc::Ext(ext.len() - 1)
                    }
                }
            };
            let ins = &inputs_of[id];
            let inst = match &graph.node(id)?.kind {
                OpKind::Add => EwInst::Add(src(ins[0]), src(ins[1])),
                OpKind::Sub => EwInst::Sub(src(ins[0]), src(ins[1])),
                OpKind::Mul => EwInst::Mul(src(ins[0]), src(ins[1])),
                OpKind::Div => EwInst::Div(src(ins[0]), src(ins[1])),
                OpKind::Relu => EwInst::Relu(src(ins[0])),
                OpKind::Tanh => EwInst::Tanh(src(ins[0])),
                OpKind::Sigmoid => EwInst::Sigmoid(src(ins[0])),
                OpKind::Exp => EwInst::Exp(src(ins[0])),
                OpKind::Ln => EwInst::Ln(src(ins[0])),
                OpKind::Square => EwInst::Square(src(ins[0])),
                OpKind::Neg => EwInst::Neg(src(ins[0])),
                OpKind::Clamp { lo, hi } => EwInst::Clamp(src(ins[0]), *lo, *hi),
                other => return Err(FdgError::MissingKernel { op: other.name().to_string() }),
            };
            reg_of.insert(id, insts.len());
            insts.push(inst);
        }
        stats.fused_ew += chain.len();
        let last = *chain.last().unwrap();
        for &id in &chain[..chain.len() - 1] {
            alive[id] = false;
            in_chain[id] = true;
            inputs_of[id].clear();
        }
        in_chain[last] = true;
        lowered[last] = Some(PlanOp::EwChain(EwProgram { insts }));
        inputs_of[last] = ext;
    }
    Ok(())
}

/// Removes alive nodes that cannot reach a retained output or a macro
/// op (whose kernel side effects must always run).
fn dce_pass(
    graph: &DataflowGraph,
    todo: &[NodeId],
    inputs_of: &[Vec<NodeId>],
    alive: &mut [bool],
    keep: &[bool],
    stats: &mut PlanStats,
) -> Result<()> {
    let n = graph.len();
    let mut reach = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    for &id in todo {
        if alive[id] && (keep[id] || graph.node(id)?.kind.is_macro()) {
            reach[id] = true;
            stack.push(id);
        }
    }
    while let Some(id) = stack.pop() {
        for &i in &inputs_of[id] {
            if i < n && alive[i] && !reach[i] {
                reach[i] = true;
                stack.push(i);
            }
        }
    }
    for &id in todo {
        if alive[id] && !reach[id] {
            alive[id] = false;
            stats.dce_removed += 1;
        }
    }
    Ok(())
}

/// Groups one pure batch into dependency levels, replicating the
/// uncompiled interpreter's formula exactly: a node's level is one past
/// the deepest of its in-batch inputs; everything already materialised
/// contributes zero.
fn levelize(
    graph: &DataflowGraph,
    batch: &[NodeId],
    inputs_of: &[Vec<NodeId>],
    lowered: &mut [Option<PlanOp>],
) -> Result<Vec<Vec<ExecOp>>> {
    let mut level_of: HashMap<NodeId, usize> = HashMap::with_capacity(batch.len());
    let mut levels: Vec<Vec<ExecOp>> = Vec::new();
    for &id in batch {
        let node = graph.node(id)?;
        let lvl =
            inputs_of[id].iter().filter_map(|i| level_of.get(i)).map(|l| l + 1).max().unwrap_or(0);
        level_of.insert(id, lvl);
        if levels.len() <= lvl {
            levels.resize_with(lvl + 1, Vec::new);
        }
        let op = lowered[id].take().unwrap_or_else(|| PlanOp::Node(node.clone()));
        levels[lvl].push(ExecOp {
            id,
            op,
            inputs: inputs_of[id].clone(),
            shape: node.shape.clone(),
            workload: node.shape.iter().product::<usize>().max(1),
            inplace: None,
        });
    }
    Ok(levels)
}

/// Per-input element strides for a fused chain evaluated at `vol`
/// output elements: 1 for a full-size input, 0 for a one-element
/// broadcast.
fn ew_strides(ins: &[&Tensor], vol: usize, shape: &[usize]) -> Result<Vec<usize>> {
    ins.iter()
        .map(|t| {
            if t.len() == vol {
                Ok(1)
            } else if t.len() == 1 {
                Ok(0)
            } else {
                Err(FdgError::Tensor(msrl_tensor::TensorError::ShapeMismatch {
                    op: "ew_chain",
                    lhs: shape.to_vec(),
                    rhs: t.shape().to_vec(),
                }))
            }
        })
        .collect()
}

/// Fills `chunk` (at absolute element offset `offset`) with the
/// program's results: whole lanes through the chunked executor, the
/// remainder through the scalar interpreter. Bit-identical either way.
fn run_ew_fill(
    prog: &EwProgram,
    srcs: &[&[f32]],
    strides: &[usize],
    offset: usize,
    chunk: &mut [f32],
) {
    let last = prog.insts.len() - 1;
    let mut regs = vec![[0.0f32; EW_LANE]; prog.insts.len()];
    let mut i = 0;
    while i + EW_LANE <= chunk.len() {
        prog.eval_lane(srcs, strides, offset + i, None, &mut regs);
        chunk[i..i + EW_LANE].copy_from_slice(&regs[last]);
        i += EW_LANE;
    }
    let mut sregs = vec![0.0f32; prog.insts.len()];
    for (j, slot) in chunk.iter_mut().enumerate().skip(i) {
        *slot = prog.eval_at(srcs, strides, offset + j, &mut sregs);
    }
}

/// Executes a fused elementwise chain into a fresh (pooled) buffer.
pub(crate) fn run_ew(prog: &EwProgram, ins: &[&Tensor], shape: &[usize]) -> Result<Tensor> {
    let vol: usize = shape.iter().product();
    let strides = ew_strides(ins, vol, shape)?;
    let srcs: Vec<&[f32]> = ins.iter().map(|t| t.data()).collect();
    // `run_ew_fill` writes every element of the chunk it is given.
    let mut data = msrl_tensor::alloc::take_for_overwrite(vol);
    let fill = |offset: usize, chunk: &mut [f32]| {
        run_ew_fill(prog, &srcs, &strides, offset, chunk);
    };
    if par::should_parallelize(vol, par::PAR_MIN_ELEMS) {
        par::fill_chunks(&mut data, fill);
    } else {
        fill(0, &mut data);
    }
    Ok(Tensor::from_vec(data, shape)?)
}

/// Executes a fused elementwise chain into a buffer donated by a node
/// that died at an earlier level (a cross-level steal): no pool take,
/// no zeroing, no give-back. Every element of `data` is overwritten;
/// its length must equal the output volume (the donor plan guarantees
/// it, and the executor re-checks before claiming).
pub(crate) fn run_ew_into(
    prog: &EwProgram,
    ins: &[&Tensor],
    shape: &[usize],
    mut data: Vec<f32>,
) -> Result<Tensor> {
    let vol: usize = shape.iter().product();
    debug_assert_eq!(data.len(), vol, "donated buffer must match the output volume");
    let strides = ew_strides(ins, vol, shape)?;
    let srcs: Vec<&[f32]> = ins.iter().map(|t| t.data()).collect();
    run_ew_fill(prog, &srcs, &strides, 0, &mut data);
    Ok(Tensor::from_vec(data, shape)?)
}

/// Executes a fused elementwise chain in place, reusing `own`'s buffer
/// as the output (the liveness plan proved it dies here). `others`
/// holds the remaining inputs with `None` at `self_pos`. Bit-identical
/// to [`run_ew`]: each element's old value is read before it is
/// overwritten, and the op is strictly elementwise.
pub(crate) fn run_ew_inplace(
    prog: &EwProgram,
    mut own: Tensor,
    self_pos: usize,
    others: &[Option<&Tensor>],
) -> Result<Tensor> {
    let vol = own.len();
    let mut strides = vec![1usize; others.len()];
    let mut srcs: Vec<&[f32]> = vec![&[]; others.len()];
    for (k, o) in others.iter().enumerate() {
        if k == self_pos {
            continue;
        }
        let t = o.ok_or(FdgError::MissingInput { node: 0 })?;
        strides[k] = if t.len() == vol {
            1
        } else if t.len() == 1 {
            0
        } else {
            return Err(FdgError::Tensor(msrl_tensor::TensorError::ShapeMismatch {
                op: "ew_chain",
                lhs: own.shape().to_vec(),
                rhs: t.shape().to_vec(),
            }));
        };
        srcs[k] = t.data();
    }
    let last = prog.insts.len() - 1;
    let data = own.data_mut();
    // Whole lanes through the chunked executor: the op's own lane is
    // copied out before the overwrite, exactly like the scalar path's
    // read-before-write.
    let mut lregs = vec![[0.0f32; EW_LANE]; prog.insts.len()];
    let mut i = 0;
    while i + EW_LANE <= vol {
        let mut selfv = [0.0f32; EW_LANE];
        selfv.copy_from_slice(&data[i..i + EW_LANE]);
        prog.eval_lane(&srcs, &strides, i, Some((self_pos, &selfv)), &mut lregs);
        data[i..i + EW_LANE].copy_from_slice(&lregs[last]);
        i += EW_LANE;
    }
    // Scalar remainder.
    let mut regs = vec![0.0f32; prog.insts.len()];
    for idx in i..vol {
        let selfv = data[idx];
        for (r, inst) in prog.insts.iter().enumerate() {
            let ld = |s: EwSrc, regs: &[f32]| match s {
                EwSrc::Ext(k) if k == self_pos => selfv,
                EwSrc::Ext(k) => srcs[k][idx * strides[k]],
                EwSrc::Reg(p) => regs[p],
            };
            regs[r] = match *inst {
                EwInst::Add(a, b) => ld(a, &regs) + ld(b, &regs),
                EwInst::Sub(a, b) => ld(a, &regs) - ld(b, &regs),
                EwInst::Mul(a, b) => ld(a, &regs) * ld(b, &regs),
                EwInst::Div(a, b) => ld(a, &regs) / ld(b, &regs),
                EwInst::Relu(a) => ld(a, &regs).max(0.0),
                EwInst::Tanh(a) => transcendental(Unary::Tanh, ld(a, &regs)),
                EwInst::Sigmoid(a) => transcendental(Unary::Sigmoid, ld(a, &regs)),
                EwInst::Exp(a) => transcendental(Unary::Exp, ld(a, &regs)),
                EwInst::Ln(a) => ld(a, &regs).max(f32::MIN_POSITIVE).ln(),
                EwInst::Square(a) => {
                    let v = ld(a, &regs);
                    v * v
                }
                EwInst::Neg(a) => -ld(a, &regs),
                EwInst::Clamp(a, lo, hi) => ld(a, &regs).clamp(lo, hi),
            };
        }
        data[idx] = regs[prog.insts.len() - 1];
    }
    Ok(own)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_mlp, TraceCtx};

    fn pure_ops(plan: &CompiledPlan) -> Vec<&ExecOp> {
        plan.steps
            .iter()
            .filter_map(|s| match s {
                Step::Pure { levels, .. } => Some(levels.iter().flatten()),
                Step::Macro { .. } => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn mlp_lowers_to_fused_linears() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4, 3]);
        let out = trace_mlp(&ctx, "net", &x, &[3, 8, 2]);
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let plan = compile(&graph, &ids, &[], Some(&[out.id()]), true).unwrap();
        // Layer 0 (matmul+add+tanh) fuses via the activation pattern,
        // layer 1 (matmul+add) via the bare-add pattern.
        assert_eq!(plan.stats.fused_linear, 2, "{:?}", plan.stats);
        let fused: Vec<_> = pure_ops(&plan)
            .into_iter()
            .filter(|op| matches!(op.op, PlanOp::LinearAct(_)))
            .collect();
        assert_eq!(fused.len(), 2);
        for op in fused {
            assert_eq!(op.inputs.len(), 3, "fused linear takes [x, w, b]");
        }
    }

    #[test]
    fn elementwise_chain_fuses_to_one_pass() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[8]);
        let y = ctx.input("y", &[8]);
        let out = x.mul(&y).add(&x).tanh();
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let plan = compile(&graph, &ids, &[], Some(&[out.id()]), true).unwrap();
        assert_eq!(plan.stats.fused_ew, 3, "{:?}", plan.stats);
        let ops = pure_ops(&plan);
        let chains: Vec<_> = ops.iter().filter(|op| matches!(op.op, PlanOp::EwChain(_))).collect();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].id, out.id());
        // Externals dedup: x is read by two instructions but listed once.
        assert_eq!(chains[0].inputs, vec![x.id(), y.id()]);
    }

    #[test]
    fn cse_merges_duplicate_subexpressions() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4]);
        let a = x.square();
        let b = x.square();
        let c = a.add(&b);
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let plan = compile(&graph, &ids, &[], Some(&[c.id()]), true).unwrap();
        assert_eq!(plan.stats.cse_merged, 1, "{:?}", plan.stats);
        // The surviving square feeds add(dup, dup) — two consumer slots,
        // so it cannot chain — and the plan runs x, square, add only.
        assert_eq!(plan.stats.ops, 3, "{:?}", plan.stats);
        let add = pure_ops(&plan).into_iter().find(|op| op.id == c.id()).unwrap();
        assert_eq!(add.inputs, vec![a.id(), a.id()], "both edges point at the survivor");
    }

    #[test]
    fn dead_branches_are_eliminated() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4]);
        let live = x.relu();
        let _dead = x.exp().square().sum_all();
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let plan = compile(&graph, &ids, &[], Some(&[live.id()]), true).unwrap();
        // exp→square fused first (2 ops → 1 chain), then the chain and
        // sum_all die: only x and the live relu execute.
        assert_eq!(plan.stats.dce_removed, 2, "{:?}", plan.stats);
        assert_eq!(plan.stats.ops, 2, "{:?}", plan.stats);
        assert!(pure_ops(&plan).iter().all(|op| op.id <= live.id()));
    }

    #[test]
    fn fusion_off_replays_the_unoptimized_schedule() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4, 3]);
        let out = trace_mlp(&ctx, "net", &x, &[3, 8, 2]);
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let plan = compile(&graph, &ids, &[], Some(&[out.id()]), false).unwrap();
        assert_eq!(plan.stats, PlanStats { ops: graph.len(), ..PlanStats::default() });
        assert!(pure_ops(&plan).iter().all(|op| matches!(op.op, PlanOp::Node(_))));
    }

    #[test]
    fn run_ew_matches_separate_ops_bitwise() {
        // (x * y + x).tanh() with a scalar broadcast thrown in.
        let x =
            Tensor::from_vec((0..24).map(|i| (i as f32 * 0.37).sin()).collect(), &[4, 6]).unwrap();
        let y =
            Tensor::from_vec((0..24).map(|i| (i as f32 * 0.11).cos()).collect(), &[4, 6]).unwrap();
        let s = Tensor::scalar(0.25);
        let prog = EwProgram {
            insts: vec![
                EwInst::Mul(EwSrc::Ext(0), EwSrc::Ext(1)),
                EwInst::Add(EwSrc::Reg(0), EwSrc::Ext(0)),
                EwInst::Div(EwSrc::Reg(1), EwSrc::Ext(2)),
                EwInst::Tanh(EwSrc::Reg(2)),
            ],
        };
        let fused = run_ew(&prog, &[&x, &y, &s], &[4, 6]).unwrap();
        let expect =
            ops::tanh(&ops::div(&ops::add(&ops::mul(&x, &y).unwrap(), &x).unwrap(), &s).unwrap());
        assert_eq!(fused.shape(), expect.shape());
        assert_eq!(fused.data(), expect.data(), "fused chain must be bit-identical");

        // The in-place variant (stealing x's buffer) agrees too.
        let inplace = run_ew_inplace(&prog, x.clone(), 0, &[None, Some(&y), Some(&s)]).unwrap();
        assert_eq!(inplace.data(), expect.data());

        // A volume that is not a multiple of the 16-wide lane exercises
        // the executor's scalar tail.
        let x2 =
            Tensor::from_vec((0..21).map(|i| (i as f32 * 0.53).sin()).collect(), &[3, 7]).unwrap();
        let y2 =
            Tensor::from_vec((0..21).map(|i| (i as f32 * 0.29).cos()).collect(), &[3, 7]).unwrap();
        let fused2 = run_ew(&prog, &[&x2, &y2, &s], &[3, 7]).unwrap();
        let expect2 = ops::tanh(
            &ops::div(&ops::add(&ops::mul(&x2, &y2).unwrap(), &x2).unwrap(), &s).unwrap(),
        );
        assert_eq!(fused2.data(), expect2.data(), "lane tail must be bit-identical");
    }

    /// The chain executor's Tanh / Sigmoid / Exp lanes run the scalar
    /// polynomials, which must be bit-identical to the *separate* ops'
    /// slice kernels (fusion never changes results), including the
    /// in-place variant and the scalar lane tail — and stay within the
    /// polynomials' error bound of the same chain spelled with libm.
    #[test]
    fn run_ew_matches_separate_ops_under_fastmath() {
        let x = Tensor::from_vec((0..21).map(|i| (i as f32 * 0.43).sin() * 3.0).collect(), &[3, 7])
            .unwrap();
        let y = Tensor::from_vec((0..21).map(|i| (i as f32 * 0.19).cos() * 2.0).collect(), &[3, 7])
            .unwrap();
        let prog = EwProgram {
            insts: vec![
                EwInst::Mul(EwSrc::Ext(0), EwSrc::Ext(1)),
                EwInst::Tanh(EwSrc::Reg(0)),
                EwInst::Sigmoid(EwSrc::Reg(1)),
                EwInst::Exp(EwSrc::Reg(2)),
            ],
        };
        let fused = run_ew(&prog, &[&x, &y], &[3, 7]).unwrap();
        let expect = ops::exp(&ops::sigmoid(&ops::tanh(&ops::mul(&x, &y).unwrap())));
        assert_eq!(fused.data(), expect.data(), "chain matches the separate ops");
        let inplace = run_ew_inplace(&prog, x.clone(), 0, &[None, Some(&y)]).unwrap();
        assert_eq!(inplace.data(), expect.data());
        for ((f, &a), &b) in fused.data().iter().zip(x.data()).zip(y.data()) {
            let libm = (1.0 / (1.0 + (-(a * b).tanh()).exp())).exp();
            assert!((f - libm).abs() < 1e-5, "chain {f} vs libm {libm}");
        }
    }

    #[test]
    fn cross_level_steal_offers_released_donors_only() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[16, 16]);
        let w = ctx.param("w", &[16, 16]);
        let p = x.matmul(&w);
        let a = p.square().tanh();
        let b = a.sum_all();
        let y0 = x.tanh();
        let c = y0.mul(&b).tanh();
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        // x, w, y0 kept: the only dying volume-256 buffers are p and a.
        let plan =
            compile(&graph, &ids, &[], Some(&[c.id(), y0.id(), x.id(), w.id()]), true).unwrap();
        // The a-chain consumes p in place, so p's buffer never reaches
        // release and must not be offered; a dies feeding sum_all one
        // level before the final chain, so it is the donor.
        let a_op = pure_ops(&plan).into_iter().find(|op| op.id == a.id()).unwrap();
        assert!(a_op.inplace.is_some(), "premise: a-chain steals p in place");
        let c_op = pure_ops(&plan).into_iter().find(|op| op.id == c.id()).unwrap();
        assert!(c_op.inplace.is_none(), "premise: final chain has no in-level donor");
        assert_eq!(plan.donors, HashMap::from([(a.id(), c.id())]));
        // Fusion off: no chains, no steals.
        let plain =
            compile(&graph, &ids, &[], Some(&[c.id(), y0.id(), x.id(), w.id()]), false).unwrap();
        assert!(plain.donors.is_empty());
    }

    #[test]
    fn cross_level_steals_chain_through_successive_stealers() {
        // One physical buffer should flow p -> a (in place) -> c
        // (cross-level) -> e (cross-level): each stealer's output dies
        // strictly before the next stealer's level, so it re-enters the
        // donor pool and the chain keeps extending instead of stopping
        // after the first hop.
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
        let graph = ctx.finish();
        let ids: Vec<NodeId> = (0..graph.len()).collect();
        let outs = [e.id(), y0.id(), y1.id(), x.id(), w.id()];
        let plan = compile(&graph, &ids, &[], Some(&outs), true).unwrap();
        let a_op = pure_ops(&plan).into_iter().find(|op| op.id == a.id()).unwrap();
        assert!(a_op.inplace.is_some(), "premise: a-chain steals p in place");
        for id in [c.id(), e.id()] {
            let op = pure_ops(&plan).into_iter().find(|op| op.id == id).unwrap();
            assert!(op.inplace.is_none(), "premise: later chains have no in-level donor");
        }
        // a dies feeding the first sum_all, c dies feeding the second:
        // both re-donate, forming the chain {a -> c, c -> e}.
        assert_eq!(plan.donors, HashMap::from([(a.id(), c.id()), (c.id(), e.id())]));
        // Fusion off: no chains, no steals.
        let plain = compile(&graph, &ids, &[], Some(&outs), false).unwrap();
        assert!(plain.donors.is_empty());
    }

    #[test]
    fn out_of_graph_ids_require_presets() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4]);
        let _y = x.relu();
        let graph = ctx.finish();
        let bogus = graph.len() + 5;
        let err = compile(&graph, &[0, 1, bogus], &[], None, true).unwrap_err();
        assert!(matches!(err, FdgError::UnknownNode { id } if id == bogus));
        assert!(compile(&graph, &[0, 1, bogus], &[bogus], None, true).is_ok());
    }
}
