//! Tape-based reverse-mode automatic differentiation.
//!
//! The MSRL paper executes learner fragments as compiled computational
//! graphs inside a DL engine; the engine supplies gradients. This module is
//! that engine's autodiff: a classic Wengert-list (tape) design where every
//! forward operation on a [`Var`] appends a node recording how to propagate
//! the output gradient back to its parents.
//!
//! The tape is single-threaded by design — in MSRL each *device* runs its
//! own engine instance, and the distributed runtime synchronises gradients
//! *between* devices with collectives (`msrl-comm`), never by sharing a
//! tape.
//!
//! # Memory
//!
//! A node's value is stored once, behind an `Rc`: [`Var::value`] hands
//! out that handle, and a backward rule that reads an operand or its own
//! output captures the handle, never a copy — as in a compiled graph,
//! where an activation is one buffer read by the forward consumer and
//! the backward rule alike. Every buffer that dies on the tape goes back
//! to the thread-local pool ([`crate::alloc`]) that operator outputs are
//! drawn from, so one epoch's activations are the next epoch's:
//!
//! - *values* when the last handle to the tape drops, unless someone
//!   else still holds the handle ([`Var::value`] results, leaves the
//!   caller shares between tapes) — those are left to their holder;
//! - an *interior gradient* as soon as [`Tape::backward`] has fired the
//!   rules of its node, and both operands of a gradient accumulation;
//! - a fused linear node's activation-mapped gradient after the last of
//!   its rules;
//! - whatever is still in [`Gradients`] when it drops (leaf gradients
//!   nobody took).
//!
//! # Row blocks
//!
//! A batch too tall to differentiate out of cache is recorded and
//! differentiated a row block at a time, one tape per block, each
//! dropped before the next is recorded. Two things make the blocks add
//! up to the one-tape pass bit for bit: a mean over the batch is a
//! [`Var::mean_over`] (one running sum forwards, `g / n` of the *batch*
//! backwards), and [`Tape::backward_onto`] hands the parameter gradients
//! of the blocks so far to the rules that reduce over rows, which go on
//! from them instead of starting at zero.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use crate::error::TensorError;
use crate::ops;
use crate::tensor::Tensor;
use crate::Result;

/// A backward rule: maps the gradient of a node's output to the gradient
/// contribution for one parent.
type GradFn = Box<dyn Fn(&Tensor) -> Tensor>;

/// A backward rule that continues a reduction over rows: also handed
/// what the parent's gradient reduced to over the row blocks before this
/// tape's, if any ([`Rule::Continued`]).
type ContinuedFn = Box<dyn Fn(&Tensor, Option<Tensor>) -> Tensor>;

/// How a node's output gradient reaches one parent.
enum Rule {
    /// The contribution of this node alone; [`Tape::backward_onto`] adds
    /// it to whatever else the parent has.
    Fresh(GradFn),
    /// A rule that sums over the rows of its node into a row-invariant
    /// parent (`xᵀ·g` into a weight, a column sum into a bias). Handed
    /// the parent's gradient over the row blocks before this tape's, it
    /// returns that reduction gone on over these rows — one accumulator
    /// per element from the first row of the batch to the last — and
    /// handed `None` it is a [`Rule::Fresh`].
    Continued(ContinuedFn),
}

struct Node {
    /// The forward value; [`Var::value`] and the rules that read it
    /// hold further handles to the same buffer.
    value: Rc<Tensor>,
    /// `(parent id, rule)` pairs, only for parents that need a gradient;
    /// leaves have none.
    parents: Vec<(usize, Rule)>,
    /// Whether the loss can have a gradient worth computing here: true
    /// for [`Tape::var`] leaves, false for [`Tape::constant`] leaves,
    /// and for an interior node whether any parent needs one.
    needs_grad: bool,
}

#[derive(Default)]
struct TapeInner {
    nodes: Vec<Node>,
}

impl Drop for TapeInner {
    fn drop(&mut self) {
        // Rules first: they hold handles to the values they read, and
        // only a value nobody else holds may be recycled.
        for node in &mut self.nodes {
            node.parents.clear();
        }
        for node in self.nodes.drain(..) {
            if let Ok(value) = Rc::try_unwrap(node.value) {
                value.recycle();
            }
        }
    }
}

/// A gradient tape.
///
/// Cloning a `Tape` yields another handle to the same tape (cheap
/// reference-count bump).
#[derive(Clone, Default)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

/// A differentiable variable: a handle to one node on a [`Tape`].
///
/// `Var`s are cheap to clone and carry their tape with them, so expression
/// code never needs to thread the tape explicitly.
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    id: usize,
}

/// The result of [`Tape::backward`]: gradients of the loss with respect to
/// every *leaf* that influenced it. An interior node's gradient is
/// released as soon as it has been propagated to the node's parents, so
/// [`Gradients::get`] of an interior id (the loss included) is `None`.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Drop for Gradients {
    fn drop(&mut self) {
        for g in self.grads.drain(..).flatten() {
            g.recycle();
        }
    }
}

impl Gradients {
    /// Gradient for leaf `id`, if the leaf influenced the loss.
    pub fn get(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Gradient for a variable, defaulting to zeros of the value's shape
    /// when the variable did not influence the loss.
    pub fn get_or_zeros(&self, var: &Var) -> Tensor {
        match self.get(var.id) {
            Some(g) => g.clone(),
            None => Tensor::zeros(&var.shape()),
        }
    }

    /// Moves the gradient for a variable out of the result, defaulting to
    /// zeros when the variable did not influence the loss. Each node's
    /// gradient can be taken once; use this when extracting final
    /// per-parameter gradients to skip [`Gradients::get_or_zeros`]'s copy.
    pub fn take_or_zeros(&mut self, var: &Var) -> Tensor {
        match self.grads.get_mut(var.id).and_then(Option::take) {
            Some(g) => g,
            None => Tensor::zeros(&var.shape()),
        }
    }
}

/// A rule hands its parent an owned tensor, so a gradient that passes
/// through unchanged (nothing was broadcast, an identity activation, a
/// constant offset) is copied here — the one gradient copy left. The
/// copy is a same-shape [`Tensor::reshape`] because that draws from the
/// pool the copy will be recycled into.
fn pass_through(grad: &Tensor) -> Tensor {
    grad.reshape(grad.shape()).expect("same shape, same volume")
}

/// A `value`-filled tensor drawn from the pool its storage will be
/// recycled into: what the tape gives the pool it must have taken from
/// it, or the pool fills to its cap instead of settling.
fn filled(shape: &[usize], value: f32) -> Tensor {
    Tensor::from_vec(crate::alloc::take_filled(shape.iter().product(), value), shape)
        .expect("volume matches shape")
}

/// Sums a broadcast gradient back down to `target` shape.
///
/// If the forward pass broadcast a `[2]` operand up to `[3, 2]`, the
/// gradient flowing back has shape `[3, 2]` and must be summed over the
/// broadcast axes to produce a `[2]` gradient.
fn reduce_grad(grad: &Tensor, target: &[usize]) -> Tensor {
    if grad.shape() == target {
        return pass_through(grad);
    }
    // The first reduction reads the borrowed gradient; no copy of it.
    let mut g = Cow::Borrowed(grad);
    // Collapse leading axes the target does not have.
    while g.rank() > target.len() {
        g = Cow::Owned(ops::sum_axis(&g, 0).expect("rank checked above"));
    }
    // Sum over axes where the target extent is 1 but the gradient's is not.
    #[allow(clippy::needless_range_loop)] // indexes two slices in lockstep
    for axis in 0..g.rank() {
        if target[axis] == 1 && g.shape()[axis] != 1 {
            let summed = ops::sum_axis(&g, axis).expect("axis in range");
            // Re-insert the unit axis to keep ranks aligned.
            let mut dims = summed.shape().to_vec();
            dims.insert(axis, 1);
            g = Cow::Owned(summed.reshape(&dims).expect("volume unchanged"));
        }
    }
    g.into_owned()
}

/// [`reduce_grad`] of a gradient the rule computed itself: returned as
/// is when nothing was broadcast, recycled once summed otherwise.
fn reduce_owned(grad: Tensor, target: &[usize]) -> Tensor {
    if grad.shape() == target {
        return grad;
    }
    let reduced = reduce_grad(&grad, target);
    grad.recycle();
    reduced
}

/// [`reduce_grad`] continuing `earlier`, the same parent's gradient over
/// the row blocks before this one. Where the forward pass broadcast the
/// parent over the gradient's rows and nothing else (a bias), this
/// block's rows are swept in on top of it, bit-identical to one sum over
/// all rows; any other broadcast is reduced afresh and added.
fn reduce_grad_onto(grad: &Tensor, target: &[usize], earlier: Option<Tensor>) -> Tensor {
    let Some(earlier) = earlier else { return reduce_grad(grad, target) };
    if grad.rank() == target.len() + 1 && grad.shape()[1..] == *target {
        return ops::sum_axis_onto(grad, 0, Some(earlier)).expect("shape checked above");
    }
    sum_recycling(earlier, reduce_grad(grad, target))
}

/// `acc + more`, both operands back to the pool.
fn sum_recycling(acc: Tensor, more: Tensor) -> Tensor {
    let sum = ops::add(&acc, &more).expect("gradient shapes match parent value shapes");
    acc.recycle();
    more.recycle();
    sum
}

/// `slot += more`.
fn accumulate(slot: &mut Option<Tensor>, more: Tensor) {
    *slot = Some(match slot.take() {
        Some(acc) => sum_recycling(acc, more),
        None => more,
    });
}

/// Maps the output gradient of a fused linear node back through its
/// activation, using the same element-wise closures as the standalone
/// activation nodes (tanh/sigmoid differentiate via the *output*, and
/// ReLU's output mask equals its input mask).
fn fused_act_grad(act: ops::Act, g: &Tensor, out: &Tensor) -> Tensor {
    match act {
        ops::Act::Relu => ops::zip_broadcast(g, out, |gv, ov| if ov > 0.0 { gv } else { 0.0 })
            .expect("same shape"),
        ops::Act::Tanh => {
            ops::zip_broadcast(g, out, |gv, ov| gv * (1.0 - ov * ov)).expect("same shape")
        }
        ops::Act::Sigmoid => {
            ops::zip_broadcast(g, out, |gv, ov| gv * ov * (1.0 - ov)).expect("same shape")
        }
        ops::Act::Linear => pass_through(g),
    }
}

/// What the backward rules of one fused linear node share.
struct FusedGrad {
    act: ops::Act,
    /// The node's own value, not a copy of it.
    out: Rc<Tensor>,
    /// The activation-mapped output gradient, alive from the first rule
    /// that fires in a backward run to rule `last`.
    gp: RefCell<Option<Tensor>>,
    /// Index (x = 0, w = 1, b = 2) of the last rule recorded.
    last: usize,
}

impl FusedGrad {
    fn with(&self, rule: usize, g: &Tensor, f: impl FnOnce(&Tensor) -> Tensor) -> Tensor {
        let mut slot = self.gp.borrow_mut();
        let res = f(slot.get_or_insert_with(|| fused_act_grad(self.act, g, &self.out)));
        if rule == self.last {
            if let Some(gp) = slot.take() {
                gp.recycle();
            }
        }
        res
    }
}

/// `g` where `pick(a, b)` holds and zero elsewhere (the rules of
/// [`Var::min`]).
fn masked(a: &Tensor, b: &Tensor, g: &Tensor, pick: impl Fn(f32, f32) -> bool + Sync) -> Tensor {
    let mask =
        ops::zip_broadcast(a, b, |x, y| if pick(x, y) { 1.0 } else { 0.0 }).expect("fwd shapes");
    let res = ops::zip_broadcast(&mask, g, |m, gv| m * gv).expect("fwd shapes");
    mask.recycle();
    res
}

/// `g · bᵀ` for backward rules, without materialising the transpose.
fn grad_matmul_bt(g: &Tensor, b: &Tensor) -> Tensor {
    ops::matmul_bt(g, b).expect("fwd shapes")
}

/// `aᵀ · g` for backward rules, without materialising the transpose,
/// continuing `earlier` (the product over the row blocks before this
/// one) when there is one.
fn grad_matmul_at(a: &Tensor, g: &Tensor, earlier: Option<Tensor>) -> Tensor {
    ops::matmul_at_onto(a, g, earlier).expect("fwd shapes")
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a differentiable leaf (a parameter, or an input whose
    /// gradient the caller wants). Pass an `Rc<Tensor>` to register one
    /// buffer on several tapes without copying it.
    pub fn var(&self, value: impl Into<Rc<Tensor>>) -> Var {
        self.leaf(value.into(), true)
    }

    /// Records a non-differentiable leaf (observations, targets, masks).
    /// [`Tape::backward`] computes nothing for it or for anything that
    /// depends only on such leaves, and [`Gradients::get`] returns
    /// `None` for its id.
    pub fn constant(&self, value: impl Into<Rc<Tensor>>) -> Var {
        self.leaf(value.into(), false)
    }

    fn leaf(&self, value: Rc<Tensor>, needs_grad: bool) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.nodes.push(Node { value, parents: Vec::new(), needs_grad });
        Var { tape: self.clone(), id }
    }

    /// Records an interior node, dropping the rules (and whatever they
    /// captured) of parents that need no gradient — `backward` then has
    /// nothing to skip.
    fn record(&self, value: Rc<Tensor>, mut parents: Vec<(usize, Rule)>) -> Var {
        let mut inner = self.inner.borrow_mut();
        parents.retain(|(pid, _)| inner.nodes[*pid].needs_grad);
        let id = inner.nodes.len();
        let needs_grad = !parents.is_empty();
        inner.nodes.push(Node { value, parents, needs_grad });
        Var { tape: self.clone(), id }
    }

    fn needs_grad(&self, id: usize) -> bool {
        self.inner.borrow().nodes[id].needs_grad
    }

    /// Runs reverse-mode differentiation from the scalar `loss`.
    ///
    /// A tape can be differentiated more than once; each run computes
    /// every gradient afresh.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonScalarLoss`] when `loss` is not a single
    /// element, and [`TensorError::UnknownVariable`] when `loss` belongs to
    /// a different tape.
    pub fn backward(&self, loss: &Var) -> Result<Gradients> {
        self.backward_onto(loss, Vec::new())
    }

    /// [`Tape::backward`] for one row block of a batch that is
    /// differentiated block by block, each block on a tape of its own.
    ///
    /// `carried` pairs leaves of this tape whose value every block
    /// shares (parameters) with their gradients over the blocks before
    /// this one; the result holds their gradients over those blocks and
    /// this one. A leaf reached through a `Rule::Continued` — the
    /// weight and bias of [`Var::linear`], the right operand of
    /// [`Var::matmul`], a bias added by [`Var::add`] — has the carried
    /// reduction continued over this block's rows, so after the last
    /// block its gradient is bit-identical to one backward pass over the
    /// whole batch. Any other leaf gets `carried + this block's`.
    ///
    /// The loss is linear in its per-row terms only if the caller makes
    /// it so: a mean over the batch has to be a [`Var::mean_over`] of
    /// the *whole* batch's row count, not a mean over the block.
    ///
    /// # Errors
    ///
    /// As [`Tape::backward`], plus [`TensorError::UnknownVariable`] for a
    /// carried variable of another tape and
    /// [`TensorError::ShapeMismatch`] for a carried gradient that does
    /// not have its variable's shape.
    pub fn backward_onto(&self, loss: &Var, carried: Vec<(&Var, Tensor)>) -> Result<Gradients> {
        if !Rc::ptr_eq(&self.inner, &loss.tape.inner) {
            return Err(TensorError::UnknownVariable { id: loss.id });
        }
        let inner = self.inner.borrow();
        let loss_node =
            inner.nodes.get(loss.id).ok_or(TensorError::UnknownVariable { id: loss.id })?;
        if loss_node.value.len() != 1 {
            return Err(TensorError::NonScalarLoss { shape: loss_node.value.shape().to_vec() });
        }
        let mut earlier = Vec::with_capacity(carried.len());
        for (var, grad) in carried {
            if !Rc::ptr_eq(&self.inner, &var.tape.inner) {
                return Err(TensorError::UnknownVariable { id: var.id });
            }
            let shape = inner.nodes[var.id].value.shape();
            if grad.shape() != shape {
                return Err(TensorError::ShapeMismatch {
                    op: "backward_onto",
                    lhs: shape.to_vec(),
                    rhs: grad.shape().to_vec(),
                });
            }
            earlier.push((var.id, grad));
        }
        let mut result = Gradients { grads: vec![None; inner.nodes.len()] };
        let grads = &mut result.grads;
        grads[loss.id] = Some(filled(loss_node.value.shape(), 1.0));
        // Nodes are appended in topological order, so a reverse scan visits
        // every node after all of its consumers.
        for id in (0..=loss.id).rev() {
            let node = &inner.nodes[id];
            // A leaf's gradient is the result; it stays in its slot.
            if node.parents.is_empty() {
                continue;
            }
            // All consumers have contributed, so the gradient is
            // complete and this is its only reader: take it.
            let Some(grad_out) = grads[id].take() else { continue };
            // Parent rules fire in recorded order, each with the same
            // `grad_out` — the fused linear node's rules share work
            // through this invariant.
            for (pid, rule) in &node.parents {
                debug_assert!(*pid < id, "parent recorded after consumer");
                let contribution = match rule {
                    Rule::Fresh(rule) => rule(&grad_out),
                    Rule::Continued(rule) => {
                        let at = earlier.iter().position(|(leaf, _)| leaf == pid);
                        rule(&grad_out, at.map(|i| earlier.swap_remove(i).1))
                    }
                };
                accumulate(&mut grads[*pid], contribution);
            }
            grad_out.recycle();
        }
        // What no rule continued is summed: earlier blocks first.
        for (leaf, grad) in earlier {
            if let Some(this_block) = grads[leaf].replace(grad) {
                accumulate(&mut grads[leaf], this_block);
            }
        }
        Ok(result)
    }
}

impl Var {
    /// The node id on its tape.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The forward value: a handle to the node's own buffer, not a copy.
    /// A handle may outlive the tape; the buffer then belongs to it.
    pub fn value(&self) -> Rc<Tensor> {
        Rc::clone(&self.tape.inner.borrow().nodes[self.id].value)
    }

    /// The shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.inner.borrow().nodes[self.id].value.shape().to_vec()
    }

    fn unary(&self, value: impl Into<Rc<Tensor>>, rule: GradFn) -> Var {
        self.tape.record(value.into(), vec![(self.id, Rule::Fresh(rule))])
    }

    fn binary(&self, other: &Var, value: Tensor, lrule: GradFn, rrule: GradFn) -> Var {
        self.tape.record(
            value.into(),
            vec![(self.id, Rule::Fresh(lrule)), (other.id, Rule::Fresh(rrule))],
        )
    }

    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::add(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        // Continued, as the fused node's bias rule: the unfused
        // `x·w + b` must stay its bitwise reference block by block too.
        Ok(self.tape.record(
            out.into(),
            vec![
                (self.id, Rule::Continued(Box::new(move |g, e| reduce_grad_onto(g, &sa, e)))),
                (other.id, Rule::Continued(Box::new(move |g, e| reduce_grad_onto(g, &sb, e)))),
            ],
        ))
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::sub(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_grad(g, &sa)),
            Box::new(move |g| reduce_owned(ops::neg(g), &sb)),
        ))
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::mul(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_owned(ops::mul(g, &b).expect("fwd shapes"), &sa)),
            Box::new(move |g| reduce_owned(ops::mul(g, &a).expect("fwd shapes"), &sb)),
        ))
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::div(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        let b2 = Rc::clone(&b);
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_owned(ops::div(g, &b2).expect("fwd shapes"), &sa)),
            Box::new(move |g| {
                // d(a/b)/db = -a / b^2
                let b_sq = ops::square(&b);
                let t = ops::div(&ops::mul(g, &a).expect("fwd shapes"), &b_sq).expect("fwd shapes");
                reduce_owned(ops::neg(&t), &sb)
            }),
        ))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.unary(ops::neg(&self.value()), Box::new(ops::neg))
    }

    /// Adds a constant scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        self.unary(ops::add_scalar(&self.value(), s), Box::new(pass_through))
    }

    /// Multiplies by a constant scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        self.unary(ops::mul_scalar(&self.value(), s), Box::new(move |g| ops::mul_scalar(g, s)))
    }

    /// Matrix multiplication of rank-2 values.
    pub fn matmul(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::matmul(&a, &b)?;
        Ok(self.tape.record(
            out.into(),
            vec![
                // dL/dA = G · Bᵀ
                (self.id, Rule::Fresh(Box::new(move |g| grad_matmul_bt(g, &b)))),
                // dL/dB = Aᵀ · G, summed over the rows of A
                (other.id, Rule::Continued(Box::new(move |g, e| grad_matmul_at(&a, g, e)))),
            ],
        ))
    }

    /// Fused linear layer `act(self · w + b)` recorded as one tape node.
    ///
    /// The forward pass runs the fused kernel ([`ops::linear_act`]) —
    /// one traversal of the output instead of three, with no
    /// intermediate tensors — and each backward rule composes exactly
    /// the primitive gradient ops the separate matmul/add/activation
    /// nodes would use, so values *and* gradients are bit-identical to
    /// the unfused composition (ReLU's output mask `out > 0` agrees
    /// with its input mask `pre > 0`, including NaN pre-activations,
    /// which `max(NaN, 0) = 0` also masks out).
    ///
    /// # Errors
    ///
    /// Returns the shape errors of [`ops::linear_act`].
    pub fn linear(&self, w: &Var, b: &Var, act: ops::Act) -> Result<Var> {
        let (x, wv, bv) = (self.value(), w.value(), b.value());
        let out = Rc::new(ops::linear_act(&x, &wv, &bv, act)?);
        let b_shape = bv.shape().to_vec();
        // The three rules share the activation-mapped gradient `gp`, as
        // the separate activation node of the unfused composition
        // computes it exactly once too. `backward` visits a node at most
        // once per run and fires its recorded rules in order with the
        // same output gradient, so the first rule present computes `gp`
        // and the last one frees it; which rules are present is fixed
        // here, because `record` drops those of constant parents (`x`
        // being the observations, for a first layer).
        let last = [self.id, w.id, b.id]
            .iter()
            .rposition(|&id| self.tape.needs_grad(id))
            .unwrap_or_default();
        let fused = Rc::new(FusedGrad { act, out: Rc::clone(&out), gp: RefCell::new(None), last });
        let (fused_x, fused_w) = (Rc::clone(&fused), Rc::clone(&fused));
        let x_rule = move |g: &Tensor| fused_x.with(0, g, |gp| grad_matmul_bt(gp, &wv));
        let w_rule = move |g: &Tensor, earlier: Option<Tensor>| {
            fused_w.with(1, g, |gp| grad_matmul_at(&x, gp, earlier))
        };
        let b_rule = move |g: &Tensor, earlier: Option<Tensor>| {
            fused.with(2, g, |gp| reduce_grad_onto(gp, &b_shape, earlier))
        };
        Ok(self.tape.record(
            out,
            vec![
                (self.id, Rule::Fresh(Box::new(x_rule))),
                (w.id, Rule::Continued(Box::new(w_rule))),
                (b.id, Rule::Continued(Box::new(b_rule))),
            ],
        ))
    }

    /// ReLU activation.
    pub fn relu(&self) -> Var {
        let a = self.value();
        let out = ops::relu(&a);
        Var::unary(
            self,
            out,
            Box::new(move |g| {
                ops::zip_broadcast(g, &a, |gv, av| if av > 0.0 { gv } else { 0.0 })
                    .expect("same shape")
            }),
        )
    }

    /// Hyperbolic-tangent activation.
    pub fn tanh(&self) -> Var {
        let out = Rc::new(ops::tanh(&self.value()));
        let oc = Rc::clone(&out);
        self.unary(
            out,
            Box::new(move |g| {
                // d tanh(x)/dx = 1 - tanh(x)^2
                ops::zip_broadcast(g, &oc, |gv, ov| gv * (1.0 - ov * ov)).expect("same shape")
            }),
        )
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid(&self) -> Var {
        let out = Rc::new(ops::sigmoid(&self.value()));
        let oc = Rc::clone(&out);
        self.unary(
            out,
            Box::new(move |g| {
                ops::zip_broadcast(g, &oc, |gv, ov| gv * ov * (1.0 - ov)).expect("same shape")
            }),
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        let out = Rc::new(ops::exp(&self.value()));
        let oc = Rc::clone(&out);
        self.unary(out, Box::new(move |g| ops::mul(g, &oc).expect("same shape")))
    }

    /// Element-wise natural log (input clamped away from zero).
    pub fn ln(&self) -> Var {
        let a = self.value();
        let out = ops::ln(&a);
        self.unary(
            out,
            Box::new(move |g| {
                ops::zip_broadcast(g, &a, |gv, av| gv / av.max(f32::MIN_POSITIVE))
                    .expect("same shape")
            }),
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Var {
        let a = self.value();
        let out = ops::square(&a);
        self.unary(
            out,
            Box::new(move |g| {
                ops::zip_broadcast(g, &a, |gv, av| gv * 2.0 * av).expect("same shape")
            }),
        )
    }

    /// Element-wise clamp. Gradients pass through only inside `[lo, hi]`
    /// (the usual sub-gradient convention, as used for PPO's ratio clip).
    pub fn clamp(&self, lo: f32, hi: f32) -> Var {
        let a = self.value();
        let out = ops::clamp(&a, lo, hi);
        self.unary(
            out,
            Box::new(move |g| {
                ops::zip_broadcast(g, &a, |gv, av| if av >= lo && av <= hi { gv } else { 0.0 })
                    .expect("same shape")
            }),
        )
    }

    /// Element-wise minimum of two variables; the gradient routes to
    /// whichever operand is smaller (ties go to `self`).
    pub fn min(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::minimum(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        let (a2, b2) = (Rc::clone(&a), Rc::clone(&b));
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_owned(masked(&a, &b, g, |x, y| x <= y), &sa)),
            Box::new(move |g| reduce_owned(masked(&a2, &b2, g, |x, y| x > y), &sb)),
        ))
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let a = self.value();
        let shape = a.shape().to_vec();
        let total = ops::sum_all(&a).item().expect("scalar sum");
        self.unary(
            filled(&[], total),
            Box::new(move |g| filled(&shape, g.item().expect("scalar grad"))),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let n = self.value().len();
        self.mean_over(n, &mut None)
    }

    /// The mean over an `n`-row batch of which this value holds one row
    /// block, for a loss differentiated block by block
    /// ([`Tape::backward_onto`]). `sum` carries the blocks' running
    /// total: `None` before the first block, then one accumulator going
    /// on over each block's elements in turn, as a single sweep over the
    /// batch would. The value is `sum / n` — the batch mean once the last
    /// block is in — and every element's gradient is `g / n` whichever
    /// block it sits in. With `n` its own length and no total carried,
    /// this is [`Var::mean`].
    pub fn mean_over(&self, n: usize, sum: &mut Option<f32>) -> Var {
        let a = self.value();
        let shape = a.shape().to_vec();
        let n = n.max(1) as f32;
        let total = match *sum {
            None => ops::sum_all(&a).item().expect("scalar sum"),
            Some(earlier) => a.data().iter().fold(earlier, |acc, &v| acc + v),
        };
        *sum = Some(total);
        self.unary(
            filled(&[], total / n),
            Box::new(move |g| filled(&shape, g.item().expect("scalar grad") / n)),
        )
    }

    /// Row-wise log-softmax of a rank-2 value.
    pub fn log_softmax_rows(&self) -> Result<Var> {
        let out = ops::log_softmax_rows(&self.value())?;
        let soft = ops::exp(&out);
        Ok(self.unary(
            out,
            Box::new(move |g| {
                // d log_softmax / dx: G - softmax * rowsum(G)
                let (m, n) = (soft.shape()[0], soft.shape()[1]);
                // Every element is written below.
                let mut res = crate::alloc::take_for_overwrite(m * n);
                for i in 0..m {
                    let grow = &g.data()[i * n..(i + 1) * n];
                    let srow = &soft.data()[i * n..(i + 1) * n];
                    let gsum: f32 = grow.iter().sum();
                    for j in 0..n {
                        res[i * n + j] = grow[j] - srow[j] * gsum;
                    }
                }
                Tensor::from_vec(res, &[m, n]).expect("same shape")
            }),
        ))
    }

    /// Selects one element per row: `out[i] = self[i, idx[i]]`.
    pub fn select_per_row(&self, idx: &[usize]) -> Result<Var> {
        let a = self.value();
        let out = ops::select_per_row(&a, idx)?;
        let idx = idx.to_vec();
        let (m, n) = (a.shape()[0], a.shape()[1]);
        Ok(self.unary(
            out,
            Box::new(move |g| {
                let mut res = crate::alloc::take_zeroed(m * n);
                for (i, &j) in idx.iter().enumerate() {
                    res[i * n + j] = g.data()[i];
                }
                Tensor::from_vec(res, &[m, n]).expect("shape fixed")
            }),
        ))
    }

    /// Reshape (gradient reshapes back).
    pub fn reshape(&self, dims: &[usize]) -> Result<Var> {
        let a = self.value();
        let out = a.reshape(dims)?;
        let orig = a.shape().to_vec();
        Ok(self.unary(out, Box::new(move |g| g.reshape(&orig).expect("volume unchanged"))))
    }

    /// Detaches the value from the tape: the result is a fresh constant
    /// leaf over the same buffer, so no gradient flows through it (MSRL
    /// uses this for advantage targets).
    pub fn detach(&self) -> Var {
        self.tape.constant(self.value())
    }

    /// A handle to the tape this variable lives on.
    pub fn tape(&self) -> Tape {
        self.tape.clone()
    }

    /// Registers a constant tensor as a fresh leaf on this variable's
    /// tape ([`Tape::constant`]).
    ///
    /// Convenient for constants participating in traced expressions
    /// (index masks, ones vectors, targets).
    pub fn constant(&self, t: impl Into<Rc<Tensor>>) -> Var {
        self.tape.constant(t)
    }

    /// Transpose of a rank-2 value (gradient transposes back).
    pub fn transpose(&self) -> Result<Var> {
        let out = ops::transpose(&self.value())?;
        Ok(self
            .unary(out, Box::new(|g| ops::transpose(g).expect("gradient of a matrix is a matrix"))))
    }

    /// Sum along `axis`, removing that axis; the gradient broadcasts back.
    pub fn sum_axis(&self, axis: usize) -> Result<Var> {
        let a = self.value();
        let out = ops::sum_axis(&a, axis)?;
        let in_shape = a.shape().to_vec();
        Ok(self.unary(
            out,
            Box::new(move |g| {
                // Re-insert the reduced axis as extent 1 and broadcast-add into
                // a zero tensor of the input shape.
                let mut unit = g.shape().to_vec();
                unit.insert(axis, 1);
                let g1 = g.reshape(&unit).expect("volume unchanged");
                let zeros = filled(&in_shape, 0.0);
                let res = ops::add(&zeros, &g1).expect("broadcast to input shape");
                zeros.recycle();
                res
            }),
        ))
    }

    /// Mean along `axis`, removing that axis.
    pub fn mean_axis(&self, axis: usize) -> Result<Var> {
        let shape = self.shape();
        let n = *shape.get(axis).ok_or(TensorError::AxisOutOfRange { axis, rank: shape.len() })?;
        Ok(self.sum_axis(axis)?.mul_scalar(1.0 / n as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0], &[3]));
        let loss = x.sum();
        let g = tape.backward(&loss).unwrap();
        assert_eq!(g.get(x.id()).unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn grad_of_mul() {
        let tape = Tape::new();
        let x = tape.var(t(&[2.0, 3.0], &[2]));
        let y = tape.var(t(&[5.0, 7.0], &[2]));
        let loss = x.mul(&y).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        assert_eq!(g.get(x.id()).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(y.id()).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        let tape = Tape::new();
        let x = tape.var(Tensor::scalar(3.0));
        // loss = x*x ⇒ dloss/dx = 2x = 6
        let loss = x.mul(&x).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        assert_eq!(g.get(x.id()).unwrap().item().unwrap(), 6.0);
    }

    #[test]
    fn grad_of_matmul() {
        let tape = Tape::new();
        let a = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.var(t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]));
        let loss = a.matmul(&b).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        // dL/dA = 1·Bᵀ (all-ones times identity) = all-ones
        assert_eq!(g.get(a.id()).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
        // dL/dB = Aᵀ·1: column sums of A broadcast over columns
        assert_eq!(g.get(b.id()).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn grad_reduces_over_broadcast() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.var(t(&[10.0, 20.0], &[2]));
        let loss = x.add(&b).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        // b was broadcast across 2 rows ⇒ its gradient sums to 2 per entry.
        assert_eq!(g.get(b.id()).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0], &[2]));
        assert!(matches!(tape.backward(&x), Err(TensorError::NonScalarLoss { .. })));
    }

    #[test]
    fn backward_rejects_foreign_tape() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let x = t1.var(Tensor::scalar(1.0));
        assert!(t2.backward(&x).is_err());
    }

    #[test]
    fn detach_blocks_gradient() {
        let tape = Tape::new();
        let x = tape.var(Tensor::scalar(2.0));
        let d = x.mul(&x).unwrap().detach();
        let loss = d.mul(&x).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        // loss = detach(x²)·x ⇒ dloss/dx = x² = 4 (no path through detach)
        assert_eq!(g.get(x.id()).unwrap().item().unwrap(), 4.0);
    }

    #[test]
    fn relu_masks_gradient() {
        let tape = Tape::new();
        let x = tape.var(t(&[-1.0, 2.0], &[2]));
        let loss = x.relu().sum();
        let g = tape.backward(&loss).unwrap();
        assert_eq!(g.get(x.id()).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn min_routes_gradient_to_smaller() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 5.0], &[2]));
        let y = tape.var(t(&[2.0, 3.0], &[2]));
        let loss = x.min(&y).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        assert_eq!(g.get(x.id()).unwrap().data(), &[1.0, 0.0]);
        assert_eq!(g.get(y.id()).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn select_per_row_scatters_grad() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let loss = x.select_per_row(&[1, 0]).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        assert_eq!(g.get(x.id()).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    /// The fused layer against `matmul → add → act` on the shapes of
    /// `ops::linear_act_matches_unfused_bitwise`: below and above
    /// `PACK_MIN_FLOPS`, 1- and 2-wide heads, a row count no row block
    /// divides, and outputs wider than a 16 KB row. Forward values and
    /// the `x`, `w` and `b` gradients must agree bit for bit.
    #[test]
    fn fused_linear_matches_unfused_bitwise() {
        let shapes = [
            (3, 2, 2),
            (5, 4, 3),
            (3, 2, 4100),
            (70, 64, 70),
            (1100, 120, 2),
            (1037, 64, 1),
            (7, 64, 1),
            (6, 32, 4100),
        ];
        for (m, k, n) in shapes {
            let xs: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).sin()).collect();
            let ws: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.9).cos()).collect();
            let bs: Vec<f32> = (0..n).map(|i| 0.1 - 0.3 * i as f32).collect();
            for act in [ops::Act::Relu, ops::Act::Tanh, ops::Act::Sigmoid, ops::Act::Linear] {
                let what = format!("{act:?} ({m},{k},{n})");
                let run = |fused: bool| {
                    let tape = Tape::new();
                    let x = tape.var(t(&xs, &[m, k]));
                    let w = tape.var(t(&ws, &[k, n]));
                    let b = tape.var(t(&bs, &[n]));
                    let y = if fused {
                        x.linear(&w, &b, act).unwrap()
                    } else {
                        let pre = x.matmul(&w).unwrap().add(&b).unwrap();
                        match act {
                            ops::Act::Relu => pre.relu(),
                            ops::Act::Tanh => pre.tanh(),
                            ops::Act::Sigmoid => pre.sigmoid(),
                            ops::Act::Linear => pre,
                        }
                    };
                    // Squared, so the upstream gradient differs per element.
                    let g = tape.backward(&y.square().sum()).unwrap();
                    let bits =
                        |v: &Tensor| -> Vec<u32> { v.data().iter().map(|f| f.to_bits()).collect() };
                    let grad = |v: &Var| bits(g.get(v.id()).unwrap());
                    (bits(&y.value()), [grad(&x), grad(&w), grad(&b)])
                };
                let (fused, unfused) = (run(true), run(false));
                assert_eq!(fused.0, unfused.0, "{what} forward");
                for ((f, u), name) in fused.1.iter().zip(&unfused.1).zip(["x", "w", "b"]) {
                    assert_eq!(f, u, "{what} grad {name} must be bit-identical");
                }
            }
        }
    }

    /// A two-layer fused net whose hidden value is used twice (by the
    /// second layer and by the loss directly, so its gradient is
    /// accumulated), differentiated twice over the same tape.
    #[test]
    fn fused_linear_with_constant_input_keeps_w_and_b_grads_bitwise() {
        let xs: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        let ws: Vec<f32> = (0..4).map(|i| (i as f32 * 0.9).cos()).collect();
        let ws2: Vec<f32> = (0..4).map(|i| (i as f32 * 1.3).sin()).collect();
        let bs = [0.1f32, -0.2];
        let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for act in [ops::Act::Relu, ops::Act::Tanh, ops::Act::Sigmoid, ops::Act::Linear] {
            let run = |leaf: fn(&Tape, Tensor) -> Var| {
                let tape = Tape::new();
                let x = leaf(&tape, t(&xs, &[3, 2]));
                let params = [
                    tape.var(t(&ws, &[2, 2])),
                    tape.var(t(&bs, &[2])),
                    tape.var(t(&ws2, &[2, 2])),
                    tape.var(t(&bs, &[2])),
                ];
                let h = x.linear(&params[0], &params[1], act).unwrap();
                let y = h.linear(&params[2], &params[3], act).unwrap();
                let loss = y.square().sum().add(&h.sum()).unwrap();
                // The first run frees every interior gradient and `gp`
                // as it goes; a second run over the same tape must
                // recompute them all, not reuse or miss the first's.
                let first = tape.backward(&loss).unwrap();
                let again = tape.backward(&loss).unwrap();
                for v in &params {
                    assert_eq!(
                        bits(first.get(v.id()).unwrap()),
                        bits(again.get(v.id()).unwrap()),
                        "{act:?}: second backward over the same tape"
                    );
                }
                for interior in [&h, &y, &loss] {
                    assert!(first.get(interior.id()).is_none(), "{act:?}: interior gradient kept");
                }
                (first.get(x.id()).cloned(), params.map(|v| first.get_or_zeros(&v)))
            };
            let (gx_var, params_var) = run(Tape::var);
            let (gx_const, params_const) = run(Tape::constant);
            assert!(gx_var.is_some(), "{act:?}: a var input gets its gradient");
            assert!(gx_const.is_none(), "{act:?}: a constant input gets none");
            for (a, b) in params_var.iter().zip(&params_const) {
                assert_eq!(bits(a), bits(b), "{act:?} parameter gradient");
            }
        }
    }

    /// A fused two-layer net over seven rows, as one tape and as a
    /// three-row and a four-row tape: weights and biases continue across
    /// the tapes bit for bit, fused or not; a parameter reached through
    /// a broadcast of an interior node (`scale`) is the blocks' sum.
    #[test]
    fn backward_onto_continues_parameter_gradients_across_row_blocks() {
        let xs: Vec<f32> = (0..7 * 3).map(|i| (i as f32 * 0.7).sin()).collect();
        let leaves = [
            t(&(0..12).map(|i| (i as f32 * 0.9).cos()).collect::<Vec<_>>(), &[3, 4]),
            t(&[0.1, -0.2, 0.3, 0.05], &[4]),
            t(&(0..4).map(|i| (i as f32 * 1.3).sin()).collect::<Vec<_>>(), &[4, 1]),
            t(&[0.4], &[1]),
            t(&[1.5], &[1]),
        ];
        let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        // Rows `lo..hi` of a 7-row batch, on top of `carried`.
        let block = |lo: usize, hi: usize, fused: bool, carried: Vec<Tensor>| {
            let tape = Tape::new();
            let p: Vec<Var> = leaves.iter().map(|l| tape.var(l.clone())).collect();
            let x = tape.constant(t(&xs[lo * 3..hi * 3], &[hi - lo, 3]));
            let y = if fused {
                let h = x.linear(&p[0], &p[1], ops::Act::Tanh).unwrap();
                h.linear(&p[2], &p[3], ops::Act::Linear).unwrap()
            } else {
                let h = x.matmul(&p[0]).unwrap().add(&p[1]).unwrap().tanh();
                h.matmul(&p[2]).unwrap().add(&p[3]).unwrap()
            };
            let loss = y.mul(&p[4]).unwrap().square().mean_over(7, &mut None);
            let mut g = tape.backward_onto(&loss, p.iter().zip(carried).collect()).unwrap();
            p.iter().map(|v| g.take_or_zeros(v)).collect::<Vec<Tensor>>()
        };
        let one_tape = block(0, 7, true, Vec::new());
        for fused in [true, false] {
            let blocked = block(3, 7, fused, block(0, 3, fused, Vec::new()));
            for (i, (b, o)) in blocked.iter().zip(&one_tape).enumerate().take(4) {
                assert_eq!(bits(b), bits(o), "fused {fused}: parameter {i}");
            }
            let (b, o) = (blocked[4].data()[0], one_tape[4].data()[0]);
            assert!((b - o).abs() <= 1e-6 * o.abs(), "scale: {b} vs {o}");
        }
        // A gradient of the wrong shape, or for another tape's variable.
        let (tape, other) = (Tape::new(), Tape::new());
        let w = tape.var(leaves[1].clone());
        let loss = w.sum();
        let wrong_shape = vec![(&w, leaves[0].clone())];
        assert!(matches!(
            tape.backward_onto(&loss, wrong_shape),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let foreign = other.var(leaves[1].clone());
        assert!(matches!(
            tape.backward_onto(&loss, vec![(&foreign, leaves[1].clone())]),
            Err(TensorError::UnknownVariable { .. })
        ));
        // Nothing continues a `sum`: carried + this tape's.
        let g = tape.backward_onto(&loss, vec![(&w, leaves[1].clone())]).unwrap();
        let expect: Vec<f32> = leaves[1].data().iter().map(|c| c + 1.0).collect();
        assert_eq!(g.get(w.id()).unwrap().data(), &expect[..]);
    }

    #[test]
    fn value_is_one_shared_buffer() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, -2.0], &[2]));
        let y = x.tanh();
        assert!(Rc::ptr_eq(&y.value(), &y.value()));
        // A detached leaf and a leaf registered from a handle alias
        // their source too.
        assert!(Rc::ptr_eq(&y.detach().value(), &y.value()));
        assert!(Rc::ptr_eq(&tape.constant(x.value()).value(), &x.value()));
    }

    #[test]
    fn value_handle_outlives_its_tape() {
        let held = {
            let tape = Tape::new();
            let x = tape.var(t(&[1.0, 2.0, 3.0], &[3]));
            let y = x.mul_scalar(2.0);
            tape.backward(&y.mul(&y).unwrap().sum()).unwrap();
            y.value()
        };
        // The tape is gone and recycled what it alone owned; `y`'s
        // buffer was held here, so it was left alone. Same-length
        // outputs drawn from the pool now must not touch it.
        assert_eq!(Rc::strong_count(&held), 1);
        let _scribble: Vec<Tensor> = (0..4).map(|_| ops::add_scalar(&held, 7.0)).collect();
        assert_eq!(held.data(), &[2.0, 4.0, 6.0]);
    }

    /// A PPO-shaped loss (clipped surrogate + value + entropy over two
    /// networks sharing the observations) on a discrete and a continuous
    /// policy: registering observations, actions and targets as
    /// constants must leave every parameter gradient bit-identical to
    /// registering them as variables, and give the constants none.
    #[test]
    fn constant_leaves_keep_policy_parameter_grads_bitwise() {
        use crate::nn::{Activation, Mlp};
        let n = 6;
        let obs_t = t(&(0..n * 4).map(|i| (i as f32 * 0.37).sin()).collect::<Vec<_>>(), &[n, 4]);
        let adv_t = t(&[0.5, -1.0, 0.25, 1.5, -0.75, 0.1], &[n]);
        let ret_t = t(&[1.0, 0.5, -0.5, 2.0, 0.0, 0.3], &[n]);
        let old_lp_t = t(&[-0.7, -0.6, -0.8, -0.65, -0.72, -0.69], &[n]);
        let mut r = crate::init::rng(5);
        let actor = Mlp::new(&[4, 8, 8, 2], Activation::Tanh, Activation::Linear, &mut r);
        let critic = Mlp::new(&[4, 8, 1], Activation::Tanh, Activation::Linear, &mut r);
        for discrete in [true, false] {
            let run = |leaf: fn(&Tape, Tensor) -> Var| {
                let tape = Tape::new();
                let (pi, vf) = (actor.bind(&tape), critic.bind(&tape));
                let obs = leaf(&tape, obs_t.clone());
                let out = pi.forward(&obs).unwrap();
                let log_std = tape.var(t(&[-0.3, 0.2], &[2]));
                let (lp, ent) = if discrete {
                    crate::dist::categorical_stats(&out, &[0, 1, 1, 0, 1, 0]).unwrap()
                } else {
                    let actions =
                        t(&(0..n * 2).map(|i| (i as f32).cos()).collect::<Vec<_>>(), &[n, 2]);
                    crate::dist::gaussian_stats(&out, &log_std, actions).unwrap()
                };
                let adv = leaf(&tape, adv_t.clone());
                let ratio = lp.sub(&leaf(&tape, old_lp_t.clone())).unwrap().exp();
                let clipped = ratio.clamp(0.8, 1.2).mul(&adv).unwrap();
                let policy_loss = ratio.mul(&adv).unwrap().min(&clipped).unwrap().mean().neg();
                let values = vf.forward(&obs).unwrap().reshape(&[n]).unwrap();
                let value_loss = values.sub(&leaf(&tape, ret_t.clone())).unwrap().square().mean();
                let loss = policy_loss
                    .add(&value_loss.mul_scalar(0.5))
                    .unwrap()
                    .add(&ent.mean().mul_scalar(-0.01))
                    .unwrap();
                let grads = tape.backward(&loss).unwrap();
                let mut gs = pi.grads(&grads);
                gs.extend(vf.grads(&grads));
                gs.push(grads.get_or_zeros(&log_std));
                (gs, [&obs, &adv].map(|v| grads.get(v.id()).is_some()))
            };
            let (as_vars, var_leaves) = run(Tape::var);
            let (as_consts, const_leaves) = run(Tape::constant);
            assert_eq!(var_leaves, [true, true]);
            assert_eq!(const_leaves, [false, false], "constants get no gradient");
            assert_eq!(as_vars.len(), as_consts.len());
            for (i, (a, b)) in as_vars.iter().zip(&as_consts).enumerate() {
                let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(a), bits(b), "discrete={discrete} param {i}");
            }
        }
    }

    /// Central-difference check for a composite expression.
    #[test]
    fn numeric_gradient_check_composite() {
        let eval = |vals: &[f32]| -> f32 {
            let tape = Tape::new();
            let x = tape.var(t(vals, &[3]));
            let y = x.tanh().mul(&x.sigmoid()).unwrap().add_scalar(0.5).square().sum();
            y.value().item().unwrap()
        };
        let point = [0.3f32, -0.7, 1.2];
        let tape = Tape::new();
        let x = tape.var(t(&point, &[3]));
        let y = x.tanh().mul(&x.sigmoid()).unwrap().add_scalar(0.5).square().sum();
        let g = tape.backward(&y).unwrap();
        let analytic = g.get(x.id()).unwrap().data().to_vec();
        let eps = 1e-3;
        for i in 0..3 {
            let mut lo = point;
            let mut hi = point;
            lo[i] -= eps;
            hi[i] += eps;
            let numeric = (eval(&hi) - eval(&lo)) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-2,
                "axis {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }
}
