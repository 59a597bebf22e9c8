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

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::TensorError;
use crate::ops;
use crate::tensor::Tensor;
use crate::Result;

/// A backward rule: maps the gradient of a node's output to the gradient
/// contribution for one parent.
type GradFn = Box<dyn Fn(&Tensor) -> Tensor>;

struct Node {
    value: Tensor,
    /// `(parent id, rule)` pairs, only for parents that need a gradient;
    /// leaves have none.
    parents: Vec<(usize, GradFn)>,
    /// Whether the loss can have a gradient worth computing here: true
    /// for [`Tape::var`] leaves, false for [`Tape::constant`] leaves,
    /// and for an interior node whether any parent needs one.
    needs_grad: bool,
}

#[derive(Default)]
struct TapeInner {
    nodes: Vec<Node>,
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
/// every node that influenced it.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient for node `id`, if the node influenced the loss.
    pub fn get(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Gradient for a variable, defaulting to zeros of the value's shape
    /// when the variable did not influence the loss.
    pub fn get_or_zeros(&self, var: &Var) -> Tensor {
        match self.get(var.id) {
            Some(g) => g.clone(),
            None => Tensor::zeros(var.value().shape()),
        }
    }

    /// Moves the gradient for a variable out of the result, defaulting to
    /// zeros when the variable did not influence the loss. Each node's
    /// gradient can be taken once; use this when extracting final
    /// per-parameter gradients to skip [`Gradients::get_or_zeros`]'s copy.
    pub fn take_or_zeros(&mut self, var: &Var) -> Tensor {
        match self.grads.get_mut(var.id).and_then(Option::take) {
            Some(g) => g,
            None => Tensor::zeros(var.value().shape()),
        }
    }
}

/// Sums a broadcast gradient back down to `target` shape.
///
/// If the forward pass broadcast a `[2]` operand up to `[3, 2]`, the
/// gradient flowing back has shape `[3, 2]` and must be summed over the
/// broadcast axes to produce a `[2]` gradient.
fn reduce_grad(grad: &Tensor, target: &[usize]) -> Tensor {
    if grad.shape() == target {
        return grad.clone();
    }
    let mut g = grad.clone();
    // Collapse leading axes the target does not have.
    while g.rank() > target.len() {
        g = ops::sum_axis(&g, 0).expect("rank checked above");
    }
    // Sum over axes where the target extent is 1 but the gradient's is not.
    #[allow(clippy::needless_range_loop)] // indexes two slices in lockstep
    for axis in 0..g.rank() {
        if target[axis] == 1 && g.shape()[axis] != 1 {
            let summed = ops::sum_axis(&g, axis).expect("axis in range");
            // Re-insert the unit axis to keep ranks aligned.
            let mut dims = summed.shape().to_vec();
            dims.insert(axis, 1);
            g = summed.reshape(&dims).expect("volume unchanged");
        }
    }
    g
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
        ops::Act::Linear => g.clone(),
    }
}

/// What the backward rules of one fused linear node share.
struct FusedGrad {
    act: ops::Act,
    out: Tensor,
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
            *slot = None;
        }
        res
    }
}

/// `g · bᵀ` for backward rules, without materialising the transpose.
fn grad_matmul_bt(g: &Tensor, b: &Tensor) -> Tensor {
    ops::matmul_bt(g, b).expect("fwd shapes")
}

/// `aᵀ · g` for backward rules, without materialising the transpose.
fn grad_matmul_at(a: &Tensor, g: &Tensor) -> Tensor {
    ops::matmul_at(a, g).expect("fwd shapes")
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
    /// gradient the caller wants).
    pub fn var(&self, value: Tensor) -> Var {
        self.leaf(value, true)
    }

    /// Records a non-differentiable leaf (observations, targets, masks).
    /// [`Tape::backward`] computes nothing for it or for anything that
    /// depends only on such leaves, and [`Gradients::get`] returns
    /// `None` for its id.
    pub fn constant(&self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    fn leaf(&self, value: Tensor, needs_grad: bool) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.nodes.push(Node { value, parents: Vec::new(), needs_grad });
        Var { tape: self.clone(), id }
    }

    /// Records an interior node, dropping the rules (and whatever they
    /// captured) of parents that need no gradient — `backward` then has
    /// nothing to skip.
    fn record(&self, value: Tensor, mut parents: Vec<(usize, GradFn)>) -> Var {
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
    /// # Errors
    ///
    /// Returns [`TensorError::NonScalarLoss`] when `loss` is not a single
    /// element, and [`TensorError::UnknownVariable`] when `loss` belongs to
    /// a different tape.
    pub fn backward(&self, loss: &Var) -> Result<Gradients> {
        if !Rc::ptr_eq(&self.inner, &loss.tape.inner) {
            return Err(TensorError::UnknownVariable { id: loss.id });
        }
        let inner = self.inner.borrow();
        let loss_node =
            inner.nodes.get(loss.id).ok_or(TensorError::UnknownVariable { id: loss.id })?;
        if loss_node.value.len() != 1 {
            return Err(TensorError::NonScalarLoss { shape: loss_node.value.shape().to_vec() });
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; inner.nodes.len()];
        grads[loss.id] = Some(Tensor::full(loss_node.value.shape(), 1.0));
        // Nodes are appended in topological order, so a reverse scan visits
        // every node after all of its consumers.
        for id in (0..=loss.id).rev() {
            // Parents were recorded before their consumers, so `pid < id`
            // always holds and the node's own gradient can be borrowed
            // while parent slots are written — no clone of `grad_out`.
            let (parent_grads, rest) = grads.split_at_mut(id);
            let Some(grad_out) = rest[0].as_ref() else { continue };
            // Parent rules fire in recorded order, each with the same
            // `grad_out` — the fused linear node's rules share work
            // through this invariant.
            for (pid, rule) in &inner.nodes[id].parents {
                debug_assert!(*pid < id, "parent recorded after consumer");
                let contribution = rule(grad_out);
                match &mut parent_grads[*pid] {
                    Some(acc) => {
                        *acc = ops::add(acc, &contribution)
                            .expect("gradient shapes match parent value shapes");
                    }
                    slot @ None => *slot = Some(contribution),
                }
            }
        }
        Ok(Gradients { grads })
    }
}

impl Var {
    /// The node id on its tape.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The forward value.
    pub fn value(&self) -> Tensor {
        self.tape.inner.borrow().nodes[self.id].value.clone()
    }

    /// The shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.inner.borrow().nodes[self.id].value.shape().to_vec()
    }

    fn unary(&self, value: Tensor, rule: GradFn) -> Var {
        self.tape.record(value, vec![(self.id, rule)])
    }

    fn binary(&self, other: &Var, value: Tensor, lrule: GradFn, rrule: GradFn) -> Var {
        self.tape.record(value, vec![(self.id, lrule), (other.id, rrule)])
    }

    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::add(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_grad(g, &sa)),
            Box::new(move |g| reduce_grad(g, &sb)),
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
            Box::new(move |g| reduce_grad(&ops::neg(g), &sb)),
        ))
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::mul(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        let (ac, bc) = (a.clone(), b.clone());
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_grad(&ops::mul(g, &bc).expect("fwd shapes"), &sa)),
            Box::new(move |g| reduce_grad(&ops::mul(g, &ac).expect("fwd shapes"), &sb)),
        ))
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::div(&a, &b)?;
        let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
        let (ac, bc) = (a.clone(), b.clone());
        let bc2 = bc.clone();
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| reduce_grad(&ops::div(g, &bc2).expect("fwd shapes"), &sa)),
            Box::new(move |g| {
                // d(a/b)/db = -a / b^2
                let b2 = ops::square(&bc);
                let t = ops::div(&ops::mul(g, &ac).expect("fwd shapes"), &b2).expect("fwd shapes");
                reduce_grad(&ops::neg(&t), &sb)
            }),
        ))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.unary(ops::neg(&self.value()), Box::new(ops::neg))
    }

    /// Adds a constant scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        self.unary(ops::add_scalar(&self.value(), s), Box::new(|g| g.clone()))
    }

    /// Multiplies by a constant scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        self.unary(ops::mul_scalar(&self.value(), s), Box::new(move |g| ops::mul_scalar(g, s)))
    }

    /// Matrix multiplication of rank-2 values.
    pub fn matmul(&self, other: &Var) -> Result<Var> {
        let (a, b) = (self.value(), other.value());
        let out = ops::matmul(&a, &b)?;
        let (ac, bc) = (a.clone(), b.clone());
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| {
                // dL/dA = G · Bᵀ
                grad_matmul_bt(g, &bc)
            }),
            Box::new(move |g| {
                // dL/dB = Aᵀ · G
                grad_matmul_at(&ac, g)
            }),
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
        let out = ops::linear_act(&x, &wv, &bv, act)?;
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
        let fused = Rc::new(FusedGrad { act, out: out.clone(), gp: RefCell::new(None), last });
        let (fused_x, fused_w) = (Rc::clone(&fused), Rc::clone(&fused));
        Ok(self.tape.record(
            out,
            vec![
                (self.id, Box::new(move |g| fused_x.with(0, g, |gp| grad_matmul_bt(gp, &wv)))),
                (w.id, Box::new(move |g| fused_w.with(1, g, |gp| grad_matmul_at(&x, gp)))),
                (b.id, Box::new(move |g| fused.with(2, g, |gp| reduce_grad(gp, &b_shape)))),
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
        let out = ops::tanh(&self.value());
        let oc = out.clone();
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
        let out = ops::sigmoid(&self.value());
        let oc = out.clone();
        self.unary(
            out,
            Box::new(move |g| {
                ops::zip_broadcast(g, &oc, |gv, ov| gv * ov * (1.0 - ov)).expect("same shape")
            }),
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        let out = ops::exp(&self.value());
        let oc = out.clone();
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
        let (ac, bc) = (a.clone(), b.clone());
        let (ac2, bc2) = (a, b);
        Ok(self.binary(
            other,
            out,
            Box::new(move |g| {
                let masked = ops::zip_broadcast(
                    &ops::zip_broadcast(&ac, &bc, |x, y| if x <= y { 1.0 } else { 0.0 })
                        .expect("fwd shapes"),
                    g,
                    |m, gv| m * gv,
                )
                .expect("fwd shapes");
                reduce_grad(&masked, &sa)
            }),
            Box::new(move |g| {
                let masked = ops::zip_broadcast(
                    &ops::zip_broadcast(&ac2, &bc2, |x, y| if x > y { 1.0 } else { 0.0 })
                        .expect("fwd shapes"),
                    g,
                    |m, gv| m * gv,
                )
                .expect("fwd shapes");
                reduce_grad(&masked, &sb)
            }),
        ))
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let shape = self.value().shape().to_vec();
        self.unary(
            ops::sum_all(&self.value()),
            Box::new(move |g| {
                let gv = g.item().expect("scalar grad");
                Tensor::full(&shape, gv)
            }),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let shape = self.value().shape().to_vec();
        let n = self.value().len().max(1) as f32;
        self.unary(
            ops::mean_all(&self.value()),
            Box::new(move |g| {
                let gv = g.item().expect("scalar grad") / n;
                Tensor::full(&shape, gv)
            }),
        )
    }

    /// Row-wise log-softmax of a rank-2 value.
    pub fn log_softmax_rows(&self) -> Result<Var> {
        let a = self.value();
        let out = ops::log_softmax_rows(&a)?;
        let soft = ops::exp(&out);
        Ok(self.unary(
            out,
            Box::new(move |g| {
                // d log_softmax / dx: G - softmax * rowsum(G)
                let (m, n) = (soft.shape()[0], soft.shape()[1]);
                let mut res = vec![0.0f32; m * n];
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
                let mut res = vec![0.0f32; m * n];
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
    /// leaf, so no gradient flows through it (MSRL uses this for
    /// advantage targets).
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
    pub fn constant(&self, t: Tensor) -> Var {
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
                ops::add(&Tensor::zeros(&in_shape), &g1).expect("broadcast to input shape")
            }),
        ))
    }

    /// Mean along `axis`, removing that axis.
    pub fn mean_axis(&self, axis: usize) -> Result<Var> {
        let n = *self
            .value()
            .shape()
            .get(axis)
            .ok_or(TensorError::AxisOutOfRange { axis, rank: self.value().rank() })?
            as f32;
        Ok(self.sum_axis(axis)?.mul_scalar(1.0 / n))
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

    #[test]
    fn fused_linear_matches_unfused_bitwise() {
        let xs: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        let ws: Vec<f32> = (0..4).map(|i| (i as f32 * 0.9).cos()).collect();
        let bs = [0.1f32, -0.2];
        for act in [ops::Act::Relu, ops::Act::Tanh, ops::Act::Sigmoid, ops::Act::Linear] {
            let tape_f = Tape::new();
            let x = tape_f.var(t(&xs, &[3, 2]));
            let w = tape_f.var(t(&ws, &[2, 2]));
            let b = tape_f.var(t(&bs, &[2]));
            let fused = x.linear(&w, &b, act).unwrap();
            let loss_f = fused.sum();
            let gf = tape_f.backward(&loss_f).unwrap();

            let tape_u = Tape::new();
            let xu = tape_u.var(t(&xs, &[3, 2]));
            let wu = tape_u.var(t(&ws, &[2, 2]));
            let bu = tape_u.var(t(&bs, &[2]));
            let pre = xu.matmul(&wu).unwrap().add(&bu).unwrap();
            let unfused = match act {
                ops::Act::Relu => pre.relu(),
                ops::Act::Tanh => pre.tanh(),
                ops::Act::Sigmoid => pre.sigmoid(),
                ops::Act::Linear => pre,
            };
            assert_eq!(fused.value().data(), unfused.value().data(), "{act:?} forward");
            let loss_u = unfused.sum();
            let gu = tape_u.backward(&loss_u).unwrap();
            for ((f, u), name) in [(&x, &xu), (&w, &wu), (&b, &bu)].iter().zip(["x", "w", "b"]) {
                assert_eq!(
                    gf.get(f.id()).unwrap().data(),
                    gu.get(u.id()).unwrap().data(),
                    "{act:?} grad {name} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn fused_linear_with_constant_input_keeps_w_and_b_grads_bitwise() {
        let xs: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        let ws: Vec<f32> = (0..4).map(|i| (i as f32 * 0.9).cos()).collect();
        let bs = [0.1f32, -0.2];
        for act in [ops::Act::Relu, ops::Act::Tanh, ops::Act::Sigmoid, ops::Act::Linear] {
            let run = |leaf: fn(&Tape, Tensor) -> Var| {
                let tape = Tape::new();
                let x = leaf(&tape, t(&xs, &[3, 2]));
                let w = tape.var(t(&ws, &[2, 2]));
                let b = tape.var(t(&bs, &[2]));
                let loss = x.linear(&w, &b, act).unwrap().square().sum();
                // A second run over the same tape must recompute `gp`,
                // not reuse or miss the first run's.
                let first = tape.backward(&loss).unwrap();
                let again = tape.backward(&loss).unwrap();
                for v in [&w, &b] {
                    assert_eq!(
                        first.get(v.id()).unwrap().data(),
                        again.get(v.id()).unwrap().data()
                    );
                }
                (first.get(x.id()).cloned(), first.get_or_zeros(&w), first.get_or_zeros(&b))
            };
            let (gx_var, gw_var, gb_var) = run(Tape::var);
            let (gx_const, gw_const, gb_const) = run(Tape::constant);
            assert!(gx_var.is_some(), "{act:?}: a var input gets its gradient");
            assert!(gx_const.is_none(), "{act:?}: a constant input gets none");
            assert_eq!(gw_var.data(), gw_const.data(), "{act:?} grad w");
            assert_eq!(gb_var.data(), gb_const.data(), "{act:?} grad b");
        }
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
                    crate::dist::gaussian_stats(&out, &log_std, &actions).unwrap()
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
