//! Tensor math: broadcasting element-wise ops, matmul, reductions and
//! shape-manipulating operators.
//!
//! These are the "DL-engine operators" of the reproduction: the drivers'
//! hand-written fragment bodies call them through the autograd tape and
//! `nn`, and `msrl-core`'s reference evaluator lowers traced dataflow
//! nodes onto exactly these functions, the same way the original system
//! lowers onto MindSpore operators.

use std::cell::OnceCell;

use crate::error::TensorError;
use crate::fastmath::{self, Unary};
use crate::kernels;
use crate::shape::{BroadcastPlan, Shape};
use crate::tensor::Tensor;
use crate::Result;

// ---------------------------------------------------------------------------
// Element-wise with broadcasting
// ---------------------------------------------------------------------------

/// Applies `f` element-wise over the broadcast of `a` and `b`.
///
/// Addressing goes through a precomputed [`BroadcastPlan`] — no
/// per-element coordinate vectors.
pub fn zip_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    let out_shape = a.shape_obj().broadcast(b.shape_obj())?;
    let ad = a.data();
    let bd = b.data();
    // Both paths write every element.
    let mut data = crate::alloc::take_for_overwrite(out_shape.volume());
    // Fast path: identical shapes need no plan at all.
    if a.shape() == b.shape() {
        for ((slot, &x), &y) in data.iter_mut().zip(ad).zip(bd) {
            *slot = f(x, y);
        }
        return Tensor::from_vec(data, out_shape.dims());
    }
    let plan = BroadcastPlan::new(a.shape_obj(), b.shape_obj(), &out_shape);
    let (ais, bis) = plan.inner_strides();
    let mut w = 0;
    plan.for_each_base(|a_base, b_base| {
        for t in 0..plan.inner() {
            data[w] = f(ad[a_base + t * ais], bd[b_base + t * bis]);
            w += 1;
        }
    });
    Tensor::from_vec(data, out_shape.dims())
}

/// Applies `f` element-wise to a single tensor.
pub fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let ad = a.data();
    let mut data = crate::alloc::take_for_overwrite(ad.len());
    for (slot, &x) in data.iter_mut().zip(ad) {
        *slot = f(x);
    }
    Tensor::from_vec(data, a.shape()).expect("map preserves shape")
}

macro_rules! binary_op {
    ($(#[$doc:meta])* $name:ident, $f:expr) => {
        $(#[$doc])*
        pub fn $name(a: &Tensor, b: &Tensor) -> Result<Tensor> {
            zip_broadcast(a, b, $f)
        }
    };
}

binary_op!(
    /// Element-wise addition with broadcasting.
    add, |x, y| x + y
);
binary_op!(
    /// Element-wise subtraction with broadcasting.
    sub, |x, y| x - y
);
binary_op!(
    /// Element-wise multiplication with broadcasting.
    mul, |x, y| x * y
);
binary_op!(
    /// Element-wise division with broadcasting.
    div, |x, y| x / y
);
binary_op!(
    /// Element-wise maximum with broadcasting.
    maximum, |x, y| x.max(y)
);
binary_op!(
    /// Element-wise minimum with broadcasting.
    minimum, |x, y| x.min(y)
);

/// Adds a scalar to every element.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    map(a, |x| x + s)
}

/// Multiplies every element by a scalar.
pub fn mul_scalar(a: &Tensor, s: f32) -> Tensor {
    map(a, |x| x * s)
}

/// Element-wise negation.
pub fn neg(a: &Tensor) -> Tensor {
    map(a, |x| -x)
}

/// A [`crate::fastmath`] transcendental over every element.
fn map_transcendental(a: &Tensor, u: Unary) -> Tensor {
    let ad = a.data();
    let mut data = crate::alloc::take_for_overwrite(ad.len());
    data.copy_from_slice(ad);
    fastmath::apply_slice(u, &mut data);
    Tensor::from_vec(data, a.shape()).expect("map preserves shape")
}

/// Element-wise exponential ([`crate::fastmath::fast_exp`]).
pub fn exp(a: &Tensor) -> Tensor {
    map_transcendental(a, Unary::Exp)
}

/// Element-wise natural logarithm.
///
/// Inputs are clamped to `f32::MIN_POSITIVE` to keep gradients finite, the
/// standard DL-engine convention for `Log` operators.
pub fn ln(a: &Tensor) -> Tensor {
    map(a, |x| x.max(f32::MIN_POSITIVE).ln())
}

/// Element-wise square root (of the clamped-to-zero input).
pub fn sqrt(a: &Tensor) -> Tensor {
    map(a, |x| x.max(0.0).sqrt())
}

/// Element-wise ReLU.
pub fn relu(a: &Tensor) -> Tensor {
    map(a, |x| x.max(0.0))
}

/// Element-wise hyperbolic tangent ([`crate::fastmath::fast_tanh`]).
pub fn tanh(a: &Tensor) -> Tensor {
    map_transcendental(a, Unary::Tanh)
}

/// Element-wise logistic sigmoid ([`crate::fastmath::fast_sigmoid`]).
pub fn sigmoid(a: &Tensor) -> Tensor {
    map_transcendental(a, Unary::Sigmoid)
}

/// Element-wise square.
pub fn square(a: &Tensor) -> Tensor {
    map(a, |x| x * x)
}

/// Clamps every element into `[lo, hi]`.
pub fn clamp(a: &Tensor, lo: f32, hi: f32) -> Tensor {
    map(a, |x| x.clamp(lo, hi))
}

// ---------------------------------------------------------------------------
// Matrix multiplication
// ---------------------------------------------------------------------------

/// The `(rows, cols)` of a rank-2 tensor, or `op`'s rank error.
fn dims2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    match *t.shape() {
        [rows, cols] => Ok((rows, cols)),
        _ => Err(TensorError::RankMismatch { op, expected: 2, actual: t.rank() }),
    }
}

/// `Ok` when `inner == inner2`, else `op`'s shape error over the two
/// operand shapes.
fn same_inner(
    op: &'static str,
    (inner, inner2): (usize, usize),
    lhs: &[usize],
    rhs: &[usize],
) -> Result<()> {
    if inner == inner2 {
        return Ok(());
    }
    Err(TensorError::ShapeMismatch { op, lhs: lhs.to_vec(), rhs: rhs.to_vec() })
}

/// The output buffer of a reduction that may go on from `carried`, and
/// whether it does: `carried`'s storage once its shape is checked against
/// the output's `dims` (else `op`'s shape error), or `fresh()`.
fn continued_output(
    op: &'static str,
    dims: &[usize],
    carried: Option<Tensor>,
    fresh: impl FnOnce() -> Vec<f32>,
) -> Result<(Vec<f32>, bool)> {
    match carried {
        Some(acc) if acc.shape() == dims => Ok((acc.into_vec(), true)),
        Some(acc) => {
            Err(TensorError::ShapeMismatch { op, lhs: dims.to_vec(), rhs: acc.shape().to_vec() })
        }
        None => Ok((fresh(), false)),
    }
}

/// Multiply–add count at or above which a row-major right operand is
/// packed on the fly for the register-tiled microkernel; below it the
/// packing copy costs more than the tile saves, so the small products
/// of a rollout run the unpacked row kernel.
pub const PACK_MIN_FLOPS: usize = 64 * 64 * 64;

/// Rows of the left operand below which a row-major right operand is not
/// packed, whatever [`PACK_MIN_FLOPS`] says: at `k = n = 256` one pack
/// plus the tile overtakes the row kernel between 16 and 24 rows
/// (EXPERIMENTS.md, "Each weight packed once a pass"), so an 8-row
/// forward of a wide layer multiplies in place.
pub const PACK_MIN_ROWS: usize = 24;

/// The column panels of one weight `[k, n]`: `b` for `x · w`
/// ([`kernels::pack_b`]) and `bt` for `g · wᵀ` ([`kernels::pack_bt`]),
/// each packed by the first product that needs it and read by every
/// product after it. Per-call packing is a fresh `Panels` used once; a
/// learn pass hands every row block's products of one weight version
/// the same `Panels` ([`crate::nn::SharedMlp`]), so each weight is
/// packed once a pass; an acting seat holds [`Panels::packed`] ones per
/// weight version ([`crate::nn::Mlp::infer_with`]). Whoever holds one
/// pairs it with one weight version: the panels are not checked against
/// the operand's values, only against its shape.
///
/// Panels come from the pool of the thread that packs them and go back,
/// when the `Panels` drops, to the pool of the thread that drops it.
#[derive(Debug, Default)]
pub struct Panels {
    b: OnceCell<kernels::PackedB>,
    bt: OnceCell<kernels::PackedB>,
}

impl Panels {
    /// Panels whose `x · w` half is packed from `w: [k, n]` now. Every
    /// `x · w` that reads them runs the packed tile, whatever
    /// [`PACK_MIN_FLOPS`], [`PACK_MIN_ROWS`] or a narrow output would
    /// decide: the pack is paid once per weight version, not per call.
    ///
    /// # Panics
    ///
    /// Panics when `w` is not a matrix.
    pub fn packed(w: &Tensor) -> Panels {
        let &[k, n] = w.shape() else { panic!("Panels::packed: a weight is [k, n]") };
        Panels { b: OnceCell::from(kernels::pack_b(w.data(), k, n)), bt: OnceCell::new() }
    }
}

impl Drop for Panels {
    fn drop(&mut self) {
        for packed in [self.b.take(), self.bt.take()].into_iter().flatten() {
            packed.recycle();
        }
    }
}

/// Right operand of [`product`]: the sources its panels come from.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// Row-major `[k, n]`: multiplied from its panels once they exist
    /// (packed by an earlier product or by [`Panels::packed`]), packed
    /// into them by a product at or above [`PACK_MIN_FLOPS`] and
    /// [`PACK_MIN_ROWS`], multiplied in place below.
    RowMajor(&'a [f32], &'a Panels),
    /// Row-major `[n, k]`, the `b` of `a · bᵀ`: always multiplied from
    /// its transposed panels, packed by the first product that reads them
    /// — the pack is the transpose.
    Transposed(&'a [f32], &'a Panels),
}

/// The one body behind every `[m, k] · [k, n]`-shaped product:
/// [`matmul`], [`matmul_bt`] and [`linear_act`] differ only in where the
/// right operand's panels come from and in the `epilogue` run over the
/// output right after the kernel writes it.
///
/// Panels that exist are read whatever the product's size. Otherwise an
/// output narrower than the kernel family's vector
/// ([`kernels::MatKernel::lanes`]) runs on row lanes from the row-major
/// operand, which is never packed for it, whatever [`PACK_MIN_FLOPS`]
/// says. A pack happens once per [`Panels`], before any product that
/// reads it, in storage drawn from the thread-local pool. Every element
/// accumulates over `k` in ascending order in either kernel, keeping
/// them bit-exact with each other: which one a product runs never moves
/// a bit.
/// Both kernels overwrite every element, so the output is not zeroed
/// first.
fn product(
    ad: &[f32],
    [m, k, n]: [usize; 3],
    rhs: Rhs<'_>,
    epilogue: impl FnOnce(&mut [f32]),
) -> Result<Tensor> {
    let worth_packing = m * k * n >= PACK_MIN_FLOPS && m >= PACK_MIN_ROWS;
    let narrow = n < kernels::select().lanes();
    let packed = match rhs {
        Rhs::RowMajor(bd, panels) => match panels.b.get() {
            Some(bp) => Some(bp),
            None if worth_packing && !narrow => {
                Some(panels.b.get_or_init(|| kernels::pack_b(bd, k, n)))
            }
            None => None,
        },
        Rhs::Transposed(bd, panels) => Some(panels.bt.get_or_init(|| kernels::pack_bt(bd, k, n))),
    };
    let mut out = crate::alloc::take_for_overwrite(m * n);
    match (packed, rhs) {
        (Some(bp), _) => kernels::matmul_packed_rows(ad, &mut out, k, n, bp),
        (None, Rhs::RowMajor(bd, _)) => kernels::matmul_simd_rows(ad, &mut out, k, n, bd),
        (None, _) => unreachable!("only a row-major operand runs unpacked"),
    }
    epilogue(&mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::ShapeMismatch`] when the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let ((m, k), (k2, n)) = (dims2("matmul", a)?, dims2("matmul", b)?);
    same_inner("matmul", (k, k2), a.shape(), b.shape())?;
    product(a.data(), [m, k, n], Rhs::RowMajor(b.data(), &Panels::default()), |_| {})
}

/// Transposed-LHS product without materialising the transpose:
/// `aᵀ · b` for `a: [p, m]`, `b: [p, n]` → `[m, n]`.
///
/// Autograd's weight gradients are all `xᵀ · g` products; the naive
/// route copies `x` through [`transpose`] (an allocation plus a strided
/// walk) before every such matmul. Here each output element accumulates
/// `a[kk][i] * b[kk][j]` for `kk` ascending — exactly the sequence
/// `matmul(&transpose(a)?, b)` performs — so the result is
/// bit-identical while skipping the intermediate entirely.
///
/// # Errors
///
/// Returns the same rank/shape errors as [`matmul`] (shared first axis
/// `p` plays the inner-dimension role).
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_at_onto(a, b, None)
}

/// [`matmul_at`] continued across row blocks: `carried`, when given, is
/// `aᵀ · b` over the rows that precede these `p` in a taller pair of
/// operands, and the result is the product over both, in `carried`'s
/// buffer. Every output element keeps its one accumulator and its
/// ascending row order across the call boundary
/// ([`kernels::matmul_at_rows`]), so feeding a product in consecutive
/// row blocks is bit-identical to one call over all rows — which is what
/// lets a learner differentiate a tall batch block by block without
/// changing a weight gradient.
///
/// # Errors
///
/// As [`matmul_at`], plus [`TensorError::ShapeMismatch`] when `carried`
/// is not `[m, n]`.
pub fn matmul_at_onto(a: &Tensor, b: &Tensor, carried: Option<Tensor>) -> Result<Tensor> {
    let ((p, m), (p2, n)) = (dims2("matmul_at", a)?, dims2("matmul_at", b)?);
    same_inner("matmul_at", (p, p2), a.shape(), b.shape())?;
    let (mut out, resume) = continued_output("matmul_at_onto", &[m, n], carried, || {
        crate::alloc::take_for_overwrite(m * n)
    })?;
    kernels::matmul_at_rows(a.data(), &mut out, p, m, n, b.data(), resume);
    Tensor::from_vec(out, &[m, n])
}

/// Transposed-RHS product without materialising the transpose:
/// `a · bᵀ` for `a: [m, p]`, `b: [n, p]` → `[m, n]`.
///
/// The counterpart of [`matmul_at`] for autograd's input gradients
/// (`g · wᵀ`). There is no `a × bᵀ` kernel: `b`'s rows are copied
/// straight into the column panels [`matmul`] would build from
/// `transpose(b)` ([`kernels::pack_bt`]) and the packed tile runs on
/// them, so each output element is the dot product of row `i` of `a`
/// and row `j` of `b` accumulated over `kk` ascending — bit-identical to
/// `matmul(a, &transpose(b)?)`. The panels are `panels`' transposed
/// ones, packed here unless an earlier product of `b` packed them.
///
/// # Errors
///
/// Returns the same rank/shape errors as [`matmul`] (shared second axis
/// `p` plays the inner-dimension role).
pub fn matmul_bt(a: &Tensor, b: &Tensor, panels: &Panels) -> Result<Tensor> {
    let ((m, p), (n, p2)) = (dims2("matmul_bt", a)?, dims2("matmul_bt", b)?);
    same_inner("matmul_bt", (p, p2), a.shape(), b.shape())?;
    product(a.data(), [m, p, n], Rhs::Transposed(b.data(), panels), |_| {})
}

/// Activation selector for the fused linear kernel.
///
/// Each variant applies the *same scalar function* as the matching
/// element-wise op ([`relu`], [`tanh`], [`sigmoid`], identity) — the
/// [`crate::fastmath`] scalars are bitwise-equal to their slice kernels
/// — which is what keeps [`linear_act`] bit-identical to the unfused
/// matmul → bias-add → activation chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// `max(v, 0)` — same as [`relu`].
    Relu,
    /// `tanh(v)` — same as [`tanh`].
    Tanh,
    /// `1 / (1 + e^{-v})` — same as [`sigmoid`].
    Sigmoid,
    /// Identity (no activation).
    Linear,
}

impl Act {
    /// Applies the activation to a single element. Always inlined: the
    /// polynomial steps of `tanh`/`sigmoid` are fused multiply–adds, one
    /// instruction each only inside a feature-enabled body.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Act::Relu => v.max(0.0),
            Act::Tanh => fastmath::fast_tanh(v),
            Act::Sigmoid => fastmath::fast_sigmoid(v),
            Act::Linear => v,
        }
    }
}

/// Bias + activation epilogue of [`linear_act`] over the `[m, n]`
/// output. Tanh/Sigmoid fold the bias add into the vectorized
/// [`crate::fastmath`] lane pass
/// ([`fastmath::apply_rows_biased`]); Relu/Linear apply `act(v + b[j])`
/// per element, spelled out ([`Act::apply`]'s other arms would bring
/// the polynomial into a body compiled for the baseline target). Either
/// way each element sees the exact sequence of the separate operators
/// (bit-identical contract).
fn act_epilogue(chunk: &mut [f32], bd: &[f32], n: usize, act: Act) {
    if n == 0 {
        return;
    }
    match act {
        Act::Tanh => fastmath::apply_rows_biased(Unary::Tanh, chunk, bd),
        Act::Sigmoid => fastmath::apply_rows_biased(Unary::Sigmoid, chunk, bd),
        Act::Relu => {
            for row in chunk.chunks_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bd) {
                    *o = (*o + bv).max(0.0);
                }
            }
        }
        Act::Linear => {
            for row in chunk.chunks_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bd) {
                    *o += bv;
                }
            }
        }
    }
}

/// Fused linear layer: `act(x·w + b)` for `x: [m, k]`, `w: [k, n]`,
/// `b: [n]` in one pass over the output.
///
/// The unfused chain walks the `[m, n]` output three times (matmul
/// accumulate, broadcast bias add, activation map) and round-trips two
/// intermediate tensors through the allocator; here the bias+activation
/// epilogue runs on the output while it is still cache-hot.
/// Accumulation is [`matmul`]'s — `w` is multiplied from `panels` when
/// an earlier product packed them, else the [`PACK_MIN_FLOPS`] and
/// [`PACK_MIN_ROWS`] rules decide whether this one packs them for the
/// register tile — and the epilogue applies `act(v + b[j])` per element:
/// the same floating-point sequence as the separate operators, so
/// results are bit-identical. A caller with no panels to share passes a
/// fresh [`Panels`]: the pack, if any, is per call. `panels` must be
/// `w`'s: they are checked against its shape only.
///
/// # Errors
///
/// Returns the same rank/shape errors as [`matmul`], plus
/// [`TensorError::ShapeMismatch`] when `b` is not a length-`n` vector.
pub fn linear_act(x: &Tensor, w: &Tensor, panels: &Panels, b: &Tensor, act: Act) -> Result<Tensor> {
    const OP: &str = "linear_act";
    let ((m, k), (k2, n)) = (dims2(OP, x)?, dims2(OP, w)?);
    same_inner(OP, (k, k2), x.shape(), w.shape())?;
    if b.shape() != [n] {
        return Err(TensorError::ShapeMismatch { op: OP, lhs: vec![n], rhs: b.shape().to_vec() });
    }
    msrl_telemetry::static_counter!("tensor.fused_linear").add(1);
    let bd = b.data();
    product(x.data(), [m, k, n], Rhs::RowMajor(w.data(), panels), |chunk| {
        act_epilogue(chunk, bd, n, act)
    })
}

/// Transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = dims2("transpose", a)?;
    let mut out = crate::alloc::take_for_overwrite(m * n);
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a.data()[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of all elements, as a scalar tensor.
pub fn sum_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.data().iter().sum())
}

/// Mean of all elements, as a scalar tensor. Empty tensors yield 0.
pub fn mean_all(a: &Tensor) -> Tensor {
    if a.is_empty() {
        return Tensor::scalar(0.0);
    }
    Tensor::scalar(sum_all(a).data()[0] / a.len() as f32)
}

/// Maximum of all elements, as a scalar tensor.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for empty tensors.
pub fn max_all(a: &Tensor) -> Result<Tensor> {
    if a.is_empty() {
        return Err(TensorError::EmptyInput { op: "max_all" });
    }
    Ok(Tensor::scalar(a.data().iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))))
}

/// Reduces along `axis`, removing that axis.
///
/// Every slot folds over the reduced axis in ascending order. The fold
/// runs in the SIMD reduction microkernels ([`kernels::reduce_rows`] /
/// [`kernels::reduce_groups`]), whose lanes span independent output
/// slots and replay the per-slot order of [`crate::reference::reduce`].
///
/// `scale`, when set, multiplies each output slot right after its own
/// fold completes — the single-pass `mean_axis` epilogue; per element it
/// is the same multiply a separate rescale traversal would perform.
///
/// `carried`, when given, is the same reduction over the slices that
/// precede `a` along `axis`: every slot's fold starts from it instead of
/// the identity and the result lands in its buffer.
fn reduce_axis(
    a: &Tensor,
    axis: usize,
    op: kernels::RedOp,
    scale: Option<f32>,
    carried: Option<Tensor>,
) -> Result<Tensor> {
    if axis >= a.rank() {
        return Err(TensorError::AxisOutOfRange { axis, rank: a.rank() });
    }
    let dims = a.shape();
    let outer: usize = dims[..axis].iter().product();
    let mid = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let mut out_dims: Vec<usize> = dims[..axis].to_vec();
    out_dims.extend_from_slice(&dims[axis + 1..]);
    let ad = a.data();
    // The fold kernels start every slot from the identity (or from what
    // `carried` holds) and write it, so a fresh buffer is not filled.
    let (mut out, resume) = continued_output("sum_axis_onto", &out_dims, carried, || {
        crate::alloc::take_for_overwrite(outer * inner)
    })?;
    match inner {
        0 => {}
        1 => kernels::reduce_rows(ad, &mut out, mid, op, scale, resume),
        _ => kernels::reduce_groups(ad, &mut out, mid, inner, op, scale, resume),
    }
    Tensor::from_vec(out, &out_dims)
}

/// Sum along `axis`, removing that axis.
pub fn sum_axis(a: &Tensor, axis: usize) -> Result<Tensor> {
    sum_axis_onto(a, axis, None)
}

/// [`sum_axis`] continued across blocks of `axis`: `carried`, when
/// given, is the sum over the slices that precede `a`, and each slot
/// goes on from it with the one accumulator and ascending order of a
/// single sweep — a column sum fed in consecutive row blocks is
/// bit-identical to the sum over all rows (the bias gradient's
/// counterpart of [`matmul_at_onto`]).
///
/// # Errors
///
/// As [`sum_axis`], plus [`TensorError::ShapeMismatch`] when `carried`
/// does not have the output's shape.
pub fn sum_axis_onto(a: &Tensor, axis: usize, carried: Option<Tensor>) -> Result<Tensor> {
    reduce_axis(a, axis, kernels::RedOp::Sum, None, carried)
}

/// Mean along `axis`, removing that axis.
///
/// Single pass: each output slot is scaled by `1/n` immediately after
/// its own sum finishes, instead of materializing `sum_axis` and
/// rescaling in a second full traversal — bit-identical to the former
/// two-pass form because the per-element multiply is unchanged.
pub fn mean_axis(a: &Tensor, axis: usize) -> Result<Tensor> {
    let n =
        *a.shape().get(axis).ok_or(TensorError::AxisOutOfRange { axis, rank: a.rank() })? as f32;
    reduce_axis(a, axis, kernels::RedOp::Sum, Some(1.0 / n), None)
}

/// Maximum along `axis`, removing that axis.
///
/// Uses the pinned [`kernels::max_fold`] step (NaN operands ignored as
/// `f32::max` does; the ±0 tie resolved to the earlier element) so the
/// scalar reference and the SIMD kernels agree bitwise on every input.
pub fn max_axis(a: &Tensor, axis: usize) -> Result<Tensor> {
    reduce_axis(a, axis, kernels::RedOp::Max, None, None)
}

/// Index of the maximum along the last axis of a rank-2 tensor.
///
/// Returns a 1-D tensor of row-wise argmax indices (as `f32` values, the
/// convention used by the dataflow interpreter for index tensors).
///
/// Ties break to the **first** maximum: the fold only moves on a strict
/// `>`, so among equal maxima the lowest index wins. NaN never compares
/// greater, so a NaN past column 0 is never selected (a NaN *in* column
/// 0 seeds the fold and then nothing can displace it). The fold carries
/// `(index, value)` so each step compares against a register instead of
/// re-loading `row[best]` through a data-dependent index.
///
/// # Errors
///
/// Returns an error for non-matrix input or zero columns.
pub fn argmax_rows(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "argmax_rows", expected: 2, actual: a.rank() });
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    if n == 0 {
        return Err(TensorError::EmptyInput { op: "argmax_rows" });
    }
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        let row = &a.data()[i * n..(i + 1) * n];
        let (best, _) = row
            .iter()
            .enumerate()
            .skip(1)
            .fold((0usize, row[0]), |(bi, bv), (j, &v)| if v > bv { (j, v) } else { (bi, bv) });
        out.push(best as f32);
    }
    Tensor::from_vec(out, &[m])
}

// ---------------------------------------------------------------------------
// Softmax family
// ---------------------------------------------------------------------------

/// Numerically-stable softmax along the last axis of a rank-2 tensor.
///
/// One chunked traversal per row ([`fastmath::softmax_row_fast_inplace`]:
/// lane-tree max, vectorized polynomial `exp`, lane-tree sum, scale by
/// the reciprocal).
///
/// # Errors
///
/// Returns an error for non-matrix input.
pub fn softmax_rows(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: a.rank(),
        });
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let ad = a.data();
    // Every row is copied in and then normalised in place.
    let mut out = crate::alloc::take_for_overwrite(m * n);
    if out.is_empty() {
        return Tensor::from_vec(out, &[m, n]);
    }
    fastmath::softmax_rows_fast(ad, &mut out, n);
    Tensor::from_vec(out, &[m, n])
}

/// Numerically-stable log-softmax along the last axis of a rank-2 tensor.
///
/// # Errors
///
/// Returns an error for non-matrix input.
pub fn log_softmax_rows(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "log_softmax_rows",
            expected: 2,
            actual: a.rank(),
        });
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let ad = a.data();
    let mut out = crate::alloc::take_for_overwrite(m * n);
    if out.is_empty() {
        return Tensor::from_vec(out, &[m, n]);
    }
    fastmath::log_softmax_rows(ad, &mut out, n);
    Tensor::from_vec(out, &[m, n])
}

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

/// Concatenates tensors along `axis`.
///
/// # Errors
///
/// Returns an error if the list is empty, ranks differ, the axis is out of
/// range, or non-concat axes disagree.
pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = parts.first().ok_or(TensorError::EmptyInput { op: "concat" })?;
    let rank = first.rank();
    if axis >= rank {
        return Err(TensorError::AxisOutOfRange { axis, rank });
    }
    let mut axis_total = 0;
    for p in parts {
        if p.rank() != rank {
            return Err(TensorError::RankMismatch {
                op: "concat",
                expected: rank,
                actual: p.rank(),
            });
        }
        for (d, (&a, &b)) in first.shape().iter().zip(p.shape()).enumerate() {
            if d != axis && a != b {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
        }
        axis_total += p.shape()[axis];
    }
    let mut out_dims = first.shape().to_vec();
    out_dims[axis] = axis_total;
    let out_shape = Shape::new(&out_dims);
    let outer: usize = out_dims[..axis].iter().product();
    let inner: usize = out_dims[axis + 1..].iter().product();
    let mut out = Vec::with_capacity(out_shape.volume());
    for o in 0..outer {
        for p in parts {
            let mid = p.shape()[axis];
            let start = o * mid * inner;
            out.extend_from_slice(&p.data()[start..start + mid * inner]);
        }
    }
    Tensor::from_vec(out, &out_dims)
}

/// Stacks equally-shaped tensors along a new leading axis.
///
/// This is the primitive behind MSRL's fragment *fusion* (§5.2 of the
/// paper): N replica tensors of shape `S` become one `[N, ..S]` tensor so a
/// single batched operator can process all replicas at once.
///
/// # Errors
///
/// Returns an error if the list is empty or shapes disagree.
pub fn stack(parts: &[&Tensor]) -> Result<Tensor> {
    let first = parts.first().ok_or(TensorError::EmptyInput { op: "stack" })?;
    let mut out = Vec::with_capacity(first.len() * parts.len());
    for p in parts {
        if p.shape() != first.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "stack",
                lhs: first.shape().to_vec(),
                rhs: p.shape().to_vec(),
            });
        }
        out.extend_from_slice(p.data());
    }
    let mut dims = vec![parts.len()];
    dims.extend_from_slice(first.shape());
    Tensor::from_vec(out, &dims)
}

/// Splits a tensor along its leading axis into `n` equal parts — the
/// inverse of [`stack`] and the "unfuse" step of fragment fusion.
///
/// # Errors
///
/// Returns an error for scalars or when the leading axis is not divisible
/// by `n`.
pub fn unstack(a: &Tensor, n: usize) -> Result<Vec<Tensor>> {
    if a.rank() == 0 || n == 0 {
        return Err(TensorError::EmptyInput { op: "unstack" });
    }
    let lead = a.shape()[0];
    if !lead.is_multiple_of(n) {
        return Err(TensorError::ShapeMismatch {
            op: "unstack",
            lhs: a.shape().to_vec(),
            rhs: vec![n],
        });
    }
    let mut dims = a.shape().to_vec();
    dims[0] = lead / n;
    a.data().chunks(a.len() / n).map(|part| Tensor::from_vec(part.to_vec(), &dims)).collect()
}

/// Gathers rows of a rank-2 tensor by index.
///
/// # Errors
///
/// Returns an error for non-matrix input or out-of-range indices.
pub fn gather_rows(a: &Tensor, indices: &[usize]) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "gather_rows", expected: 2, actual: a.rank() });
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let mut out = Vec::with_capacity(indices.len() * n);
    for &i in indices {
        if i >= m {
            return Err(TensorError::IndexOutOfRange { index: i, len: m });
        }
        out.extend_from_slice(&a.data()[i * n..(i + 1) * n]);
    }
    Tensor::from_vec(out, &[indices.len(), n])
}

/// Selects one element per row of a rank-2 tensor: `out[i] = a[i, idx[i]]`.
///
/// Used to pick the log-probability of the taken action from a policy's
/// per-action output.
///
/// # Errors
///
/// Returns an error for rank/length mismatches or out-of-range indices.
pub fn select_per_row(a: &Tensor, idx: &[usize]) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "select_per_row",
            expected: 2,
            actual: a.rank(),
        });
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    if idx.len() != m {
        return Err(TensorError::LengthMismatch { expected: m, actual: idx.len() });
    }
    let mut out = crate::alloc::take_for_overwrite(m);
    for (i, &j) in idx.iter().enumerate() {
        if j >= n {
            return Err(TensorError::IndexOutOfRange { index: j, len: n });
        }
        out[i] = a.data()[i * n + j];
    }
    Tensor::from_vec(out, &[m])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_broadcasts_row_vector() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[10.0, 20.0], &[2]);
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn add_broadcasts_column_vector() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[10.0, 20.0], &[2, 1]);
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn add_rejects_incompatible() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[1.0, 2.0], &[2]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(matmul(&a, &b).unwrap().data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = t(&[2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[2, 4]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert_eq!(&c.data()[..4], &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&c.data()[8..], &[8.0, 10.0, 12.0, 14.0]);
    }

    /// IEEE semantics: a zero in the left operand must not short-circuit
    /// the accumulation, because `0 × NaN = NaN` and `0 × ∞ = NaN`.
    #[test]
    fn matmul_propagates_nan_and_inf_through_zeros() {
        let a = t(&[0.0, 0.0], &[1, 2]);
        let b = t(&[f32::NAN, f32::INFINITY], &[2, 1]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN + 0·∞ must be NaN, got {}", c.data()[0]);
    }

    #[test]
    fn matmul_checks_dims() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[1.0, 2.0, 3.0], &[3, 1]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = transpose(&a).unwrap();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(transpose(&at).unwrap(), a);
    }

    #[test]
    fn reductions_match_hand_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(sum_all(&a).item().unwrap(), 21.0);
        assert_eq!(mean_all(&a).item().unwrap(), 3.5);
        assert_eq!(max_all(&a).unwrap().item().unwrap(), 6.0);
        assert_eq!(sum_axis(&a, 0).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(sum_axis(&a, 1).unwrap().data(), &[6.0, 15.0]);
        assert_eq!(mean_axis(&a, 1).unwrap().data(), &[2.0, 5.0]);
        assert_eq!(max_axis(&a, 0).unwrap().data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = softmax_rows(&a).unwrap();
        for i in 0..2 {
            let row_sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-4, "row {i} sums to {row_sum}");
        }
        assert!(s.all_finite(), "softmax must be stable for large logits");
    }

    #[test]
    fn softmax_rows_matches_libm_reference_within_tolerance() {
        // Shapes covering: one element, sub-lane rows, exact 16-lane
        // blocks, and rows with a vector tail.
        for &(rows, n) in &[(1, 1), (17, 8), (33, 5), (16, 16), (40, 3), (2, 21)] {
            let a: Vec<f32> = (0..rows * n)
                .map(|i| (((i * 2654435761 + 41) % 1000) as f32) / 500.0 - 1.0)
                .collect();
            let got = softmax_rows(&t(&a, &[rows, n])).unwrap();
            let expect = crate::reference::softmax_rows(&a, n);
            for (g, e) in got.data().iter().zip(&expect) {
                assert!((g - e).abs() <= 1e-5, "softmax ({rows},{n}): {g} vs {e}");
            }
            for row in got.data().chunks(n) {
                assert!((row.iter().sum::<f32>() - 1.0).abs() <= 1e-5);
            }
        }
    }

    #[test]
    fn a_nan_logit_poisons_its_whole_softmax_row_and_no_other() {
        let mut logits: Vec<f32> = (0..3 * 20).map(|i| (i as f32 * 0.31).sin()).collect();
        logits[20 + 7] = f32::NAN;
        let direct = softmax_rows(&t(&logits, &[3, 20])).unwrap();
        for (r, row) in direct.data().chunks(20).enumerate() {
            assert_eq!(row.iter().all(|v| v.is_nan()), r == 1, "row {r}: {row:?}");
            assert_eq!(row.iter().any(|v| v.is_nan()), r == 1, "row {r}: {row:?}");
        }
        // Behind a fused layer: a NaN bias entry is exactly one NaN
        // logit per row.
        let x = t(&logits[..20], &[4, 5]);
        let w = t(&logits[40..], &[5, 4]);
        let b = t(&[0.1, f32::NAN, 0.2, 0.3], &[4]);
        let head = softmax_rows(&linear_act(&x, &w, &Panels::default(), &b, Act::Linear).unwrap())
            .unwrap();
        assert!(head.data().iter().all(|v| v.is_nan()), "{head:?}");
    }

    #[test]
    fn argmax_rows_finds_max() {
        let a = t(&[0.1, 0.9, 0.5, 0.2, 0.1, 0.05], &[2, 3]);
        assert_eq!(argmax_rows(&a).unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn argmax_rows_breaks_ties_to_the_first_maximum() {
        // Equal maxima: the strict-> fold keeps the lowest index.
        let a = t(&[1.0, 5.0, 5.0, 3.0, 3.0, 2.0, 7.0, 7.0, 7.0], &[3, 3]);
        assert_eq!(argmax_rows(&a).unwrap().data(), &[1.0, 0.0, 0.0]);
        // NaN past column 0 never displaces a leader; a column-0 NaN
        // seeds the fold and nothing compares greater than it.
        let b = t(&[2.0, f32::NAN, 1.0, f32::NAN, 4.0, 9.0], &[2, 3]);
        assert_eq!(argmax_rows(&b).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0], &[1, 2]);
        let c0 = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        let s = stack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        let parts = unstack(&s, 2).unwrap();
        assert_eq!(parts[0].data(), a.data());
        assert_eq!(parts[1].data(), b.data());
    }

    #[test]
    fn gather_and_select() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = gather_rows(&a, &[2, 0]).unwrap();
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0]);
        assert!(gather_rows(&a, &[3]).is_err());
        let s = select_per_row(&a, &[1, 0, 1]).unwrap();
        assert_eq!(s.data(), &[2.0, 3.0, 6.0]);
    }

    #[test]
    fn linear_act_matches_unfused_bitwise() {
        // Below `PACK_MIN_FLOPS` or `PACK_MIN_ROWS` (the unpacked row
        // kernel) and above both (`w` packed per call: 70 columns are two
        // panels and a 6-wide right edge, 70 rows leave a row remainder;
        // 2 columns are the policy head; 4,100 columns make one output
        // row longer than 16 KB, on 6 rows under the row floor and 30
        // over it).
        let cases =
            [(5, 4, 3), (3, 2, 4100), (70, 64, 70), (1100, 120, 2), (6, 32, 4100), (30, 32, 4100)];
        for (m, k, n) in cases {
            let packs = m * k * n >= PACK_MIN_FLOPS && m >= PACK_MIN_ROWS;
            assert_eq!(packs, m > 6, "({m},{k},{n}) vs the pack rule");
            let x = t(&(0..m * k).map(|i| (i as f32 * 0.37).sin()).collect::<Vec<_>>(), &[m, k]);
            let w = t(&(0..k * n).map(|i| (i as f32 * 0.61).cos()).collect::<Vec<_>>(), &[k, n]);
            let b = t(&(0..n).map(|i| i as f32 - 1.0).collect::<Vec<_>>(), &[n]);
            let naive = crate::reference::matmul(x.data(), w.data(), m, k, n);
            let product = matmul(&x, &w).unwrap();
            assert_eq!(product.data(), &naive[..], "({m},{k},{n})");
            let pre = add(&product, &b).unwrap();
            for act in [Act::Relu, Act::Tanh, Act::Sigmoid, Act::Linear] {
                let fused = linear_act(&x, &w, &Panels::default(), &b, act).unwrap();
                let unfused = match act {
                    Act::Relu => relu(&pre),
                    Act::Tanh => tanh(&pre),
                    Act::Sigmoid => sigmoid(&pre),
                    Act::Linear => pre.clone(),
                };
                assert_eq!(fused.shape(), &[m, n]);
                assert_eq!(
                    fused.data(),
                    unfused.data(),
                    "fused {act:?} ({m},{k},{n}) must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn matmul_bt_is_the_naive_row_dot() {
        // `p` below, at and past a panel's 16-row pack block.
        for p in [1, 2, 6, 64, 257] {
            let (m, n) = (9, 35);
            let a = t(&(0..m * p).map(|i| (i as f32 * 0.37).sin()).collect::<Vec<_>>(), &[m, p]);
            let b = t(&(0..n * p).map(|i| (i as f32 * 0.61).cos()).collect::<Vec<_>>(), &[n, p]);
            let got = matmul_bt(&a, &b, &Panels::default()).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut dot = 0.0f32;
                    for kk in 0..p {
                        dot = a.data()[i * p + kk].mul_add(b.data()[j * p + kk], dot);
                    }
                    assert_eq!(got.data()[i * n + j].to_bits(), dot.to_bits(), "p {p} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn linear_act_checks_shapes() {
        let x = t(&[1.0, 2.0], &[1, 2]);
        let w = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[1.0, 2.0], &[2]);
        assert!(linear_act(&x, &w, &Panels::default(), &b, Act::Linear).is_ok());
        assert!(linear_act(&x, &w, &Panels::default(), &t(&[1.0], &[1]), Act::Linear).is_err());
        assert!(
            linear_act(&x, &w, &Panels::default(), &t(&[1.0, 2.0], &[1, 2]), Act::Linear).is_err()
        );
        assert!(linear_act(&x, &t(&[1.0], &[1, 1]), &Panels::default(), &b, Act::Linear).is_err());
    }

    #[test]
    fn softmax_rows_matches_log_softmax_exp_closely() {
        let a = t(&(0..12).map(|i| (i as f32 * 0.83).sin() * 3.0).collect::<Vec<_>>(), &[3, 4]);
        let fused = softmax_rows(&a).unwrap();
        let via_log = exp(&log_softmax_rows(&a).unwrap());
        for (f, l) in fused.data().iter().zip(via_log.data()) {
            assert!((f - l).abs() < 1e-6, "fused {f} vs log-path {l}");
        }
    }

    #[test]
    fn ln_is_safe_at_zero() {
        let a = t(&[0.0, 1.0], &[2]);
        let l = ln(&a);
        assert!(l.all_finite());
        assert_eq!(l.data()[1], 0.0);
    }
}
