//! Neural-network building blocks: linear layers and multi-layer
//! perceptrons.
//!
//! The paper's evaluation uses "a seven-layer DNN" policy (§7.1); [`Mlp`]
//! is that policy's implementation here. Modules own their parameters as
//! plain [`Tensor`]s; to train, a module is *bound* to a [`Tape`], which
//! registers the parameters as differentiable variables for one training
//! step. Inference-only paths ([`Mlp::infer`]) skip the tape entirely —
//! this mirrors the original system, where actor fragments run policy
//! inference without building a gradient graph.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::autograd::{Gradients, Tape, Var};
use crate::init;
use crate::ops;
use crate::tensor::Tensor;
use crate::Result;

/// Activation functions supported by [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no activation).
    Linear,
}

impl Activation {
    fn apply_var(self, x: &Var) -> Var {
        match self {
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Linear => x.clone(),
        }
    }

    fn apply_tensor(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => ops::relu(x),
            Activation::Tanh => ops::tanh(x),
            Activation::Sigmoid => ops::sigmoid(x),
            Activation::Linear => x.clone(),
        }
    }

    /// The fused-kernel selector applying the same scalar function.
    fn fused(self) -> ops::Act {
        match self {
            Activation::Relu => ops::Act::Relu,
            Activation::Tanh => ops::Act::Tanh,
            Activation::Sigmoid => ops::Act::Sigmoid,
            Activation::Linear => ops::Act::Linear,
        }
    }
}

/// A fully-connected layer `y = x·W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix, `[fan_in, fan_out]`.
    pub w: Tensor,
    /// Bias vector, `[fan_out]`.
    pub b: Tensor,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        Linear { w: init::xavier_uniform(fan_in, fan_out, rng), b: Tensor::zeros(&[fan_out]) }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.w.shape()[1]
    }

    /// Forward pass without gradients: `x: [batch, in] → [batch, out]`.
    ///
    /// With fusion on ([`crate::par::fusion_enabled`]) this runs the
    /// one-pass fused kernel; the two paths are bit-identical.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        if crate::par::fusion_enabled() {
            ops::linear_act(x, &self.w, &self.b, ops::Act::Linear)
        } else {
            ops::add(&ops::matmul(x, &self.w)?, &self.b)
        }
    }
}

/// A multi-layer perceptron.
///
/// Hidden layers share one activation; the output layer has its own
/// (usually [`Activation::Linear`] for logits/values).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// The stack of layers, input-most first.
    pub layers: Vec<Linear>,
    /// Activation applied after every hidden layer.
    pub hidden_activation: Activation,
    /// Activation applied after the final layer.
    pub output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[obs, 64, 64, act]`.
    ///
    /// `sizes` must have at least two entries (input and output width).
    pub fn new(
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output widths");
        let layers = sizes.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Mlp { layers, hidden_activation, output_activation }
    }

    /// The seven-layer policy network of the paper's evaluation (§7.1):
    /// five hidden layers of `hidden` units between input and output.
    pub fn seven_layer(obs_dim: usize, out_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let sizes = [obs_dim, hidden, hidden, hidden, hidden, hidden, out_dim];
        Mlp::new(&sizes, Activation::Tanh, Activation::Linear, rng)
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::fan_in)
    }

    /// Output feature count.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::fan_out)
    }

    /// Flat list of parameter tensors, in a stable order (`w0, b0, w1, …`).
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| [&l.w, &l.b]).collect()
    }

    /// Mutable flat list of parameter tensors, same order as [`Mlp::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b]).collect()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Forward pass without gradients: `[batch, in] → [batch, out]`.
    ///
    /// With fusion on, each layer runs as one fused
    /// matmul+bias+activation pass and the previous layer's
    /// intermediate is recycled straight back to the buffer pool —
    /// bit-identical to the unfused chain.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let last = self.layers.len() - 1;
        if crate::par::fusion_enabled() {
            let mut h: Option<Tensor> = None;
            for (i, layer) in self.layers.iter().enumerate() {
                let act = if i == last { self.output_activation } else { self.hidden_activation };
                let next =
                    ops::linear_act(h.as_ref().unwrap_or(x), &layer.w, &layer.b, act.fused())?;
                if let Some(dead) = h.replace(next) {
                    dead.recycle();
                }
            }
            return Ok(h.unwrap_or_else(|| x.clone()));
        }
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.infer(&h)?;
            let act = if i == last { self.output_activation } else { self.hidden_activation };
            h = act.apply_tensor(&h);
        }
        Ok(h)
    }

    /// Registers the parameters on `tape` for one differentiable step.
    ///
    /// The tape gets pool-drawn copies (a same-shape
    /// [`Tensor::reshape`]), because it recycles them when it drops: a
    /// learner that records one tape per row block would otherwise feed
    /// the pool a set of buffers per block that nothing ever takes out.
    pub fn bind(&self, tape: &Tape) -> MlpBinding {
        let pooled = |p: &Tensor| tape.var(p.reshape(p.shape()).expect("same shape, same volume"));
        let params = self.layers.iter().flat_map(|l| [pooled(&l.w), pooled(&l.b)]).collect();
        MlpBinding {
            params,
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }

    /// Overwrites this module's parameters from another module of the same
    /// architecture (MSRL's policy-weight synchronisation between actor and
    /// learner fragments).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the architectures differ.
    pub fn load_from(&mut self, other: &Mlp) -> Result<()> {
        if self.layers.len() != other.layers.len() {
            return Err(crate::TensorError::RankMismatch {
                op: "load_from",
                expected: self.layers.len(),
                actual: other.layers.len(),
            });
        }
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            if dst.w.shape() != src.w.shape() || dst.b.shape() != src.b.shape() {
                return Err(crate::TensorError::ShapeMismatch {
                    op: "load_from",
                    lhs: dst.w.shape().to_vec(),
                    rhs: src.w.shape().to_vec(),
                });
            }
            dst.w = src.w.clone();
            dst.b = src.b.clone();
        }
        Ok(())
    }

    /// Serialises all parameters into one flat vector (the wire format used
    /// by weight-synchronisation collectives).
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for p in self.params() {
            out.extend_from_slice(p.data());
        }
        out
    }

    /// Loads parameters from a flat vector produced by
    /// [`Mlp::flatten_params`] on an identically-shaped module.
    ///
    /// # Errors
    ///
    /// Returns a length error if `flat` has the wrong number of values.
    pub fn unflatten_params(&mut self, flat: &[f32]) -> Result<()> {
        if flat.len() != self.num_params() {
            return Err(crate::TensorError::LengthMismatch {
                expected: self.num_params(),
                actual: flat.len(),
            });
        }
        let mut offset = 0;
        for p in self.params_mut() {
            let n = p.len();
            p.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Packs every layer's weight into the kernel tier's panel layout
    /// for repeated batched inference ([`PackedMlp::infer`]).
    ///
    /// One `pack_b` per layer, paid once per weight version and
    /// amortized over every forward that follows — the one weight
    /// tier-up runs use. The caller owns
    /// invalidation: a [`PackedMlp`] is a snapshot of the weights at
    /// pack time and must be rebuilt after any parameter update.
    pub fn pack(&self) -> PackedMlp {
        let layers = self
            .layers
            .iter()
            .map(|l| {
                let (k, n) = (l.fan_in(), l.fan_out());
                (crate::kernels::pack_b(l.w.data(), k, n), l.b.clone())
            })
            .collect();
        PackedMlp {
            layers,
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }
}

/// An inference-only [`Mlp`] snapshot whose weights are pre-packed into
/// the kernel tier's cache-blocked panels.
///
/// [`PackedMlp::infer`] mirrors the fused [`Mlp::infer`] loop exactly —
/// same per-layer [`ops::linear_act_prepacked`] accumulation order, same
/// intermediate recycling — so outputs are bit-identical to the plain
/// module the snapshot was packed from.
#[derive(Debug)]
pub struct PackedMlp {
    layers: Vec<(crate::kernels::PackedB, Tensor)>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl PackedMlp {
    /// Re-packs `mlp`'s current weights into this snapshot's panels, in
    /// place: one copy of each weight, nothing allocated. What a holder
    /// of a snapshot does when its weights change, instead of building
    /// a new one.
    ///
    /// # Panics
    ///
    /// Panics when `mlp` is not the architecture the snapshot was packed
    /// from.
    pub fn repack(&mut self, mlp: &Mlp) {
        assert_eq!(self.layers.len(), mlp.layers.len(), "repack: another architecture");
        for ((wp, b), l) in self.layers.iter_mut().zip(&mlp.layers) {
            assert_eq!((wp.k(), wp.n()), (l.fan_in(), l.fan_out()), "repack: another architecture");
            wp.repack(l.w.data());
            b.data_mut().copy_from_slice(l.b.data());
        }
    }

    /// Forward pass over the packed panels: `[batch, in] → [batch, out]`.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let last = self.layers.len() - 1;
        let mut h: Option<Tensor> = None;
        for (i, (wp, b)) in self.layers.iter().enumerate() {
            let act = if i == last { self.output_activation } else { self.hidden_activation };
            let next = ops::linear_act_prepacked(h.as_ref().unwrap_or(x), wp, b, act.fused())?;
            if let Some(dead) = h.replace(next) {
                dead.recycle();
            }
        }
        Ok(h.unwrap_or_else(|| x.clone()))
    }
}

/// An [`Mlp`] whose parameters are live variables on a tape.
pub struct MlpBinding {
    params: Vec<Var>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl MlpBinding {
    /// Differentiable forward pass.
    ///
    /// With fusion on, each layer records a single fused
    /// [`Var::linear`] node (one output traversal, one tape node)
    /// instead of the matmul → add → activation triple; values and
    /// gradients are bit-identical either way.
    pub fn forward(&self, x: &Var) -> Result<Var> {
        let mut h = x.clone();
        let n_layers = self.params.len() / 2;
        let fused = crate::par::fusion_enabled();
        for i in 0..n_layers {
            let w = &self.params[2 * i];
            let b = &self.params[2 * i + 1];
            let act =
                if i == n_layers - 1 { self.output_activation } else { self.hidden_activation };
            h = if fused {
                h.linear(w, b, act.fused())?
            } else {
                act.apply_var(&h.matmul(w)?.add(b)?)
            };
        }
        Ok(h)
    }

    /// The bound parameter variables, in [`Mlp::params`] order.
    pub fn param_vars(&self) -> &[Var] {
        &self.params
    }

    /// Extracts this module's gradients from a backward pass, in
    /// [`Mlp::params`] order. Parameters that did not influence the loss
    /// get zero gradients.
    pub fn grads(&self, grads: &Gradients) -> Vec<Tensor> {
        self.params.iter().map(|p| grads.get_or_zeros(p)).collect()
    }

    /// Like [`Mlp::grads`], but moves the gradients out instead of
    /// cloning them — each parameter's gradient is owned by exactly one
    /// module, so learners extract without a copy.
    pub fn take_grads(&self, grads: &mut Gradients) -> Vec<Tensor> {
        self.params.iter().map(|p| grads.take_or_zeros(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    #[test]
    fn infer_shapes() {
        let mut r = rng(0);
        let mlp = Mlp::new(&[4, 8, 2], Activation::Tanh, Activation::Linear, &mut r);
        let x = Tensor::zeros(&[5, 4]);
        let y = mlp.infer(&x).unwrap();
        assert_eq!(y.shape(), &[5, 2]);
    }

    #[test]
    fn seven_layer_has_seven_layers() {
        let mut r = rng(0);
        let mlp = Mlp::seven_layer(17, 6, 64, &mut r);
        // Six linear layers = seven "layers" of units counting input.
        assert_eq!(mlp.layers.len(), 6);
        assert_eq!(mlp.input_dim(), 17);
        assert_eq!(mlp.output_dim(), 6);
    }

    #[test]
    fn bound_forward_matches_infer() {
        let mut r = rng(3);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, &mut r);
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.5, 0.5, -0.5], &[2, 3]).unwrap();
        let plain = mlp.infer(&x).unwrap();
        let tape = Tape::new();
        let binding = mlp.bind(&tape);
        let traced = binding.forward(&tape.var(x)).unwrap().value();
        for (a, b) in plain.data().iter().zip(traced.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fusion_paths_are_bit_identical() {
        let mut r = rng(7);
        let mlp = Mlp::new(&[4, 8, 8, 2], Activation::Tanh, Activation::Linear, &mut r);
        let x =
            Tensor::from_vec((0..12).map(|i| (i as f32 * 0.3).sin()).collect(), &[3, 4]).unwrap();
        let y_on = crate::par::with_fusion(true, || mlp.infer(&x).unwrap());
        let y_off = crate::par::with_fusion(false, || mlp.infer(&x).unwrap());
        assert_eq!(y_on.data(), y_off.data(), "fused infer must be bit-identical");
        let run = |on: bool| {
            crate::par::with_fusion(on, || {
                let tape = Tape::new();
                let binding = mlp.bind(&tape);
                let loss = binding.forward(&tape.var(x.clone())).unwrap().square().sum();
                let grads = tape.backward(&loss).unwrap();
                (loss.value(), binding.grads(&grads))
            })
        };
        let (loss_on, grads_on) = run(true);
        let (loss_off, grads_off) = run(false);
        assert_eq!(loss_on.data(), loss_off.data());
        for (a, b) in grads_on.iter().zip(&grads_off) {
            assert_eq!(a.data(), b.data(), "fused grads must be bit-identical");
        }
    }

    /// Three threads run the same forward+backward under three different
    /// contexts at once. A context is thread-scoped, so each must keep
    /// reproducing the bits it gets alone — under process-global
    /// switches the threads flipped each other's fusion and backend
    /// mid-kernel.
    #[test]
    fn concurrent_contexts_each_reproduce_their_single_threaded_bits() {
        use crate::par::{Backend, ExecCtx};
        let mut r = rng(13);
        let mlp = Mlp::new(&[6, 16, 16, 3], Activation::Tanh, Activation::Linear, &mut r);
        let x =
            Tensor::from_vec((0..30).map(|i| (i as f32 * 0.23).sin()).collect(), &[5, 6]).unwrap();
        let run = || {
            let tape = Tape::new();
            let binding = mlp.bind(&tape);
            let loss = binding.forward(&tape.var(x.clone())).unwrap().square().sum();
            let grads = tape.backward(&loss).unwrap();
            let mut bits: Vec<u32> = loss.value().data().iter().map(|v| v.to_bits()).collect();
            for g in binding.grads(&grads) {
                bits.extend(g.data().iter().map(|v| v.to_bits()));
            }
            bits
        };
        let base = ExecCtx::current();
        // The third splits every kernel, whole-tensor sums included,
        // over four workers, so a leaked context shows up in its bits.
        let ctxs = [
            ExecCtx { fusion: true, ..base },
            ExecCtx { fusion: false, backend: Backend::Scalar, ..base },
            ExecCtx { backend: Backend::Threaded, threads: 4, par_min: Some(1), ..base },
        ];
        let alone: Vec<Vec<u32>> = ctxs.iter().map(|c| c.scope(run)).collect();
        assert_eq!(alone[0], alone[1], "fusion and backend never change bits");
        let start = std::sync::Barrier::new(ctxs.len());
        std::thread::scope(|s| {
            for (ctx, expect) in ctxs.iter().zip(&alone) {
                let (run, start) = (&run, &start);
                s.spawn(move || {
                    ctx.scope(|| {
                        start.wait();
                        for round in 0..200 {
                            assert_eq!(&run(), expect, "{ctx:?} diverged in round {round}");
                        }
                    })
                });
            }
        });
    }

    #[test]
    fn packed_infer_is_bit_identical_to_plain_infer() {
        let mut r = rng(11);
        let mlp = Mlp::new(&[6, 32, 32, 3], Activation::Tanh, Activation::Linear, &mut r);
        let packed = mlp.pack();
        for batch in [1usize, 7, 33] {
            let x = Tensor::from_vec(
                (0..batch * 6).map(|i| (i as f32 * 0.17).cos()).collect(),
                &[batch, 6],
            )
            .unwrap();
            let plain = crate::par::with_fusion(true, || mlp.infer(&x).unwrap());
            let fast = packed.infer(&x).unwrap();
            assert_eq!(plain.data(), fast.data(), "batch {batch} diverged");
        }
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut r = rng(5);
        let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut r);
        let tape = Tape::new();
        let binding = mlp.bind(&tape);
        let x = tape.var(Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap());
        let loss = binding.forward(&x).unwrap().square().sum();
        let grads = tape.backward(&loss).unwrap();
        let gs = binding.grads(&grads);
        assert_eq!(gs.len(), 4);
        assert!(gs.iter().any(|g| g.data().iter().any(|v| *v != 0.0)));
        for (g, p) in gs.iter().zip(mlp.params()) {
            assert_eq!(g.shape(), p.shape());
        }
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let mut r = rng(9);
        let src = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, &mut r);
        let mut dst = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, &mut r);
        assert_ne!(src.flatten_params(), dst.flatten_params());
        dst.unflatten_params(&src.flatten_params()).unwrap();
        assert_eq!(src.flatten_params(), dst.flatten_params());
        assert!(dst.unflatten_params(&[0.0]).is_err());
    }

    #[test]
    fn load_from_copies_weights() {
        let mut r = rng(9);
        let src = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, &mut r);
        let mut dst = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, &mut r);
        dst.load_from(&src).unwrap();
        assert_eq!(dst.flatten_params(), src.flatten_params());
        let mut wrong = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, &mut r);
        assert!(wrong.load_from(&src).is_err());
    }
}
