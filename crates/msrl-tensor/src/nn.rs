//! Neural-network building blocks: linear layers and multi-layer
//! perceptrons.
//!
//! The paper's evaluation uses "a seven-layer DNN" policy (§7.1); [`Mlp`]
//! is that policy's implementation here. Modules own their parameters as
//! plain [`Tensor`]s; to train, a module lends them to a pass
//! ([`Mlp::share`]) and the pass binds them to each tape it records
//! ([`SharedMlp::bind`]), which registers them as differentiable
//! variables. Inference-only paths ([`Mlp::infer`]) skip the tape
//! entirely — this mirrors the original system, where actor fragments
//! run policy inference without building a gradient graph.

use std::rc::Rc;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::autograd::{Gradients, Tape, Var};
use crate::init;
use crate::ops::{self, Panels};
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
    /// Each layer runs as one fused matmul+bias+activation pass
    /// ([`ops::linear_act`], bit-identical to the three separate
    /// operators) and the previous layer's intermediate is recycled
    /// straight back to the buffer pool.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let last = self.layers.len() - 1;
        let mut h: Option<Tensor> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last { self.output_activation } else { self.hidden_activation };
            let (w, b) = (&layer.w, &layer.b);
            let next =
                ops::linear_act(h.as_ref().unwrap_or(x), w, &Panels::default(), b, act.fused())?;
            if let Some(dead) = h.replace(next) {
                dead.recycle();
            }
        }
        Ok(h.unwrap_or_else(|| x.clone()))
    }

    /// Lends the parameters to the tapes of one pass. Each weight and
    /// bias moves, without a copy, into one shared handle that every
    /// tape the pass records registers as it is ([`SharedMlp::bind`]),
    /// and each weight gets one [`Panels`]: whichever block first needs
    /// the weight's panels for `x·w` or `g·wᵀ` packs them, and every later
    /// block reads them, so a pass packs each weight at most twice
    /// however many row blocks it runs. The parameters move back, and the
    /// panels go to the dropping thread's pool, when the [`SharedMlp`]
    /// drops — on an error path too.
    pub fn share(&mut self) -> SharedMlp<'_> {
        let params = self
            .layers
            .iter_mut()
            .map(|l| {
                let (w, b) = (std::mem::take(&mut l.w), std::mem::take(&mut l.b));
                (Rc::new(w), Rc::default(), Rc::new(b))
            })
            .collect();
        SharedMlp { mlp: self, params }
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

/// An [`Mlp`]'s parameters lent to one pass ([`Mlp::share`]): per layer
/// the weight, its [`Panels`] and the bias, each one handle that every
/// tape of the pass shares.
pub struct SharedMlp<'a> {
    mlp: &'a mut Mlp,
    params: Vec<(Rc<Tensor>, Rc<Panels>, Rc<Tensor>)>,
}

impl SharedMlp<'_> {
    /// Registers the parameters on `tape` for one differentiable step:
    /// the shared handles themselves, no copy, each weight with its
    /// panels ([`Tape::weight`]). A tape leaves a handle someone else
    /// holds to its holder, so these are neither recycled nor copied
    /// when the tape drops.
    pub fn bind(&self, tape: &Tape) -> MlpBinding {
        let params = self
            .params
            .iter()
            .flat_map(|(w, panels, b)| {
                [tape.weight(Rc::clone(w), Rc::clone(panels)), tape.var(Rc::clone(b))]
            })
            .collect();
        MlpBinding {
            params,
            hidden_activation: self.mlp.hidden_activation,
            output_activation: self.mlp.output_activation,
        }
    }
}

impl Drop for SharedMlp<'_> {
    /// Moves the parameters back. A handle a tape or a [`Var::value`]
    /// still holds is copied instead: the module gets its values either
    /// way.
    fn drop(&mut self) {
        let back = |p: Rc<Tensor>| Rc::try_unwrap(p).unwrap_or_else(|p| (*p).clone());
        for (layer, (w, _panels, b)) in self.mlp.layers.iter_mut().zip(self.params.drain(..)) {
            (layer.w, layer.b) = (back(w), back(b));
        }
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
    /// Each layer records a single fused [`Var::linear`] node (one output
    /// traversal, one tape node) instead of the matmul → add → activation
    /// triple; values and gradients are bit-identical to the triple.
    pub fn forward(&self, x: &Var) -> Result<Var> {
        let mut h = x.clone();
        let n_layers = self.params.len() / 2;
        for i in 0..n_layers {
            let w = &self.params[2 * i];
            let b = &self.params[2 * i + 1];
            let act =
                if i == n_layers - 1 { self.output_activation } else { self.hidden_activation };
            h = h.linear(w, b, act.fused())?;
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

    /// Like [`MlpBinding::grads`], but moves the gradients out instead of
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
        let mut shared = mlp.clone();
        let shared = shared.share();
        let tape = Tape::new();
        let binding = shared.bind(&tape);
        let traced = binding.forward(&tape.var(x)).unwrap().value();
        for (a, b) in plain.data().iter().zip(traced.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The layers spelled as separate operators, `matmul → add → act`:
    /// the reference the fused layer must match bit for bit.
    fn composed_forward(binding: &MlpBinding, x: &Var) -> Var {
        let n_layers = binding.params.len() / 2;
        let mut h = x.clone();
        for i in 0..n_layers {
            let (w, b) = (&binding.params[2 * i], &binding.params[2 * i + 1]);
            h = h.matmul(w).unwrap().add(b).unwrap();
            let last = i == n_layers - 1;
            h = match if last { binding.output_activation } else { binding.hidden_activation } {
                Activation::Relu => h.relu(),
                Activation::Tanh => h.tanh(),
                Activation::Sigmoid => h.sigmoid(),
                Activation::Linear => h,
            };
        }
        h
    }

    /// Loss and gradients of `Σ forward(x)²` as bits.
    fn pass_bits(mlp: &Mlp, x: &Tensor, forward: impl Fn(&MlpBinding, &Var) -> Var) -> Vec<u32> {
        let mut mlp = mlp.clone();
        let shared = mlp.share();
        let tape = Tape::new();
        let binding = shared.bind(&tape);
        let loss = forward(&binding, &tape.var(x.clone())).square().sum();
        let grads = tape.backward(&loss).unwrap();
        let mut bits: Vec<u32> = loss.value().data().iter().map(|v| v.to_bits()).collect();
        for g in binding.grads(&grads) {
            bits.extend(g.data().iter().map(|v| v.to_bits()));
        }
        bits
    }

    fn fused_bits(mlp: &Mlp, x: &Tensor) -> Vec<u32> {
        pass_bits(mlp, x, |binding, x| binding.forward(x).unwrap())
    }

    #[test]
    fn fusion_paths_are_bit_identical() {
        let mut r = rng(7);
        let mlp = Mlp::new(&[4, 8, 8, 2], Activation::Tanh, Activation::Linear, &mut r);
        let x =
            Tensor::from_vec((0..12).map(|i| (i as f32 * 0.3).sin()).collect(), &[3, 4]).unwrap();
        let mut shared = mlp.clone();
        let shared = shared.share();
        let tape = Tape::new();
        let composed = composed_forward(&shared.bind(&tape), &tape.var(x.clone())).value();
        assert_eq!(mlp.infer(&x).unwrap().data(), composed.data(), "fused infer diverged");
        let composed = pass_bits(&mlp, &x, composed_forward);
        assert_eq!(fused_bits(&mlp, &x), composed, "fused loss and grads diverged");
    }

    /// Three threads run the same forward+backward under different
    /// backends at once. A backend is thread-scoped, so each must keep
    /// reproducing the bits it gets alone, which are the separate
    /// operators' bits — under process-global switches the threads
    /// flipped each other's backend mid-kernel.
    #[test]
    fn concurrent_contexts_each_reproduce_their_single_threaded_bits() {
        use crate::par::{self, Backend};
        let mut r = rng(13);
        let mlp = Mlp::new(&[6, 16, 16, 3], Activation::Tanh, Activation::Linear, &mut r);
        let x =
            Tensor::from_vec((0..30).map(|i| (i as f32 * 0.23).sin()).collect(), &[5, 6]).unwrap();
        let expect = pass_bits(&mlp, &x, composed_forward);
        let backends = [par::backend(), Backend::Scalar, Backend::Threaded];
        for b in backends {
            assert_eq!(par::with_backend(b, || fused_bits(&mlp, &x)), expect, "{b:?} alone");
        }
        let start = std::sync::Barrier::new(backends.len());
        std::thread::scope(|s| {
            for b in backends {
                let (mlp, x, expect, start) = (&mlp, &x, &expect, &start);
                s.spawn(move || {
                    par::with_backend(b, || {
                        start.wait();
                        for round in 0..200 {
                            assert_eq!(&fused_bits(mlp, x), expect, "{b:?} diverged in {round}");
                        }
                    })
                });
            }
        });
    }

    /// `(y per block, x's gradient per block, w's and b's gradients)` as
    /// bits, of one `Linear` run over `x` in `block`-row tapes with the
    /// loss `Σ y²`; `shared` registers the layer once for every tape
    /// ([`Mlp::share`]), else each tape packs per product from a copy.
    type LayerBits = (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<u32>>);

    fn blocked_layer_bits(mlp: &mut Mlp, x: &Tensor, block: usize, shared: bool) -> LayerBits {
        let bits = |v: &Tensor| v.data().iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let (rows, k) = (x.shape()[0], x.shape()[1]);
        let act = mlp.output_activation.fused();
        let copies = mlp.layers[0].clone();
        let lent = shared.then(|| mlp.share());
        let (mut ys, mut gxs, mut carried) = (Vec::new(), Vec::new(), Vec::new());
        for lo in (0..rows).step_by(block) {
            let hi = (lo + block).min(rows);
            let tape = Tape::new();
            let params = match &lent {
                Some(lent) => lent.bind(&tape).params,
                // Copies drawn from the pool the tape recycles them into.
                None => {
                    [&copies.w, &copies.b].map(|p| tape.var(p.reshape(p.shape()).unwrap())).into()
                }
            };
            // Drawn from the pool the tape recycles it into.
            let mut xb = crate::alloc::take_for_overwrite((hi - lo) * k);
            xb.copy_from_slice(&x.data()[lo * k..hi * k]);
            let xb = tape.var(Tensor::from_vec(xb, &[hi - lo, k]).unwrap());
            let y = xb.linear(&params[0], &params[1], act).unwrap();
            let onto = params.iter().zip(carried.drain(..)).collect();
            let mut g = tape.backward_onto(&y.square().sum(), onto).unwrap();
            ys.push(bits(&y.value()));
            gxs.push(bits(g.get(xb.id()).unwrap()));
            carried = params.iter().map(|p| g.take_or_zeros(p)).collect();
        }
        let grads = carried.iter().map(bits).collect();
        carried.into_iter().for_each(Tensor::recycle);
        (ys, gxs, grads)
    }

    /// One `Linear` recorded on several tapes that share its panels gives
    /// the values and the `x`, `w` and `b` gradients of per-call packing
    /// bit for bit: heads 1, 2 and 6 wide, a layer below
    /// `PACK_MIN_FLOPS`, a wide one whose ragged last block falls under
    /// it (and so reads panels it would not have packed), under both
    /// backends. The parameters come back unchanged, and the caller's
    /// pool settles: a pass returns the panels it packed.
    #[test]
    fn shared_panels_match_per_call_packing_bitwise() {
        use crate::par::{self, Backend};
        // (rows, block, fan_in, fan_out)
        let shapes = [
            (300, 128, 64, 1),
            (300, 128, 64, 2),
            (300, 128, 64, 6),
            (40, 16, 8, 8),
            (300, 128, 64, 40),
            (600, 256, 96, 70),
        ];
        for (rows, block, k, n) in shapes {
            let mut r = rng(k as u64 + n as u64);
            let mut mlp = Mlp::new(&[k, n], Activation::Tanh, Activation::Tanh, &mut r);
            let before = mlp.clone();
            let x = Tensor::from_vec(
                (0..rows * k).map(|i| (i as f32 * 0.013).sin()).collect(),
                &[rows, k],
            )
            .unwrap();
            for backend in [Backend::Scalar, Backend::Threaded] {
                let what = format!("({rows} in {block}s, {k}, {n}) {backend:?}");
                par::with_backend(backend, || {
                    let per_call = blocked_layer_bits(&mut mlp, &x, block, false);
                    let mut pooled = Vec::new();
                    for pass in 0..3 {
                        let got = blocked_layer_bits(&mut mlp, &x, block, true);
                        assert_eq!(got.0, per_call.0, "{what}: values, pass {pass}");
                        assert_eq!(got.1, per_call.1, "{what}: x gradients, pass {pass}");
                        assert_eq!(got.2, per_call.2, "{what}: w and b gradients, pass {pass}");
                        assert_eq!(mlp, before, "{what}: parameters after pass {pass}");
                        pooled.push(crate::alloc::stats().pooled_elems);
                    }
                    assert_eq!(pooled[1], pooled[2], "{what}: the caller's pool must settle");
                });
            }
        }
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
            let plain = mlp.infer(&x).unwrap();
            let fast = packed.infer(&x).unwrap();
            assert_eq!(plain.data(), fast.data(), "batch {batch} diverged");
        }
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut r = rng(5);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut r);
        let expect = mlp.clone();
        let shared = mlp.share();
        let tape = Tape::new();
        let binding = shared.bind(&tape);
        let x = tape.var(Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap());
        let loss = binding.forward(&x).unwrap().square().sum();
        let grads = tape.backward(&loss).unwrap();
        let gs = binding.grads(&grads);
        assert_eq!(gs.len(), 4);
        assert!(gs.iter().any(|g| g.data().iter().any(|v| *v != 0.0)));
        // Tape handles first, then the loan: nothing is left to copy.
        drop((loss, x, binding, tape, shared));
        assert_eq!(mlp, expect, "the parameters move back when the pass ends");
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
