//! Gradient-descent optimizers (SGD with momentum, Adam) and gradient
//! utilities.
//!
//! Optimizers run inside *learner* fragments. Under data-parallel policies
//! (DP-C in the paper's Tab. 2), gradients are AllReduce-averaged across
//! learner replicas *before* being passed to [`Optimizer::step`], so the
//! optimizer itself is oblivious to distribution.

use crate::ops;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// A first-order optimizer over a flat list of parameter tensors.
pub trait Optimizer {
    /// Applies one update. `params` and `grads` must be index-aligned and
    /// shape-aligned (the order produced by `Mlp::params_mut`).
    ///
    /// # Errors
    ///
    /// Returns an error when lengths or shapes are misaligned.
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (hyper-parameter retuning, e.g. when
    /// switching to the multi-learner policy DP-C, per §7.2).
    fn set_learning_rate(&mut self, lr: f32);
}

fn check_aligned(params: &[&mut Tensor], grads: &[Tensor]) -> Result<()> {
    if params.len() != grads.len() {
        return Err(TensorError::LengthMismatch { expected: params.len(), actual: grads.len() });
    }
    for (p, g) in params.iter().zip(grads) {
        if p.shape() != g.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "optimizer_step",
                lhs: p.shape().to_vec(),
                rhs: g.shape().to_vec(),
            });
        }
    }
    Ok(())
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Creates SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) -> Result<()> {
        check_aligned(params, grads)?;
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                    *pv -= self.lr * gv;
                }
            }
            return Ok(());
        }
        if self.velocity.is_empty() {
            self.velocity = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
        }
        if self.velocity.len() != grads.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.velocity.len(),
                actual: grads.len(),
            });
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            for ((pv, gv), vv) in p.data_mut().iter_mut().zip(g.data()).zip(v.data_mut()) {
                *vv = self.momentum * *vv + gv;
                *pv -= self.lr * *vv;
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Creates Adam with explicit betas.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        Adam { lr, beta1, beta2, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// [`Optimizer::step`] with the gradients as one flat vector in
    /// `params`' order — a data-parallel learner's all-reduced payload —
    /// read in place instead of copied into a tensor per parameter.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] unless `flat` holds exactly
    /// as many values as `params`.
    pub fn step_flat(&mut self, params: &mut [&mut Tensor], flat: &[f32]) -> Result<()> {
        let total = params.iter().map(|p| p.len()).sum();
        if flat.len() != total {
            return Err(TensorError::LengthMismatch { expected: total, actual: flat.len() });
        }
        let mut rest = flat;
        let grads: Vec<&[f32]> = params
            .iter()
            .map(|p| {
                let (g, tail) = rest.split_at(p.len());
                rest = tail;
                g
            })
            .collect();
        self.update(params, &grads)
    }

    /// The update over index-aligned gradient slices of the parameters'
    /// lengths.
    fn update(&mut self, params: &mut [&mut Tensor], grads: &[&[f32]]) -> Result<()> {
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
            self.v = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        }
        if self.m.len() != grads.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.m.len(),
                actual: grads.len(),
            });
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v) {
            for (((pv, gv), mv), vv) in
                p.data_mut().iter_mut().zip(g.iter()).zip(m.data_mut()).zip(v.data_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *pv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) -> Result<()> {
        check_aligned(params, grads)?;
        self.update(params, &grads.iter().map(Tensor::data).collect::<Vec<_>>())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Rescales `grads` in place so their global L2 norm is at most
/// `max_norm`; returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let sq: f32 = grads.iter().flat_map(|g| g.data()).map(|v| v * v).sum();
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

/// Element-wise average of aligned gradient lists — the host-side fallback
/// for gradient AllReduce when replicas are co-located (DP-C with fused
/// fragments).
///
/// # Errors
///
/// Returns an error when the lists are empty or misaligned.
pub fn average_grads(replica_grads: &[Vec<Tensor>]) -> Result<Vec<Tensor>> {
    let first = replica_grads.first().ok_or(TensorError::EmptyInput { op: "average_grads" })?;
    let n = replica_grads.len() as f32;
    let mut out = first.clone();
    for other in &replica_grads[1..] {
        if other.len() != out.len() {
            return Err(TensorError::LengthMismatch { expected: out.len(), actual: other.len() });
        }
        for (acc, g) in out.iter_mut().zip(other) {
            *acc = ops::add(acc, g)?;
        }
    }
    for g in &mut out {
        *g = ops::mul_scalar(g, 1.0 / n);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_step_flat_is_the_step_over_tensors_bitwise() {
        let shapes: [&[usize]; 3] = [&[3, 4], &[4], &[2, 5]];
        let value = |i: usize, s: usize| ((i * 2654435761 + s) % 997) as f32 / 500.0 - 1.0;
        let tensors = |s: usize| -> Vec<Tensor> {
            shapes
                .iter()
                .map(|&d| {
                    Tensor::from_vec((0..d.iter().product()).map(|i| value(i, s)).collect(), d)
                        .unwrap()
                })
                .collect()
        };
        let (mut by_tensor, mut by_flat) = (tensors(1), tensors(1));
        let (mut a, mut b) = (Adam::new(0.01), Adam::new(0.01));
        for step in 0..3 {
            let grads = tensors(10 + step);
            let flat: Vec<f32> = grads.iter().flat_map(|g| g.data().to_vec()).collect();
            a.step(&mut by_tensor.iter_mut().collect::<Vec<_>>(), &grads).unwrap();
            b.step_flat(&mut by_flat.iter_mut().collect::<Vec<_>>(), &flat).unwrap();
            assert_eq!(by_tensor, by_flat, "step {step}");
            let mut params: Vec<&mut Tensor> = by_flat.iter_mut().collect();
            assert!(b.step_flat(&mut params, &flat[1..]).is_err());
            assert!(b.step_flat(&mut params, &[flat.clone(), vec![0.0]].concat()).is_err());
        }
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p], &[g]).unwrap();
        assert_eq!(p.data(), &[0.95, 1.05]);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut p = Tensor::scalar(0.0);
        let g = Tensor::scalar(1.0);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        opt.step(&mut [&mut p], std::slice::from_ref(&g)).unwrap();
        let after1 = p.item().unwrap();
        opt.step(&mut [&mut p], std::slice::from_ref(&g)).unwrap();
        let step2 = after1 - p.item().unwrap();
        // Second step is larger: v = 0.9·1 + 1 = 1.9 ⇒ step 0.19 vs 0.1.
        assert!((step2 - 0.19).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 from x = 0.
        let mut x = Tensor::scalar(0.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = Tensor::scalar(2.0 * (x.item().unwrap() - 3.0));
            opt.step(&mut [&mut x], &[g]).unwrap();
        }
        assert!((x.item().unwrap() - 3.0).abs() < 1e-2, "x = {}", x.item().unwrap());
    }

    #[test]
    fn step_checks_alignment() {
        let mut p = Tensor::zeros(&[2]);
        let g = Tensor::zeros(&[3]);
        let mut opt = Sgd::new(0.1);
        assert!(opt.step(&mut [&mut p], &[g]).is_err());
        assert!(opt.step(&mut [&mut p], &[]).is_err());
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut gs = vec![Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap()];
        let pre = clip_grad_norm(&mut gs, 1.0);
        assert_eq!(pre, 5.0);
        let post: f32 = gs[0].data().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-6);
        // Under the cap, gradients are untouched.
        let mut gs2 = vec![Tensor::from_vec(vec![0.3, 0.4], &[2]).unwrap()];
        clip_grad_norm(&mut gs2, 1.0);
        assert_eq!(gs2[0].data(), &[0.3, 0.4]);
    }

    #[test]
    fn average_grads_averages() {
        let a = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        let b = vec![Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap()];
        let avg = average_grads(&[a, b]).unwrap();
        assert_eq!(avg[0].data(), &[2.0, 3.0]);
        assert!(average_grads(&[]).is_err());
    }
}
