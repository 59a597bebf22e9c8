//! Probability distributions for stochastic policies.
//!
//! Policy-gradient algorithms (PPO, MAPPO, A3C) sample actions from a
//! distribution parameterised by the policy network and differentiate the
//! log-probability of the taken action. Discrete-action environments (MPE,
//! CartPole) use [`Categorical`]; continuous-control environments
//! (HalfCheetah) use [`DiagGaussian`]. The `*_stats` functions are the
//! differentiable counterparts, used inside learner fragments.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::autograd::Var;
use crate::ops;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// A batch of categorical distributions, one per row of a logits matrix.
#[derive(Debug, Clone)]
pub struct Categorical {
    /// Row-wise log-probabilities, `[batch, n_actions]`.
    log_probs: Tensor,
}

impl Categorical {
    /// Builds from unnormalised logits `[batch, n_actions]`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix input.
    pub fn from_logits(logits: &Tensor) -> Result<Self> {
        Ok(Categorical { log_probs: ops::log_softmax_rows(logits)? })
    }

    /// Number of distributions in the batch.
    pub fn batch(&self) -> usize {
        self.log_probs.shape()[0]
    }

    /// Number of categories.
    pub fn n_actions(&self) -> usize {
        self.log_probs.shape()[1]
    }

    /// Samples one action per row.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        let (m, n) = (self.batch(), self.n_actions());
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.log_probs.data()[i * n..(i + 1) * n];
            let u: f32 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            let mut chosen = n - 1;
            for (j, &lp) in row.iter().enumerate() {
                acc += lp.exp();
                if u < acc {
                    chosen = j;
                    break;
                }
            }
            out.push(chosen);
        }
        out
    }

    /// Greedy (argmax) action per row.
    pub fn mode(&self) -> Vec<usize> {
        let am = ops::argmax_rows(&self.log_probs).expect("rank-2 by construction");
        am.data().iter().map(|&v| v as usize).collect()
    }

    /// Log-probability of the given action per row, `[batch]`.
    ///
    /// # Errors
    ///
    /// Returns an error when lengths mismatch or actions are out of range.
    pub fn log_prob(&self, actions: &[usize]) -> Result<Tensor> {
        ops::select_per_row(&self.log_probs, actions)
    }

    /// Per-row entropy, `[batch]`.
    pub fn entropy(&self) -> Tensor {
        let (m, n) = (self.batch(), self.n_actions());
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.log_probs.data()[i * n..(i + 1) * n];
            out.push(-row.iter().map(|&lp| lp.exp() * lp).sum::<f32>());
        }
        Tensor::from_vec(out, &[m]).expect("length matches")
    }
}

/// Differentiable categorical log-prob and entropy over a logits variable.
///
/// Returns `(log_prob, entropy)`, each `[batch]`, with gradients flowing
/// into `logits`.
///
/// # Errors
///
/// Propagates shape errors from the softmax/selection ops.
pub fn categorical_stats(logits: &Var, actions: &[usize]) -> Result<(Var, Var)> {
    let log_sm = logits.log_softmax_rows()?;
    let log_prob = log_sm.select_per_row(actions)?;
    // entropy = -Σ_j p·log p along the action axis
    let p = log_sm.exp();
    let entropy = p.mul(&log_sm)?.sum_axis(1)?.neg();
    Ok((log_prob, entropy))
}

/// A batch of diagonal Gaussians: `mean [batch, dim]`, shared `log_std [dim]`.
#[derive(Debug, Clone)]
pub struct DiagGaussian {
    mean: Tensor,
    log_std: Tensor,
}

impl DiagGaussian {
    /// Builds from a mean matrix and a per-dimension log-std vector.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes are incompatible.
    pub fn new(mean: Tensor, log_std: Tensor) -> Result<Self> {
        if mean.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "diag_gaussian",
                expected: 2,
                actual: mean.rank(),
            });
        }
        if log_std.rank() != 1 || log_std.shape()[0] != mean.shape()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "diag_gaussian",
                lhs: mean.shape().to_vec(),
                rhs: log_std.shape().to_vec(),
            });
        }
        Ok(DiagGaussian { mean, log_std })
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.mean.shape()[0]
    }

    /// Action dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.shape()[1]
    }

    /// Samples one action vector per row, `[batch, dim]`.
    pub fn sample(&self, rng: &mut StdRng) -> Tensor {
        let (m, d) = (self.batch(), self.dim());
        let mut out = Vec::with_capacity(m * d);
        for i in 0..m {
            for j in 0..d {
                let z: f32 = StandardNormal.sample(rng);
                out.push(self.mean.data()[i * d + j] + self.log_std.data()[j].exp() * z);
            }
        }
        Tensor::from_vec(out, &[m, d]).expect("length matches")
    }

    /// The distribution mean (greedy action).
    pub fn mode(&self) -> Tensor {
        self.mean.clone()
    }

    /// Log-density of `actions` (`[batch, dim]`) per row, `[batch]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `actions` does not match the batch.
    pub fn log_prob(&self, actions: &Tensor) -> Result<Tensor> {
        if actions.shape() != self.mean.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "log_prob",
                lhs: self.mean.shape().to_vec(),
                rhs: actions.shape().to_vec(),
            });
        }
        let (m, d) = (self.batch(), self.dim());
        let ln_2pi = (2.0 * std::f32::consts::PI).ln();
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let mut lp = 0.0;
            for j in 0..d {
                let ls = self.log_std.data()[j];
                let std = ls.exp();
                let z = (actions.data()[i * d + j] - self.mean.data()[i * d + j]) / std;
                lp += -0.5 * (z * z + ln_2pi) - ls;
            }
            out.push(lp);
        }
        Tensor::from_vec(out, &[m])
    }

    /// Entropy per row (identical across the batch for shared log-std),
    /// `[batch]`.
    pub fn entropy(&self) -> Tensor {
        let ln_2pi_e = (2.0 * std::f32::consts::PI * std::f32::consts::E).ln();
        let h: f32 = self.log_std.data().iter().map(|ls| ls + 0.5 * ln_2pi_e).sum();
        Tensor::full(&[self.batch()], h)
    }
}

/// Differentiable diagonal-Gaussian log-prob and entropy.
///
/// `mean` is `[batch, dim]` on a tape; `log_std` is a `[dim]` variable on
/// the same tape; `actions` is a constant `[batch, dim]` tensor (an
/// `Rc<Tensor>` is registered on the tape without a copy). Returns
/// `(log_prob [batch], entropy [batch])` with gradients flowing into both
/// `mean` and `log_std`.
///
/// # Errors
///
/// Propagates shape errors.
pub fn gaussian_stats(
    mean: &Var,
    log_std: &Var,
    actions: impl Into<Rc<Tensor>>,
) -> Result<(Var, Var)> {
    let actions = actions.into();
    let batch = mean.shape()[0];
    let dim = mean.shape()[1];
    if actions.shape() != [batch, dim] {
        return Err(TensorError::ShapeMismatch {
            op: "gaussian_stats",
            lhs: mean.shape().to_vec(),
            rhs: actions.shape().to_vec(),
        });
    }
    let ln_2pi = (2.0 * std::f32::consts::PI).ln();
    let a = mean.constant(actions);
    // z = (a - mean) / std;  log_prob = Σ_d [-0.5 z² - log_std - 0.5 ln 2π]
    let std = log_std.exp();
    let z = a.sub(mean)?.div(&std)?;
    let per_dim = z.square().mul_scalar(-0.5).sub(log_std)?.add_scalar(-0.5 * ln_2pi);
    let log_prob = per_dim.sum_axis(1)?;
    // entropy = Σ_d (log_std + 0.5 ln 2πe), replicated over the batch
    let ln_2pi_e = (2.0 * std::f32::consts::PI * std::f32::consts::E).ln();
    let ent_scalar = log_std.add_scalar(0.5 * ln_2pi_e).sum_axis(0)?;
    let ones_b = mean.constant(Tensor::ones(&[batch]));
    let ent = ones_b.mul(&ent_scalar)?;
    Ok((log_prob, ent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::init::rng;

    #[test]
    fn categorical_probs_normalised() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0], &[2, 3]).unwrap();
        let c = Categorical::from_logits(&logits).unwrap();
        let e = c.entropy();
        // Uniform row has entropy ln 3.
        assert!((e.data()[1] - 3.0f32.ln()).abs() < 1e-5);
        assert!(e.data()[0] < e.data()[1]);
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let logits = Tensor::from_vec(vec![0.0, 2.0], &[1, 2]).unwrap();
        let c = Categorical::from_logits(&logits).unwrap();
        let mut r = rng(0);
        let mut counts = [0usize; 2];
        for _ in 0..5000 {
            counts[c.sample(&mut r)[0]] += 1;
        }
        let p1 = counts[1] as f32 / 5000.0;
        let expect = (2.0f32.exp()) / (1.0 + 2.0f32.exp());
        assert!((p1 - expect).abs() < 0.03, "p1 {p1} vs {expect}");
    }

    #[test]
    fn categorical_mode_is_argmax() {
        let logits = Tensor::from_vec(vec![0.0, 5.0, -1.0], &[1, 3]).unwrap();
        let c = Categorical::from_logits(&logits).unwrap();
        assert_eq!(c.mode(), vec![1]);
    }

    #[test]
    fn gaussian_log_prob_peaks_at_mean() {
        let mean = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap();
        let log_std = Tensor::zeros(&[2]);
        let g = DiagGaussian::new(mean.clone(), log_std).unwrap();
        let at_mean = g.log_prob(&mean).unwrap().data()[0];
        let off = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]).unwrap();
        let off_prob = g.log_prob(&off).unwrap().data()[0];
        assert!(at_mean > off_prob);
        // At the mean with unit std: -0.5·ln(2π) per dim, 2 dims.
        let expect = -(2.0 * std::f32::consts::PI).ln();
        assert!((at_mean - expect).abs() < 1e-5);
    }

    #[test]
    fn gaussian_sampling_statistics() {
        let mean = Tensor::full(&[1, 1], 2.0);
        let log_std = Tensor::full(&[1], 0.0);
        let g = DiagGaussian::new(mean, log_std).unwrap();
        let mut r = rng(3);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let s = g.sample(&mut r).data()[0];
            sum += s;
            sum_sq += s * s;
        }
        let m = sum / n as f32;
        let var = sum_sq / n as f32 - m * m;
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_shape_checks() {
        assert!(DiagGaussian::new(Tensor::zeros(&[3]), Tensor::zeros(&[3])).is_err());
        assert!(DiagGaussian::new(Tensor::zeros(&[2, 3]), Tensor::zeros(&[2])).is_err());
        let g = DiagGaussian::new(Tensor::zeros(&[2, 3]), Tensor::zeros(&[3])).unwrap();
        assert!(g.log_prob(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn differentiable_categorical_matches_plain() {
        let tape = Tape::new();
        let logits_t = Tensor::from_vec(vec![0.5, -0.5, 1.5, 0.0, 0.0, 0.0], &[2, 3]).unwrap();
        let logits = tape.var(logits_t.clone());
        let (lp, ent) = categorical_stats(&logits, &[2, 0]).unwrap();
        let plain = Categorical::from_logits(&logits_t).unwrap();
        let plain_lp = plain.log_prob(&[2, 0]).unwrap();
        for (a, b) in lp.value().data().iter().zip(plain_lp.data()) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in ent.value().data().iter().zip(plain.entropy().data()) {
            assert!((a - b).abs() < 1e-4);
        }
        let loss = lp.sum();
        let g = tape.backward(&loss).unwrap();
        assert!(g.get(logits.id()).is_some());
    }

    #[test]
    fn differentiable_gaussian_matches_plain() {
        let tape = Tape::new();
        let mean_t = Tensor::from_vec(vec![0.2, -0.3, 1.0, 0.5], &[2, 2]).unwrap();
        let ls_t = Tensor::from_vec(vec![-0.5, 0.1], &[2]).unwrap();
        let actions = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]).unwrap();
        let mean = tape.var(mean_t.clone());
        let ls = tape.var(ls_t.clone());
        let (lp, ent) = gaussian_stats(&mean, &ls, actions.clone()).unwrap();
        let plain = DiagGaussian::new(mean_t, ls_t).unwrap();
        let plain_lp = plain.log_prob(&actions).unwrap();
        for (a, b) in lp.value().data().iter().zip(plain_lp.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        for (a, b) in ent.value().data().iter().zip(plain.entropy().data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        let loss = lp.sum();
        let g = tape.backward(&loss).unwrap();
        assert!(g.get(mean.id()).is_some());
        assert!(g.get(ls.id()).is_some());
    }
}
