//! Probability distributions for stochastic policies, and the one tape
//! node their learners record.
//!
//! Policy-gradient algorithms (PPO, MAPPO, A3C) sample actions from a
//! distribution parameterised by the policy network and differentiate the
//! log-probability of the taken action. Discrete-action environments (MPE,
//! CartPole) use [`Categorical`]; continuous-control environments
//! (HalfCheetah) use [`DiagGaussian`].
//!
//! Every learner's policy loss is one tape node, [`policy_loss`]: the
//! head output to the per-row log-probability and entropy, the surrogate
//! ([`Surrogate::Clipped`] for PPO, [`Surrogate::Vanilla`] for A3C) and
//! both means, forwards in lane bodies with the rows across the lanes,
//! backwards in one rule. It is the composition of tape ops it replaced
//! bit for bit; that composition survives as its test oracle.
//!
//! Each distribution quantity is spelled once, and acting reads the
//! learner's spelling: the categorical head's row log-sum-exp
//! (`fastmath::lse_rows`, behind [`Categorical::from_logits`]) and the
//! Gaussian head's per-row log-density with `std = fast_exp(log_std)`
//! (behind [`DiagGaussian::log_prob`]; [`DiagGaussian::sample`] draws with
//! the same `std`). So the ratio of a learner's first epoch is exactly 1
//! for both heads.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::alloc;
use crate::autograd::{GradFn, Var};
use crate::fastmath::{self, exp, lse_rows};
use crate::kernels::{self, MatKernel};
use crate::lanes::{dispatch, scatter, Lanes, One, EQ, LE, LT};
use crate::ops;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Runs `$body` over `$m` rows in order, `$r` its first row and `$W` its
/// lane type: `$V::L` rows at a time, then the rest one row at a time
/// ([`One`]).
macro_rules! each_block {
    ($V:ident, $m:expr, |$r:ident, $W:ident| $body:expr) => {{
        let m: usize = $m;
        let whole = m - m % <$V as Lanes>::L;
        for $r in (0..whole).step_by(<$V as Lanes>::L) {
            type $W = $V;
            $body;
        }
        for $r in whole..m {
            type $W = One;
            $body;
        }
    }};
}

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

    /// Log-probability of the given action per row, `[batch]`.
    ///
    /// # Errors
    ///
    /// Returns an error when lengths mismatch or actions are out of range.
    pub fn log_prob(&self, actions: &[usize]) -> Result<Tensor> {
        ops::select_per_row(&self.log_probs, actions)
    }
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

    /// Samples one action vector per row, `[batch, dim]`: `mean + std·z`
    /// with the learner's `std` (`gaussian_std`).
    pub fn sample(&self, rng: &mut StdRng) -> Tensor {
        let (m, d) = (self.batch(), self.dim());
        let std = gaussian_std(self.log_std.data());
        let mut out = Vec::with_capacity(m * d);
        for i in 0..m {
            for (j, &s) in std.iter().enumerate() {
                let z: f32 = StandardNormal.sample(rng);
                out.push(self.mean.data()[i * d + j] + s * z);
            }
        }
        alloc::give(std);
        Tensor::from_vec(out, &[m, d]).expect("length matches")
    }

    /// Log-density of `actions` (`[batch, dim]`) per row, `[batch]`: the
    /// learner's lane body (`gaussian_log_prob`), so a log-probability
    /// stored while acting is bit for bit the one the first learn epoch
    /// recomputes.
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
        let (m, k) = (self.batch(), self.dim());
        let (log_std, std) = (self.log_std.data(), gaussian_std(self.log_std.data()));
        let c = gaussian_logs().0;
        let mut out = alloc::take_for_overwrite(m);
        let (mean, a, o) = (self.mean.data().as_ptr(), actions.data().as_ptr(), out.as_mut_ptr());
        dispatch!(kernels::gather_family(k), V => {
            // SAFETY: `mean` and `actions` hold `m` rows of `k`, `out` `m`
            // and `log_std` and `std` `k`; the family was detected.
            unsafe {
                each_block!(V, m, |r, W| {
                    gaussian_log_prob::<W>(mean, a, k, r, log_std, &std, c).store(o.add(r))
                })
            }
        });
        alloc::give(std);
        Tensor::from_vec(out, &[m])
    }
}

/// The surrogate [`policy_loss`] takes of each row's log-probability
/// `log π` and advantage `A`, with what its batch's means need.
#[derive(Debug, Clone, Copy)]
pub enum Surrogate<'a> {
    /// PPO's clipped surrogate `min(r·A, clip(r)·A)` of the probability
    /// ratio `r = exp(log π − old_log_probs)`, clipped to `1 ± clip`.
    Clipped {
        /// Clipping radius ε of the ratio.
        clip: f32,
        /// The behaviour policy's log-probabilities of the block's rows.
        old_log_probs: &'a Rc<Tensor>,
        /// Entropy bonus coefficient.
        entropy_coef: f32,
        /// Rows of the whole batch: what both means divide by.
        rows: usize,
    },
    /// The actor-critic surrogate `log π · A` (A3C).
    Vanilla {
        /// Entropy bonus coefficient.
        entropy_coef: f32,
        /// Rows of the whole batch: what both means divide by.
        rows: usize,
    },
}

/// The action distribution a policy head's output parameterises, and
/// the actions taken under it.
pub enum Head<'a> {
    /// The output is logits `[rows, n]`; one action index per row.
    Categorical(&'a [usize]),
    /// The output is the means `[rows, d]` of a diagonal Gaussian with
    /// the shared `log_std` (`[d]`, a variable on the output's tape);
    /// `actions` is `[rows, d]`.
    Gaussian {
        /// Per-dimension log standard deviation.
        log_std: &'a Var,
        /// The actions taken.
        actions: Rc<Tensor>,
    },
}

/// What [`policy_loss`] records and reports.
pub struct PolicyLoss {
    /// The loss node, `−mean(surrogate) − entropy_coef · mean(entropy)`
    /// over the rows so far, each mean over the batch.
    pub loss: Var,
    /// Its first term: the batch's mean surrogate, negated (of the whole
    /// batch once its last block is in).
    pub surrogate: f32,
    /// The batch's mean entropy (likewise).
    pub entropy: f32,
}

/// A learner's policy loss over one row block of a batch, recorded as
/// **one** tape node: the head output's per-row log-probability and
/// entropy (through the [`Categorical`] head's row log-sum-exp, or the
/// [`DiagGaussian`] head's log-density), the `surrogate` of each row
/// against its advantage `adv` — PPO's ratio `r = exp(log_prob −
/// old_log_probs)`, its clip to `1 ± clip` and the minimum of `r·adv` and
/// `clip(r)·adv`, or A3C's `log_prob · adv` — and the two means over the
/// batch. `sums` carries the means' running totals (surrogate, entropy)
/// from block to block as [`Var::mean_over`] does: `None` before the
/// first block.
///
/// Forwards the node runs the lane bodies acting runs too, rows across
/// the lanes; backwards it has one rule, which writes the gradient of the
/// head output and of `log_std`. Every element follows the float sequence
/// of the composition it replaces (the head's statistics, then for PPO
/// `sub`, `exp`, `mul`, `clamp` and `min`, for A3C `mul`, then
/// `mean_over`, `neg`, `mul_scalar` and `add`), each contribution to a
/// gradient added in the order that composition's tape adds it, so the
/// loss, both means and every gradient are those of the composition bit
/// for bit (a NaN may carry another payload).
///
/// # Errors
///
/// Returns shape errors when the head output is not a matrix, the
/// per-row inputs do not have its rows, an action index is out of
/// range, or the Gaussian head's `actions` and `log_std` do not match
/// the output, and [`TensorError::UnknownVariable`] for a `log_std` of
/// another tape.
pub fn policy_loss(
    out: &Var,
    head: Head<'_>,
    adv: &Rc<Tensor>,
    surrogate: Surrogate<'_>,
    sums: &mut [Option<f32>; 2],
) -> Result<PolicyLoss> {
    let x = out.value();
    let family = kernels::gather_family(x.shape().get(1).copied().unwrap_or(0));
    policy_loss_on(family, out, head, adv, surrogate, sums)
}

/// [`policy_loss`] with its lane bodies on `family` (the tests run every
/// family the host has).
fn policy_loss_on(
    family: MatKernel,
    out: &Var,
    head: Head<'_>,
    adv: &Rc<Tensor>,
    surrogate: Surrogate<'_>,
    sums: &mut [Option<f32>; 2],
) -> Result<PolicyLoss> {
    const OP: &str = "policy_loss";
    let x = out.value();
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch { op: OP, expected: 2, actual: x.rank() });
    }
    let (m, k) = (x.shape()[0], x.shape()[1]);
    let per_row = |t: &Tensor| {
        if t.shape() == [m] {
            return Ok(());
        }
        Err(TensorError::ShapeMismatch { op: OP, lhs: vec![m], rhs: t.shape().to_vec() })
    };
    let (clip, coef, rows) = match surrogate {
        Surrogate::Clipped { clip, old_log_probs, entropy_coef, rows } => {
            per_row(old_log_probs)?;
            (Some((old_log_probs, clip)), entropy_coef, rows)
        }
        Surrogate::Vanilla { entropy_coef, rows } => (None, entropy_coef, rows),
    };
    per_row(adv)?;
    let (kind, log_std) = match head {
        Head::Categorical(actions) => {
            if actions.len() != m {
                return Err(TensorError::LengthMismatch { expected: m, actual: actions.len() });
            }
            let mut taken = alloc::take_for_overwrite(m);
            for (slot, &a) in taken.iter_mut().zip(actions) {
                if a >= k {
                    alloc::give(taken);
                    return Err(TensorError::IndexOutOfRange { index: a, len: k });
                }
                *slot = a as f32;
            }
            let kind = Kind::Categorical {
                taken,
                lse: alloc::take_for_overwrite(m),
                p: alloc::take_for_overwrite(m * k),
            };
            (kind, None)
        }
        Head::Gaussian { log_std, actions } => {
            let ls = log_std.value();
            if ls.shape() != [k] || actions.shape() != [m, k] {
                let rhs = if ls.shape() != [k] { ls.shape() } else { actions.shape() };
                return Err(TensorError::ShapeMismatch {
                    op: OP,
                    lhs: x.shape().to_vec(),
                    rhs: rhs.to_vec(),
                });
            }
            let std = gaussian_std(ls.data());
            (Kind::Gaussian { log_std: ls, actions, std }, Some(log_std))
        }
    };
    let clip = clip.map(|(old, clip)| Clip {
        old: Rc::clone(old),
        ratio: alloc::take_for_overwrite(m),
        bounds: (1.0 - clip, 1.0 + clip),
    });
    let n = rows.max(1) as f32;
    let mut node = LossNode {
        family,
        x,
        kind,
        adv: Rc::clone(adv),
        clip,
        coef,
        n,
        log_std_grad: RefCell::new(None),
    };
    let [surrogate_sum, entropy_sum] = sums;
    let mut totals = [surrogate_sum.unwrap_or(-0.0), entropy_sum.unwrap_or(-0.0)];
    match node.clip {
        Some(_) => node.forward::<true>(&mut totals),
        None => node.forward::<false>(&mut totals),
    }
    (*surrogate_sum, *entropy_sum) = (Some(totals[0]), Some(totals[1]));
    let surrogate = -(totals[0] / n);
    let entropy = totals[1] / n;
    let loss = surrogate + entropy * -coef;
    let node = Rc::new(node);
    let on_head = Rc::clone(&node);
    let mut parents: Vec<(&Var, GradFn)> = vec![(
        out,
        Box::new(move |g| {
            let (head, log_std) = on_head.backward(g);
            *on_head.log_std_grad.borrow_mut() = log_std;
            head
        }),
    )];
    if let Some(log_std) = log_std {
        parents.push((
            log_std,
            Box::new(move |g| match node.log_std_grad.borrow_mut().take() {
                Some(grad) => grad,
                // The head needs no gradient, so its rule was not kept.
                None => {
                    let (head, log_std) = node.backward(g);
                    head.recycle();
                    log_std.expect("a Gaussian head has a log-std gradient")
                }
            }),
        ));
    }
    let loss = out.record(crate::autograd::filled(&[], loss), parents)?;
    Ok(PolicyLoss { loss, surrogate, entropy })
}

/// The head-specific half of a [`LossNode`]: its inputs, and what its
/// forward pass keeps for the backward one. Each buffer is drawn from
/// the pool and goes back when the tape drops.
enum Kind {
    Categorical {
        /// The action of each row, as a float (exact below 2²⁴).
        taken: Vec<f32>,
        /// Each row's log-sum-exp.
        lse: Vec<f32>,
        /// `exp(log_softmax)`, `[rows, n]`.
        p: Vec<f32>,
    },
    Gaussian {
        log_std: Rc<Tensor>,
        actions: Rc<Tensor>,
        /// [`gaussian_std`] of `log_std`.
        std: Vec<f32>,
    },
}

/// What the clipped surrogate reads and keeps: the old log-probability
/// and the ratio of each row, and the clip's bounds `(1 − clip, 1 +
/// clip)`.
struct Clip {
    old: Rc<Tensor>,
    ratio: Vec<f32>,
    bounds: (f32, f32),
}

/// One block's fused policy loss: what its forward pass read and kept,
/// and the `log_std` gradient its backward rule hands from the head's
/// rule to `log_std`'s.
struct LossNode {
    family: MatKernel,
    /// The head output.
    x: Rc<Tensor>,
    kind: Kind,
    adv: Rc<Tensor>,
    /// `None` for the vanilla surrogate.
    clip: Option<Clip>,
    coef: f32,
    /// Rows of the batch.
    n: f32,
    log_std_grad: RefCell<Option<Tensor>>,
}

impl Drop for LossNode {
    fn drop(&mut self) {
        let give = |buf: &mut Vec<f32>| alloc::give(std::mem::take(buf));
        if let Some(clip) = &mut self.clip {
            give(&mut clip.ratio);
        }
        match &mut self.kind {
            Kind::Categorical { taken, lse, p } => [taken, lse, p].into_iter().for_each(give),
            Kind::Gaussian { std, .. } => give(std),
        }
    }
}

/// What the lane bodies of a [`LossNode`] read and write, as pointers
/// every body offsets by its first row. `old`, `ratio` and `clip` are
/// the clipped surrogate's (null and unread for the vanilla one).
struct Rows {
    x: *const f32,
    /// Columns of the head output.
    k: usize,
    old: *const f32,
    adv: *const f32,
    ratio: *mut f32,
    clip: (f32, f32),
}

impl LossNode {
    fn rows(&self) -> Rows {
        let (x, k, adv) = (self.x.data().as_ptr(), self.x.shape()[1], self.adv.data().as_ptr());
        let (old, ratio, clip) = match &self.clip {
            Some(c) => (c.old.data().as_ptr(), c.ratio.as_ptr().cast_mut(), c.bounds),
            None => (std::ptr::null(), std::ptr::null_mut(), (1.0, 1.0)),
        };
        Rows { x, k, old, adv, ratio, clip }
    }

    /// The forward pass of the clipped (`CLIPPED`) or the vanilla
    /// surrogate: fills what the node keeps and goes on with the
    /// surrogate and entropy totals.
    fn forward<const CLIPPED: bool>(&mut self, totals: &mut [f32; 2]) {
        let m = self.x.shape()[0];
        let mut rows = self.rows();
        if let Some(clip) = &mut self.clip {
            rows.ratio = clip.ratio.as_mut_ptr();
        }
        match &mut self.kind {
            Kind::Categorical { taken, lse, p } => {
                let (taken, lse, p) = (taken.as_ptr(), lse.as_mut_ptr(), p.as_mut_ptr());
                dispatch!(self.family, V => {
                    // SAFETY: every buffer holds `m` rows (the checks of
                    // `policy_loss_on`), and the family was detected.
                    unsafe {
                        each_block!(V, m, |r, W| {
                            categorical_fwd::<W, CLIPPED>(&rows, r, taken, lse, p, totals)
                        })
                    }
                });
            }
            Kind::Gaussian { log_std, actions, std } => {
                let (ls, a, std) = (log_std.data(), actions.data().as_ptr(), &std[..]);
                let (c, entropy) = gaussian_terms(ls);
                dispatch!(self.family, V => {
                    // SAFETY: as for the categorical head; `ls` and
                    // `std` hold `k` columns.
                    unsafe {
                        each_block!(V, m, |r, W| {
                            let log_prob = gaussian_log_prob::<W>(rows.x, a, rows.k, r, ls, std, c);
                            score_fwd::<W, CLIPPED>(&rows, r, log_prob, &mut totals[0])
                        });
                    }
                });
                // Every row's entropy is `1 · entropy`, a constant's
                // product with the scalar.
                for _ in 0..m {
                    totals[1] += 1.0 * entropy;
                }
            }
        }
    }

    /// The one backward rule: the gradients of the head output and, for
    /// a Gaussian head, of `log_std`, from the loss's gradient `g`.
    fn backward(&self, g: &Tensor) -> (Tensor, Option<Tensor>) {
        match self.clip {
            Some(_) => self.backward_as::<true>(g),
            None => self.backward_as::<false>(g),
        }
    }

    /// [`LossNode::backward`] of the clipped (`CLIPPED`) or the vanilla
    /// surrogate.
    fn backward_as<const CLIPPED: bool>(&self, g: &Tensor) -> (Tensor, Option<Tensor>) {
        let g = g.item().expect("the loss is a scalar");
        let [m, k] = [self.x.shape()[0], self.x.shape()[1]];
        let rows = self.rows();
        let mut head = alloc::take_for_overwrite(m * k);
        let out = head.as_mut_ptr();
        // The composition's rules down to its two means: `add` passes `g`
        // to both terms, `neg` and `mul_scalar` scale it, and each
        // `mean_over` spreads it as `g / n` over the rows.
        let g_term = -g / self.n;
        let g_entropy = (g * -self.coef) / self.n;
        let log_std = match &self.kind {
            Kind::Categorical { taken, lse, p } => {
                // `neg` then `sum_axis`' broadcast onto zeros.
                let g_plogp = 0.0 + -g_entropy;
                let (taken, lse, p) = (taken.as_ptr(), lse.as_ptr(), p.as_ptr());
                dispatch!(self.family, V => {
                    // SAFETY: as in `forward`; `head` holds `m · k`.
                    unsafe {
                        each_block!(V, m, |r, W| {
                            let g_log_prob = score_bwd::<W, CLIPPED>(&rows, r, g_term);
                            categorical_bwd::<W>(&rows, r, g_log_prob, g_plogp, taken, lse, p, out)
                        })
                    }
                });
                None
            }
            Kind::Gaussian { actions, std, .. } => {
                let a = actions.data().as_ptr();
                // Per column the `exp` term's row sum; the `sub` term's
                // is one for every column.
                let mut exp_sums = alloc::take_zeroed(k);
                let mut sub_sum = 0.0;
                let (sums, std) = (exp_sums.as_mut_ptr(), &std[..]);
                dispatch!(self.family, V => {
                    // SAFETY: as in `forward`; `exp_sums` holds `k`.
                    unsafe {
                        each_block!(V, m, |r, W| {
                            let g_log_prob = score_bwd::<W, CLIPPED>(&rows, r, g_term);
                            gaussian_bwd::<W>(&rows, r, g_log_prob, a, std, out, sums, &mut sub_sum)
                        })
                    }
                });
                // `ones · entropy`'s rule: `g · 1` per row, summed.
                let mut g_entropy_sum = 0.0;
                for _ in 0..m {
                    g_entropy_sum += g_entropy * 1.0;
                }
                // Into `log_std`, in its tape's order: the entropy's
                // `add_scalar`, the `sub` of the log-density, the `exp`
                // of `std`.
                for (slot, &s) in exp_sums.iter_mut().zip(std) {
                    *slot = ((0.0 + g_entropy_sum) + sub_sum) + *slot * s;
                }
                Some(Tensor::from_vec(exp_sums, &[k]).expect("k columns"))
            }
        };
        (Tensor::from_vec(head, &[m, k]).expect("m rows of k"), log_std)
    }
}

/// `std = exp(log_std)` by the crate's one `exp`
/// ([`fastmath::fast_exp`]), in a pooled buffer: what sampling, acting's
/// log-density and the learner's node all read.
fn gaussian_std(log_std: &[f32]) -> Vec<f32> {
    let mut std = alloc::take_for_overwrite(log_std.len());
    std.copy_from_slice(log_std);
    fastmath::apply_slice(fastmath::Unary::Exp, &mut std);
    std
}

/// The constants of the Gaussian log-density and entropy, each spelled
/// once: the log-density's per-element offset `−½ ln 2π`, and `ln 2πe`.
fn gaussian_logs() -> (f32, f32) {
    let ln_2pi = (2.0 * std::f32::consts::PI).ln();
    let ln_2pi_e = (2.0 * std::f32::consts::PI * std::f32::consts::E).ln();
    (-0.5 * ln_2pi, ln_2pi_e)
}

/// The log-density's per-element offset, and the entropy
/// `Σ_d (log_std + ½ ln 2πe)` every row shares, summed from `0.0`.
fn gaussian_terms(log_std: &[f32]) -> (f32, f32) {
    let (c, ln_2pi_e) = gaussian_logs();
    let entropy = log_std.iter().fold(0.0, |acc, &ls| acc + (ls + 0.5 * ln_2pi_e));
    (c, entropy)
}

/// `acc` gone on over the lanes of `v` in lane order: a sum over rows
/// as one accumulator sweeping them.
#[inline(always)]
unsafe fn fold_into<V: Lanes>(v: V, acc: &mut f32) {
    let mut lanes = [0.0f32; 16];
    v.store(lanes.as_mut_ptr());
    for &x in lanes.iter().take(V::L) {
        *acc += x;
    }
}

/// `clamp(r, lo, hi)` in `f32::clamp`'s order: `lo` if `r < lo`, then
/// `hi` if above it, NaN through.
#[inline(always)]
unsafe fn clamped<V: Lanes>(r: V, (lo, hi): (f32, f32)) -> V {
    V::splat(hi).min(V::splat(lo).max(r))
}

/// The surrogate of rows `r..r + V::L` from their log-probabilities,
/// added to `total`. Clipped: stores the ratio and adds `min(r·adv,
/// clip(r)·adv)`; vanilla: adds `log_prob · adv`.
#[inline(always)]
unsafe fn score_fwd<V: Lanes, const CLIPPED: bool>(
    rows: &Rows,
    r: usize,
    log_prob: V,
    total: &mut f32,
) {
    let adv = V::load(rows.adv.add(r));
    if !CLIPPED {
        return fold_into(log_prob.mul(adv), total);
    }
    let ratio = exp(log_prob.sub(V::load(rows.old.add(r))));
    ratio.store(rows.ratio.add(r));
    // `f32::min`: the clipped term when the unclipped one is NaN, which
    // (a ratio of ∞ times an advantage of 0) leaves the clipped finite.
    let unclipped = ratio.mul(adv);
    fold_into(unclipped.min(clamped(ratio, rows.clip).mul(adv)), total);
}

/// The gradient of rows `r..r + V::L`' log-probabilities from `g_term`,
/// the gradient the surrogate's mean hands each row's term. Clipped:
/// back through the `min` (ties to the unclipped term), the products
/// with the advantages, the clip (zero outside `[lo, hi]`), their sum and
/// the `exp`; vanilla: the product's rule, `g_term · adv`.
#[inline(always)]
unsafe fn score_bwd<V: Lanes, const CLIPPED: bool>(rows: &Rows, r: usize, g_term: f32) -> V {
    let (g, adv) = (V::splat(g_term), V::load(rows.adv.add(r)));
    if !CLIPPED {
        return g.mul(adv);
    }
    let (zero, one) = (V::splat(0.0), V::splat(1.0));
    let ratio = V::load(rows.ratio.add(r));
    let (lo, hi) = (V::splat(rows.clip.0), V::splat(rows.clip.1));
    let unclipped = ratio.mul(adv);
    let clipped = clamped(ratio, rows.clip).mul(adv);
    let g_unclipped = unclipped.select::<LE>(clipped, one, zero).mul(g);
    let g_clipped = clipped.select::<LT>(unclipped, one, zero).mul(g);
    let inside = lo.select::<LE>(ratio, ratio.select::<LE>(hi, g_clipped.mul(adv), zero), zero);
    inside.add(g_unclipped.mul(adv)).mul(ratio)
}

/// Forward of a categorical head over rows `r..r + V::L`: the
/// log-sum-exp, `p = exp(x − lse)`, the entropy `−Σ p·(x − lse)` and the
/// taken action's `x − lse`, then the surrogate.
#[inline(always)]
unsafe fn categorical_fwd<V: Lanes, const CLIPPED: bool>(
    rows: &Rows,
    r: usize,
    taken: *const f32,
    lse: *mut f32,
    p: *mut f32,
    totals: &mut [f32; 2],
) {
    let (k, x) = (rows.k, rows.x.add(r * rows.k));
    lse_rows::<V>(x, k, lse.add(r));
    let (row_lse, action) = (V::load(lse.add(r)), V::load(taken.add(r)));
    let (mut plogp, mut log_prob) = (V::splat(0.0), V::splat(0.0));
    for j in 0..k {
        let log_sm = V::gather(x.add(j), k).sub(row_lse);
        let pj = exp(log_sm);
        scatter(pj, p.add(r * k + j), k);
        plogp = plogp.add(pj.mul(log_sm));
        log_prob = action.select::<EQ>(V::splat(j as f32), log_sm, log_prob);
    }
    score_fwd::<V, CLIPPED>(rows, r, log_prob, &mut totals[0]);
    fold_into(plogp.neg(), &mut totals[1]);
}

/// Backward of a categorical head over rows `r..r + V::L` into `out`,
/// from the gradient of their log-probabilities: per element `((g·p) +
/// (g·log_sm)·p) + select`, the entropy's two products and the
/// log-prob's selection, then the log-softmax rule `G − p·ΣG` (the row
/// sum from `−0.0`, as `f32`'s `Sum`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn categorical_bwd<V: Lanes>(
    rows: &Rows,
    r: usize,
    g_log_prob: V,
    g_plogp: f32,
    taken: *const f32,
    lse: *const f32,
    p: *const f32,
    out: *mut f32,
) {
    let (k, x) = (rows.k, rows.x.add(r * rows.k));
    let (row_lse, action) = (V::load(lse.add(r)), V::load(taken.add(r)));
    let (g, zero, (p, out)) = (V::splat(g_plogp), V::splat(0.0), (p.add(r * k), out.add(r * k)));
    let mut g_sum = V::splat(-0.0);
    for j in 0..k {
        let pj = V::gather(p.add(j), k);
        let log_sm = V::gather(x.add(j), k).sub(row_lse);
        let chosen = action.select::<EQ>(V::splat(j as f32), g_log_prob, zero);
        let gj = g.mul(pj).add(g.mul(log_sm).mul(pj)).add(chosen);
        scatter(gj, out.add(j), k);
        g_sum = g_sum.add(gj);
    }
    for j in 0..k {
        let gj = V::gather(out.add(j), k);
        scatter(gj.sub(V::gather(p.add(j), k).mul(g_sum)), out.add(j), k);
    }
}

/// The log-density of rows `r..r + V::L` of a batch of diagonal
/// Gaussians, `mean` and `actions` of `k` columns: `Σ_d ((z² · −½) −
/// log_std) + c` of `z = (a − mean) / std`, summed from `0.0`, `c` the
/// offset of [`gaussian_logs`]. Its one spelling: acting
/// ([`DiagGaussian::log_prob`]) and the learner's node run it.
#[inline(always)]
unsafe fn gaussian_log_prob<V: Lanes>(
    mean: *const f32,
    actions: *const f32,
    k: usize,
    r: usize,
    log_std: &[f32],
    std: &[f32],
    c: f32,
) -> V {
    let at = r * k;
    let mut log_prob = V::splat(0.0);
    for (j, (&ls, &s)) in log_std.iter().zip(std).enumerate() {
        let diff = V::gather(actions.add(at + j), k).sub(V::gather(mean.add(at + j), k));
        let z = diff.div(V::splat(s));
        let term = z.mul(z).mul(V::splat(-0.5)).sub(V::splat(ls)).add(V::splat(c));
        log_prob = log_prob.add(term);
    }
    log_prob
}

/// Backward of a Gaussian head over rows `r..r + V::L`, from the
/// gradient of their log-probabilities: the means' gradient
/// `−(((g·−½)·2)·z / std)` into `out`, and the row sums of the two
/// `log_std` terms gone on over these rows: `−g` (the `sub`, one for
/// every column) into `sub_sum`, `−((g_z·(a − mean)) / std²)` (the `div`
/// by `std`) per column into `exp_sums`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gaussian_bwd<V: Lanes>(
    rows: &Rows,
    r: usize,
    g_log_prob: V,
    actions: *const f32,
    std: &[f32],
    out: *mut f32,
    exp_sums: *mut f32,
    sub_sum: &mut f32,
) {
    // `sum_axis`' broadcast onto zeros.
    let g = V::splat(0.0).add(g_log_prob);
    fold_into(g.neg(), sub_sum);
    let g_square = g.mul(V::splat(-0.5)).mul(V::splat(2.0));
    let (k, at) = (rows.k, r * rows.k);
    for (j, &s) in std.iter().enumerate() {
        let diff = V::gather(actions.add(at + j), k).sub(V::gather(rows.x.add(at + j), k));
        let g_z = g_square.mul(diff.div(V::splat(s)));
        scatter(g_z.div(V::splat(s)).neg(), out.add(at + j), k);
        fold_into(g_z.mul(diff).div(V::splat(s * s)).neg(), &mut *exp_sums.add(j));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::init::rng;

    /// Differentiable categorical log-prob and entropy over a logits
    /// variable, `(log_prob, entropy)` each `[batch]`, as tape ops: the
    /// composition [`policy_loss`]'s categorical head replaces.
    pub(crate) fn categorical_stats(logits: &Var, actions: &[usize]) -> Result<(Var, Var)> {
        let log_sm = logits.log_softmax_rows()?;
        let log_prob = log_sm.select_per_row(actions)?;
        // entropy = -Σ_j p·log p along the action axis
        let p = log_sm.exp();
        let entropy = p.mul(&log_sm)?.sum_axis(1)?.neg();
        Ok((log_prob, entropy))
    }

    /// Differentiable diagonal-Gaussian log-prob and entropy of constant
    /// `actions` under `mean` (`[batch, dim]`) and `log_std` (`[dim]`, on
    /// the same tape), `(log_prob [batch], entropy [batch])`, as tape
    /// ops: the composition [`policy_loss`]'s Gaussian head replaces.
    pub(crate) fn gaussian_stats(
        mean: &Var,
        log_std: &Var,
        actions: impl Into<Rc<Tensor>>,
    ) -> Result<(Var, Var)> {
        let actions = actions.into();
        let batch = mean.shape()[0];
        let (c, ln_2pi_e) = gaussian_logs();
        let a = mean.constant(actions);
        // z = (a - mean) / std;  log_prob = Σ_d [-0.5 z² - log_std - 0.5 ln 2π]
        let std = log_std.exp();
        let z = a.sub(mean)?.div(&std)?;
        let log_prob = z.square().mul_scalar(-0.5).sub(log_std)?.add_scalar(c).sum_axis(1)?;
        // entropy = Σ_d (log_std + 0.5 ln 2πe), replicated over the batch
        let ent_scalar = log_std.add_scalar(0.5 * ln_2pi_e).sum_axis(0)?;
        let ones_b = mean.constant(Tensor::ones(&[batch]));
        Ok((log_prob, ones_b.mul(&ent_scalar)?))
    }

    /// `−Σ_j p·log p` of every row of `log_probs` (`[m, n]`).
    fn entropies(log_probs: &Tensor) -> Vec<f32> {
        let n = log_probs.shape()[1];
        log_probs
            .data()
            .chunks(n)
            .map(|row| -row.iter().map(|&lp| lp.exp() * lp).sum::<f32>())
            .collect()
    }

    #[test]
    fn categorical_probs_normalised() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0], &[2, 3]).unwrap();
        let c = Categorical::from_logits(&logits).unwrap();
        for row in c.log_probs.data().chunks(3) {
            assert!((row.iter().map(|lp| lp.exp()).sum::<f32>() - 1.0).abs() < 1e-6);
        }
        // A uniform row has entropy ln 3, and the other less.
        let e = entropies(&c.log_probs);
        assert!((e[1] - 3.0f32.ln()).abs() < 1e-5);
        assert!(e[0] < e[1]);
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
        assert_eq!(lp.value().data(), plain_lp.data(), "one row log-sum-exp");
        for (a, b) in ent.value().data().iter().zip(entropies(&plain.log_probs)) {
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
        let plain = DiagGaussian::new(mean_t, ls_t.clone()).unwrap();
        let plain_lp = plain.log_prob(&actions).unwrap();
        assert_eq!(lp.value().data(), plain_lp.data(), "one log-density");
        let ln_2pi_e = gaussian_logs().1;
        let h: f32 = ls_t.data().iter().map(|ls| ls + 0.5 * ln_2pi_e).sum();
        for &a in ent.value().data() {
            assert!((a - h).abs() < 1e-5, "{a} vs {h}");
        }
        let loss = lp.sum();
        let g = tape.backward(&loss).unwrap();
        assert!(g.get(mean.id()).is_some());
        assert!(g.get(ls.id()).is_some());
    }

    /// The fused node against the composition it replaces, on every lane
    /// family this host runs.
    mod fused {
        use super::*;
        use crate::kernels::{families, MatKernel};

        /// Equal bits, or both NaN (payloads may differ between paths).
        fn same(a: f32, b: f32) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        fn assert_same(got: &[f32], want: &[f32], what: &str) {
            assert_eq!(got.len(), want.len(), "{what}: lengths");
            for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                assert!(
                    same(g, w),
                    "{what}[{i}]: node {g} ({:#x}) vs composition {w} ({:#x})",
                    g.to_bits(),
                    w.to_bits()
                );
            }
        }

        /// The actions of a block.
        enum Taken {
            Discrete(Vec<usize>),
            Continuous(Rc<Tensor>),
        }

        /// One row block of a test batch.
        struct Block {
            x: Tensor,
            actions: Taken,
            old: Rc<Tensor>,
            adv: Rc<Tensor>,
        }

        /// A surrogate for any block: the clipped one of radius `clip`,
        /// or the vanilla one.
        #[derive(Debug, Clone, Copy)]
        struct Cfg {
            clip: Option<f32>,
            entropy_coef: f32,
            rows: usize,
        }

        impl Cfg {
            fn on(self, b: &Block) -> Surrogate<'_> {
                let Cfg { entropy_coef, rows, .. } = self;
                match self.clip {
                    Some(clip) => {
                        Surrogate::Clipped { clip, old_log_probs: &b.old, entropy_coef, rows }
                    }
                    None => Surrogate::Vanilla { entropy_coef, rows },
                }
            }
        }

        /// The loss as the learners spelled it before the node: the
        /// distribution's statistics, then PPO's clipped surrogate or
        /// A3C's `log π · A`, and the entropy bonus, as tape ops.
        fn composed(
            x: &Var,
            log_std: &Var,
            b: &Block,
            cfg: Cfg,
            sums: &mut [Option<f32>; 2],
        ) -> (Var, f32, f32) {
            let (log_prob, entropy) = match &b.actions {
                Taken::Discrete(idx) => categorical_stats(x, idx).unwrap(),
                Taken::Continuous(actions) => {
                    gaussian_stats(x, log_std, Rc::clone(actions)).unwrap()
                }
            };
            let adv = x.constant(Rc::clone(&b.adv));
            let [policy_sum, entropy_sum] = sums;
            let term = match cfg.clip {
                Some(clip) => {
                    let old = x.constant(Rc::clone(&b.old));
                    let ratio = log_prob.sub(&old).unwrap().exp();
                    let unclipped = ratio.mul(&adv).unwrap();
                    let clipped = ratio.clamp(1.0 - clip, 1.0 + clip).mul(&adv).unwrap();
                    unclipped.min(&clipped).unwrap()
                }
                None => log_prob.mul(&adv).unwrap(),
            };
            let policy = term.mean_over(cfg.rows, policy_sum).neg();
            let entropy = entropy.mean_over(cfg.rows, entropy_sum);
            let loss = policy.add(&entropy.mul_scalar(-cfg.entropy_coef)).unwrap();
            (loss, policy.value().item().unwrap(), entropy.value().item().unwrap())
        }

        /// Runs the blocks through the composition and, on `family`, the
        /// node, each block on a tape of its own with the sums and the
        /// `log_std` gradient carried, and compares every output.
        fn check(family: MatKernel, blocks: &[Block], log_std: &Tensor, cfg: Cfg, what: &str) {
            let [mut node_sums, mut comp_sums] = [[None; 2]; 2];
            let (mut node_ls, mut comp_ls): (Option<Tensor>, Option<Tensor>) = (None, None);
            for (i, b) in blocks.iter().enumerate() {
                let what = format!("{what}, {family:?}, block {i}");
                let run = |fused: bool, sums: &mut [Option<f32>; 2], carried: Option<Tensor>| {
                    let tape = Tape::new();
                    let x = tape.var(b.x.clone());
                    let ls = tape.var(log_std.clone());
                    let (loss, surrogate, entropy) = if fused {
                        let head = match &b.actions {
                            Taken::Discrete(idx) => Head::Categorical(idx),
                            Taken::Continuous(a) => {
                                Head::Gaussian { log_std: &ls, actions: Rc::clone(a) }
                            }
                        };
                        let l = policy_loss_on(family, &x, head, &b.adv, cfg.on(b), sums).unwrap();
                        (l.loss, l.surrogate, l.entropy)
                    } else {
                        composed(&x, &ls, b, cfg, sums)
                    };
                    let carried = carried.map(|g| vec![(&ls, g)]).unwrap_or_default();
                    let mut grads = tape.backward_onto(&loss, carried).unwrap();
                    let value = loss.value().item().unwrap();
                    (value, surrogate, entropy, grads.take_or_zeros(&x), grads.take_or_zeros(&ls))
                };
                let node = run(true, &mut node_sums, node_ls.take());
                let comp = run(false, &mut comp_sums, comp_ls.take());
                assert_same(
                    &[node.0, node.1, node.2],
                    &[comp.0, comp.1, comp.2],
                    &format!("loss, surrogate, entropy; {what}"),
                );
                assert_same(node.3.data(), comp.3.data(), &format!("head gradient; {what}"));
                assert_same(node.4.data(), comp.4.data(), &format!("log_std gradient; {what}"));
                let sums = |s: [Option<f32>; 2]| s.map(|v| v.unwrap());
                assert_same(&sums(node_sums), &sums(comp_sums), &format!("sums; {what}"));
                (node_ls, comp_ls) = (Some(node.4), Some(comp.4));
            }
        }

        fn uniform(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(lo..hi)).collect()
        }

        /// Blocks of `sizes` rows: a random head output, random actions,
        /// old log-probabilities near the node's own (ratios about the
        /// clip range, every third exactly 1), advantages with `±0`
        /// among them, and `poison(row, x)` applied to each output row.
        fn blocks(
            rng: &mut StdRng,
            sizes: &[usize],
            k: usize,
            discrete: bool,
            log_std: &Tensor,
            poison: Poison,
        ) -> Vec<Block> {
            sizes
                .iter()
                .map(|&m| {
                    let mut x = uniform(rng, m * k, -3.0, 3.0);
                    for (r, row) in x.chunks_mut(k).enumerate() {
                        poison(r, row);
                    }
                    let x = Tensor::from_vec(x, &[m, k]).unwrap();
                    let (actions, own) = if discrete {
                        let idx: Vec<usize> = (0..m).map(|_| rng.gen_range(0..k)).collect();
                        let own = Categorical::from_logits(&x).unwrap().log_prob(&idx).unwrap();
                        (Taken::Discrete(idx), own)
                    } else {
                        let a = Rc::new(
                            Tensor::from_vec(uniform(rng, m * k, -2.0, 2.0), &[m, k]).unwrap(),
                        );
                        let own = DiagGaussian::new(x.clone(), log_std.clone()).unwrap();
                        (Taken::Continuous(Rc::clone(&a)), own.log_prob(&a).unwrap())
                    };
                    let old = own
                        .data()
                        .iter()
                        .enumerate()
                        .map(
                            |(i, &lp)| {
                                if i % 3 == 0 {
                                    lp
                                } else {
                                    lp + rng.gen_range(-0.4f32..0.4)
                                }
                            },
                        )
                        .collect();
                    let adv = (0..m)
                        .map(|i| match i % 7 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-2.0f32..2.0),
                        })
                        .collect();
                    Block {
                        x,
                        actions,
                        old: Rc::new(Tensor::from_vec(old, &[m]).unwrap()),
                        adv: Rc::new(Tensor::from_vec(adv, &[m]).unwrap()),
                    }
                })
                .collect()
        }

        /// Poisons one row of a head output in place.
        type Poison<'a> = &'a dyn Fn(usize, &mut [f32]);

        /// Three or four blocks, the last ones shorter than a lane.
        const SIZES: [&[usize]; 3] = [&[40, 33, 5], &[16, 3, 1, 7], &[1, 2, 3]];

        /// Every size, head and poison of [`SIZES`] under each of
        /// `configs(rows)`, on every family: random batches, a NaN, a +∞
        /// and a −∞ logit and a row of −∞ but one, advantages of `±0`,
        /// 2, 3 and 6 actions and 1 and 6 Gaussian dimensions.
        fn check_everything(seed: u64, configs: impl Fn(usize) -> Vec<Cfg>) {
            let mut rng = rng(seed);
            let clean = |_: usize, _: &mut [f32]| {};
            let poisoned = |r: usize, row: &mut [f32]| match r % 11 {
                4 => row[0] = f32::NAN,
                5 => row[row.len() - 1] = f32::INFINITY,
                6 => row[0] = f32::NEG_INFINITY,
                7 => row[1..].fill(f32::NEG_INFINITY),
                _ => {}
            };
            for family in families() {
                for sizes in SIZES {
                    let rows = sizes.iter().sum();
                    for (discrete, k) in [(true, 2), (true, 3), (true, 6), (false, 1), (false, 6)] {
                        let log_std =
                            Tensor::from_vec(uniform(&mut rng, k, -1.0, 0.5), &[k]).unwrap();
                        let none = Tensor::zeros(&[0]);
                        let ls = if discrete { &none } else { &log_std };
                        let poisons: [Poison; 2] = [&clean, &poisoned];
                        for (p, poison) in poisons.into_iter().enumerate() {
                            let data = blocks(&mut rng, sizes, k, discrete, &log_std, poison);
                            for cfg in configs(rows) {
                                let what = format!("{sizes:?} rows, k {k}, discrete {discrete}, poisoned {}, {cfg:?}", p == 1);
                                check(family, &data, ls, cfg, &what);
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn the_node_is_the_composition_bit_for_bit() {
            check_everything(71, |rows| {
                vec![
                    Cfg { clip: Some(0.2), entropy_coef: 0.01, rows },
                    // Every ratio of 1 sits on both bounds.
                    Cfg { clip: Some(0.0), entropy_coef: 0.0, rows },
                    Cfg { clip: Some(1.5), entropy_coef: -0.3, rows },
                ]
            });
        }

        /// A3C's loss, `−mean(log π · A) − β·mean(H)`: the vanilla
        /// surrogate against `categorical_stats` (and `gaussian_stats`)
        /// with the product, the means and the bonus as tape ops.
        #[test]
        fn the_vanilla_mode_is_a3cs_composition_bit_for_bit() {
            check_everything(73, |rows| {
                vec![
                    Cfg { clip: None, entropy_coef: 0.01, rows },
                    Cfg { clip: None, entropy_coef: 0.0, rows },
                    Cfg { clip: None, entropy_coef: -0.3, rows },
                ]
            });
        }

        /// A clip that puts a ratio exactly on `1 + clip` or `1 − clip`.
        #[test]
        fn a_ratio_on_a_clip_bound_keeps_every_bit() {
            let mut rng = rng(72);
            let none = Tensor::zeros(&[0]);
            let data = blocks(&mut rng, &[24, 9, 2], 3, true, &none, &|_, _| {});
            let b = &data[0];
            let Taken::Discrete(idx) = &b.actions else { unreachable!() };
            let own = Categorical::from_logits(&b.x).unwrap().log_prob(idx).unwrap();
            for row in [1, 2] {
                // Sterbenz: `r − 1` and `1 − r` are exact for r in [½, 2].
                let ratio = crate::fastmath::fast_exp(own.data()[row] - b.old.data()[row]);
                assert!((0.5..=2.0).contains(&ratio) && ratio != 1.0);
                let clip = if ratio > 1.0 { ratio - 1.0 } else { 1.0 - ratio };
                assert!(ratio == 1.0 + clip || ratio == 1.0 - clip);
                for family in families() {
                    let cfg = Cfg { clip: Some(clip), entropy_coef: 0.01, rows: 35 };
                    check(family, &data, &none, cfg, &format!("ratio {ratio} on a bound"));
                }
            }
        }
    }
}
