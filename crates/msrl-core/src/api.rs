//! The component API (§3 of the paper).
//!
//! Users express an RL algorithm through familiar concepts: an *agent*
//! consists of *actors* (which collect data from the environment) and
//! *learners* (which manage policy training); a *trainer* provides the
//! training-loop logic. Implementations make **no assumptions about
//! execution** — they consume and produce tensors, and all distribution
//! concerns (replication, placement, synchronisation) are decided later
//! from the deployment configuration.
//!
//! Everything here is expressed in tensors only, so the same actor code
//! runs unmodified whether MSRL places it on a CPU worker fragment, fuses
//! it with the environment (DP-B), or replicates it across GPUs (DP-A).

use msrl_tensor::Tensor;

use crate::Result;

/// What an actor produces for a batch of observations.
#[derive(Debug, Clone)]
pub struct ActOutput {
    /// Actions, one row (or index) per observation. Discrete actions are
    /// encoded as `[batch]` index values; continuous as `[batch, dim]`.
    pub actions: Tensor,
    /// Behaviour log-probabilities, `[batch]` (needed by PPO's ratio).
    pub log_probs: Tensor,
    /// Value estimates, `[batch]`, when the actor carries a critic head.
    pub values: Option<Tensor>,
}

/// A batch of transitions exchanged between actors, replay buffers and
/// learners — the payload of the paper's
/// `MSRL.replay_buffer_insert`/`_sample` interaction API.
#[derive(Debug, Clone, Default)]
pub struct SampleBatch {
    /// Observations, `[n, obs_dim]`.
    pub obs: Tensor,
    /// Actions (`[n]` discrete indices or `[n, act_dim]` continuous).
    pub actions: Tensor,
    /// Rewards, `[n]`.
    pub rewards: Tensor,
    /// Next observations, `[n, obs_dim]`.
    pub next_obs: Tensor,
    /// Terminal flags.
    pub dones: Vec<bool>,
    /// Behaviour log-probabilities, `[n]`.
    pub log_probs: Tensor,
    /// Value estimates at `obs`, `[n]` (empty when the algorithm does not
    /// use a critic).
    pub values: Tensor,
    /// Length of each contiguous per-environment time segment in the
    /// batch (rows are env-major: env 0's steps, then env 1's, …).
    /// `0` means unknown/unsegmented; learners that recompute advantages
    /// (PPO's GAE) need it to respect trajectory boundaries.
    pub segment_len: usize,
}

impl SampleBatch {
    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.dones.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.dones.is_empty()
    }

    /// Concatenates batches (row-wise) — how a single learner gathers the
    /// trajectories of many actors under DP-A/DP-B.
    ///
    /// # Errors
    ///
    /// Returns an error when widths disagree.
    pub fn concat(batches: &[SampleBatch]) -> Result<SampleBatch> {
        use msrl_tensor::ops::concat;
        let non_empty: Vec<&SampleBatch> = batches.iter().filter(|b| !b.is_empty()).collect();
        let Some(first) = non_empty.first() else {
            return Ok(SampleBatch::default());
        };
        let _ = first;
        let field = |f: fn(&SampleBatch) -> &Tensor| -> Result<Tensor> {
            let parts: Vec<&Tensor> = non_empty.iter().map(|b| f(b)).collect();
            Ok(concat(&parts, 0)?)
        };
        // Segment structure survives concat only when all parts agree.
        let seg = non_empty[0].segment_len;
        let segment_len = if non_empty.iter().all(|b| b.segment_len == seg) { seg } else { 0 };
        Ok(SampleBatch {
            obs: field(|b| &b.obs)?,
            actions: field(|b| &b.actions)?,
            rewards: field(|b| &b.rewards)?,
            next_obs: field(|b| &b.next_obs)?,
            dones: non_empty.iter().flat_map(|b| b.dones.iter().copied()).collect(),
            log_probs: field(|b| &b.log_probs)?,
            values: field(|b| &b.values)?,
            segment_len,
        })
    }

    /// Splits a batch into `n` near-equal row chunks — how DP-C shards
    /// training data across learners.
    pub fn split(&self, n: usize) -> Vec<SampleBatch> {
        let total = self.len();
        let n = n.max(1);
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let remaining = total - start;
            let take = remaining / (n - i);
            out.push(self.slice(start, start + take));
            start += take;
        }
        out
    }

    /// Copies rows `[start, end)` into a new batch.
    pub fn slice(&self, start: usize, end: usize) -> SampleBatch {
        let rows = |t: &Tensor| -> Tensor {
            if t.is_empty() || t.rank() == 0 {
                return t.clone();
            }
            let width: usize = t.shape()[1..].iter().product::<usize>().max(1);
            let data = t.data()[start * width..end * width].to_vec();
            let mut dims = t.shape().to_vec();
            dims[0] = end - start;
            Tensor::from_vec(data, &dims).expect("row slice preserves width")
        };
        // A row slice respects segmentation only when cut on segment
        // boundaries; otherwise the result is unsegmented.
        let segment_len = if self.segment_len > 0
            && start.is_multiple_of(self.segment_len)
            && end.is_multiple_of(self.segment_len)
        {
            self.segment_len
        } else {
            0
        };
        SampleBatch {
            obs: rows(&self.obs),
            actions: rows(&self.actions),
            rewards: rows(&self.rewards),
            next_obs: rows(&self.next_obs),
            dones: self.dones[start..end].to_vec(),
            log_probs: rows(&self.log_probs),
            values: rows(&self.values),
            segment_len,
        }
    }
}

/// An actor: interacts with environments using the current policy
/// (`Actor.act()` in the paper's API).
pub trait Actor: Send {
    /// Computes actions (and behaviour statistics) for a batch of
    /// observations, `[batch, obs_dim]`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    fn act(&mut self, obs: &Tensor) -> Result<ActOutput>;

    /// Serialises the actor's policy weights (for weight-sync exits).
    fn policy_params(&self) -> Vec<f32>;

    /// Overwrites the actor's policy weights (for weight-sync entries).
    ///
    /// # Errors
    ///
    /// Returns an error when the parameter count mismatches.
    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()>;
}

/// What a learner's last update computed ([`Learner::signals`]): the
/// training signal a run's metrics stream and health watchdog read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Signals {
    /// Loss of the last pass over a batch.
    pub loss: Option<f32>,
    /// Mean policy entropy of that pass.
    pub entropy: Option<f32>,
    /// Global gradient L2 norm: pre-clip for the learner's own pass, of
    /// the applied gradient for an external one.
    pub grad_norm: Option<f32>,
    /// `(‖weights‖, ‖Δweights‖ / ‖weights‖)` after the update, with the
    /// health watchdog on.
    pub update: Option<(f64, f64)>,
}

/// A learner: trains the policy from sampled experience
/// (`Learner.learn()` in the paper's API).
pub trait Learner: Send {
    /// Runs one update on a batch; returns the scalar loss.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed batches.
    fn learn(&mut self, batch: &SampleBatch) -> Result<f32>;

    /// Serialises the learner's policy weights.
    fn policy_params(&self) -> Vec<f32>;

    /// Overwrites the learner's policy weights.
    ///
    /// # Errors
    ///
    /// Returns an error when the parameter count mismatches.
    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()>;

    /// Computes gradients for a batch *without* applying them, returning
    /// the flattened gradient (for DP-C gradient AllReduce). The default
    /// falls back to `learn` semantics for algorithms that fuse the two.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed batches.
    fn grads(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        let _ = self.learn(batch)?;
        Ok(Vec::new())
    }

    /// Applies an externally-aggregated flattened gradient.
    ///
    /// # Errors
    ///
    /// Returns an error when the gradient length mismatches.
    fn apply_grads(&mut self, flat: &[f32]) -> Result<()> {
        let _ = flat;
        Ok(())
    }

    /// What the last update computed; nothing by default.
    fn signals(&self) -> Signals {
        Signals::default()
    }
}

/// An agent couples one actor with one learner (the paper's `Agent`
/// component, Alg. 1 lines 1–5).
pub struct Agent {
    /// The data-collection half.
    pub actor: Box<dyn Actor>,
    /// The training half.
    pub learner: Box<dyn Learner>,
}

impl Agent {
    /// Delegates to the actor (`MSRL.agent_act`).
    ///
    /// # Errors
    ///
    /// Propagates actor errors.
    pub fn act(&mut self, obs: &Tensor) -> Result<ActOutput> {
        self.actor.act(obs)
    }

    /// Delegates to the learner (`MSRL.agent_learn`).
    ///
    /// # Errors
    ///
    /// Propagates learner errors.
    pub fn learn(&mut self, batch: &SampleBatch) -> Result<f32> {
        self.learner.learn(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize, base: f32) -> SampleBatch {
        SampleBatch {
            obs: Tensor::full(&[n, 3], base),
            actions: Tensor::full(&[n], base),
            rewards: Tensor::full(&[n], base),
            next_obs: Tensor::full(&[n, 3], base),
            dones: vec![false; n],
            log_probs: Tensor::full(&[n], base),
            values: Tensor::full(&[n], base),
            segment_len: 0,
        }
    }

    #[test]
    fn concat_joins_rows() {
        let joined = SampleBatch::concat(&[batch(2, 1.0), batch(3, 2.0)]).unwrap();
        assert_eq!(joined.len(), 5);
        assert_eq!(joined.obs.shape(), &[5, 3]);
        assert_eq!(joined.rewards.data()[0], 1.0);
        assert_eq!(joined.rewards.data()[4], 2.0);
    }

    #[test]
    fn concat_of_empty_is_empty() {
        let joined = SampleBatch::concat(&[]).unwrap();
        assert!(joined.is_empty());
        let joined = SampleBatch::concat(&[SampleBatch::default(), batch(2, 1.0)]).unwrap();
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn split_covers_all_rows() {
        let b = batch(10, 1.0);
        let parts = b.split(3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(SampleBatch::len).sum();
        assert_eq!(total, 10);
        // Near-equal: sizes differ by at most one.
        let sizes: Vec<usize> = parts.iter().map(SampleBatch::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
    }

    #[test]
    fn split_then_concat_roundtrip() {
        let b = batch(7, 3.0);
        let parts = b.split(2);
        let back = SampleBatch::concat(&parts).unwrap();
        assert_eq!(back.obs, b.obs);
        assert_eq!(back.dones, b.dones);
    }

    #[test]
    fn slice_copies_rows() {
        let mut b = batch(4, 0.0);
        b.rewards = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let s = b.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.rewards.data(), &[2.0, 3.0]);
    }
}
