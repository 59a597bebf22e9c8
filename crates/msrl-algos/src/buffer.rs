//! Experience buffers — the storage behind MSRL's
//! `replay_buffer_insert` / `replay_buffer_sample` interaction API.

use msrl_core::api::SampleBatch;
use msrl_tensor::{Tensor, TensorError};

/// An on-policy trajectory buffer: actors append step batches, the
/// learner drains the whole trajectory once per episode (the
/// coarse-grained exchange of DP-A) or per step (DP-B).
#[derive(Default)]
pub struct TrajectoryBuffer {
    steps: Vec<SampleBatch>,
}

impl TrajectoryBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TrajectoryBuffer::default()
    }

    /// Number of buffered step batches.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps are buffered.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total transitions across all buffered steps.
    pub fn transitions(&self) -> usize {
        self.steps.iter().map(SampleBatch::len).sum()
    }

    /// Appends one step's batch (`MSRL.replay_buffer_insert`).
    pub fn insert(&mut self, step: SampleBatch) {
        self.steps.push(step);
    }

    /// Removes and concatenates everything buffered
    /// (`MSRL.replay_buffer_sample` for on-policy algorithms). Rows come
    /// out time-major (step 0's envs, step 1's envs, …) and unsegmented.
    ///
    /// # Errors
    ///
    /// Returns an error if buffered widths disagree.
    pub fn drain(&mut self) -> msrl_core::Result<SampleBatch> {
        let steps = std::mem::take(&mut self.steps);
        SampleBatch::concat(&steps)
    }

    /// Drains into *env-major* layout: all of env 0's steps, then env 1's,
    /// … with `segment_len` set to the step count, which is the layout
    /// PPO's learner-side GAE requires. Rows are gathered straight into
    /// the output tensors — no per-row batches in between.
    ///
    /// # Errors
    ///
    /// Returns an error if a buffered step's field differs in shape from
    /// the first step's (another width or another environment count).
    pub fn drain_env_major(&mut self) -> msrl_core::Result<SampleBatch> {
        let steps = std::mem::take(&mut self.steps);
        let t_len = steps.len();
        let n_envs = steps.first().map_or(0, SampleBatch::len);
        if n_envs == 0 {
            return Ok(SampleBatch { segment_len: t_len, ..SampleBatch::default() });
        }
        let mismatch = |first: &[usize], other: &[usize]| TensorError::ShapeMismatch {
            op: "drain_env_major",
            lhs: first.to_vec(),
            rhs: other.to_vec(),
        };
        if let Some(other) = steps.iter().find(|s| s.len() != n_envs) {
            return Err(mismatch(&[n_envs], &[other.len()]).into());
        }
        let field = |f: fn(&SampleBatch) -> &Tensor| -> msrl_core::Result<Tensor> {
            let first = f(&steps[0]);
            if let Some(other) = steps.iter().map(f).find(|t| t.shape() != first.shape()) {
                return Err(mismatch(first.shape(), other.shape()).into());
            }
            // A field the algorithm leaves empty (no critic) stays empty.
            if first.is_empty() {
                return Ok(first.clone());
            }
            if first.shape().first() != Some(&n_envs) {
                return Err(mismatch(&[n_envs], first.shape()).into());
            }
            let width = first.len() / n_envs;
            let mut data = Vec::with_capacity(t_len * first.len());
            for e in 0..n_envs {
                for step in &steps {
                    data.extend_from_slice(&f(step).data()[e * width..(e + 1) * width]);
                }
            }
            let mut dims = first.shape().to_vec();
            dims[0] = n_envs * t_len;
            Ok(Tensor::from_vec(data, &dims)?)
        };
        let mut dones = Vec::with_capacity(n_envs * t_len);
        for e in 0..n_envs {
            dones.extend(steps.iter().map(|step| step.dones[e]));
        }
        Ok(SampleBatch {
            obs: field(|b| &b.obs)?,
            actions: field(|b| &b.actions)?,
            rewards: field(|b| &b.rewards)?,
            next_obs: field(|b| &b.next_obs)?,
            dones,
            log_probs: field(|b| &b.log_probs)?,
            values: field(|b| &b.values)?,
            segment_len: t_len,
        })
    }
}

/// Builds a single-step [`SampleBatch`] from raw step tensors — the
/// payload actors push through `replay_buffer_insert`.
#[allow(clippy::too_many_arguments)]
pub fn step_batch(
    obs: Tensor,
    actions: Tensor,
    rewards: Tensor,
    next_obs: Tensor,
    dones: Vec<bool>,
    log_probs: Tensor,
    values: Tensor,
) -> SampleBatch {
    SampleBatch { obs, actions, rewards, next_obs, dones, log_probs, values, segment_len: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize, base: f32) -> SampleBatch {
        SampleBatch {
            obs: Tensor::full(&[n, 2], base),
            actions: Tensor::full(&[n], base),
            rewards: Tensor::full(&[n], base),
            next_obs: Tensor::full(&[n, 2], base),
            dones: vec![false; n],
            log_probs: Tensor::full(&[n], base),
            values: Tensor::full(&[n], base),
            segment_len: 0,
        }
    }

    #[test]
    fn trajectory_insert_drain() {
        let mut buf = TrajectoryBuffer::new();
        buf.insert(batch(4, 1.0));
        buf.insert(batch(4, 2.0));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.transitions(), 8);
        let all = buf.drain().unwrap();
        assert_eq!(all.len(), 8);
        assert!(buf.is_empty());
        assert_eq!(all.rewards.data()[0], 1.0);
        assert_eq!(all.rewards.data()[7], 2.0);
    }

    /// A step batch whose every element is distinct and encodes
    /// `(step, env, column)`, so any misplaced row shows.
    fn distinct_step(t: usize, n_envs: usize, obs_dim: usize, critic: bool) -> SampleBatch {
        let base = (t * 1000) as f32;
        let col = |w: usize, off: f32| -> Vec<f32> {
            (0..n_envs * w).map(|i| base + off + i as f32 * 0.5).collect()
        };
        SampleBatch {
            obs: Tensor::from_vec(col(obs_dim, 0.1), &[n_envs, obs_dim]).unwrap(),
            actions: Tensor::from_vec(col(2, 0.2), &[n_envs, 2]).unwrap(),
            rewards: Tensor::from_vec(col(1, 0.3), &[n_envs]).unwrap(),
            next_obs: Tensor::from_vec(col(obs_dim, 0.4), &[n_envs, obs_dim]).unwrap(),
            dones: (0..n_envs).map(|e| (t + e).is_multiple_of(3)).collect(),
            log_probs: Tensor::from_vec(col(1, 0.6), &[n_envs]).unwrap(),
            values: if critic {
                Tensor::from_vec(col(1, 0.7), &[n_envs]).unwrap()
            } else {
                Tensor::zeros(&[0])
            },
            segment_len: 0,
        }
    }

    /// The composition `drain_env_major` used to be: one-row slices,
    /// env-major, concatenated.
    fn drain_env_major_reference(steps: &[SampleBatch]) -> SampleBatch {
        let n_envs = steps[0].len();
        let mut per_env = Vec::new();
        for e in 0..n_envs {
            for step in steps {
                per_env.push(step.slice(e, e + 1));
            }
        }
        let mut out = SampleBatch::concat(&per_env).unwrap();
        out.segment_len = steps.len();
        out
    }

    #[test]
    fn drain_env_major_matches_slice_concat_reference() {
        for &(n_envs, t_len, obs_dim) in &[(1, 1, 1), (1, 5, 3), (4, 1, 2), (3, 7, 4), (16, 9, 17)]
        {
            for critic in [true, false] {
                let steps: Vec<SampleBatch> =
                    (0..t_len).map(|t| distinct_step(t, n_envs, obs_dim, critic)).collect();
                let expect = drain_env_major_reference(&steps);
                let mut buf = TrajectoryBuffer::new();
                steps.into_iter().for_each(|s| buf.insert(s));
                let got = buf.drain_env_major().unwrap();
                assert!(buf.is_empty());
                let what = format!("({n_envs},{t_len},{obs_dim}) critic={critic}");
                assert_eq!(got.obs, expect.obs, "obs {what}");
                assert_eq!(got.actions, expect.actions, "actions {what}");
                assert_eq!(got.rewards, expect.rewards, "rewards {what}");
                assert_eq!(got.next_obs, expect.next_obs, "next_obs {what}");
                assert_eq!(got.dones, expect.dones, "dones {what}");
                assert_eq!(got.log_probs, expect.log_probs, "log_probs {what}");
                assert_eq!(got.values, expect.values, "values {what}");
                assert_eq!(got.segment_len, t_len, "segment_len {what}");
            }
        }
        let empty = TrajectoryBuffer::new().drain_env_major().unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn drain_env_major_rejects_mismatched_steps() {
        // Another observation width, as `concat` used to report.
        let mut buf = TrajectoryBuffer::new();
        buf.insert(distinct_step(0, 3, 4, true));
        buf.insert(distinct_step(1, 3, 5, true));
        assert!(matches!(
            buf.drain_env_major(),
            Err(msrl_core::FdgError::Tensor(TensorError::ShapeMismatch { .. }))
        ));
        // Another environment count (the slice composition panicked).
        buf.insert(distinct_step(0, 3, 4, true));
        buf.insert(distinct_step(1, 2, 4, true));
        assert!(buf.drain_env_major().is_err());
    }
}
