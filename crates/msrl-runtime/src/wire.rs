//! Wire format for fragment-boundary payloads.
//!
//! Fragment interfaces exchange `f32` payloads over `msrl-comm`. This
//! module serialises the runtime's structured payloads —
//! [`SampleBatch`]es and weight vectors — into that representation, the
//! way the original system maps boundary data onto DL-engine tensors.

use msrl_core::api::SampleBatch;
use msrl_core::{FdgError, Result};
use msrl_tensor::Tensor;

/// Serialises a batch into a flat `f32` payload.
///
/// Layout: `[n, obs_w, act_w, segment_len, obs…, actions…, rewards…,
/// next_obs…, dones…, log_probs…, values…]`.
pub fn encode_batch(batch: &SampleBatch) -> Vec<f32> {
    let n = batch.len();
    let obs_w = batch.obs.len().checked_div(n).unwrap_or(0);
    let act_w = batch.actions.len().checked_div(n).unwrap_or(0);
    let mut out = Vec::with_capacity(8 + n * (2 * obs_w + act_w + 4));
    out.push(n as f32);
    out.push(obs_w as f32);
    out.push(act_w as f32);
    out.push(batch.segment_len as f32);
    out.extend_from_slice(batch.obs.data());
    out.extend_from_slice(batch.actions.data());
    out.extend_from_slice(batch.rewards.data());
    out.extend_from_slice(batch.next_obs.data());
    out.extend(batch.dones.iter().map(|&d| if d { 1.0 } else { 0.0 }));
    out.extend_from_slice(batch.log_probs.data());
    out.extend_from_slice(batch.values.data());
    out
}

/// Deserialises a payload produced by [`encode_batch`].
///
/// # Errors
///
/// Returns an error on truncated or inconsistent payloads.
pub fn decode_batch(wire: &[f32]) -> Result<SampleBatch> {
    let err = || FdgError::MissingKernel { op: "decode_batch(truncated payload)".into() };
    if wire.len() < 4 {
        return Err(err());
    }
    let n = wire[0] as usize;
    let obs_w = wire[1] as usize;
    let act_w = wire[2] as usize;
    let segment_len = wire[3] as usize;
    // The header is untrusted: a size that overflows is as wrong as one
    // that does not match.
    let expected = [obs_w, obs_w, act_w, 4]
        .into_iter()
        .try_fold(0usize, usize::checked_add)
        .and_then(|row| row.checked_mul(n))
        .and_then(|body| body.checked_add(4));
    if expected != Some(wire.len()) {
        return Err(err());
    }
    let mut at = 4;
    let mut take = |len: usize| {
        let s = &wire[at..at + len];
        at += len;
        s.to_vec()
    };
    let obs = Tensor::from_vec(take(n * obs_w), &[n, obs_w]).map_err(FdgError::Tensor)?;
    let actions = if act_w == 1 {
        Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?
    } else {
        Tensor::from_vec(take(n * act_w), &[n, act_w]).map_err(FdgError::Tensor)?
    };
    let rewards = Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?;
    let next_obs = Tensor::from_vec(take(n * obs_w), &[n, obs_w]).map_err(FdgError::Tensor)?;
    let dones = take(n).iter().map(|&d| d > 0.5).collect();
    let log_probs = Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?;
    let values = Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?;
    Ok(SampleBatch { obs, actions, rewards, next_obs, dones, log_probs, values, segment_len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize, obs_w: usize) -> SampleBatch {
        SampleBatch {
            obs: Tensor::arange(n * obs_w).reshape(&[n, obs_w]).unwrap(),
            actions: Tensor::arange(n),
            rewards: Tensor::full(&[n], 0.5),
            next_obs: Tensor::full(&[n, obs_w], 2.0),
            dones: (0..n).map(|i| i % 2 == 0).collect(),
            log_probs: Tensor::full(&[n], -0.3),
            values: Tensor::full(&[n], 1.5),
            segment_len: n,
        }
    }

    #[test]
    fn roundtrip_discrete() {
        let b = batch(6, 4);
        let decoded = decode_batch(&encode_batch(&b)).unwrap();
        assert_eq!(decoded.obs, b.obs);
        assert_eq!(decoded.actions, b.actions);
        assert_eq!(decoded.dones, b.dones);
        assert_eq!(decoded.segment_len, 6);
        assert_eq!(decoded.log_probs, b.log_probs);
    }

    #[test]
    fn roundtrip_continuous_actions() {
        let mut b = batch(3, 2);
        b.actions = Tensor::full(&[3, 4], 0.25);
        let decoded = decode_batch(&encode_batch(&b)).unwrap();
        assert_eq!(decoded.actions.shape(), &[3, 4]);
        assert_eq!(decoded.actions, b.actions);
    }

    #[test]
    fn truncated_payload_rejected() {
        let b = batch(4, 3);
        let mut wire = encode_batch(&b);
        wire.pop();
        assert!(decode_batch(&wire).is_err());
        assert!(decode_batch(&[1.0]).is_err());
    }

    /// Payloads from outside the program: up to 48 floats, each one a
    /// small count, a value that breaks size arithmetic (huge, infinite,
    /// NaN, negative, fractional) or arbitrary bits.
    struct Garbage;

    impl proptest::strategy::Strategy for Garbage {
        type Value = Vec<f32>;
        fn new_value(&self, rng: &mut proptest::test_runner::TestRng) -> Vec<f32> {
            const AWKWARD: [f32; 10] =
                [0.0, -1.0, 0.5, 2.9, 4.3e9, 1.8e19, 3.0e38, f32::INFINITY, f32::NAN, -0.0];
            (0..rng.below(48))
                .map(|_| match rng.below(3) {
                    0 => rng.below(6) as f32,
                    1 => AWKWARD[rng.below(AWKWARD.len() as u64) as usize],
                    _ => f32::from_bits(rng.next_u64() as u32),
                })
                .collect()
        }
    }

    proptest::proptest! {
        /// Never a panic: garbage is an `Err`, or a batch whose fields
        /// have the lengths its header claims.
        #[test]
        fn decode_batch_rejects_garbage_without_panicking(wire in Garbage) {
            if let Ok(b) = decode_batch(&wire) {
                let n = b.len();
                proptest::prop_assert_eq!(wire.len(), 4 + b.obs.len() * 2 + b.actions.len() + 4 * n);
            }
        }

        /// Every strict prefix of a real payload is an `Err`.
        #[test]
        fn decode_batch_rejects_every_truncation(
            n in 0usize..6,
            obs_w in 0usize..4,
            act_w in 1usize..4,
            cut in 0usize..1000,
        ) {
            let mut b = batch(n, obs_w);
            b.actions = Tensor::full(&[n, act_w], 0.25);
            let wire = encode_batch(&b);
            proptest::prop_assert!(decode_batch(&wire[..cut % wire.len()]).is_err());
        }
    }

    /// Inputs the fuzzing above found panicking: a claimed size whose
    /// product overflows (a panic in debug builds, a wrapped length and
    /// an out-of-range slice in release).
    #[test]
    fn oversized_headers_are_errors() {
        for wire in [
            [1.8e19, 2.0, 0.0, 0.0],
            [4.3e9, 4.3e9, 1.0, 0.0],
            [f32::INFINITY, 1.0, 1.0, 1.0],
            [1.0, f32::INFINITY, 0.0, 0.0],
            [1.0, 0.0, f32::INFINITY, 0.0],
        ] {
            assert!(decode_batch(&wire).is_err(), "{wire:?}");
        }
    }
}
