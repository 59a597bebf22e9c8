//! Fused vs. unfused PPO training must be **bit-identical**: the fused
//! `MatMul+bias+activation` kernel performs the exact floating-point
//! operation sequence of the separate ops, so whole learn steps — loss,
//! gradients, Adam updates — produce the same weights bit for bit.
//!
//! This is the end-to-end guarantee behind fusion being on everywhere
//! outside this comparison: it can never change training results, only
//! speed.

use msrl_algos::ppo::{PpoActor, PpoConfig, PpoLearner, PpoPolicy};
use msrl_algos::rollout::collect;
use msrl_core::api::{Learner, SampleBatch};
use msrl_env::cartpole::CartPole;
use msrl_env::VecEnv;
use msrl_tensor::{par, Backend};

/// Trains a fresh learner on `batch` for a few epochs and returns the
/// final weights as raw bits.
fn train_bits(policy: &PpoPolicy, batch: &SampleBatch, fusion: bool) -> Vec<u32> {
    par::with_fusion(fusion, || {
        let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
        for _ in 0..3 {
            learner.learn(batch).unwrap();
        }
        learner.policy_params().iter().map(|v| v.to_bits()).collect()
    })
}

#[test]
fn ppo_weights_bit_identical_with_and_without_fusion() {
    let policy = PpoPolicy::discrete(4, 2, &[16, 16], 3);
    let mut actor = PpoActor::new(policy.clone(), 4);
    let mut envs = VecEnv::from_fn(4, |i| CartPole::new(i as u64));
    let batch = collect(&mut actor, &mut envs, 32).unwrap();

    for backend in [Backend::Scalar, Backend::Threaded] {
        par::with_backend(backend, || {
            let fused = train_bits(&policy, &batch, true);
            let plain = train_bits(&policy, &batch, false);
            assert_eq!(fused.len(), plain.len());
            assert_eq!(fused, plain, "fusion changed PPO weights under {backend:?}");
        });
    }
}
