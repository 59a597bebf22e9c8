//! Workspace integration tests: the opt-in fast-math tier (`MSRL_TIER=2`)
//! end-to-end.
//!
//! Tier 2 swaps libm transcendentals for vectorized polynomial kernels
//! inside softmax, fused activations, and the elementwise-chain
//! executor. Unlike the default tier it is *not* bit-identical — its contract
//! is a tolerance (DESIGN §3.14): training must still learn, and final
//! weight norms must stay within the documented envelope of the exact
//! run. These tests pin that contract for DP-A and DP-C on both tensor
//! backends.

use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig, TrainingReport};
use msrl_tensor::par::{self, Backend};

fn dist(seed: u64) -> DistPpoConfig {
    DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 48,
        iterations: 20,
        hidden: vec![32],
        seed,
        // lr raised (as in the dp_a driver test) so the improvement
        // margin is robust on this small workload.
        ppo: msrl_algos::ppo::PpoConfig { lr: 2e-3, ..msrl_algos::ppo::PpoConfig::default() },
        ..DistPpoConfig::default()
    }
}

fn l2(params: &[f32]) -> f64 {
    params.iter().map(|&p| f64::from(p) * f64::from(p)).sum::<f64>().sqrt()
}

/// Runs `driver` exactly (tier 1) and under the fast-math tier, asserting the §3.14 e2e tolerance contract: the
/// fast-math run still improves its reward, and the final weight L2 norm
/// stays within 25% (relative) of the exact run's. Reward *curves* are
/// not compared point-wise — sampled discrete actions may flip on a
/// sub-ULP logit change, so trajectories legitimately diverge; learning,
/// not bit-equality, is the contract.
fn assert_fastmath_tolerance(
    driver: impl Fn(&DistPpoConfig) -> TrainingReport,
    cfg: &DistPpoConfig,
) {
    for backend in [Backend::Scalar, Backend::Threaded] {
        par::with_backend(backend, || {
            let exact = par::with_fastmath(false, || driver(cfg));
            let fast = par::with_fastmath(true, || driver(cfg));
            assert!(
                fast.recent_reward(5) > fast.early_reward(5),
                "{backend:?}: fast-math run must still learn: {} → {}",
                fast.early_reward(5),
                fast.recent_reward(5)
            );
            assert!(
                exact.recent_reward(5) > exact.early_reward(5),
                "{backend:?}: exact run must learn: {} → {}",
                exact.early_reward(5),
                exact.recent_reward(5)
            );
            let (en, fnm) = (l2(&exact.final_params), l2(&fast.final_params));
            let rel = (en - fnm).abs() / en.max(1e-9);
            assert!(
                rel < 0.25,
                "{backend:?}: final weight norm drifted {rel:.3} (exact {en:.4} vs fast {fnm:.4})"
            );
            assert_eq!(exact.final_params.len(), fast.final_params.len());
        });
    }
}

#[test]
fn dp_a_learns_under_fastmath_tier_within_tolerance() {
    assert_fastmath_tolerance(
        |cfg| run_dp_a(|a, i| CartPole::new((a * 3 + i) as u64), cfg).unwrap(),
        &dist(21),
    );
}

#[test]
fn dp_c_learns_under_fastmath_tier_within_tolerance() {
    assert_fastmath_tolerance(
        |cfg| run_dp_c(|a, i| CartPole::new((a * 3 + i) as u64), cfg).unwrap(),
        &dist(22),
    );
}

/// Tier 2 composes with the cross-actor act server: the batched forward
/// must stay bit-identical to the per-actor path *within* the fast-math
/// tier (both paths route through the same fast kernels).
#[test]
fn act_server_stays_bit_identical_within_fastmath_tier() {
    par::with_fastmath(true, || {
        let base = DistPpoConfig { overlap: false, act_server: false, ..dist(23) };
        let make = |a: usize, i: usize| CartPole::new((a * 3 + i) as u64);
        let plain = run_dp_a(make, &base).unwrap();
        let batched = run_dp_a(make, &DistPpoConfig { act_server: true, ..base }).unwrap();
        assert_eq!(plain.final_params, batched.final_params);
        assert_eq!(plain.iteration_rewards, batched.iteration_rewards);
    });
}
