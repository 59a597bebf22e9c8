//! Property-based tests for the environment physics.
//!
//! Environments feed every experiment in the reproduction; these
//! properties catch physics bugs (NaNs, unbounded states, broken
//! determinism) that fixed-seed unit tests can miss.

use msrl_env::batched::{BatchedEnv, BatchedTag};
use msrl_env::cartpole::CartPole;
use msrl_env::conformance::assert_in_place_matches_wrappers;
use msrl_env::gridworld::GridWorld;
use msrl_env::halfcheetah::HalfCheetah;
use msrl_env::mpe::{decode_action, Body, SimpleSpread, World};
use msrl_env::pendulum::Pendulum;
use msrl_env::spec::Action;
use msrl_env::{Environment, MultiAgentEnvironment};
use msrl_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    /// Any action sequence keeps CartPole's state finite and inside the
    /// failure envelope at termination time (the env terminates *before*
    /// the state can blow up).
    #[test]
    fn cartpole_states_stay_finite(seed in 0u64..500, acts in proptest::collection::vec(0usize..2, 1..200)) {
        let mut env = CartPole::new(seed);
        let mut obs = env.reset();
        for &a in &acts {
            let s = env.step(&Action::Discrete(a));
            prop_assert!(s.obs.all_finite());
            obs = s.obs;
            if s.done {
                break;
            }
        }
        prop_assert!(obs.all_finite());
    }

    /// HalfCheetah never produces NaN rewards or observations under
    /// arbitrary (clamped) torques.
    #[test]
    fn halfcheetah_robust_to_any_torque(
        seed in 0u64..100,
        torques in proptest::collection::vec(-2.0f32..2.0, 6 * 30),
    ) {
        let mut env = HalfCheetah::new(seed);
        env.reset();
        for chunk in torques.chunks(6) {
            let a = Action::Continuous(Tensor::from_vec(chunk.to_vec(), &[6]).unwrap());
            let s = env.step(&a);
            prop_assert!(s.obs.all_finite());
            prop_assert!(s.reward.is_finite());
        }
    }

    /// Environments are deterministic under a fixed seed for any action
    /// sequence — required for the runtime's bit-replay guarantees.
    #[test]
    fn seeded_envs_replay_identically(seed in 0u64..200, acts in proptest::collection::vec(0usize..2, 1..50)) {
        let run = |seed: u64| {
            let mut env = CartPole::new(seed);
            env.reset();
            let mut trace = Vec::new();
            for &a in &acts {
                let s = env.step(&Action::Discrete(a));
                trace.extend_from_slice(s.obs.data());
                if s.done {
                    break;
                }
            }
            trace
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// MPE worlds conserve sanity: velocities respect the speed caps and
    /// positions stay finite under any force pattern.
    #[test]
    fn mpe_world_respects_speed_caps(
        forces in proptest::collection::vec(0usize..5, 2 * 40),
    ) {
        let mut w = World::new(
            vec![Body::agent(0.05, 3.0, 1.0), Body::agent(0.05, 4.0, 1.3)],
            vec![Body::landmark(0.1)],
        );
        let mut rng = rand::SeedableRng::seed_from_u64(3);
        w.scatter(1.0, &mut rng);
        for pair in forces.chunks(2) {
            w.step(&[decode_action(pair[0]), decode_action(pair[1])]);
            for (i, a) in w.agents.iter().enumerate() {
                let speed = (a.vel[0].powi(2) + a.vel[1].powi(2)).sqrt();
                let cap = if i == 0 { 1.0 } else { 1.3 };
                prop_assert!(speed <= cap + 1e-4, "agent {} speed {}", i, speed);
                prop_assert!(a.pos[0].is_finite() && a.pos[1].is_finite());
            }
        }
    }

    /// Spread rewards are shared-coverage dominated: all agents receive
    /// the same coverage term, so rewards differ only by collision
    /// penalties (bounded multiples of 1).
    #[test]
    fn spread_rewards_are_nearly_shared(seed in 0u64..100) {
        let mut env = SimpleSpread::new(3, seed);
        env.reset();
        let step = env.step(&[Action::Discrete(1), Action::Discrete(2), Action::Discrete(3)]);
        let max = step.rewards.iter().cloned().fold(f32::MIN, f32::max);
        let min = step.rewards.iter().cloned().fold(f32::MAX, f32::min);
        prop_assert!(max - min <= 2.0 + 1e-5, "spread {} vs {}", min, max);
    }

    /// The batched tag environment agrees with itself across batch
    /// sizes: world 0 of a 1-world batch evolves identically to world 0
    /// of a 4-world batch under the same seed and actions.
    #[test]
    fn batched_tag_worlds_do_not_interfere(acts in proptest::collection::vec(0usize..5, 8)) {
        let run = |n_worlds: usize| {
            let mut env = BatchedTag::new(n_worlds, 1, 1, 9);
            env.reset();
            let per = env.agents_per_world();
            let mut out = Vec::new();
            for &a in &acts {
                let mut actions = vec![0usize; env.total_agents()];
                actions[0] = a;
                actions[1] = (a + 2) % 5;
                let s = env.step(&actions);
                out.extend_from_slice(&s.obs.data()[..per * env.obs_dim()]);
            }
            out
        };
        // Note: reset() draws per-world positions from one RNG stream, so
        // world 0's *initial* state matches only when it is drawn first —
        // it is, in both cases.
        prop_assert_eq!(run(1), run(4));
    }
}

/// Each environment's in-place bodies write every observation element
/// and step, reset and auto-reset as the allocating wrappers do, alone
/// and inside a `VecEnv` on either schedule.
#[test]
fn in_place_bodies_match_the_allocating_wrappers() {
    assert_in_place_matches_wrappers(|i| CartPole::new(i as u64).with_horizon(7), 5, 30);
    assert_in_place_matches_wrappers(|i| Pendulum::new(i as u64), 3, 205);
    assert_in_place_matches_wrappers(|_| GridWorld::new(3), 4, 40);
    assert_in_place_matches_wrappers(|i| HalfCheetah::new(i as u64).with_horizon(6), 9, 20);
}
