//! The classic CartPole balancing task (Barto, Sutton & Anderson 1983,
//! with the OpenAI Gym constants).
//!
//! Used throughout the test suite as a fast single-agent environment that
//! PPO demonstrably solves, validating real end-to-end execution of
//! fragmented dataflow graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Action, ActionSpec};
use crate::Environment;

const GRAVITY: f32 = 9.8;
const CART_MASS: f32 = 1.0;
const POLE_MASS: f32 = 0.1;
const TOTAL_MASS: f32 = CART_MASS + POLE_MASS;
const POLE_HALF_LEN: f32 = 0.5;
const POLE_MASS_LEN: f32 = POLE_MASS * POLE_HALF_LEN;
const FORCE_MAG: f32 = 10.0;
const DT: f32 = 0.02;
const THETA_LIMIT: f32 = 12.0 * std::f32::consts::PI / 180.0;
const X_LIMIT: f32 = 2.4;

/// The CartPole environment: balance a pole on a cart by pushing the cart
/// left (action 0) or right (action 1). Reward is +1 per surviving step.
#[derive(Debug, Clone)]
pub struct CartPole {
    x: f32,
    x_dot: f32,
    theta: f32,
    theta_dot: f32,
    steps: usize,
    horizon: usize,
    rng: StdRng,
}

impl CartPole {
    /// Creates a CartPole with the given seed and a 500-step horizon.
    pub fn new(seed: u64) -> Self {
        CartPole {
            x: 0.0,
            x_dot: 0.0,
            theta: 0.0,
            theta_dot: 0.0,
            steps: 0,
            horizon: 500,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the episode horizon.
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    fn write_obs(&self, obs: &mut [f32]) {
        obs.copy_from_slice(&[self.x, self.x_dot, self.theta, self.theta_dot]);
    }

    fn failed(&self) -> bool {
        self.x.abs() > X_LIMIT || self.theta.abs() > THETA_LIMIT
    }
}

impl Environment for CartPole {
    fn obs_dim(&self) -> usize {
        4
    }

    fn action_spec(&self) -> ActionSpec {
        ActionSpec::Discrete { n: 2 }
    }

    fn reset_into(&mut self, obs: &mut [f32]) {
        self.x = self.rng.gen_range(-0.05..0.05);
        self.x_dot = self.rng.gen_range(-0.05..0.05);
        self.theta = self.rng.gen_range(-0.05..0.05);
        self.theta_dot = self.rng.gen_range(-0.05..0.05);
        self.steps = 0;
        self.write_obs(obs);
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
        let force = match action.as_discrete() {
            Some(1) => FORCE_MAG,
            _ => -FORCE_MAG,
        };
        let cos = self.theta.cos();
        let sin = self.theta.sin();
        let temp = (force + POLE_MASS_LEN * self.theta_dot * self.theta_dot * sin) / TOTAL_MASS;
        let theta_acc = (GRAVITY * sin - cos * temp)
            / (POLE_HALF_LEN * (4.0 / 3.0 - POLE_MASS * cos * cos / TOTAL_MASS));
        let x_acc = temp - POLE_MASS_LEN * theta_acc * cos / TOTAL_MASS;
        self.x += DT * self.x_dot;
        self.x_dot += DT * x_acc;
        self.theta += DT * self.theta_dot;
        self.theta_dot += DT * theta_acc;
        self.steps += 1;
        self.write_obs(obs);
        (1.0, self.failed() || self.steps >= self.horizon)
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_starts_near_upright() {
        let mut env = CartPole::new(0);
        let obs = env.reset();
        assert_eq!(obs.shape(), &[4]);
        assert!(obs.data().iter().all(|v| v.abs() < 0.05));
    }

    #[test]
    fn pole_falls_under_constant_push() {
        let mut env = CartPole::new(1);
        env.reset();
        let mut done = false;
        let mut steps = 0;
        while !done && steps < 500 {
            let s = env.step(&Action::Discrete(1));
            done = s.done;
            steps += 1;
        }
        assert!(done, "constant pushing must eventually fail");
        assert!(steps < 200, "failure should be quick, took {steps}");
    }

    #[test]
    fn alternating_policy_survives_longer_than_constant() {
        let run = |alternate: bool| {
            let mut env = CartPole::new(2);
            env.reset();
            for i in 0..500 {
                let a = if alternate { i % 2 } else { 1 };
                if env.step(&Action::Discrete(a)).done {
                    return i;
                }
            }
            500
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn horizon_truncates() {
        let mut env = CartPole::new(3).with_horizon(5);
        env.reset();
        let mut n = 0;
        loop {
            n += 1;
            // Alternate to stay alive.
            if env.step(&Action::Discrete(n % 2)).done {
                break;
            }
        }
        assert!(n <= 5);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = CartPole::new(7);
        let mut b = CartPole::new(7);
        assert_eq!(a.reset().data(), b.reset().data());
        let sa = a.step(&Action::Discrete(0));
        let sb = b.step(&Action::Discrete(0));
        assert_eq!(sa.obs.data(), sb.obs.data());
    }
}
