//! The inverted-pendulum swing-up task with continuous torque actions
//! (Gym `Pendulum-v1` dynamics).
//!
//! The smallest continuous-control environment in the crate; used to test
//! the diagonal-Gaussian policy path end to end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Action, ActionSpec};
use crate::Environment;

const MAX_SPEED: f32 = 8.0;
const MAX_TORQUE: f32 = 2.0;
const DT: f32 = 0.05;
const G: f32 = 10.0;
const M: f32 = 1.0;
const L: f32 = 1.0;

/// Swing a pendulum upright and keep it there. Observation is
/// `[cos θ, sin θ, θ̇]`; the action is a single torque in `[-2, 2]`;
/// reward penalises angle, speed and torque.
#[derive(Debug, Clone)]
pub struct Pendulum {
    theta: f32,
    theta_dot: f32,
    steps: usize,
    horizon: usize,
    rng: StdRng,
}

impl Pendulum {
    /// Creates a Pendulum with the given seed and a 200-step horizon.
    pub fn new(seed: u64) -> Self {
        Pendulum {
            theta: 0.0,
            theta_dot: 0.0,
            steps: 0,
            horizon: 200,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn write_obs(&self, obs: &mut [f32]) {
        obs.copy_from_slice(&[self.theta.cos(), self.theta.sin(), self.theta_dot]);
    }
}

fn angle_normalize(x: f32) -> f32 {
    let two_pi = 2.0 * std::f32::consts::PI;
    ((x + std::f32::consts::PI).rem_euclid(two_pi)) - std::f32::consts::PI
}

impl Environment for Pendulum {
    fn obs_dim(&self) -> usize {
        3
    }

    fn action_spec(&self) -> ActionSpec {
        ActionSpec::Continuous { dim: 1, low: -MAX_TORQUE, high: MAX_TORQUE }
    }

    fn reset_into(&mut self, obs: &mut [f32]) {
        self.theta = self.rng.gen_range(-std::f32::consts::PI..std::f32::consts::PI);
        self.theta_dot = self.rng.gen_range(-1.0..1.0);
        self.steps = 0;
        self.write_obs(obs);
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
        let torque = action
            .as_continuous()
            .and_then(|t| t.data().first().copied())
            .unwrap_or(0.0)
            .clamp(-MAX_TORQUE, MAX_TORQUE);
        let th = angle_normalize(self.theta);
        let cost = th * th + 0.1 * self.theta_dot * self.theta_dot + 0.001 * torque * torque;
        self.theta_dot += (3.0 * G / (2.0 * L) * th.sin() + 3.0 / (M * L * L) * torque) * DT;
        self.theta_dot = self.theta_dot.clamp(-MAX_SPEED, MAX_SPEED);
        self.theta += self.theta_dot * DT;
        self.steps += 1;
        self.write_obs(obs);
        (-cost, self.steps >= self.horizon)
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_tensor::Tensor;

    #[test]
    fn observation_is_on_unit_circle() {
        let mut env = Pendulum::new(0);
        let obs = env.reset();
        let (c, s) = (obs.data()[0], obs.data()[1]);
        assert!((c * c + s * s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn reward_is_nonpositive() {
        let mut env = Pendulum::new(1);
        env.reset();
        for _ in 0..50 {
            let s = env.step(&Action::Continuous(Tensor::from_vec(vec![1.0], &[1]).unwrap()));
            assert!(s.reward <= 0.0);
        }
    }

    #[test]
    fn upright_at_rest_is_near_zero_cost() {
        let mut env = Pendulum::new(2);
        env.reset();
        env.theta = 0.0;
        env.theta_dot = 0.0;
        let s = env.step(&Action::Continuous(Tensor::zeros(&[1])));
        assert!(s.reward > -0.01, "upright cost should be ~0, got {}", s.reward);
    }

    #[test]
    fn torque_is_clamped() {
        let mut a = Pendulum::new(3);
        let mut b = Pendulum::new(3);
        a.reset();
        b.reset();
        let big = Action::Continuous(Tensor::from_vec(vec![100.0], &[1]).unwrap());
        let max = Action::Continuous(Tensor::from_vec(vec![MAX_TORQUE], &[1]).unwrap());
        let sa = a.step(&big);
        let sb = b.step(&max);
        assert_eq!(sa.obs.data(), sb.obs.data());
    }

    #[test]
    fn angle_normalize_wraps() {
        // 3π is the same angle as ±π.
        assert!(
            (angle_normalize(3.0 * std::f32::consts::PI).abs() - std::f32::consts::PI).abs() < 1e-5
        );
        assert!((angle_normalize(0.5) - 0.5).abs() < 1e-6);
        assert!((angle_normalize(0.5 + 2.0 * std::f32::consts::PI) - 0.5).abs() < 1e-5);
    }
}
