//! A planar six-joint locomotion simulator standing in for MuJoCo
//! HalfCheetah.
//!
//! MuJoCo is not available in Rust, so per the reproduction's substitution
//! rule this environment keeps HalfCheetah's *interface* — 17-dimensional
//! observations, 6 continuous torque actions in `[-1, 1]`, reward =
//! forward velocity minus a control cost — over simplified dynamics:
//!
//! * each joint is a damped, torque-driven oscillator;
//! * forward thrust arises from *gait coupling* with a ratchet: a joint
//!   contributes thrust only during its power stroke —
//!   `relu(vel · cos(pos + phase))` — like a paddle that pushes the ground
//!   on the downstroke and glides back. Constant torque saturates the
//!   joint (zero velocity ⇒ zero thrust), so the agent must learn
//!   sustained, coordinated oscillation;
//! * the body bobs (z) and pitches passively in response to thrust
//!   asymmetry.
//!
//! The per-step CPU cost is tunable ([`HalfCheetah::with_step_cost`]) so
//! the cluster simulator can model MuJoCo-class "expensive environments"
//! (the paper measures up to 98% of PPO time in environment execution).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Action, ActionSpec};
use crate::Environment;

/// Number of actuated joints.
pub const N_JOINTS: usize = 6;
/// Observation dimensionality (matches MuJoCo HalfCheetah-v3).
pub const OBS_DIM: usize = 17;

const DT: f32 = 0.05;
const JOINT_GAIN: f32 = 6.0;
const JOINT_DAMPING: f32 = 1.5;
const JOINT_STIFFNESS: f32 = 2.0;
const BODY_FRICTION: f32 = 0.8;
const THRUST_GAIN: f32 = 0.9;
const CTRL_COST: f32 = 0.05;

/// The planar locomotion environment. See the module docs for dynamics.
#[derive(Debug, Clone)]
pub struct HalfCheetah {
    joint_pos: [f32; N_JOINTS],
    joint_vel: [f32; N_JOINTS],
    /// Per-joint gait phase offsets (fixed per instance).
    phase: [f32; N_JOINTS],
    /// Per-joint thrust weights (alternating sign models front/back legs).
    thrust_w: [f32; N_JOINTS],
    vx: f32,
    z: f32,
    vz: f32,
    pitch: f32,
    pitch_vel: f32,
    steps: usize,
    horizon: usize,
    step_cost: f64,
    rng: StdRng,
}

impl HalfCheetah {
    /// Creates an instance with the given seed, a 1000-step horizon (the
    /// episode length used throughout the paper's PPO experiments) and a
    /// 100 µs virtual step cost.
    pub fn new(seed: u64) -> Self {
        let mut phase = [0.0; N_JOINTS];
        let mut thrust_w = [0.0; N_JOINTS];
        for i in 0..N_JOINTS {
            phase[i] = i as f32 * std::f32::consts::PI / 3.0;
            thrust_w[i] = if i % 2 == 0 { 1.0 } else { 0.6 };
        }
        HalfCheetah {
            joint_pos: [0.0; N_JOINTS],
            joint_vel: [0.0; N_JOINTS],
            phase,
            thrust_w,
            vx: 0.0,
            z: 0.0,
            vz: 0.0,
            pitch: 0.0,
            pitch_vel: 0.0,
            steps: 0,
            horizon: 1000,
            step_cost: 1e-4,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the per-step virtual CPU cost charged by the simulator.
    pub fn with_step_cost(mut self, seconds: f64) -> Self {
        self.step_cost = seconds;
        self
    }

    /// Overrides the episode horizon.
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// Current forward velocity (exposed for tests and diagnostics).
    pub fn forward_velocity(&self) -> f32 {
        self.vx
    }

    fn write_obs(&self, obs: &mut [f32]) {
        obs[..2].copy_from_slice(&[self.z, self.pitch]);
        obs[2..8].copy_from_slice(&self.joint_pos);
        obs[8..11].copy_from_slice(&[self.vx, self.vz, self.pitch_vel]);
        obs[11..].copy_from_slice(&self.joint_vel);
    }
}

impl Environment for HalfCheetah {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn action_spec(&self) -> ActionSpec {
        ActionSpec::Continuous { dim: N_JOINTS, low: -1.0, high: 1.0 }
    }

    fn reset_into(&mut self, obs: &mut [f32]) {
        for i in 0..N_JOINTS {
            self.joint_pos[i] = self.rng.gen_range(-0.1..0.1);
            self.joint_vel[i] = self.rng.gen_range(-0.1..0.1);
        }
        self.vx = 0.0;
        self.z = 0.0;
        self.vz = 0.0;
        self.pitch = 0.0;
        self.pitch_vel = 0.0;
        self.steps = 0;
        self.write_obs(obs);
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
        let mut torque = [0.0f32; N_JOINTS];
        if let Some(t) = action.as_continuous() {
            for (i, slot) in torque.iter_mut().enumerate() {
                *slot = t.data().get(i).copied().unwrap_or(0.0).clamp(-1.0, 1.0);
            }
        }
        // Joint dynamics and gait-coupled thrust.
        let mut thrust = 0.0;
        let mut asym = 0.0;
        #[allow(clippy::needless_range_loop)] // indexes four arrays in lockstep
        for i in 0..N_JOINTS {
            let acc = JOINT_GAIN * torque[i]
                - JOINT_DAMPING * self.joint_vel[i]
                - JOINT_STIFFNESS * self.joint_pos[i];
            self.joint_vel[i] += acc * DT;
            self.joint_pos[i] += self.joint_vel[i] * DT;
            // Ratchet coupling: a joint only produces thrust during its
            // power stroke (vel aligned with the phase-shifted angle).
            let stroke = self.joint_vel[i] * (self.joint_pos[i] + self.phase[i]).cos();
            let contribution = self.thrust_w[i] * stroke.max(0.0);
            thrust += contribution;
            asym += if i < N_JOINTS / 2 { contribution } else { -contribution };
        }
        self.vx += (THRUST_GAIN * thrust - BODY_FRICTION * self.vx) * DT;
        // Passive bobbing and pitching.
        self.vz += (-4.0 * self.z - 1.0 * self.vz + 0.05 * thrust.abs()) * DT;
        self.z += self.vz * DT;
        self.pitch_vel += (-3.0 * self.pitch - 0.8 * self.pitch_vel + 0.1 * asym) * DT;
        self.pitch += self.pitch_vel * DT;
        self.steps += 1;
        let ctrl_cost: f32 = torque.iter().map(|t| t * t).sum::<f32>() * CTRL_COST;
        self.write_obs(obs);
        (self.vx - ctrl_cost, self.steps >= self.horizon)
    }

    fn step_cost(&self) -> f64 {
        self.step_cost
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_tensor::Tensor;

    fn torques(v: [f32; N_JOINTS]) -> Action {
        Action::Continuous(Tensor::from_vec(v.to_vec(), &[N_JOINTS]).unwrap())
    }

    #[test]
    fn obs_has_mujoco_shape() {
        let mut env = HalfCheetah::new(0);
        assert_eq!(env.reset().shape(), &[OBS_DIM]);
        assert_eq!(env.obs_dim(), 17);
        assert_eq!(env.action_spec().policy_width(), 6);
    }

    #[test]
    fn zero_torque_decays_to_rest() {
        let mut env = HalfCheetah::new(1);
        env.reset();
        for _ in 0..400 {
            env.step(&torques([0.0; N_JOINTS]));
        }
        assert!(env.forward_velocity().abs() < 0.05, "vx = {}", env.forward_velocity());
        assert!(env.joint_vel.iter().all(|v| v.abs() < 0.05));
    }

    #[test]
    fn coordinated_oscillation_beats_random() {
        // A crude gait: drive each joint sinusoidally near the joint's
        // natural frequency (ω = √stiffness ≈ 1.41 rad/s, DT = 0.05).
        let gait_reward = {
            let mut env = HalfCheetah::new(2);
            env.reset();
            let mut total = 0.0;
            for t in 0..500 {
                let mut a = [0.0f32; N_JOINTS];
                for (i, slot) in a.iter_mut().enumerate() {
                    *slot = (1.41 * DT * t as f32 - i as f32 * std::f32::consts::PI / 3.0).sin();
                }
                total += env.step(&torques(a)).reward;
            }
            total
        };
        let random_reward = {
            let mut env = HalfCheetah::new(2);
            env.reset();
            let mut rng = StdRng::seed_from_u64(99);
            let mut total = 0.0;
            for _ in 0..500 {
                let mut a = [0.0f32; N_JOINTS];
                for slot in &mut a {
                    *slot = rng.gen_range(-1.0..1.0);
                }
                total += env.step(&torques(a)).reward;
            }
            total
        };
        assert!(
            gait_reward > random_reward,
            "gait {gait_reward} should beat random {random_reward}"
        );
    }

    #[test]
    fn control_cost_penalises_torque() {
        let mut a = HalfCheetah::new(3);
        let mut b = HalfCheetah::new(3);
        a.reset();
        b.reset();
        let ra = a.step(&torques([0.0; N_JOINTS])).reward;
        let rb = b.step(&torques([1.0; N_JOINTS])).reward;
        // One step from rest: velocity gain is tiny, control cost dominates.
        assert!(ra > rb);
    }

    #[test]
    fn states_stay_finite_under_extreme_input() {
        let mut env = HalfCheetah::new(4);
        env.reset();
        for _ in 0..1000 {
            let s = env.step(&torques([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]));
            assert!(s.obs.all_finite());
            assert!(s.reward.is_finite());
        }
    }

    #[test]
    fn horizon_and_cost_are_configurable() {
        let env = HalfCheetah::new(5).with_horizon(10).with_step_cost(2e-3);
        assert_eq!(env.horizon(), 10);
        assert_eq!(env.step_cost(), 2e-3);
    }
}
