//! Device-executable *batched* environments.
//!
//! Distribution policy DP-D ("GPU only", Tab. 2 of the paper) fuses the
//! entire training loop — inference, environment, training — into one GPU
//! fragment. That is only possible when the environment itself has a
//! device implementation operating on whole batches of worlds at once
//! (WarpDrive does this with CUDA thread blocks; the paper adapts MPE
//! `simple_tag` to the GPU for Fig. 10).
//!
//! A [`BatchedEnv`] is that device implementation here: state lives in
//! flat arrays, one step advances *every* world in one pass over them on
//! the calling thread (the moral equivalent of one fused kernel), and the
//! reported
//! [`BatchedEnv::step_flops`] lets the cluster simulator charge the step
//! to a GPU's throughput instead of a CPU core.

use msrl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch of environment worlds advanced by one data-parallel step.
pub trait BatchedEnv: Send {
    /// Number of independent worlds in the batch.
    fn n_worlds(&self) -> usize;

    /// Agents per world (1 for single-agent environments).
    fn agents_per_world(&self) -> usize;

    /// Total parallel agents (`n_worlds × agents_per_world`).
    fn total_agents(&self) -> usize {
        self.n_worlds() * self.agents_per_world()
    }

    /// Per-agent observation width.
    fn obs_dim(&self) -> usize;

    /// Number of discrete actions per agent.
    fn n_actions(&self) -> usize;

    /// Resets all worlds; returns `[total_agents, obs_dim]`.
    fn reset(&mut self) -> Tensor;

    /// Steps all worlds with one action index per agent
    /// (`actions.len() == total_agents`). Episodes are synchronised: all
    /// worlds share the same step counter and reset together.
    fn step(&mut self, actions: &[usize]) -> BatchedStep;

    /// Floating-point operations per batched step — the GPU cost model
    /// input used by `msrl-sim`.
    fn step_flops(&self) -> u64;
}

/// Result of one batched step.
#[derive(Debug, Clone)]
pub struct BatchedStep {
    /// Observations, `[total_agents, obs_dim]`.
    pub obs: Tensor,
    /// Rewards, `[total_agents]`.
    pub rewards: Tensor,
    /// Whether the synchronised episode ended this step.
    pub done: bool,
}

// ---------------------------------------------------------------------------
// Batched simple_tag
// ---------------------------------------------------------------------------

const DT: f32 = 0.1;
const DAMPING: f32 = 0.25;
const CHASER_ACCEL: f32 = 3.0;
const RUNNER_ACCEL: f32 = 4.0;
const CHASER_MAX_SPEED: f32 = 1.0;
const RUNNER_MAX_SPEED: f32 = 1.3;
const CHASER_SIZE: f32 = 0.075;
const RUNNER_SIZE: f32 = 0.05;
const CATCH_REWARD: f32 = 10.0;

/// A data-parallel implementation of MPE `simple_tag`: `n_worlds`
/// independent pursuit games advanced in lockstep over flat state arrays.
///
/// Each world has `n_chasers` chasers followed by `n_runners` runners
/// (same layout as [`crate::mpe::SimpleTag`]). Observations are the
/// compact per-agent view `[self_vel, self_pos, nearest-opponent rel]`
/// (6 values), which keeps the fused tensor small enough to scale to the
/// paper's 10⁵-agent batches.
pub struct BatchedTag {
    n_worlds: usize,
    n_chasers: usize,
    n_runners: usize,
    pos: Vec<[f32; 2]>,
    vel: Vec<[f32; 2]>,
    steps: usize,
    horizon: usize,
    rng: StdRng,
}

impl BatchedTag {
    /// Per-agent observation width.
    pub const OBS: usize = 6;

    /// Creates `n_worlds` independent tag games.
    pub fn new(n_worlds: usize, n_chasers: usize, n_runners: usize, seed: u64) -> Self {
        let n = n_worlds * (n_chasers + n_runners);
        BatchedTag {
            n_worlds,
            n_chasers,
            n_runners,
            pos: vec![[0.0; 2]; n],
            vel: vec![[0.0; 2]; n],
            steps: 0,
            horizon: 25,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn per_world(&self) -> usize {
        self.n_chasers + self.n_runners
    }

    fn obs_tensor(&self) -> Tensor {
        let mut data = msrl_tensor::alloc::take_zeroed(self.total_agents() * Self::OBS);
        tag_obs(&self.pos, &self.vel, &mut data, self.per_world(), self.n_chasers);
        Tensor::from_vec(data, &[self.total_agents(), Self::OBS]).expect("length matches")
    }
}

/// Writes every world's observations into `out`.
fn tag_obs(pos: &[[f32; 2]], vel: &[[f32; 2]], out: &mut [f32], pw: usize, n_chasers: usize) {
    const OBS: usize = BatchedTag::OBS;
    for (w, world) in out.chunks_mut(pw * OBS).enumerate() {
        let base = w * pw;
        for (a, slot) in world.chunks_mut(OBS).enumerate() {
            let i = base + a;
            // Nearest opponent in this world.
            let mut best = [0.0f32; 2];
            let mut best_d = f32::INFINITY;
            for b in 0..pw {
                if (a < n_chasers) == (b < n_chasers) {
                    continue;
                }
                let j = base + b;
                let dx = pos[j][0] - pos[i][0];
                let dy = pos[j][1] - pos[i][1];
                let d = dx * dx + dy * dy;
                if d < best_d {
                    best_d = d;
                    best = [dx, dy];
                }
            }
            slot[0] = vel[i][0];
            slot[1] = vel[i][1];
            slot[2] = pos[i][0];
            slot[3] = pos[i][1];
            slot[4] = best[0];
            slot[5] = best[1];
        }
    }
}

/// Advances every agent's physics by one step.
fn tag_physics(
    pos: &mut [[f32; 2]],
    vel: &mut [[f32; 2]],
    actions: &[usize],
    pw: usize,
    n_chasers: usize,
) {
    for (k, &a) in actions.iter().enumerate() {
        let local = k % pw;
        let (accel, cap) = if local < n_chasers {
            (CHASER_ACCEL, CHASER_MAX_SPEED)
        } else {
            (RUNNER_ACCEL, RUNNER_MAX_SPEED)
        };
        let f = crate::mpe::decode_action(a);
        vel[k][0] = vel[k][0] * (1.0 - DAMPING) + f[0] * accel * DT;
        vel[k][1] = vel[k][1] * (1.0 - DAMPING) + f[1] * accel * DT;
        let speed = (vel[k][0].powi(2) + vel[k][1].powi(2)).sqrt();
        if speed > cap {
            vel[k][0] *= cap / speed;
            vel[k][1] *= cap / speed;
        }
        pos[k][0] = (pos[k][0] + vel[k][0] * DT).clamp(-1.5, 1.5);
        pos[k][1] = (pos[k][1] + vel[k][1] * DT).clamp(-1.5, 1.5);
    }
}

/// Accumulates every world's rewards into `out`.
fn tag_rewards(pos: &[[f32; 2]], out: &mut [f32], pw: usize, n_chasers: usize) {
    for (w, world) in out.chunks_mut(pw).enumerate() {
        let base = w * pw;
        for r_local in n_chasers..pw {
            for c_local in 0..n_chasers {
                let (c_idx, r_idx) = (base + c_local, base + r_local);
                let dx = pos[c_idx][0] - pos[r_idx][0];
                let dy = pos[c_idx][1] - pos[r_idx][1];
                let d = (dx * dx + dy * dy).sqrt();
                if d < CHASER_SIZE + RUNNER_SIZE {
                    world[c_local] += CATCH_REWARD;
                    world[r_local] -= CATCH_REWARD;
                }
                world[c_local] -= 0.1 * d;
                world[r_local] += 0.1 * d;
            }
        }
    }
}

impl BatchedEnv for BatchedTag {
    fn n_worlds(&self) -> usize {
        self.n_worlds
    }

    fn agents_per_world(&self) -> usize {
        self.per_world()
    }

    fn obs_dim(&self) -> usize {
        Self::OBS
    }

    fn n_actions(&self) -> usize {
        5
    }

    fn reset(&mut self) -> Tensor {
        for i in 0..self.pos.len() {
            self.pos[i] = [self.rng.gen_range(-1.0..1.0), self.rng.gen_range(-1.0..1.0)];
            self.vel[i] = [0.0; 2];
        }
        self.steps = 0;
        self.obs_tensor()
    }

    fn step(&mut self, actions: &[usize]) -> BatchedStep {
        let _span = msrl_telemetry::span!("env.batched_step");
        debug_assert_eq!(actions.len(), self.total_agents());
        msrl_telemetry::static_counter!("env.steps").add(self.n_worlds as u64);
        let pw = self.per_world();
        tag_physics(&mut self.pos, &mut self.vel, actions, pw, self.n_chasers);
        let mut rewards = msrl_tensor::alloc::take_zeroed(self.total_agents());
        tag_rewards(&self.pos, &mut rewards, pw, self.n_chasers);
        self.steps += 1;
        BatchedStep {
            obs: self.obs_tensor(),
            rewards: Tensor::from_vec(rewards, &[self.total_agents()]).expect("length matches"),
            done: self.steps >= self.horizon,
        }
    }

    fn step_flops(&self) -> u64 {
        // ~30 flops physics per agent + pairwise chaser-runner rewards.
        let pairs = self.n_worlds * self.n_chasers * self.n_runners;
        (self.total_agents() * 30 + pairs * 12) as u64
    }
}

// ---------------------------------------------------------------------------
// Batched CartPole
// ---------------------------------------------------------------------------

/// A data-parallel CartPole batch (single agent per world); the smallest
/// DP-D-capable environment, used in tests and the quickstart example.
pub struct BatchedCartPole {
    n: usize,
    state: Vec<[f32; 4]>,
    steps: usize,
    horizon: usize,
    rng: StdRng,
}

impl BatchedCartPole {
    /// Creates `n` lockstep CartPole worlds.
    pub fn new(n: usize, seed: u64) -> Self {
        BatchedCartPole {
            n,
            state: vec![[0.0; 4]; n],
            steps: 0,
            horizon: 200,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn obs_tensor(&self) -> Tensor {
        let data: Vec<f32> = self.state.iter().flatten().copied().collect();
        Tensor::from_vec(data, &[self.n, 4]).expect("length matches")
    }
}

impl BatchedEnv for BatchedCartPole {
    fn n_worlds(&self) -> usize {
        self.n
    }

    fn agents_per_world(&self) -> usize {
        1
    }

    fn obs_dim(&self) -> usize {
        4
    }

    fn n_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Tensor {
        for s in &mut self.state {
            for v in s.iter_mut() {
                *v = self.rng.gen_range(-0.05..0.05);
            }
        }
        self.steps = 0;
        self.obs_tensor()
    }

    fn step(&mut self, actions: &[usize]) -> BatchedStep {
        let _span = msrl_telemetry::span!("env.batched_step");
        debug_assert_eq!(actions.len(), self.n);
        msrl_telemetry::static_counter!("env.steps").add(self.n as u64);
        let mut rewards = msrl_tensor::alloc::take_zeroed(self.n);
        cartpole_physics(&mut self.state, &mut rewards, actions);
        self.steps += 1;
        BatchedStep {
            obs: self.obs_tensor(),
            rewards: Tensor::from_vec(rewards, &[self.n]).expect("length matches"),
            done: self.steps >= self.horizon,
        }
    }

    fn step_flops(&self) -> u64 {
        (self.n * 40) as u64
    }
}

/// Advances every CartPole world by one step.
fn cartpole_physics(state: &mut [[f32; 4]], rewards: &mut [f32], actions: &[usize]) {
    for ((s, r), &a) in state.iter_mut().zip(rewards).zip(actions) {
        let [x, x_dot, theta, theta_dot] = *s;
        let force = if a == 1 { 10.0 } else { -10.0 };
        let cos = theta.cos();
        let sin = theta.sin();
        let temp = (force + 0.05 * theta_dot * theta_dot * sin) / 1.1;
        let theta_acc = (9.8 * sin - cos * temp) / (0.5 * (4.0 / 3.0 - 0.1 * cos * cos / 1.1));
        let x_acc = temp - 0.05 * theta_acc * cos / 1.1;
        let failed = x.abs() > 2.4 || theta.abs() > 0.2095;
        *s = [
            x + 0.02 * x_dot,
            x_dot + 0.02 * x_acc,
            theta + 0.02 * theta_dot,
            theta_dot + 0.02 * theta_acc,
        ];
        *r = if failed { 0.0 } else { 1.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_shapes_scale_with_worlds() {
        let mut e = BatchedTag::new(10, 3, 1, 0);
        assert_eq!(e.total_agents(), 40);
        let obs = e.reset();
        assert_eq!(obs.shape(), &[40, BatchedTag::OBS]);
        let s = e.step(&vec![0; 40]);
        assert_eq!(s.obs.shape(), &[40, 6]);
        assert_eq!(s.rewards.shape(), &[40]);
    }

    #[test]
    fn tag_worlds_are_independent() {
        let mut e = BatchedTag::new(2, 1, 1, 1);
        e.reset();
        // Freeze world 1, move world 0's chaser right.
        let mut actions = vec![0usize; 4];
        actions[0] = 2;
        let before_w1 = (e.pos[2], e.pos[3]);
        e.step(&actions);
        assert_eq!((e.pos[2], e.pos[3]), before_w1, "world 1 untouched by no-ops");
        assert!(e.pos[0][0] > -2.0); // world 0's chaser moved
    }

    #[test]
    fn tag_catch_transfers_reward() {
        let mut e = BatchedTag::new(1, 1, 1, 2);
        e.reset();
        e.pos[0] = [0.0, 0.0];
        e.pos[1] = [0.05, 0.0];
        let s = e.step(&[0, 0]);
        let r = s.rewards;
        assert!(r.data()[0] > 5.0, "chaser {}", r.data()[0]);
        assert!(r.data()[1] < -5.0, "runner {}", r.data()[1]);
    }

    #[test]
    fn tag_flops_grow_linearly_in_agents() {
        let small = BatchedTag::new(10, 3, 1, 0).step_flops();
        let large = BatchedTag::new(100, 3, 1, 0).step_flops();
        assert_eq!(large, small * 10);
    }

    #[test]
    fn cartpole_batch_survival_rewards() {
        let mut e = BatchedCartPole::new(4, 0);
        e.reset();
        let s = e.step(&[0, 1, 0, 1]);
        assert_eq!(s.rewards.data(), &[1.0; 4]);
        assert!(!s.done);
    }

    #[test]
    fn cartpole_batch_done_at_horizon() {
        let mut e = BatchedCartPole::new(2, 0);
        e.horizon = 3;
        e.reset();
        assert!(!e.step(&[0, 0]).done);
        assert!(!e.step(&[0, 0]).done);
        assert!(e.step(&[0, 0]).done);
    }
}
