//! The MPE `simple_tag` scenario: a predator–prey pursuit game.
//!
//! Chaser agents ("adversaries") are rewarded for colliding with runner
//! agents; runners are penalised for being caught and for leaving the
//! arena. This is the workload of the paper's GPU-only experiment
//! (§7.3, Fig. 10), where the environment itself must have a
//! device-executable implementation (see `crate::batched::BatchedTag`).

use msrl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mpe::{collided, decode_action, Body, World};
use crate::spec::{Action, ActionSpec, MultiStep};
use crate::MultiAgentEnvironment;

const CHASER_SIZE: f32 = 0.075;
const RUNNER_SIZE: f32 = 0.05;
const CHASER_ACCEL: f32 = 3.0;
const RUNNER_ACCEL: f32 = 4.0;
const CHASER_MAX_SPEED: f32 = 1.0;
const RUNNER_MAX_SPEED: f32 = 1.3;
const LANDMARK_SIZE: f32 = 0.2;
const CATCH_REWARD: f32 = 10.0;

/// The predator–prey ("simple tag") environment with `n_chasers`
/// adversaries, `n_runners` good agents, and two obstacle landmarks.
///
/// Agent indexing: chasers first (`0..n_chasers`), then runners.
#[derive(Debug, Clone)]
pub struct SimpleTag {
    world: World,
    n_chasers: usize,
    n_runners: usize,
    steps: usize,
    horizon: usize,
    rng: StdRng,
}

impl SimpleTag {
    /// Creates a tag scenario (MPE defaults: 3 chasers, 1 runner, 2
    /// obstacles would be `SimpleTag::new(3, 1, seed)`).
    pub fn new(n_chasers: usize, n_runners: usize, seed: u64) -> Self {
        let mut agents: Vec<Body> = (0..n_chasers)
            .map(|_| Body::agent(CHASER_SIZE, CHASER_ACCEL, CHASER_MAX_SPEED))
            .collect();
        agents.extend(
            (0..n_runners).map(|_| Body::agent(RUNNER_SIZE, RUNNER_ACCEL, RUNNER_MAX_SPEED)),
        );
        let landmarks = (0..2).map(|_| Body::landmark(LANDMARK_SIZE)).collect();
        SimpleTag {
            world: World::new(agents, landmarks),
            n_chasers,
            n_runners,
            steps: 0,
            horizon: 25,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of chaser agents.
    pub fn n_chasers(&self) -> usize {
        self.n_chasers
    }

    /// Number of runner agents.
    pub fn n_runners(&self) -> usize {
        self.n_runners
    }

    /// Whether agent `i` is a chaser.
    pub fn is_chaser(&self, i: usize) -> bool {
        i < self.n_chasers
    }

    /// MPE's out-of-bounds penalty shaping for runners.
    fn bound_penalty(x: f32) -> f32 {
        let x = x.abs();
        if x < 0.9 {
            0.0
        } else if x < 1.0 {
            (x - 0.9) * 10.0
        } else {
            ((2.0 * (x - 1.0)).exp()).min(10.0)
        }
    }

    fn reward(&self, i: usize) -> f32 {
        let me = &self.world.agents[i];
        if self.is_chaser(i) {
            // Chasers: +10 for every runner any chaser touches (shared
            // adversary reward in MPE), shaped by distance to runners.
            let mut r = 0.0;
            for run_idx in self.n_chasers..self.n_chasers + self.n_runners {
                let runner = &self.world.agents[run_idx];
                for ch_idx in 0..self.n_chasers {
                    if collided(&self.world.agents[ch_idx], runner) {
                        r += CATCH_REWARD;
                    }
                }
                // Shaping: approach the nearest runner.
                let dx = runner.pos[0] - me.pos[0];
                let dy = runner.pos[1] - me.pos[1];
                r -= 0.1 * (dx * dx + dy * dy).sqrt();
            }
            r
        } else {
            // Runners: −10 per catching contact, shaped to flee, bounded.
            let mut r = 0.0;
            for ch_idx in 0..self.n_chasers {
                let chaser = &self.world.agents[ch_idx];
                if collided(chaser, me) {
                    r -= CATCH_REWARD;
                }
                let dx = chaser.pos[0] - me.pos[0];
                let dy = chaser.pos[1] - me.pos[1];
                r += 0.1 * (dx * dx + dy * dy).sqrt();
            }
            r -= Self::bound_penalty(me.pos[0]);
            r -= Self::bound_penalty(me.pos[1]);
            r
        }
    }

    fn agent_obs(&self, i: usize) -> Tensor {
        let me = &self.world.agents[i];
        let mut v = Vec::with_capacity(self.obs_dim());
        v.extend_from_slice(&me.vel);
        v.extend_from_slice(&me.pos);
        for lm in &self.world.landmarks {
            v.push(lm.pos[0] - me.pos[0]);
            v.push(lm.pos[1] - me.pos[1]);
        }
        for (j, other) in self.world.agents.iter().enumerate() {
            if j != i {
                v.push(other.pos[0] - me.pos[0]);
                v.push(other.pos[1] - me.pos[1]);
            }
        }
        // All chasers observe runner velocities (MPE convention).
        for run_idx in self.n_chasers..self.n_chasers + self.n_runners {
            if run_idx != i {
                v.extend_from_slice(&self.world.agents[run_idx].vel);
            }
        }
        debug_assert!(v.iter().all(|x| x.is_finite()), "agent {i}: non-finite observation {v:?}");
        let dim = self.obs_dim();
        // Runners see one fewer "other runner velocity": pad to a
        // homogeneous width so policies can be shared.
        while v.len() < dim {
            v.push(0.0);
        }
        Tensor::from_vec(v, &[dim]).expect("padded to obs_dim")
    }

    /// Total number of catches in the current configuration (diagnostic).
    pub fn current_catches(&self) -> usize {
        let mut c = 0;
        for run_idx in self.n_chasers..self.n_chasers + self.n_runners {
            for ch_idx in 0..self.n_chasers {
                if collided(&self.world.agents[ch_idx], &self.world.agents[run_idx]) {
                    c += 1;
                }
            }
        }
        c
    }
}

impl MultiAgentEnvironment for SimpleTag {
    fn n_agents(&self) -> usize {
        self.n_chasers + self.n_runners
    }

    fn obs_dim(&self) -> usize {
        let n = self.n_agents();
        // vel(2) + pos(2) + 2 landmarks rel(4) + others rel(2(n-1)) +
        // runner velocities (2·n_runners, padded).
        4 + 4 + 2 * (n - 1) + 2 * self.n_runners
    }

    fn action_spec(&self) -> ActionSpec {
        ActionSpec::Discrete { n: 5 }
    }

    fn reset(&mut self) -> Vec<Tensor> {
        self.world.scatter(1.0, &mut self.rng);
        self.steps = 0;
        (0..self.n_agents()).map(|i| self.agent_obs(i)).collect()
    }

    fn step(&mut self, actions: &[Action]) -> MultiStep {
        let forces: Vec<[f32; 2]> =
            actions.iter().map(|a| decode_action(a.as_discrete().unwrap_or(0))).collect();
        self.world.step(&forces);
        self.steps += 1;
        msrl_telemetry::static_counter!("env.steps").add(self.n_agents() as u64);
        MultiStep {
            obs: (0..self.n_agents()).map(|i| self.agent_obs(i)).collect(),
            rewards: (0..self.n_agents()).map(|i| self.reward(i)).collect(),
            done: self.steps >= self.horizon,
        }
    }

    fn step_cost(&self) -> f64 {
        let n = self.n_agents();
        1e-6 * (n * n) as f64
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_and_dims() {
        let e = SimpleTag::new(3, 1, 0);
        assert_eq!(e.n_agents(), 4);
        assert!(e.is_chaser(2));
        assert!(!e.is_chaser(3));
        // 4 + 4 + 2·3 + 2·1 = 16
        assert_eq!(e.obs_dim(), 16);
    }

    #[test]
    fn catch_rewards_chaser_penalises_runner() {
        let mut e = SimpleTag::new(1, 1, 1);
        e.reset();
        e.world.agents[0].pos = [0.0, 0.0];
        e.world.agents[1].pos = [0.05, 0.0]; // overlapping
        assert_eq!(e.current_catches(), 1);
        assert!(e.reward(0) > 5.0, "chaser reward {}", e.reward(0));
        assert!(e.reward(1) < -5.0, "runner reward {}", e.reward(1));
    }

    #[test]
    fn no_catch_when_apart() {
        let mut e = SimpleTag::new(1, 1, 2);
        e.reset();
        e.world.agents[0].pos = [-0.5, 0.0];
        e.world.agents[1].pos = [0.5, 0.0];
        assert_eq!(e.current_catches(), 0);
        assert!(e.reward(0).abs() < 5.0);
    }

    #[test]
    fn runner_bound_penalty_grows_off_arena() {
        let inside = SimpleTag::bound_penalty(0.5);
        let edge = SimpleTag::bound_penalty(0.95);
        let outside = SimpleTag::bound_penalty(1.5);
        assert_eq!(inside, 0.0);
        assert!(edge > 0.0);
        assert!(outside > edge);
    }

    #[test]
    fn obs_are_homogeneous_across_roles() {
        let mut e = SimpleTag::new(2, 2, 3);
        let obs = e.reset();
        for o in &obs {
            assert_eq!(o.shape(), &[e.obs_dim()]);
        }
    }

    #[test]
    fn chaser_shaping_rewards_approach() {
        let mut e = SimpleTag::new(1, 1, 4);
        e.reset();
        e.world.agents[0].pos = [0.0, 0.0];
        e.world.agents[1].pos = [0.3, 0.0];
        let near = e.reward(0);
        e.world.agents[1].pos = [3.0, 0.0];
        let far = e.reward(0);
        assert!(near > far);
    }
}
