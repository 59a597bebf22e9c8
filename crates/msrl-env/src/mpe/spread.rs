//! The MPE `simple_spread` scenario: `n` cooperating agents learn to
//! cover `n` landmarks while avoiding collisions.
//!
//! The paper's scalability experiment (§7.4, Fig. 11) uses this scenario
//! with *global observations*: in addition to local state, every agent
//! observes, for each landmark, the distances of **all** agents to that
//! landmark. One agent's observation is then `O(n²)`, and the joint
//! observation across `n` agents grows as `O(n³)` — the cubic blow-up the
//! paper exploits to stress GPU memory and training throughput.

use msrl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mpe::{collided, decode_action, Body, World};
use crate::spec::{Action, ActionSpec, MultiStep};
use crate::MultiAgentEnvironment;

const AGENT_SIZE: f32 = 0.05; // MPE default agent radius (with collide=true)
const LANDMARK_SIZE: f32 = 0.05;
const AGENT_ACCEL: f32 = 3.0;
const AGENT_MAX_SPEED: f32 = 1.0;
const COLLISION_PENALTY: f32 = 1.0;

/// The cooperative navigation ("simple spread") environment.
#[derive(Debug, Clone)]
pub struct SimpleSpread {
    world: World,
    n: usize,
    global_obs: bool,
    steps: usize,
    horizon: usize,
    rng: StdRng,
}

impl SimpleSpread {
    /// Creates a spread scenario with `n` agents and `n` landmarks
    /// observing only local state.
    pub fn new(n: usize, seed: u64) -> Self {
        let agents =
            (0..n).map(|_| Body::agent(AGENT_SIZE, AGENT_ACCEL, AGENT_MAX_SPEED)).collect();
        let landmarks = (0..n).map(|_| Body::landmark(LANDMARK_SIZE)).collect();
        SimpleSpread {
            world: World::new(agents, landmarks),
            n,
            global_obs: false,
            steps: 0,
            horizon: 25,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Enables the §7.4 global-observation variant (adds, per agent, the
    /// distance of every agent to every landmark — `n²` extra values per
    /// agent, `O(n³)` in total).
    pub fn with_global_obs(mut self, enabled: bool) -> Self {
        self.global_obs = enabled;
        self
    }

    /// Overrides the episode horizon (MPE default is 25 steps).
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// The shared cooperative reward: negative sum over landmarks of the
    /// closest agent's distance, minus collision penalties for `agent`.
    fn reward(&self, agent: usize) -> f32 {
        let mut r = 0.0;
        for lm in &self.world.landmarks {
            let min_d = self
                .world
                .agents
                .iter()
                .map(|a| {
                    let dx = a.pos[0] - lm.pos[0];
                    let dy = a.pos[1] - lm.pos[1];
                    (dx * dx + dy * dy).sqrt()
                })
                .fold(f32::INFINITY, f32::min);
            r -= min_d;
        }
        for (j, other) in self.world.agents.iter().enumerate() {
            if j != agent && collided(&self.world.agents[agent], other) {
                r -= COLLISION_PENALTY;
            }
        }
        r
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
        if self.global_obs {
            // For each landmark, the distance of every agent to it.
            for lm in &self.world.landmarks {
                for a in &self.world.agents {
                    let dx = a.pos[0] - lm.pos[0];
                    let dy = a.pos[1] - lm.pos[1];
                    v.push((dx * dx + dy * dy).sqrt());
                }
            }
        }
        debug_assert!(v.iter().all(|x| x.is_finite()), "agent {i}: non-finite observation {v:?}");
        let dim = self.obs_dim();
        Tensor::from_vec(v, &[dim]).expect("length matches obs_dim")
    }

    /// Mean over landmarks of the closest agent's distance (diagnostic).
    pub fn mean_coverage_distance(&self) -> f32 {
        let total: f32 = self
            .world
            .landmarks
            .iter()
            .map(|lm| {
                self.world
                    .agents
                    .iter()
                    .map(|a| {
                        let dx = a.pos[0] - lm.pos[0];
                        let dy = a.pos[1] - lm.pos[1];
                        (dx * dx + dy * dy).sqrt()
                    })
                    .fold(f32::INFINITY, f32::min)
            })
            .sum();
        total / self.world.landmarks.len() as f32
    }
}

impl MultiAgentEnvironment for SimpleSpread {
    fn n_agents(&self) -> usize {
        self.n
    }

    fn obs_dim(&self) -> usize {
        // vel(2) + pos(2) + landmarks rel(2n) + others rel(2(n-1)) [+ n²]
        let local = 4 + 2 * self.n + 2 * (self.n - 1);
        if self.global_obs {
            local + self.n * self.n
        } else {
            local
        }
    }

    fn action_spec(&self) -> ActionSpec {
        ActionSpec::Discrete { n: 5 }
    }

    fn reset(&mut self) -> Vec<Tensor> {
        self.world.scatter(1.0, &mut self.rng);
        self.steps = 0;
        (0..self.n).map(|i| self.agent_obs(i)).collect()
    }

    fn step(&mut self, actions: &[Action]) -> MultiStep {
        let forces: Vec<[f32; 2]> =
            actions.iter().map(|a| decode_action(a.as_discrete().unwrap_or(0))).collect();
        self.world.step(&forces);
        self.steps += 1;
        msrl_telemetry::static_counter!("env.steps").add(self.n as u64);
        MultiStep {
            obs: (0..self.n).map(|i| self.agent_obs(i)).collect(),
            rewards: (0..self.n).map(|i| self.reward(i)).collect(),
            done: self.steps >= self.horizon,
        }
    }

    fn step_cost(&self) -> f64 {
        // Pairwise contact physics: O(n²) work per step.
        1e-6 * (self.n * self.n) as f64
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_dims_scale_with_n() {
        let e3 = SimpleSpread::new(3, 0);
        assert_eq!(e3.obs_dim(), 4 + 6 + 4);
        let g3 = SimpleSpread::new(3, 0).with_global_obs(true);
        assert_eq!(g3.obs_dim(), 4 + 6 + 4 + 9);
    }

    #[test]
    fn global_obs_joint_volume_is_cubic() {
        // The joint observation volume must grow ~n³ for the Fig. 11
        // experiment to stress memory the way the paper describes.
        let vol = |n: usize| {
            let e = SimpleSpread::new(n, 0).with_global_obs(true);
            n * e.obs_dim()
        };
        let v8 = vol(8);
        let v16 = vol(16);
        // Doubling n should multiply the joint volume by ≈8 as n grows.
        let ratio = v16 as f32 / v8 as f32;
        assert!(ratio > 6.0, "ratio {ratio} not cubic-ish");
    }

    #[test]
    fn reset_returns_one_obs_per_agent() {
        let mut e = SimpleSpread::new(4, 1);
        let obs = e.reset();
        assert_eq!(obs.len(), 4);
        for o in obs {
            assert_eq!(o.shape(), &[e.obs_dim()]);
        }
    }

    #[test]
    fn reward_improves_as_agents_approach_landmarks() {
        let mut e = SimpleSpread::new(2, 2);
        e.reset();
        // Place agents exactly on the landmarks: coverage distance 0.
        let lm0 = e.world.landmarks[0].pos;
        let lm1 = e.world.landmarks[1].pos;
        e.world.agents[0].pos = lm0;
        e.world.agents[1].pos = lm1;
        let near = e.reward(0);
        // Move agents far away.
        e.world.agents[0].pos = [10.0, 10.0];
        e.world.agents[1].pos = [-10.0, -10.0];
        let far = e.reward(0);
        assert!(near > far);
    }

    #[test]
    fn collision_penalty_applies() {
        let mut e = SimpleSpread::new(2, 3);
        e.reset();
        e.world.agents[0].pos = [0.0, 0.0];
        e.world.agents[1].pos = [0.01, 0.0];
        let colliding = e.reward(0);
        e.world.agents[1].pos = [0.5, 0.0];
        let apart = e.reward(0);
        // Both positions have similar coverage terms; collision costs 1.
        assert!(apart - colliding > 0.5, "apart {apart} colliding {colliding}");
    }

    #[test]
    fn episode_ends_at_horizon() {
        let mut e = SimpleSpread::new(2, 4).with_horizon(3);
        e.reset();
        let acts = vec![Action::Discrete(0), Action::Discrete(0)];
        assert!(!e.step(&acts).done);
        assert!(!e.step(&acts).done);
        assert!(e.step(&acts).done);
    }
}
