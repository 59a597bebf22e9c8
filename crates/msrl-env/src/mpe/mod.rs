//! The Multi-Agent Particle Environment (MPE), re-implemented from the
//! published dynamics of Lowe et al. (NeurIPS 2017).
//!
//! MPE worlds are 2-D planes populated by *agents* (movable point masses
//! driven by discrete force actions) and *landmarks* (static discs).
//! Agents experience velocity damping and soft contact forces on overlap.
//!
//! Two scenarios from the paper's evaluation are provided:
//!
//! * [`spread::SimpleSpread`] — §7.4/Fig. 11: `n` cooperating agents learn
//!   to cover `n` landmarks while avoiding collisions; its
//!   global-observation variant grows observation volume as *O(n³)*;
//! * [`tag::SimpleTag`] — §7.3/Fig. 10: a predator–prey game where chasers
//!   are rewarded for catching runners.

pub mod spread;
pub mod tag;

pub use spread::SimpleSpread;
pub use tag::SimpleTag;

use rand::rngs::StdRng;
use rand::Rng;

/// Integration timestep (MPE default).
pub const DT: f32 = 0.1;
/// Velocity damping per step (MPE default).
pub const DAMPING: f32 = 0.25;
/// Soft contact force constant (MPE default).
pub const CONTACT_FORCE: f32 = 100.0;
/// Soft contact margin (MPE default).
pub const CONTACT_MARGIN: f32 = 0.001;

/// A 2-D point-mass body.
#[derive(Debug, Clone)]
pub struct Body {
    /// Position.
    pub pos: [f32; 2],
    /// Velocity.
    pub vel: [f32; 2],
    /// Disc radius for contact.
    pub size: f32,
    /// Acceleration multiplier applied to the unit action force.
    pub accel: f32,
    /// Optional speed cap.
    pub max_speed: Option<f32>,
    /// Whether physics moves this body (landmarks are static).
    pub movable: bool,
}

impl Body {
    /// A movable agent body.
    pub fn agent(size: f32, accel: f32, max_speed: f32) -> Self {
        Body {
            pos: [0.0; 2],
            vel: [0.0; 2],
            size,
            accel,
            max_speed: Some(max_speed),
            movable: true,
        }
    }

    /// A static landmark body.
    pub fn landmark(size: f32) -> Self {
        Body { pos: [0.0; 2], vel: [0.0; 2], size, accel: 0.0, max_speed: None, movable: false }
    }
}

/// Euclidean distance between two bodies' centres.
pub fn dist(a: &Body, b: &Body) -> f32 {
    let dx = a.pos[0] - b.pos[0];
    let dy = a.pos[1] - b.pos[1];
    (dx * dx + dy * dy).sqrt()
}

/// Whether two bodies' discs overlap.
pub fn collided(a: &Body, b: &Body) -> bool {
    dist(a, b) < a.size + b.size
}

/// The 2-D world: a set of agent bodies and landmark bodies.
#[derive(Debug, Clone)]
pub struct World {
    /// Movable agents, indexed by agent id.
    pub agents: Vec<Body>,
    /// Static landmarks.
    pub landmarks: Vec<Body>,
}

impl World {
    /// Creates a world with the given bodies.
    pub fn new(agents: Vec<Body>, landmarks: Vec<Body>) -> Self {
        World { agents, landmarks }
    }

    /// Scatters all bodies uniformly in `[-extent, extent]²` with zero
    /// velocity.
    pub fn scatter(&mut self, extent: f32, rng: &mut StdRng) {
        for b in self.agents.iter_mut().chain(self.landmarks.iter_mut()) {
            b.pos = [rng.gen_range(-extent..extent), rng.gen_range(-extent..extent)];
            b.vel = [0.0; 2];
        }
    }

    /// The MPE soft contact force between two discs, along the axis from
    /// `b` to `a` (i.e. the force applied to `a`).
    fn contact_force(a: &Body, b: &Body) -> [f32; 2] {
        let delta = [a.pos[0] - b.pos[0], a.pos[1] - b.pos[1]];
        let d = (delta[0] * delta[0] + delta[1] * delta[1]).sqrt().max(1e-6);
        let d_min = a.size + b.size;
        // Softened penetration: log(1 + e^x) · margin, x = -(d - d_min)/margin,
        // spelled as MPE's `logaddexp(0, x)`: past an overlap of 0.089 `e^x`
        // overflows an f32, and an infinite force is a NaN velocity one
        // speed cap later.
        let x = -(d - d_min) / CONTACT_MARGIN;
        let penetration = (x.max(0.0) + (-x.abs()).exp().ln_1p()) * CONTACT_MARGIN;
        let f = CONTACT_FORCE * penetration;
        [f * delta[0] / d, f * delta[1] / d]
    }

    /// Advances physics one step given a `[fx, fy]` control force per
    /// agent (unit magnitude; each agent's `accel` scales it).
    ///
    /// Extra forces come from soft contacts between every agent pair and
    /// between agents and landmarks.
    pub fn step(&mut self, forces: &[[f32; 2]]) {
        debug_assert_eq!(forces.len(), self.agents.len());
        let n = self.agents.len();
        let mut total: Vec<[f32; 2]> = forces
            .iter()
            .zip(&self.agents)
            .map(|(f, a)| [f[0] * a.accel, f[1] * a.accel])
            .collect();
        // Agent-agent contacts (symmetric).
        for i in 0..n {
            for j in (i + 1)..n {
                let f = Self::contact_force(&self.agents[i], &self.agents[j]);
                total[i][0] += f[0];
                total[i][1] += f[1];
                total[j][0] -= f[0];
                total[j][1] -= f[1];
            }
        }
        // Agent-landmark contacts (landmarks are immovable).
        for (a, t) in self.agents.iter().zip(&mut total) {
            for l in &self.landmarks {
                let f = Self::contact_force(a, l);
                t[0] += f[0];
                t[1] += f[1];
            }
        }
        for (a, f) in self.agents.iter_mut().zip(&total) {
            if !a.movable {
                continue;
            }
            a.vel[0] = a.vel[0] * (1.0 - DAMPING) + f[0] * DT;
            a.vel[1] = a.vel[1] * (1.0 - DAMPING) + f[1] * DT;
            if let Some(cap) = a.max_speed {
                let speed = (a.vel[0] * a.vel[0] + a.vel[1] * a.vel[1]).sqrt();
                if speed > cap {
                    a.vel[0] *= cap / speed;
                    a.vel[1] *= cap / speed;
                }
            }
            a.pos[0] += a.vel[0] * DT;
            a.pos[1] += a.vel[1] * DT;
        }
    }
}

/// Decodes MPE's 5-way discrete action into a unit force:
/// 0 = no-op, 1 = −x, 2 = +x, 3 = −y, 4 = +y.
pub fn decode_action(a: usize) -> [f32; 2] {
    match a {
        1 => [-1.0, 0.0],
        2 => [1.0, 0.0],
        3 => [0.0, -1.0],
        4 => [0.0, 1.0],
        _ => [0.0, 0.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn world_two_agents() -> World {
        World::new(
            vec![Body::agent(0.05, 3.0, 1.0), Body::agent(0.05, 3.0, 1.0)],
            vec![Body::landmark(0.1)],
        )
    }

    #[test]
    fn force_accelerates_agent() {
        let mut w = world_two_agents();
        w.agents[0].pos = [0.0, 0.0];
        w.agents[1].pos = [5.0, 5.0]; // far away: no contact
        w.landmarks[0].pos = [-5.0, -5.0];
        w.step(&[[1.0, 0.0], [0.0, 0.0]]);
        assert!(w.agents[0].vel[0] > 0.0);
        assert!(w.agents[0].pos[0] > 0.0);
        assert_eq!(w.agents[1].vel, [0.0, 0.0]);
    }

    #[test]
    fn damping_slows_agent() {
        let mut w = world_two_agents();
        w.agents[0].vel = [1.0, 0.0];
        w.agents[0].pos = [0.0, 0.0];
        w.agents[1].pos = [5.0, 5.0];
        w.landmarks[0].pos = [-5.0, -5.0];
        w.step(&[[0.0, 0.0], [0.0, 0.0]]);
        assert!(w.agents[0].vel[0] < 1.0);
        assert!(w.agents[0].vel[0] > 0.0);
    }

    #[test]
    fn overlapping_agents_repel() {
        let mut w = world_two_agents();
        w.agents[0].pos = [0.0, 0.0];
        w.agents[1].pos = [0.05, 0.0]; // overlapping (sizes 0.05 each)
        w.landmarks[0].pos = [-5.0, -5.0];
        w.step(&[[0.0, 0.0], [0.0, 0.0]]);
        assert!(w.agents[0].vel[0] < 0.0, "agent 0 pushed left");
        assert!(w.agents[1].vel[0] > 0.0, "agent 1 pushed right");
    }

    #[test]
    fn deep_overlap_stays_finite() {
        // x = 0.099 / 0.001: `e^99` is past f32; the force must be the
        // penetration depth (≈ 0.099 · 100), not ∞.
        let mut w = world_two_agents();
        w.agents[0].pos = [0.0, 0.0];
        w.agents[1].pos = [0.001, 0.0];
        w.landmarks[0].pos = [-5.0, -5.0];
        let f = World::contact_force(&w.agents[0], &w.agents[1]);
        assert!((f[0] + 9.9).abs() < 1e-3 && f[1] == 0.0, "force {f:?}");
        w.step(&[[0.0, 0.0], [0.0, 0.0]]);
        for a in &w.agents {
            assert!(a.pos.iter().chain(&a.vel).all(|v| v.is_finite()), "{a:?}");
        }
        assert!(w.agents[0].vel[0] < 0.0 && w.agents[1].vel[0] > 0.0);
    }

    #[test]
    fn max_speed_caps_velocity() {
        let mut w = world_two_agents();
        w.agents[0].pos = [0.0, 0.0];
        w.agents[1].pos = [5.0, 5.0];
        w.landmarks[0].pos = [-5.0, -5.0];
        for _ in 0..200 {
            w.step(&[[1.0, 0.0], [0.0, 0.0]]);
        }
        let speed = (w.agents[0].vel[0].powi(2) + w.agents[0].vel[1].powi(2)).sqrt();
        assert!(speed <= 1.0 + 1e-4, "speed {speed}");
    }

    #[test]
    fn landmarks_never_move() {
        let mut w = world_two_agents();
        let mut rng = StdRng::seed_from_u64(0);
        w.scatter(1.0, &mut rng);
        let before = w.landmarks[0].pos;
        for _ in 0..50 {
            w.step(&[[1.0, 1.0], [-1.0, -1.0]]);
        }
        assert_eq!(w.landmarks[0].pos, before);
    }

    #[test]
    fn decode_action_covers_all_directions() {
        assert_eq!(decode_action(0), [0.0, 0.0]);
        assert_eq!(decode_action(1), [-1.0, 0.0]);
        assert_eq!(decode_action(2), [1.0, 0.0]);
        assert_eq!(decode_action(3), [0.0, -1.0]);
        assert_eq!(decode_action(4), [0.0, 1.0]);
        assert_eq!(decode_action(99), [0.0, 0.0]);
    }

    #[test]
    fn collided_uses_radii() {
        let mut a = Body::agent(0.1, 1.0, 1.0);
        let mut b = Body::agent(0.1, 1.0, 1.0);
        a.pos = [0.0, 0.0];
        b.pos = [0.15, 0.0];
        assert!(collided(&a, &b));
        b.pos = [0.25, 0.0];
        assert!(!collided(&a, &b));
    }
}
