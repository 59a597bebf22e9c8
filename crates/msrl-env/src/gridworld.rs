//! A tiny deterministic grid world.
//!
//! Exact, hand-computable dynamics make this the reference environment
//! for testing return/advantage computations (GAE, discounted rewards)
//! and replay-buffer plumbing, where floating-point physics would blur
//! expected values.

use crate::spec::{Action, ActionSpec};
use crate::Environment;

/// An `n × n` grid. The agent starts at the top-left corner `(0, 0)` and
/// must reach the bottom-right goal. Actions: 0 = up, 1 = down, 2 = left,
/// 3 = right (moves off the grid are no-ops). Reward is −1 per step and
/// +10 on reaching the goal; the observation is the one-hot cell index.
#[derive(Debug, Clone)]
pub struct GridWorld {
    n: usize,
    row: usize,
    col: usize,
    steps: usize,
    horizon: usize,
}

impl GridWorld {
    /// Creates an `n × n` grid with a `4·n²` step horizon.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "grid must be at least 2×2");
        GridWorld { n, row: 0, col: 0, steps: 0, horizon: 4 * n * n }
    }

    /// Current cell as `(row, col)`.
    pub fn position(&self) -> (usize, usize) {
        (self.row, self.col)
    }

    fn at_goal(&self) -> bool {
        self.row == self.n - 1 && self.col == self.n - 1
    }

    fn write_obs(&self, obs: &mut [f32]) {
        obs.fill(0.0);
        obs[self.row * self.n + self.col] = 1.0;
    }
}

impl Environment for GridWorld {
    fn obs_dim(&self) -> usize {
        self.n * self.n
    }

    fn action_spec(&self) -> ActionSpec {
        ActionSpec::Discrete { n: 4 }
    }

    fn reset_into(&mut self, obs: &mut [f32]) {
        self.row = 0;
        self.col = 0;
        self.steps = 0;
        self.write_obs(obs);
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
        match action.as_discrete() {
            Some(0) => self.row = self.row.saturating_sub(1),
            Some(1) => self.row = (self.row + 1).min(self.n - 1),
            Some(2) => self.col = self.col.saturating_sub(1),
            Some(3) => self.col = (self.col + 1).min(self.n - 1),
            _ => {}
        }
        self.steps += 1;
        self.write_obs(obs);
        let reward = if self.at_goal() { 10.0 } else { -1.0 };
        (reward, self.at_goal() || self.steps >= self.horizon)
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortest_path_return_is_exact() {
        // On a 3×3 grid the shortest path is 4 moves: 3 at −1 plus the
        // goal step at +10 ⇒ return 7.
        let mut g = GridWorld::new(3);
        g.reset();
        let mut total = 0.0;
        for a in [1, 1, 3, 3] {
            let s = g.step(&Action::Discrete(a));
            total += s.reward;
            if s.done {
                break;
            }
        }
        assert_eq!(total, 7.0);
        assert_eq!(g.position(), (2, 2));
    }

    #[test]
    fn walls_block_movement() {
        let mut g = GridWorld::new(2);
        g.reset();
        g.step(&Action::Discrete(0)); // up from (0,0): no-op
        assert_eq!(g.position(), (0, 0));
        g.step(&Action::Discrete(2)); // left: no-op
        assert_eq!(g.position(), (0, 0));
    }

    #[test]
    fn one_hot_observation() {
        let mut g = GridWorld::new(2);
        let obs = g.reset();
        assert_eq!(obs.data(), &[1.0, 0.0, 0.0, 0.0]);
        let s = g.step(&Action::Discrete(3));
        assert_eq!(s.obs.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn horizon_truncates_wandering() {
        let mut g = GridWorld::new(2);
        g.reset();
        let mut done = false;
        let mut n = 0;
        while !done {
            done = g.step(&Action::Discrete(0)).done;
            n += 1;
        }
        assert_eq!(n, g.horizon());
    }
}
