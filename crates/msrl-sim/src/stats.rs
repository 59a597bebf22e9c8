//! Statistical-efficiency models.
//!
//! Wall-clock "training time to reward R" experiments (Figs. 7a, 7c, 7d,
//! 8a/8c) couple two quantities: the time per episode (from the cluster
//! simulator) and the *number of episodes needed to reach the reward*.
//! The paper explains the second through batch-size effects: DP-C's
//! data-parallel learners each train a `1/p` slice of the batch, which
//! "adds randomness to the training and affects convergence speed"
//! (§7.2, citing Hoffer et al. \[16\]); more environments per episode mean
//! more data and fewer episodes (§7.4, Fig. 12).
//!
//! This module makes those explanations executable. The functional forms
//! are standard (logarithmic batch-size penalty, saturating returns from
//! extra data); the constants are calibrated so the reproduction exhibits
//! the paper's crossovers, and Fig. 12 validates the direction with real
//! end-to-end training.

/// Baseline episodes for PPO/HalfCheetah to reach the paper's reward
/// thresholds with the reference batch (320 envs, single learner).
pub const BASE_EPISODES: f64 = 300.0;

/// Episodes-to-reward for a single-learner policy (DP-A/DP-B): constant
/// in the worker count, improving with the amount of data per episode.
pub fn episodes_single_learner(n_envs: usize, reference_envs: usize) -> f64 {
    BASE_EPISODES * data_scale(n_envs, reference_envs)
}

/// Episodes-to-reward for data-parallel learners (DP-C): each learner
/// trains `samples_per_learner` transitions per episode, and small
/// per-learner batches pay a convergence penalty (more gradient noise
/// without the hyper-parameter retuning the paper notes DP-C needs).
///
/// The penalty is a power law in the inverse per-learner batch,
/// `1 + 0.57 · (12500 / B)^1.44`, calibrated jointly against the paper's
/// crossovers: DP-C wins at 16 GPUs and loses at 64 on the cloud cluster
/// (Fig. 8a), always loses on the local cluster (Fig. 8c), and wins at
/// low added latency with 50 learners × 400 envs (Fig. 7d).
pub fn episodes_multi_learner(
    n_envs: usize,
    reference_envs: usize,
    samples_per_learner: usize,
) -> f64 {
    let b = samples_per_learner.max(1) as f64;
    let penalty = 1.0 + 0.57 * (12_500.0 / b).powf(1.44);
    BASE_EPISODES * data_scale(n_envs, reference_envs) * penalty
}

/// Diminishing returns from more data per episode: doubling the
/// environments cuts episodes by a saturating factor (Fig. 12's
/// direction).
fn data_scale(n_envs: usize, reference_envs: usize) -> f64 {
    let ratio = n_envs.max(1) as f64 / reference_envs.max(1) as f64;
    // At the reference count the scale is 1; 2× the data ≈ 0.82× the
    // episodes; half the data ≈ 1.22×.
    ratio.powf(-0.28)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point_is_base() {
        assert!((episodes_single_learner(320, 320) - BASE_EPISODES).abs() < 1e-9);
    }

    #[test]
    fn more_envs_fewer_episodes() {
        let few = episodes_single_learner(100, 320);
        let many = episodes_single_learner(600, 320);
        assert!(many < few);
        assert!(many < BASE_EPISODES);
        assert!(few > BASE_EPISODES);
    }

    #[test]
    fn multi_learner_penalty_grows_as_batches_shrink() {
        // 320 envs × 1000 steps split over p learners.
        let batch = |p: usize| 320 * 1000 / p;
        let one = episodes_multi_learner(320, 320, batch(1));
        let sixteen = episodes_multi_learner(320, 320, batch(16));
        let sixty_four = episodes_multi_learner(320, 320, batch(64));
        assert!(one < BASE_EPISODES * 1.05, "full batch ≈ no penalty");
        assert!(sixteen > one);
        assert!(sixty_four > sixteen);
        // Mild at 16 learners (paper: DP-C *wins* at 16 GPUs on the cloud
        // cluster), material at 64.
        assert!(sixteen / one < 1.5, "penalty at 16: {}", sixteen / one);
        assert!(sixty_four / one > 2.0, "penalty at 64: {}", sixty_four / one);
    }

    #[test]
    fn data_scale_is_saturating() {
        // Doubling from 320 to 640 helps less than doubling from 80 to 160
        // in absolute terms.
        let d1 = episodes_single_learner(80, 320) - episodes_single_learner(160, 320);
        let d2 = episodes_single_learner(320, 320) - episodes_single_learner(640, 320);
        assert!(d1 > d2);
    }
}
