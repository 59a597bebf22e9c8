//! Continuous-control locomotion: PPO with a diagonal-Gaussian policy on
//! the HalfCheetah-style planar locomotion simulator — the robotics
//! workload the paper's introduction motivates.
//!
//! ```sh
//! cargo run --release --example locomotion_halfcheetah
//! ```
//!
//! Demonstrates: continuous action spaces end-to-end (Gaussian log-probs
//! through the learner's autograd), and the same run repeated under two
//! distribution policies (DP-A and DP-C) with no algorithm change.

use msrl_env::halfcheetah::HalfCheetah;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig};

fn main() {
    msrl_bench::backend_or_exit();
    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 4,
        steps_per_iter: 128,
        iterations: 20,
        hidden: vec![64, 64],
        seed: 21,
        ..DistPpoConfig::default()
    };
    let make = |a: usize, i: usize| HalfCheetah::new((a * 100 + i) as u64).with_horizon(128);

    println!("— PPO on HalfCheetah (continuous torques), DP-A —");
    let a = run_dp_a(make, &dist).expect("DP-A runs");
    println!(
        "DP-A: mean step reward {:.3} → {:.3}",
        a.early_reward(5) / 128.0,
        a.recent_reward(5) / 128.0
    );

    println!("\n— identical algorithm, switched to DP-C (data-parallel learners) —");
    let c = run_dp_c(make, &dist).expect("DP-C runs");
    println!(
        "DP-C: mean step reward {:.3} → {:.3}",
        c.early_reward(5) / 128.0,
        c.recent_reward(5) / 128.0
    );

    println!(
        "\nboth policies trained the same continuous-control algorithm; the\n\
         deployment configuration was the only thing that changed."
    );
}
