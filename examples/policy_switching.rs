//! The paper's headline capability: one algorithm, many distribution
//! policies.
//!
//! ```sh
//! cargo run --release --example policy_switching
//! ```
//!
//! Trains the *identical* PPO implementation under four distribution
//! policies — DP-A (single learner, coarse), DP-B (central inference,
//! per-step), DP-C (data-parallel learners) and DP-F (parameter server)
//! — by changing only the driver, exactly as MSRL switches policies by
//! changing only the deployment configuration.

use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_b, run_dp_c, run_dp_f, DistPpoConfig, TrainingReport};

fn main() {
    msrl_bench::runtime_config_or_exit();
    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 4,
        steps_per_iter: 64,
        iterations: 20,
        hidden: vec![32, 32],
        seed: 13,
        ..DistPpoConfig::default()
    };
    let make = |a: usize, i: usize| CartPole::new((a * 17 + i) as u64);

    let runs: Vec<(&str, &str, TrainingReport)> = vec![
        (
            "DP-A",
            "replicated actors, 1 learner, per-episode sync (Acme-style)",
            run_dp_a(make, &dist).expect("DP-A"),
        ),
        (
            "DP-B",
            "actors+envs on CPU, central inference, per-step sync (SEED-RL-style)",
            run_dp_b(make, &dist).expect("DP-B"),
        ),
        (
            "DP-C",
            "fused actor+learners, gradient AllReduce (data-parallel)",
            run_dp_c(make, &dist).expect("DP-C"),
        ),
        (
            "DP-F",
            "workers push gradients to a parameter server (OSDI'14-style)",
            run_dp_f(make, &dist).expect("DP-F"),
        ),
    ];

    println!("same PPO implementation, four execution strategies:\n");
    println!("{:<6} {:>10} {:>10}   strategy", "policy", "start", "end");
    for (name, desc, report) in &runs {
        println!(
            "{name:<6} {:>10.1} {:>10.1}   {desc}",
            report.early_reward(3),
            report.recent_reward(3)
        );
    }
    let all_improve = runs.iter().all(|(_, _, r)| r.recent_reward(3) > r.early_reward(3));
    println!("\nall four policies improved the same algorithm: {all_improve}");
}
