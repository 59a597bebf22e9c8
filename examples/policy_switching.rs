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
//! — through one entry point, `exec::run_ppo`, by changing only the
//! `PolicyName` value it is given: exactly as MSRL switches policies by
//! changing only the deployment configuration.

use msrl_core::config::PolicyName;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_ppo, DistPpoConfig};

fn main() {
    msrl_bench::backend_or_exit();
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

    let policies = [
        (
            PolicyName::SingleLearnerCoarse,
            "replicated actors, 1 learner, per-episode sync (Acme-style)",
        ),
        (
            PolicyName::SingleLearnerFine,
            "actors+envs on CPU, central inference, per-step sync (SEED-RL-style)",
        ),
        (PolicyName::MultipleLearners, "fused actor+learners, gradient AllReduce (data-parallel)"),
        (PolicyName::Central, "workers push gradients to a parameter server (OSDI'14-style)"),
    ];

    println!("same PPO implementation, four execution strategies:\n");
    println!("{:<6} {:>10} {:>10}   strategy", "policy", "start", "end");
    let mut all_improve = true;
    for (policy, desc) in &policies {
        let code = policy.code();
        let report = run_ppo(policy, make, &dist).unwrap_or_else(|e| panic!("{code}: {e}"));
        let (start, end) = (report.early_reward(3), report.recent_reward(3));
        println!("{code:<6} {start:>10.1} {end:>10.1}   {desc}");
        all_improve &= end > start;
    }
    println!("\nall four policies improved the same algorithm: {all_improve}");
}
