//! Tab. 2 — the six default distribution policies, demonstrated live.
//!
//! For each policy: deploy PPO's FDG under it (coordinator → Algorithm 2
//! → placement), print the resulting fragment table, and — for the five
//! policies with real drivers — run a short real training session to
//! show the algorithm implementation is untouched across policies.

use msrl_bench::banner;
use msrl_core::config::{AlgorithmConfig, DeploymentConfig, PolicyName};
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_b, run_dp_c, run_dp_f, DistPpoConfig};
use msrl_runtime::Coordinator;

fn main() {
    msrl_bench::backend_or_exit();
    banner(
        "Tab 2",
        "default distribution policies",
        "six policies subsume Acme/SEED-RL/Sebulba/WarpDrive/parameter-server strategies",
    );
    let algo = AlgorithmConfig::ppo(4, 8);
    for policy in [
        PolicyName::SingleLearnerCoarse,
        PolicyName::SingleLearnerFine,
        PolicyName::MultipleLearners,
        PolicyName::GpuOnly,
        PolicyName::Environments,
        PolicyName::Central,
    ] {
        let deploy = DeploymentConfig::workers(4, 2, policy);
        let d = Coordinator::deploy_ppo(&algo, &deploy, 17, 6, 64).expect("deploys");
        println!("\n{}", d.describe());
    }

    println!("--- real training under four policies (same algorithm code) ---");
    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 64,
        iterations: 25,
        hidden: vec![32],
        seed: 11,
        ..DistPpoConfig::default()
    };
    let make = |a: usize, i: usize| CartPole::new((a * 3 + i) as u64);
    for (name, report) in [
        ("DP-A", run_dp_a(make, &dist).expect("dp-a")),
        ("DP-B", run_dp_b(make, &dist).expect("dp-b")),
        ("DP-C", run_dp_c(make, &dist).expect("dp-c")),
        ("DP-F", run_dp_f(make, &dist).expect("dp-f")),
    ] {
        println!(
            "{name}: reward {:.1} → {:.1} over {} iterations",
            report.early_reward(3),
            report.recent_reward(3),
            report.iteration_rewards.len()
        );
    }
}
