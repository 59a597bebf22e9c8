//! Quickstart: specify an RL algorithm once, then deploy and train it
//! under a distribution policy — without touching the algorithm.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors the paper's Fig. 6: algorithm + deployment configs →
//! coordinator (trace → Algorithm 2 → placement) → worker threads
//! executing the placed fragments for real.

use msrl_core::config::{AlgorithmConfig, DeploymentConfig, PolicyName};
use msrl_env::cartpole::CartPole;
use msrl_env::Environment;
use msrl_runtime::exec::{run_dp_a, DistPpoConfig};
use msrl_runtime::Coordinator;

fn main() {
    // A rejected `MSRL_*` value is an error up front, not a panic mid-run.
    msrl_bench::backend_or_exit();
    // 1. The algorithm configuration: logical components only.
    let algo = AlgorithmConfig::ppo(/* actors */ 3, /* envs each */ 4);

    // 2. The deployment configuration: resources + a distribution policy.
    let deploy = DeploymentConfig::workers(2, 2, PolicyName::SingleLearnerCoarse);

    // 3. The coordinator traces the training loop, runs Algorithm 2 and
    //    applies the policy.
    let probe = CartPole::new(0);
    let deployment = Coordinator::deploy_ppo(
        &algo,
        &deploy,
        probe.obs_dim(),
        probe.action_spec().policy_width(),
        64,
    )
    .expect("PPO deploys under DP-A");
    println!("— fragmented dataflow graph + placement —");
    println!("{}", deployment.describe());

    // 4. Execute: one thread per placed fragment, real collectives.
    println!("— training CartPole under DP-A —");
    let dist = DistPpoConfig {
        actors: 3,
        envs_per_actor: 4,
        steps_per_iter: 64,
        iterations: 30,
        hidden: vec![32, 32],
        seed: 7,
        ..DistPpoConfig::default()
    };
    let report =
        run_dp_a(|actor, i| CartPole::new((actor * 10 + i) as u64), &dist).expect("training runs");
    for (i, r) in report.iteration_rewards.iter().enumerate() {
        if i % 5 == 4 {
            println!("iteration {:>3}: mean episode reward {r:.1}", i + 1);
        }
    }
    println!(
        "\nreward improved {:.1} → {:.1} (CartPole solves near 500)",
        report.early_reward(5),
        report.recent_reward(5)
    );

    // With MSRL_TRACE=1 MSRL_TRACE_FILE=trace.json set, dump the Chrome
    // trace of the run (open it in Perfetto or chrome://tracing).
    if let Some(path) = msrl_telemetry::write_trace_to_env_file().expect("trace file writable") {
        println!("wrote Chrome trace to {path}");
    }
}
