//! Multi-agent RL: MAPPO on the MPE scenarios — cooperative coverage
//! (`simple_spread`) and the predator–prey game (`simple_tag`) used in
//! the paper's GPU-only experiments.
//!
//! ```sh
//! cargo run --release --example marl_predator_prey
//! ```
//!
//! Demonstrates: parameter-shared MAPPO on real MPE physics, and the
//! DP-E deployment (dedicated environment worker + one fragment per
//! agent) from §7.4.

use msrl_algos::mappo::Mappo;
use msrl_algos::ppo::PpoConfig;
use msrl_env::mpe::{SimpleSpread, SimpleTag};
use msrl_env::MultiAgentEnvironment;
use msrl_runtime::exec::{run_dp_e, DpEConfig};

fn main() {
    msrl_bench::backend_or_exit();
    // 1. Cooperative coverage with in-process MAPPO.
    println!("— MAPPO on simple_spread (3 agents cover 3 landmarks) —");
    let mut env = SimpleSpread::new(3, 1).with_horizon(20);
    let cfg = PpoConfig { lr: 7e-4, epochs: 4, entropy_coef: 0.005, ..PpoConfig::default() };
    let mut mappo = Mappo::new(&env, &[32, 32], cfg.clone(), 2);
    let mut first = 0.0;
    let mut last = 0.0;
    for i in 0..30 {
        let r = mappo.train_iteration(&mut env, 8).expect("training iteration");
        if i < 5 {
            first += r / 5.0;
        }
        if i >= 25 {
            last += r / 5.0;
        }
    }
    println!("mean per-agent step reward: {first:.3} → {last:.3} (higher is better)");
    println!("final mean coverage distance: {:.3}", env.mean_coverage_distance());

    // 2. Predator–prey: roles with opposing rewards.
    println!("\n— simple_tag roster (3 chasers vs 1 runner) —");
    let mut tag = SimpleTag::new(3, 1, 5);
    let obs = tag.reset();
    println!(
        "agents: {} ({} chasers + {} runners), obs width {}",
        tag.n_agents(),
        tag.n_chasers(),
        tag.n_runners(),
        obs[0].len()
    );

    // 3. The distributed deployment of §7.4: env worker + agent fragments.
    println!("\n— DP-E: dedicated env worker + one fragment per agent —");
    let dpe =
        DpEConfig { episodes: 15, hidden: vec![32], ppo: cfg, seed: 3, ..DpEConfig::default() };
    let report = run_dp_e(|| SimpleSpread::new(3, 9).with_horizon(20), &dpe).expect("DP-E runs");
    println!(
        "distributed MAPPO: mean step reward {:.3} → {:.3} over {} episodes",
        report.iteration_rewards[..3].iter().sum::<f32>() / 3.0,
        report.iteration_rewards[12..].iter().sum::<f32>() / 3.0,
        report.iteration_rewards.len()
    );
}
