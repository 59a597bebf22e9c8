//! Fig. 9a — PPO time per episode vs. the Ray-like baseline
//! (320 environments split across actors, local cluster, 1–24 GPUs).
//!
//! Two parts: (i) the cost-model comparison on the paper's cluster
//! shapes (absolute seconds, paper: 2.5× at 1 GPU, 3× at 24 — 3.85 s vs
//! 11.38 s), and (ii) a *real* small-scale run of both systems on this
//! machine, comparing the structural counters (sequential env steps and
//! unbatched inference calls vs. MSRL's fused calls) and wall-clock.

use std::time::Instant;

use msrl_baselines::raylike::run_raylike_ppo;
use msrl_bench::{banner, series};
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, DistPpoConfig};
use msrl_sim::scenarios::{local, msrl_ppo_episode, raylike_ppo_episode, PpoWorkload};
use msrl_telemetry::counter_total;

fn main() {
    msrl_bench::backend_or_exit();
    banner(
        "Fig 9a",
        "PPO episode time: MSRL vs Ray-like (320 envs, local cluster)",
        "MSRL 2.5× faster at 1 GPU, 3× at 24 (3.85 s vs 11.38 s)",
    );
    let w = PpoWorkload::halfcheetah(320);
    let c = local();
    let mut rows = Vec::new();
    for p in [1usize, 2, 4, 8, 16, 24] {
        let ray = raylike_ppo_episode(&w, &c, p);
        let msrl = msrl_ppo_episode(&w, &c, p);
        rows.push((p as f64, vec![msrl, ray, ray / msrl]));
    }
    series("GPUs", &["MSRL [s]", "Ray-like [s]", "speedup"], &rows);

    println!("\n--- real small-scale run (CartPole, 2 actors × 4 envs, 10 iters) ---");
    let t0 = Instant::now();
    let ray = run_raylike_ppo(|a, i| CartPole::new((a * 5 + i) as u64), 2, 4, 64, 10, &[32], 0)
        .expect("raylike run");
    let ray_wall = t0.elapsed().as_secs_f64();
    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 4,
        steps_per_iter: 64,
        iterations: 10,
        hidden: vec![32],
        seed: 0,
        ..DistPpoConfig::default()
    };
    let (t0, steps) = (Instant::now(), counter_total("env.steps"));
    let _msrl = run_dp_a(|a, i| CartPole::new((a * 5 + i) as u64), &dist).expect("msrl run");
    let msrl_wall = t0.elapsed().as_secs_f64();
    // Each actor runs one batched forward per step of its environments.
    let fused = (counter_total("env.steps") - steps) / dist.envs_per_actor as u64;
    println!(
        "Ray-like: wall {ray_wall:.2}s, env_steps {}, unbatched inference calls {}",
        ray.env_steps, ray.infer_calls
    );
    println!(
        "MSRL DP-A: wall {msrl_wall:.2}s, fused inference calls {fused} ({}× fewer launches)",
        ray.infer_calls / fused.max(1)
    );
}
