//! Fig. 12 — statistical efficiency: reward vs. episodes for different
//! environment counts under DP-A.
//!
//! Unlike the timing figures, this one runs **real end-to-end training**
//! through the DP-A driver (threaded actor fragments, a real learner,
//! real collectives): more environments per episode produce more
//! trajectories per update and reach higher reward in fewer episodes.

use msrl_bench::{banner, series};
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, DistPpoConfig};

fn main() {
    msrl_bench::backend_or_exit();
    banner(
        "Fig 12",
        "reward vs episodes for environment counts (real DP-A training)",
        "more environments ⇒ higher reward at the same episode count",
    );
    let iterations = 60;
    let env_counts = [2usize, 8, 32];
    let seeds = [42u64, 43, 44];
    let mut curves: Vec<Vec<f32>> = Vec::new();
    for &envs in &env_counts {
        // Seed-averaged curves: statistical efficiency is a property of
        // the expectation, not one run.
        let mut mean_curve = vec![0.0f32; iterations];
        for &seed in &seeds {
            let dist = DistPpoConfig {
                actors: 2,
                envs_per_actor: envs / 2,
                steps_per_iter: 64,
                iterations,
                hidden: vec![32],
                seed,
                ..DistPpoConfig::default()
            };
            let report =
                run_dp_a(move |a, i| CartPole::new(seed * 977 + (1000 + a * 50 + i) as u64), &dist)
                    .expect("DP-A training run");
            for (acc, r) in mean_curve.iter_mut().zip(&report.iteration_rewards) {
                *acc += r / seeds.len() as f32;
            }
        }
        curves.push(mean_curve);
    }
    let labels: Vec<String> = env_counts.iter().map(|e| format!("{e} envs")).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let rows: Vec<(f64, Vec<f64>)> = (0..iterations)
        .step_by(4)
        .map(|i| ((i + 1) as f64, curves.iter().map(|c| c[i] as f64).collect()))
        .collect();
    series("iteration", &label_refs, &rows);

    // Final-stretch comparison: does more data help?
    let finals: Vec<f64> = curves
        .iter()
        .map(|c| c.iter().rev().take(10).map(|&r| r as f64).sum::<f64>() / 10.0)
        .collect();
    println!("\nmean reward over last 10 iterations:");
    for (e, f) in env_counts.iter().zip(&finals) {
        println!("  {e:>3} envs: {f:.1}");
    }
    let improves = finals.last().unwrap() > finals.first().unwrap();
    println!("more envs reach higher reward: {improves} (paper: true)");
}
