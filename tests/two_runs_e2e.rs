//! Two trainings in one process, on two threads, writing one metrics
//! stream: every event's time budget holds exactly its own run's
//! fragment rows, and the stream groups back into the two runs, eight
//! iterations each, whether the runs are of two policies (DP-A ‖ DP-C)
//! or of one (DP-A ‖ DP-A, whose rows carry the same names).
//!
//! Sets and counts only, no timings. One test body: the metrics sink is
//! process-global.

use std::sync::Barrier;

use msrl_core::Result;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig};
use msrl_runtime::TrainingReport;
use msrl_telemetry::{split_runs, RunEvent};

/// The `role/id` rows of each policy's fragments, in row order.
fn rows_of(policy: &str) -> &'static [&'static str] {
    match policy {
        "dp_a" => &["actor/0", "actor/1", "learner/2"],
        "dp_c" => &["actor_learner/0", "actor_learner/1"],
        other => panic!("no rows for {other}"),
    }
}

fn train(policy: &str, dist: &DistPpoConfig) -> Result<TrainingReport> {
    let env = |a: usize, i: usize| CartPole::new((a * 5 + i) as u64);
    match policy {
        "dp_a" => run_dp_a(env, dist),
        "dp_c" => run_dp_c(env, dist),
        other => panic!("no driver for {other}"),
    }
}

/// Runs `pair` at once on two threads into a fresh stream at `path` and
/// returns the stream's events.
fn run_together(pair: [&str; 2], dist: &DistPpoConfig, path: &std::path::Path) -> Vec<RunEvent> {
    let _ = std::fs::remove_file(path);
    msrl_telemetry::set_metrics_file(path.to_str());
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let handles = pair.map(|policy| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                train(policy, dist)
            })
        });
        for (policy, h) in pair.iter().zip(handles) {
            h.join().expect("run thread").unwrap_or_else(|e| panic!("{policy} runs: {e}"));
        }
    });
    msrl_telemetry::set_metrics_file(None);
    let stream = std::fs::read_to_string(path).expect("metrics file written");
    let _ = std::fs::remove_file(path);
    let lines = msrl_telemetry::validate_metrics(&stream).expect("every fragment sums to wall");
    assert_eq!(lines, 2 * dist.iterations, "{pair:?}: one event per iteration of each run");
    stream.lines().map(|l| RunEvent::parse(l).expect("metrics line parses")).collect()
}

#[test]
fn two_runs_in_one_process_price_only_their_own_fragments() {
    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 64,
        iterations: 8,
        hidden: vec![16],
        seed: 5,
        ..DistPpoConfig::default()
    };
    let path = std::env::temp_dir().join(format!("msrl-two-runs-{}.jsonl", std::process::id()));
    for pair in [["dp_a", "dp_c"], ["dp_a", "dp_a"]] {
        let events = run_together(pair, &dist, &path);
        for ev in &events {
            let attr = ev.attr.as_ref().expect("every event carries a time budget");
            let rows: Vec<String> =
                attr.fragments.iter().map(|f| format!("{}/{}", f.role, f.id)).collect();
            assert_eq!(
                rows,
                rows_of(&ev.policy),
                "{pair:?}: {} iteration {} prices exactly its own fragments",
                ev.policy,
                ev.iteration
            );
            let (wall, parts) = (attr.wall_ns, attr.component_sum_ns());
            assert!(
                wall.abs_diff(parts) as f64 <= wall as f64 * 0.02,
                "{pair:?}: the means account for the wall ({parts} of {wall} ns)"
            );
        }
        let runs = split_runs(events);
        let shape: Vec<(String, Vec<u64>)> = runs
            .iter()
            .map(|run| (run[0].policy.clone(), run.iter().map(|e| e.iteration).collect()))
            .collect();
        let whole: Vec<u64> = (0..dist.iterations as u64).collect();
        let mut policies: Vec<&str> = shape.iter().map(|(p, _)| p.as_str()).collect();
        policies.sort_unstable();
        assert_eq!(policies, pair, "{pair:?}: two runs, one per training: {shape:?}");
        for (policy, iterations) in &shape {
            assert_eq!(iterations, &whole, "{pair:?}: {policy} splits into 8 whole iterations");
        }
    }
}
