//! End-to-end contract for communication/computation overlap.
//!
//! Everything runs in one test body because the telemetry enable flag,
//! the event sink and the counter registry are process-global and
//! `cargo test` runs sibling tests on parallel threads.

use std::time::Duration;

use msrl_algos::ppo::PpoConfig;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig};

#[test]
fn overlap_contract_end_to_end() {
    msrl_telemetry::set_enabled(false);

    // 1. DP-A with double-buffered weights and staleness bound 1 still
    //    learns. The driver itself asserts the bound on every iteration
    //    (an actor never rolls out on weights more than one iteration
    //    behind), so finishing at all certifies the invariant; the
    //    reward check certifies bounded staleness doesn't break
    //    training.
    let dp_a = DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 64,
        iterations: 25,
        hidden: vec![32],
        seed: 1,
        overlap: true,
        staleness: 1,
        ppo: PpoConfig { lr: 2e-3, ..PpoConfig::default() },
        ..DistPpoConfig::default()
    };
    let report = run_dp_a(|a, i| CartPole::new((a * 7 + i) as u64), &dp_a).expect("dp_a runs");
    assert_eq!(report.iteration_rewards.len(), 25);
    assert!(
        report.recent_reward(5) > report.early_reward(5),
        "DP-A must improve under staleness-1 overlap: {} → {}",
        report.early_reward(5),
        report.recent_reward(5)
    );

    // 2. DP-C's fused collective is bit-identical to the unfused path:
    //    overlap on/off must end with exactly the same policy.
    let dp_c = DistPpoConfig {
        actors: 3,
        envs_per_actor: 2,
        steps_per_iter: 32,
        iterations: 5,
        hidden: vec![16],
        seed: 9,
        staleness: 1,
        ..DistPpoConfig::default()
    };
    let run_c = |overlap: bool| {
        let dist = DistPpoConfig { overlap, ..dp_c.clone() };
        run_dp_c(|a, i| CartPole::new((a * 31 + i) as u64), &dist).expect("dp_c runs")
    };
    let fused = run_c(true);
    let unfused = run_c(false);
    assert_eq!(
        fused.final_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        unfused.final_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "fused and unfused DP-C must produce bit-identical weights"
    );
    assert_eq!(
        fused.iteration_rewards, unfused.iteration_rewards,
        "fused and unfused DP-C must report identical reward curves"
    );

    // 3. Trace shape: with overlap on, DP-C pays one collective per
    //    final epoch — the returns ride the fused all-reduce, so no
    //    standalone all_gather span may appear.
    msrl_telemetry::set_enabled(true);
    msrl_telemetry::clear_spans();
    msrl_telemetry::reset_counters();
    run_c(true);
    let spans = msrl_telemetry::drain();
    assert!(
        !spans.iter().any(|s| s.name == "comm.all_gather"),
        "fused DP-C must not open a standalone comm.all_gather span"
    );
    assert!(
        spans.iter().any(|s| s.name == "comm.all_reduce_fused"),
        "fused DP-C must trace its fused collective"
    );

    // 4. Under wire latency, DP-A actors actually roll out on stale
    //    weights while the next broadcast is in flight: the overlap span
    //    and the staleness counter must both fire.
    msrl_telemetry::clear_spans();
    msrl_telemetry::reset_counters();
    let latent = DistPpoConfig {
        actors: 2,
        envs_per_actor: 1,
        steps_per_iter: 32,
        iterations: 6,
        hidden: vec![16],
        seed: 4,
        overlap: true,
        staleness: 1,
        link_latency: Duration::from_millis(5),
        ..DistPpoConfig::default()
    };
    run_dp_a(|a, i| CartPole::new((a * 3 + i) as u64), &latent).expect("dp_a runs");
    let spans = msrl_telemetry::drain();
    let stale = msrl_telemetry::counter_total("comm.stale_iters");
    assert!(stale > 0, "latency must force stale rollouts, got {stale}");
    assert!(
        spans.iter().any(|s| s.name == "comm.overlap"),
        "stale rollouts must be wrapped in a comm.overlap span"
    );
    msrl_telemetry::set_enabled(false);
}
