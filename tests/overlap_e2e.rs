//! End-to-end contract for communication/computation overlap.
//!
//! Everything runs in one test body because the telemetry enable flag,
//! the event sink and the counter registry are process-global and
//! `cargo test` runs sibling tests on parallel threads.
//!
//! The overlap contract is stated in exact counts from the one lane
//! record, not in timings: which weight receives an actor had made
//! before each rollout, and which collectives a DP-C replica ran.

use std::collections::BTreeSet;
use std::time::Duration;

use msrl_algos::ppo::PpoConfig;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig};
use msrl_telemetry::Span;

/// Per `fragment.actor` lane: how many `comm.recv` spans had opened
/// inside a `phase.weight_sync` when each `phase.rollout` opened, and
/// how many `comm.recv` spans the lane opened in all.
fn weight_receives(spans: &[Span]) -> Vec<(Vec<usize>, usize)> {
    let lanes: BTreeSet<u64> =
        spans.iter().filter(|s| s.name == "fragment.actor").map(|s| s.tid).collect();
    let lane_receives = |tid: u64| {
        let on = |name: &'static str| spans.iter().filter(move |s| s.tid == tid && s.name == name);
        let syncs: Vec<&Span> = on("phase.weight_sync").collect();
        let in_sync =
            |t: u64| syncs.iter().any(|w| w.start_ns <= t && t < w.start_ns + w.duration_ns());
        let synced: Vec<u64> =
            on("comm.recv").map(|s| s.start_ns).filter(|&t| in_sync(t)).collect();
        let before = |r: &Span| synced.iter().filter(|&&t| t < r.start_ns).count();
        let mut rollouts: Vec<&Span> = on("phase.rollout").collect();
        rollouts.sort_by_key(|r| r.start_ns);
        (rollouts.into_iter().map(before).collect(), on("comm.recv").count())
    };
    lanes.into_iter().map(lane_receives).collect()
}

/// How many spans named `name` the drained record holds.
fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

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

    // 2. DP-C's collectives, counted per replica and iteration: the
    //    returns ride the last epoch's reduction, so one fused all-reduce
    //    per iteration, a plain one for every other epoch and no
    //    all-gather. Fails if the returns travel on an all-gather of
    //    their own (a plain all-reduce per epoch and one all-gather per
    //    iteration). That the fused collective averages exactly as a
    //    plain one does is `comm_props::fused_collective_matches_separate_calls`.
    let dp_c = DistPpoConfig {
        actors: 3,
        envs_per_actor: 2,
        steps_per_iter: 32,
        iterations: 5,
        hidden: vec![16],
        seed: 9,
        ppo: PpoConfig { epochs: 3, ..PpoConfig::default() },
        ..DistPpoConfig::default()
    };
    let (p, iters, epochs) = (dp_c.actors, dp_c.iterations, dp_c.ppo.epochs);
    msrl_telemetry::set_enabled(true);
    msrl_telemetry::drain();
    run_dp_c(|a, i| CartPole::new((a * 31 + i) as u64), &dp_c).expect("dp_c runs");
    let spans = msrl_telemetry::drain();
    let counts = ["comm.all_reduce_fused", "comm.all_reduce", "comm.all_gather"]
        .map(|name| count(&spans, name));
    let expect = [p * iters, p * iters * (epochs - 1), 0];
    assert_eq!(counts, expect, "DP-C: fused, all_reduce, all_gather");

    // 3. DP-A under a 5 ms wire latency. At staleness 1 an actor rolls
    //    out twice on the initial weights and then one version behind:
    //    before its six rollouts it has received 0, 0, 1, 2, 3, 4 weight
    //    replies, and five of its six rollouts are stale, each wrapped in
    //    a comm.overlap span. At staleness 0 every rollout after the
    //    first waits for the reply to the previous push: 0, 1, … 5, none
    //    stale. Either way an actor receives one reply per iteration, no
    //    more. Fails if the worker ignores `staleness` (both runs count
    //    alike).
    let latent = DistPpoConfig {
        actors: 2,
        envs_per_actor: 1,
        steps_per_iter: 32,
        iterations: 6,
        hidden: vec![16],
        seed: 4,
        link_latency: Duration::from_millis(5),
        ..DistPpoConfig::default()
    };
    for staleness in [1, 0] {
        msrl_telemetry::drain();
        msrl_telemetry::reset_counters();
        let dist = DistPpoConfig { staleness, ..latent.clone() };
        run_dp_a(|a, i| CartPole::new((a * 3 + i) as u64), &dist).expect("dp_a runs");
        let spans = msrl_telemetry::drain();
        let (synced, stale): (Vec<usize>, usize) =
            if staleness == 1 { (vec![0, 0, 1, 2, 3, 4], 5) } else { ((0..6).collect(), 0) };
        let lanes = weight_receives(&spans);
        assert_eq!(lanes.len(), latent.actors, "one lane per actor");
        for (before_each_rollout, receives) in lanes {
            assert_eq!(
                before_each_rollout, synced,
                "DP-A staleness {staleness}: replies per rollout"
            );
            assert_eq!(receives, latent.iterations, "DP-A staleness {staleness}: one reply each");
        }
        let stale_iters = msrl_telemetry::counter_total("comm.stale_iters");
        assert_eq!(stale_iters, (latent.actors * stale) as u64, "DP-A staleness {staleness}");
        let overlapped = count(&spans, "comm.overlap");
        assert_eq!(overlapped, latent.actors * stale, "DP-A staleness {staleness}");
    }
    msrl_telemetry::set_enabled(false);
}
