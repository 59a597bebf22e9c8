//! End-to-end telemetry contract: tracing must be an observer, never a
//! participant.
//!
//! Everything runs in one test body because the trace switch, the
//! traced spans `drain` takes, the counter registry and the metrics
//! sink are process-global and `cargo test` runs sibling
//! tests on parallel threads. (Attribution is not: each run prices only
//! its own fragments, `tests/two_runs_e2e.rs`.)

use msrl_core::interp::Interpreter;
use msrl_core::trace::{trace_mlp, TraceCtx};
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig};
use msrl_telemetry::RunEvent;
use msrl_tensor::Tensor;

/// Parses every line of a metrics stream.
fn events(stream: &str) -> Vec<RunEvent> {
    stream.lines().map(|l| RunEvent::parse(l).expect("metrics line parses")).collect()
}

/// Asserts every event of an untraced metrics stream carries an
/// attribution whose components account for the iteration wall time
/// within 2% (they are exact modulo the per-component floor division),
/// with exactly one row per fragment of the policy: `rows` lists each
/// `role/id`, in the (role, id) order the rows are sorted in.
fn check_attribution_accounts_for_wall(stream: &str, policy: &str, rows: &[&str]) {
    let mut checked = 0usize;
    for ev in events(stream) {
        assert_eq!(ev.policy, policy);
        let attr = ev.attr.unwrap_or_else(|| panic!("{policy}: event lacks attr"));
        let (wall, parts) = (attr.wall_ns, attr.component_sum_ns());
        assert!(
            wall.abs_diff(parts) as f64 <= wall as f64 * 0.02,
            "{policy}: attribution components ({parts} ns) must account for the \
             iteration wall time ({wall} ns) within 2%: {attr:?}"
        );
        let got: Vec<String> =
            attr.fragments.iter().map(|f| format!("{}/{}", f.role, f.id)).collect();
        assert_eq!(got, rows, "{policy}: one row per fragment, iteration {}", ev.iteration);
        checked += 1;
    }
    assert!(checked > 0, "{policy}: stream holds attribution events");
}

/// Evaluates a small traced MLP and returns the raw output bits.
fn mlp_output_bits() -> Vec<u32> {
    let ctx = TraceCtx::new();
    let x = ctx.input("x", &[8, 17]);
    trace_mlp(&ctx, "pi", &x, &[17, 16, 6]);
    let g = ctx.finish();
    let mut interp = Interpreter::new();
    interp.bind_param("pi.w0", Tensor::full(&[17, 16], 0.01));
    interp.bind_param("pi.b0", Tensor::zeros(&[16]));
    interp.bind_param("pi.w1", Tensor::full(&[16, 6], 0.01));
    interp.bind_param("pi.b1", Tensor::zeros(&[6]));
    interp.bind_input("x", Tensor::full(&[8, 17], 0.1));
    let outs = interp.eval(&g).expect("graph evaluates");
    outs.iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
}

#[test]
fn telemetry_observes_without_perturbing() {
    // 1. Disabled tracing: the instrumented interpreter records no
    //    spans and produces bit-identical results to an enabled run.
    msrl_telemetry::set_enabled(false);
    msrl_telemetry::drain();
    let quiet = mlp_output_bits();
    assert!(
        msrl_telemetry::drain().is_empty(),
        "disabled tracing must record nothing from instrumented code"
    );

    msrl_telemetry::set_enabled(true);
    msrl_telemetry::drain();
    let ops_before = msrl_telemetry::counter_total("interp.ops");
    let traced = mlp_output_bits();
    assert_eq!(quiet, traced, "tracing must not change computed values");
    assert!(
        msrl_telemetry::counter_total("interp.ops") > ops_before,
        "the interpreter counts the ops it evaluates"
    );

    // 2. A real distributed run under tracing yields a valid Chrome
    //    trace with fragment lanes, phase spans and comm volume.
    msrl_telemetry::drain();
    msrl_telemetry::reset_counters();
    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 32,
        iterations: 3,
        hidden: vec![16],
        seed: 3,
        ..DistPpoConfig::default()
    };
    run_dp_a(|a, i| CartPole::new((a * 3 + i) as u64), &dist).expect("dp_a runs");
    let spans = msrl_telemetry::drain();
    let trace = msrl_telemetry::chrome_trace(&spans);
    let check = msrl_telemetry::validate_chrome_trace(&trace).expect("trace validates");
    assert!(
        check.fragment_spans > dist.actors,
        "one fragment lane per actor plus the learner, got {}",
        check.fragment_spans
    );

    for phase in ["phase.rollout", "phase.learn", "phase.weight_sync"] {
        let closed = spans.iter().filter(|s| s.name == phase && s.end_ns >= Some(s.start_ns));
        assert!(closed.count() > 0, "{phase} must appear, closed");
    }
    assert!(msrl_telemetry::counter_total("comm.bytes_sent") > 0, "comm volume is counted");
    assert!(msrl_telemetry::counter_total("env.steps") > 0, "env steps are counted");
    msrl_telemetry::set_enabled(false);

    // 3. Always-on observability with tracing OFF: a DP-A run streams
    //    one valid RunEvent per iteration to the metrics file, and its
    //    observer prices each iteration exactly once, counted in the
    //    registry — no MSRL_TRACE required.
    msrl_telemetry::drain();
    msrl_telemetry::reset_counters();
    let priced = || {
        let total = msrl_telemetry::counter_total;
        (total("attr.finish_iteration.calls"), total("attr.finish_iteration.ns"))
    };
    let (calls, ns) = priced();
    let metrics_path =
        std::env::temp_dir().join(format!("msrl-telemetry-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);
    msrl_telemetry::set_metrics_file(metrics_path.to_str());
    run_dp_a(|a, i| CartPole::new((a * 7 + i) as u64), &dist).expect("dp_a runs untraced");
    let (calls_a, ns_a) = priced();
    assert_eq!(calls_a - calls, dist.iterations as u64, "one attribution pass per DP-A iteration");
    assert!(ns_a > ns, "the DP-A passes' time is counted");
    assert!(
        msrl_telemetry::drain().is_empty(),
        "the metrics stream must not depend on span recording"
    );
    let stream = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let lines = msrl_telemetry::validate_metrics(&stream).expect("every line is a valid RunEvent");
    assert_eq!(lines, dist.iterations, "the file holds exactly this run's events");
    let runs = msrl_telemetry::split_runs(events(&stream));
    let iterations: Vec<Vec<u64>> =
        runs.iter().map(|run| run.iter().map(|e| e.iteration).collect()).collect();
    let whole: Vec<u64> = (0..dist.iterations as u64).collect();
    assert_eq!(iterations, [whole], "one run, one RunEvent per training iteration");

    // 3b. Untraced, every event still carries the per-fragment time
    //     budget, and the breakdown accounts for the iteration wall
    //     time within 2% — no MSRL_TRACE, no extra flags. (With the
    //     health watchdog on, the default, it also carries a health
    //     block; the schema is the same either way.)
    check_attribution_accounts_for_wall(&stream, "dp_a", &["actor/0", "actor/1", "learner/2"]);
    msrl_telemetry::set_metrics_file(None);
    let _ = std::fs::remove_file(&metrics_path);

    // 3c. Same contract under a fused data-parallel policy: DP-C has no
    //     dedicated learner, its comm (per-epoch AllReduce) nests inside
    //     phase.learn, and the attribution must still account for wall
    //     time exactly per fragment (validate_metrics) and within 2% in
    //     the summary components, with the returns riding the last
    //     all-reduce.
    let metrics_path_c =
        std::env::temp_dir().join(format!("msrl-telemetry-e2e-c-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path_c);
    msrl_telemetry::set_metrics_file(metrics_path_c.to_str());
    run_dp_c(|a, i| CartPole::new((a * 11 + i) as u64), &dist).expect("dp_c runs untraced");
    msrl_telemetry::set_metrics_file(None);
    let stream_c = std::fs::read_to_string(&metrics_path_c).expect("dp_c metrics written");
    let lines_c =
        msrl_telemetry::validate_metrics(&stream_c).expect("dp_c events validate (exact sums)");
    assert_eq!(lines_c, dist.iterations, "one attributed event per DP-C iteration");
    check_attribution_accounts_for_wall(&stream_c, "dp_c", &["actor_learner/0", "actor_learner/1"]);
    let _ = std::fs::remove_file(&metrics_path_c);
    let (calls_c, ns_c) = priced();
    assert_eq!(
        calls_c - calls_a,
        dist.iterations as u64,
        "one attribution pass per DP-C iteration"
    );
    assert!(ns_c > ns_a, "the DP-C passes' time is counted");
}
