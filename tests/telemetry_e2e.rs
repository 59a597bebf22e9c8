//! End-to-end telemetry contract: tracing must be an observer, never a
//! participant.
//!
//! Everything runs in one test body because the enable flag, the event
//! sink and the counter registry are process-global and `cargo test`
//! runs sibling tests on parallel threads.

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
/// with a sane critical path and at least one fragment on it.
fn check_attribution_accounts_for_wall(stream: &str, policy: &str) {
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
        assert!(!attr.fragments.is_empty(), "{policy}: at least one fragment attributed");
        let on_path = attr.fragments.iter().filter(|f| f.critical).count();
        assert!(on_path >= 1, "{policy}: the critical path touches at least one fragment");
        assert!(attr.critical_path_ns > 0, "{policy}: non-trivial critical path");
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
    //    events and produces bit-identical results to an enabled run.
    msrl_telemetry::set_enabled(false);
    msrl_telemetry::clear_events();
    let quiet = mlp_output_bits();
    assert!(
        msrl_telemetry::drain().is_empty(),
        "disabled tracing must record nothing from instrumented code"
    );

    msrl_telemetry::set_enabled(true);
    msrl_telemetry::clear_events();
    let ops_before = msrl_telemetry::counter_total("interp.ops");
    let traced = mlp_output_bits();
    assert_eq!(quiet, traced, "tracing must not change computed values");
    assert!(
        msrl_telemetry::counter_total("interp.ops") > ops_before,
        "the interpreter counts the ops it evaluates"
    );

    // 2. A real distributed run under tracing yields a valid Chrome
    //    trace with fragment lanes, phase spans and comm volume.
    msrl_telemetry::clear_events();
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
    let events = msrl_telemetry::drain();
    let trace = msrl_telemetry::chrome_trace(&events);
    let check = msrl_telemetry::validate_chrome_trace(&trace).expect("trace validates");
    assert!(
        check.fragment_spans > dist.actors,
        "one fragment lane per actor plus the learner, got {}",
        check.fragment_spans
    );

    let report = msrl_telemetry::TelemetryReport::from_events(&events).with_registry();
    for phase in ["phase.rollout", "phase.learn", "phase.weight_sync"] {
        let s = report.span(phase).unwrap_or_else(|| panic!("{phase} must appear"));
        assert!(s.count > 0 && s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
    }
    assert!(report.counter("comm.bytes_sent").unwrap_or(0) > 0, "comm volume is counted");
    assert!(report.counter("env.steps").unwrap_or(0) > 0, "env steps are counted");

    // 3. The report's JSON form parses with the vendored reader.
    let json = report.to_json();
    serde_json::value_from_str(&json).expect("report JSON parses");
    msrl_telemetry::set_enabled(false);

    // 4. Always-on observability with tracing OFF: a DP-A run streams
    //    one valid RunEvent per iteration to the metrics file, and the
    //    registry-backed report carries real latency quantiles from the
    //    always-on histograms — no MSRL_TRACE required.
    msrl_telemetry::clear_events();
    msrl_telemetry::reset_counters();
    msrl_telemetry::reset_histograms();
    let metrics_path =
        std::env::temp_dir().join(format!("msrl-telemetry-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);
    msrl_telemetry::set_metrics_file(metrics_path.to_str());
    let emitted0 = msrl_telemetry::run_events_emitted();
    run_dp_a(|a, i| CartPole::new((a * 7 + i) as u64), &dist).expect("dp_a runs untraced");
    assert!(
        msrl_telemetry::drain().is_empty(),
        "the metrics stream must not depend on span recording"
    );
    assert_eq!(
        msrl_telemetry::run_events_emitted() - emitted0,
        dist.iterations as u64,
        "one RunEvent per training iteration"
    );
    let stream = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let lines = msrl_telemetry::validate_metrics(&stream).expect("every line is a valid RunEvent");
    assert_eq!(lines, dist.iterations, "the file holds exactly this run's events");

    // 4b. Untraced, every event still carries the critical-path
    //     attribution, and the breakdown accounts for the iteration wall
    //     time within 2% — no MSRL_TRACE, no extra flags. (With the
    //     health watchdog on, the default, it also carries a health
    //     block; the schema is the same either way.)
    check_attribution_accounts_for_wall(&stream, "dp_a");
    msrl_telemetry::set_metrics_file(None);
    let _ = std::fs::remove_file(&metrics_path);

    // 4c. Same contract under a fused data-parallel policy: DP-C has no
    //     dedicated learner, its comm (per-epoch AllReduce) nests inside
    //     phase.learn, and the attribution must still account for wall
    //     time exactly per fragment (validate_metrics) and within 2% in
    //     the summary components.
    msrl_telemetry::reset_histograms();
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
    check_attribution_accounts_for_wall(&stream_c, "dp_c");
    let _ = std::fs::remove_file(&metrics_path_c);

    let quiet_report = msrl_telemetry::TelemetryReport::from_events(&[]).with_registry();
    let eval = quiet_report.histogram("fragment.eval").expect("fragment.eval histogram");
    assert_eq!(eval.count, dist.iterations as u64);
    assert!(
        eval.p50_ns > 0 && eval.p50_ns <= eval.p99_ns && eval.p99_ns <= eval.max_ns,
        "non-trivial quantiles: {eval:?}"
    );
    assert!(
        quiet_report.histograms.iter().any(|(name, s)| name.starts_with("comm.") && s.count > 0),
        "at least one comm.* histogram records blocked time: {:?}",
        quiet_report.histograms
    );
    let quiet_json = quiet_report.to_json();
    serde_json::value_from_str(&quiet_json).expect("registry-only report JSON parses");
}
