//! End-to-end run-health contract (DESIGN §3.15): an induced mid-run
//! NaN must be caught by the watchdog within one iteration, embed a
//! critical finding in the metrics stream's `health` block, trigger a
//! flight-recorder dump carrying the health verdict, end the run with a
//! typed error naming the detector and the iteration, and convict the
//! stream on replay (the `doctor` path).
//!
//! One test body: the health gate, metrics sink, flight recorder and
//! registry are process-global.
//!
//! Set `MSRL_HEALTH_E2E_KEEP=<path>` to keep a copy of the poisoned
//! stream — CI uses this to demonstrate `doctor` exiting non-zero on a
//! genuinely unhealthy run.

use msrl_core::FdgError;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, DistPpoConfig};
use msrl_telemetry::{HealthStatus, HealthVerdict, RunEvent, Severity};
use serde::Deserialize;

#[test]
fn induced_nan_fires_watchdog_dump_and_doctor() {
    msrl_telemetry::set_health_enabled(true);
    let tmp = std::env::temp_dir().join(format!("msrl-health-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir creatable");
    msrl_telemetry::flightrec::set_dump_dir(tmp.to_str().expect("utf8 temp path"));
    let metrics_path = tmp.join("nan-run.jsonl");
    msrl_telemetry::set_metrics_file(metrics_path.to_str());

    let dist = DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 32,
        iterations: 4,
        hidden: vec![16],
        seed: 3,
        ..DistPpoConfig::default()
    };
    // Inject at the run's last (0-based) iteration: the learner's
    // post-learn weights are scaled to infinity there, so the final
    // broadcast is poisoned but drained unused by the exiting actors.
    let poisoned = dist.iterations as u64 - 1;
    std::env::set_var("MSRL_FAULT_NAN_ITER", poisoned.to_string());
    let result = run_dp_a(|a, i| CartPole::new((a * 3 + i) as u64), &dist);
    std::env::remove_var("MSRL_FAULT_NAN_ITER");
    msrl_telemetry::set_metrics_file(None);
    // The critical finding ends the run: its error names the detector
    // and the iteration it fired at.
    let err = result.expect_err("a critical health finding fails the run");
    assert_eq!(err, FdgError::Unhealthy { detector: "nonfinite", iteration: poisoned });
    assert!(err.to_string().contains("nonfinite"), "{err}");

    // Every event carries a health block and the stream validates.
    let stream = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let lines = msrl_telemetry::validate_metrics(&stream).expect("poisoned stream validates");
    assert_eq!(lines, dist.iterations, "one event per iteration");
    let health: Vec<HealthStatus> = stream
        .lines()
        .map(|l| RunEvent::parse(l).expect("line parses").health.expect("health-on events"))
        .collect();

    // Detection within one iteration: the injection iteration's own
    // event carries the critical nonfinite finding; every earlier event
    // is clean.
    let (last, clean) = health.split_last().expect("stream has events");
    assert!(last.nonfinite, "poisoned event flags nonfinite: {last:?}");
    let finding = last.findings.first().expect("the poisoned event carries a finding");
    assert_eq!(finding.detector, "nonfinite", "nonfinite detector fired: {last:?}");
    assert_eq!(finding.severity, Severity::Critical, "the firing is critical: {last:?}");
    for h in clean {
        assert!(
            h.status == Severity::Ok && !h.nonfinite,
            "pre-injection events stay healthy: {h:?}"
        );
        assert!(h.grad_norm.is_some(), "learner-side events carry the sentinel gauges: {h:?}");
    }

    // Replay (the doctor path) convicts the completed stream.
    let verdict = msrl_telemetry::replay_stream(&stream).expect("stream replays");
    assert_eq!(verdict.status, Severity::Critical, "doctor verdict is critical");
    assert!(verdict.findings.iter().any(|f| f.detector.contains("nonfinite")));
    assert!(verdict.render().starts_with("verdict: CRITICAL"));

    // The detector firing triggered a flight-recorder dump with the
    // health verdict embedded.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&tmp)
        .expect("dump dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec-") && n.ends_with(".json"))
        })
        .collect();
    assert!(!dumps.is_empty(), "the critical firing dumps the flight recorder");
    let dump = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    msrl_telemetry::flightrec::validate_flightrec(&dump).expect("dump validates");
    let dump: serde::Value = serde_json::from_str(&dump).expect("dump parses");
    let embedded = dump.field("health").expect("dump embeds the health verdict");
    let embedded = HealthVerdict::from_value(embedded).expect("the verdict parses");
    assert!(
        embedded.findings.iter().any(|f| f.detector == "nonfinite"),
        "verdict names the firing detector: {embedded:?}"
    );

    // `MSRL_HEALTH=0` is the one override: the same poisoned run then
    // completes and hands back the poisoned weights.
    msrl_telemetry::set_health_enabled(false);
    std::env::set_var("MSRL_FAULT_NAN_ITER", poisoned.to_string());
    let unwatched = run_dp_a(|a, i| CartPole::new((a * 3 + i) as u64), &dist);
    std::env::remove_var("MSRL_FAULT_NAN_ITER");
    msrl_telemetry::set_health_enabled(true);
    let report = unwatched.expect("with the watchdog off the run returns Ok");
    assert!(
        report.final_params.iter().any(|v| !v.is_finite()),
        "the fault injection must actually poison the final weights"
    );

    // Keep the poisoned stream for the CI doctor demo, or clean up.
    match std::env::var("MSRL_HEALTH_E2E_KEEP") {
        Ok(keep) if !keep.is_empty() => {
            std::fs::copy(&metrics_path, &keep).expect("kept stream copies");
            let _ = std::fs::remove_dir_all(&tmp);
        }
        _ => {
            let _ = std::fs::remove_dir_all(&tmp);
        }
    }
}
