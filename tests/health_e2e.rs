//! End-to-end run-health contract (DESIGN §3.15): an induced mid-run
//! NaN must be caught by the watchdog within one iteration, embed a
//! critical finding in the metrics stream's `health` block, trigger a
//! flight-recorder dump carrying the health verdict, end the run with a
//! typed error naming the detector and the iteration, and convict the
//! stream on replay (the `doctor` path). The fault rides in the
//! environment — a CartPole whose reward turns NaN from a given step —
//! so DP-A, DP-F and DP-C runs all meet it the same way, and nothing
//! process-global steers it. Each failure writes that one dump, not a
//! second. A later run that fails for another reason leaves a dump of
//! its own, without that verdict.
//!
//! One test body: the metrics sink and the flight recorder's dump
//! directory are process-global.
//!
//! Set `MSRL_HEALTH_E2E_KEEP=<path>` to keep a copy of the poisoned
//! stream — CI uses this to demonstrate `doctor` exiting non-zero on a
//! genuinely unhealthy run.

use msrl_core::FdgError;
use msrl_env::cartpole::CartPole;
use msrl_env::{Action, ActionSpec, Environment};
use msrl_runtime::exec::{run_dp_a, run_dp_c, run_dp_f, DistPpoConfig};
use msrl_telemetry::{HealthStatus, HealthVerdict, RunEvent, Severity};
use serde::Deserialize;

/// CartPole that claims `dim` observation columns.
struct Claims(usize, CartPole);

impl Environment for Claims {
    fn obs_dim(&self) -> usize {
        self.0
    }
    fn action_spec(&self) -> ActionSpec {
        self.1.action_spec()
    }
    fn reset_into(&mut self, obs: &mut [f32]) {
        self.1.reset_into(obs)
    }
    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
        self.1.step_into(action, obs)
    }
}

/// CartPole whose reward is NaN from its `from`-th (0-based) step on.
struct Poisoned {
    env: CartPole,
    steps: usize,
    from: usize,
}

impl Poisoned {
    fn new(seed: u64, from: usize) -> Poisoned {
        Poisoned { env: CartPole::new(seed), steps: 0, from }
    }
}

impl Environment for Poisoned {
    fn obs_dim(&self) -> usize {
        self.env.obs_dim()
    }
    fn action_spec(&self) -> ActionSpec {
        self.env.action_spec()
    }
    fn reset_into(&mut self, obs: &mut [f32]) {
        self.env.reset_into(obs)
    }
    fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
        let (reward, done) = self.env.step_into(action, obs);
        let poisoned = self.steps >= self.from;
        self.steps += 1;
        (if poisoned { f32::NAN } else { reward }, done)
    }
}

/// The flight-recorder dumps in `dir` with their triggers, parsed and
/// validated, in the order they were written.
fn dumps(dir: &std::path::Path) -> Vec<(String, serde::Value)> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("dump dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec-") && n.ends_with(".json"))
        })
        .collect();
    // `flightrec-<pid>-<seq>.json`: write order is sequence order.
    let seq = |p: &std::path::PathBuf| -> u64 {
        let stem = p.file_stem().and_then(|n| n.to_str()).expect("utf8 dump name");
        stem.rsplit('-').next().and_then(|s| s.parse().ok()).expect("dump sequence number")
    };
    paths.sort_by_key(seq);
    paths
        .iter()
        .map(|p| {
            let dump = std::fs::read_to_string(p).expect("dump readable");
            msrl_telemetry::flightrec::validate_flightrec(&dump).expect("dump validates");
            let dump: serde::Value = serde_json::from_str(&dump).expect("dump parses");
            let trigger = String::from_value(dump.field("trigger").expect("trigger")).unwrap();
            (trigger, dump)
        })
        .collect()
}

#[test]
fn induced_nan_fires_watchdog_dump_and_doctor() {
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
    // Poison the run's last (0-based) iteration: every environment's
    // reward is NaN from that iteration's first step, so the batch the
    // learner folds there carries it into the loss and the weights.
    let poisoned = dist.iterations as u64 - 1;
    let from = poisoned as usize * dist.steps_per_iter;
    let result = run_dp_a(|a, i| Poisoned::new((a * 3 + i) as u64, from), &dist);
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
    // health verdict embedded, and it is the failure's one dump.
    let written = dumps(&tmp);
    let triggers: Vec<&str> = written.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(triggers, ["health"], "the critical firing dumps the recorder, once");
    let embedded = written[0].1.field("health").expect("dump embeds the health verdict");
    let embedded = HealthVerdict::from_value(embedded).expect("the verdict parses");
    assert!(
        embedded.findings.iter().any(|f| f.detector == "nonfinite"),
        "verdict names the firing detector: {embedded:?}"
    );

    // The fault rides in the environment, so a one-worker DP-F run (its
    // hub applies the worker's gradients instead of learning on
    // batches) and a DP-C run (no hub: replicas all-reduce gradients)
    // end the same way at the same iteration, each with a dump.
    let dp_f = DistPpoConfig { actors: 1, ..dist.clone() };
    let result = run_dp_f(|a, i| Poisoned::new((a * 3 + i) as u64, from), &dp_f);
    let err = result.expect_err("a poisoned environment fails a DP-F run");
    assert_eq!(err, FdgError::Unhealthy { detector: "nonfinite", iteration: poisoned });
    let result = run_dp_c(|a, i| Poisoned::new((a * 3 + i) as u64, from), &dist);
    let err = result.expect_err("a poisoned environment fails a DP-C run");
    assert_eq!(err, FdgError::Unhealthy { detector: "nonfinite", iteration: poisoned });

    // A later run that ends in a driver error of its own (the probe
    // sizes the policy for 5 columns, the actor's envs have 4) leaves a
    // dump that carries no health verdict: the poisoned runs' verdicts
    // went with their own dumps.
    let calls = std::sync::atomic::AtomicUsize::new(0);
    let make_env = |_: usize, i: usize| {
        let probe = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0;
        Claims(if probe { 5 } else { 4 }, CartPole::new(i as u64))
    };
    let shape = DistPpoConfig { actors: 1, envs_per_actor: 1, iterations: 1, ..dist.clone() };
    let err = run_dp_a(make_env, &shape).expect_err("the learner's peer is gone");
    assert!(!matches!(err, FdgError::Unhealthy { .. }), "not a health error: {err:?}");
    let written = dumps(&tmp);
    let triggers: Vec<&str> = written.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(triggers, ["health", "health", "health", "driver_error"], "each failure dumps once");
    let (trigger, dump) = written.last().expect("the failed run dumps the recorder");
    assert_eq!(trigger, "driver_error");
    assert!(dump.field("health").is_err(), "another run's verdict leaked into the dump");
    // It holds the failed run's lanes alone: the learner and its actor.
    let run = dump.field("run").expect("the dump names its run");
    let Ok(serde::Value::Seq(lanes)) = dump.field("lanes") else { panic!("lanes") };
    let roles: Vec<&serde::Value> = lanes.iter().map(|l| l.field("role").unwrap()).collect();
    assert_eq!(roles.len(), 2, "{roles:?}");
    assert!(lanes.iter().all(|l| l.field("run") == Ok(run)), "another run's lane in the dump");

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
