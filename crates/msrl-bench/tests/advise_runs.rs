//! `advise` folds each run of a stream on its own.

use msrl_telemetry::{attribute, RunEvent, StepClass, StepStamp};

/// One attributed iteration of `policy`: `rollers` fragments of `role`
/// rolling out for 2 ms, then 0.5 ms of learning on a learner fragment
/// of its own (`own_learner`) or on the first roller.
fn event(
    policy: &str,
    iteration: u64,
    role: &'static str,
    rollers: u64,
    own_learner: bool,
) -> String {
    let stamp =
        |role, fragment, class, end_ns| StepStamp { role, fragment, class, start_ns: 0, end_ns };
    let mut stamps: Vec<StepStamp> =
        (0..rollers).map(|id| stamp(role, id, StepClass::Rollout, 2_000_000)).collect();
    stamps.push(match own_learner {
        true => stamp("learner", 0, StepClass::Learn, 500_000),
        false => StepStamp { start_ns: 2_000_000, ..stamp(role, 0, StepClass::Learn, 2_500_000) },
    });
    RunEvent {
        run: 0,
        policy: policy.into(),
        iteration,
        reward: 10.0,
        loss: None,
        entropy: None,
        iters_per_sec: 100.0,
        comm_bytes: 0,
        staleness: 0,
        attr: Some(attribute(&stamps, 0, 2_600_000)),
        health: None,
    }
    .to_json_line()
}

#[test]
fn a_dp_a_run_then_a_dp_c_run_are_folded_apart() {
    let mut stream = String::new();
    for i in 0..5 {
        stream += &(event("dp_a", i, "actor", 2, true) + "\n");
    }
    for i in 0..5 {
        stream += &(event("dp_c", i, "actor_learner", 3, false) + "\n");
    }
    let path = std::env::temp_dir().join(format!("msrl-advise-runs-{}.jsonl", std::process::id()));
    std::fs::write(&path, stream).expect("temp dir writable");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_advise"))
        .arg(&path)
        .output()
        .expect("advise runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let actors: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("folded "))
        .filter_map(|l| l.split(", ").last())
        .collect();
    assert_eq!(actors, ["2 actor(s)", "3 actor(s)"], "{stdout}");
}
