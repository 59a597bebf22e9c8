//! `advise` — ranks the distribution policies DP-A..DP-F for a profiled
//! workload.
//!
//! Reads the `results/profile_*.json` artifacts committed by
//! `profile_report`, characterises the workload from the profile with a
//! dedicated learner fragment (its `phase.learn` excludes communication,
//! so compute and network costs separate cleanly), and prints the
//! [`msrl_runtime::advisor`] cost-model ranking next to the measured
//! per-iteration periods of every artifact.
//!
//! ```text
//! cargo run -p msrl-bench --bin advise [results_dir]
//!     [--actors N] [--latency-ms X] [--epochs E]
//! cargo run -p msrl-bench --bin advise -- --live metrics.jsonl
//!     [--latency-ms X] [--epochs E]
//! ```
//!
//! Defaults: `results_dir = results`, actors and steps from the profile,
//! latency 10 ms (the profiled workload's simulated wire latency),
//! epochs 1. Exits non-zero when no parsable profile artifact exists.
//!
//! `--live` switches the input from post-hoc profile artifacts to the
//! always-on attribution stream: the [`msrl_runtime::advisor::LiveAdvisor`]
//! folds the `attr` block of each run event into the cost model and
//! prints a re-partition recommendation whenever the bottleneck shift
//! survives the hysteresis window. Recommendation only — nothing is
//! re-planned.

use std::process::ExitCode;
use std::time::Duration;

use msrl_runtime::advisor::{
    parse_profile, rank_policies, render_table, CostModelInputs, LiveAdvisor, LiveAdvisorConfig,
};
use msrl_telemetry::RunEvent;

fn main() -> ExitCode {
    let mut dir = "results".to_string();
    let mut actors: Option<usize> = None;
    let mut latency = Duration::from_millis(10);
    let mut epochs = 1usize;
    let mut live: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--live" => match take(&mut i) {
                Some(v) => live = Some(v),
                None => return usage("--live needs a metrics.jsonl path"),
            },
            "--actors" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => actors = Some(v),
                None => return usage("--actors needs an integer"),
            },
            "--latency-ms" => match take(&mut i).and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => latency = Duration::from_secs_f64(v / 1e3),
                _ => return usage("--latency-ms needs a non-negative number"),
            },
            "--epochs" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => epochs = v,
                None => return usage("--epochs needs an integer"),
            },
            flag if flag.starts_with("--") => return usage(&format!("unknown flag {flag}")),
            path => dir = path.to_string(),
        }
        i += 1;
    }

    if let Some(stream) = live {
        return advise_live(&stream, latency, epochs);
    }

    let mut profiles = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("advise: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("profile_") && n.ends_with(".json") && n != "profile_report.json")
        .collect();
    names.sort();
    for name in names {
        let path = format!("{dir}/{name}");
        match std::fs::read_to_string(&path) {
            Ok(json) => match parse_profile(&json, &name) {
                Ok(p) => profiles.push(p),
                Err(e) => eprintln!("advise: skipping {e}"),
            },
            Err(e) => eprintln!("advise: skipping {path}: {e}"),
        }
    }
    if profiles.is_empty() {
        eprintln!("advise: no parsable profile_*.json under {dir} (run profile_report first)");
        return ExitCode::FAILURE;
    }

    // Characterise the workload from the cleanest profile available.
    let workload =
        profiles.iter().find(|p| p.has_dedicated_learner).unwrap_or(&profiles[0]).clone();
    let actors = actors.unwrap_or(workload.actors);
    let inputs = CostModelInputs::from_profile(&workload, actors, latency, epochs);
    let rows = rank_policies(&inputs);

    println!(
        "workload: {} (rollout p50 {:.3} ms, learn p50 {:.3} ms, {} steps/iter)",
        workload.source,
        inputs.rollout_ns / 1e6,
        inputs.learn_ns / 1e6,
        inputs.steps_per_iter,
    );
    println!(
        "planning for: {actors} actors, {:.1} ms link latency, {epochs} sync round(s)/iter\n",
        latency.as_secs_f64() * 1e3,
    );
    print!("{}", render_table(&rows, &profiles));
    ExitCode::SUCCESS
}

/// Live mode: folds an attribution stream into the cost model and
/// prints every recommendation the hysteresis lets through.
fn advise_live(path: &str, latency: Duration, epochs: usize) -> ExitCode {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("advise: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = LiveAdvisorConfig { latency, epochs, ..LiveAdvisorConfig::default() };
    let mut adv = LiveAdvisor::new(cfg);
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        match RunEvent::parse(line).map(|ev| adv.observe(&ev)) {
            Ok(Some(rec)) => match rec.previous {
                None => println!(
                    "event {:>4}: start on {} (modelled {:.3} ms/iter, bottleneck {})",
                    rec.events,
                    rec.policy,
                    rec.period_ns / 1e6,
                    rec.bottleneck,
                ),
                Some(prev) => println!(
                    "event {:>4}: bottleneck shifted to {} — re-partition {} -> {} \
                     (modelled {:.3} ms/iter)",
                    rec.events,
                    rec.bottleneck,
                    prev,
                    rec.policy,
                    rec.period_ns / 1e6,
                ),
            },
            Ok(None) => {}
            Err(e) => eprintln!("advise: skipping line: {e}"),
        }
    }
    if adv.events() == 0 {
        eprintln!("advise: no attributed events in {path}");
        return ExitCode::FAILURE;
    }
    let inputs = adv.inputs();
    println!(
        "\nfolded {} attribution event(s): rollout {:.3} ms, learn {:.3} ms, {} actor(s)",
        adv.events(),
        inputs.rollout_ns / 1e6,
        inputs.learn_ns / 1e6,
        inputs.actors,
    );
    match adv.current() {
        Some(policy) => println!("recommendation: {policy}"),
        None => println!("recommendation: (none — no candidate ranked)"),
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("advise: {err}");
    eprintln!(
        "usage: advise [results_dir] [--actors N] [--latency-ms X] [--epochs E] \
         | advise --live metrics.jsonl [--latency-ms X] [--epochs E]"
    );
    ExitCode::FAILURE
}
