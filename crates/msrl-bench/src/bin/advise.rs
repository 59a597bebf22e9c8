//! `advise` — ranks the distribution policies DP-A..DP-F for the
//! workload a run's event stream describes.
//!
//! ```text
//! cargo run -p msrl-bench --bin advise -- metrics.jsonl
//!     [--actors N] [--latency-ms X] [--epochs E]
//! ```
//!
//! Groups the stream (`MSRL_METRICS_FILE`) into runs
//! ([`msrl_telemetry::split_runs`]: the events of one `run` id and
//! policy) and folds each run on its own through a fresh
//! [`msrl_runtime::advisor::LiveAdvisor`], so one file holding a 2-actor
//! DP-A run and a 3-replica DP-C run is two workloads, not one. For each
//! run it prints every re-partition recommendation as it would have
//! fired during the run: the `attr` block's rollout and learn terms feed
//! the cost model, and a bottleneck shift must survive the hysteresis
//! window. Recommendation only — nothing is re-planned.
//!
//! It then prints the cost model's ranking of all six policies over the
//! run's folded terms, and beside it the run's measured ms/iter (the
//! median of its events' `iters_per_sec`). Defaults: actors from the
//! run, latency 10 ms, epochs 1. The stream carries no step count, so
//! the per-step policies (DP-B, DP-E) print as unpriced rather than at
//! a guessed one. Exits non-zero when no event carries an attribution.

use std::process::ExitCode;
use std::time::Duration;

use msrl_runtime::advisor::{
    rank_policies, render_table, CostModelInputs, LiveAdvisor, LiveAdvisorConfig,
};
use msrl_telemetry::{split_runs, RunEvent};

fn main() -> ExitCode {
    let mut stream: Option<String> = None;
    let mut actors: Option<usize> = None;
    let mut latency = Duration::from_millis(10);
    let mut epochs = 1usize;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
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
            path if stream.is_none() => stream = Some(path.to_string()),
            path => return usage(&format!("one stream only, got a second: {path}")),
        }
        i += 1;
    }
    let Some(path) = stream else { return usage("no stream given") };
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("advise: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut events = Vec::new();
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        match RunEvent::parse(line) {
            Ok(ev) => events.push(ev),
            Err(e) => eprintln!("advise: skipping line: {e}"),
        }
    }
    let cfg = LiveAdvisorConfig { latency, epochs: epochs.max(1), ..LiveAdvisorConfig::default() };
    let mut attributed = false;
    for (k, run) in split_runs(events).iter().enumerate() {
        println!("== run {} ({}, {} event(s)) ==", k + 1, run[0].policy, run.len());
        attributed |= advise_run(run, &cfg, actors);
        println!();
    }
    if !attributed {
        eprintln!("advise: no attributed events in {path}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Folds one run through a fresh advisor and prints its
/// recommendations, folded terms and ranking. Returns whether any of
/// its events carried an attribution.
fn advise_run(run: &[RunEvent], cfg: &LiveAdvisorConfig, actors: Option<usize>) -> bool {
    let mut adv = LiveAdvisor::new(cfg.clone());
    let mut rates = Vec::new();
    for ev in run {
        if ev.iters_per_sec.is_finite() && ev.iters_per_sec > 0.0 {
            rates.push(ev.iters_per_sec);
        }
        let Some(rec) = adv.observe(ev) else { continue };
        match rec.previous {
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
        }
    }
    if adv.events() == 0 {
        println!("no attributed events");
        return false;
    }
    let folded = adv.inputs();
    println!(
        "folded {} attribution event(s): rollout {:.3} ms, learn {:.3} ms, {} actor(s)",
        adv.events(),
        folded.rollout_ns / 1e6,
        folded.learn_ns / 1e6,
        folded.actors,
    );
    match adv.current() {
        Some(policy) => println!("recommendation: {policy}"),
        None => println!("recommendation: (none — no candidate ranked)"),
    }

    let inputs = CostModelInputs { actors: actors.unwrap_or(folded.actors).max(1), ..folded };
    println!(
        "\nplanning for: {} actors, {:.1} ms link latency, {} sync round(s)/iter\n",
        inputs.actors,
        cfg.latency.as_secs_f64() * 1e3,
        inputs.epochs,
    );
    let measured: Vec<(String, f64)> = if rates.is_empty() {
        Vec::new()
    } else {
        vec![(run[0].policy.clone(), 1e9 / median(&mut rates))]
    };
    print!("{}", render_table(&rank_policies(&inputs), &measured));
    true
}

/// The median of a non-empty list (the mean of the middle two when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("advise: {err}");
    eprintln!("usage: advise <stream.jsonl> [--actors N] [--latency-ms X] [--epochs E]");
    ExitCode::FAILURE
}
