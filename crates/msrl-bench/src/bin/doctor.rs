//! `doctor` — post-mortem health audit over run-event JSONL streams.
//!
//! Replays each completed metrics stream through the same streaming
//! detectors the live watchdog runs (`msrl_telemetry::health`) and
//! prints one ranked verdict report per file: CRITICAL findings first,
//! then warnings, then the all-clear. Findings recorded in the lines'
//! `health` blocks are merged with what the replay itself detects, so
//! streams from runs that had the watchdog disabled still get a full
//! diagnosis.
//!
//! ```text
//! cargo run -p msrl-bench --bin doctor -- run-metrics/*.jsonl
//! ```
//!
//! CI contract: exit code 1 when any stream carries a CRITICAL verdict
//! (non-finite training signal, staleness-bound breach), 2 when a file
//! cannot be read or parsed, 0 otherwise. Warnings never fail the build — a healthy run
//! with noisy reward curves must stay green.

use std::process::ExitCode;

use msrl_telemetry::{replay_stream, Severity};

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("doctor: no streams given");
        eprintln!("usage: doctor <run-events.jsonl>...");
        return ExitCode::from(2);
    }

    let mut worst = Severity::Ok;
    let mut broken = false;
    for path in &files {
        println!("== {path} ==");
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                println!("doctor: cannot read {path}: {e}");
                broken = true;
                continue;
            }
        };
        match replay_stream(&content) {
            Ok(verdict) => {
                print!("{}", verdict.render());
                worst = worst.max(verdict.status);
            }
            Err(e) => {
                println!("doctor: cannot replay {path}: {e}");
                broken = true;
            }
        }
        println!();
    }

    if broken {
        ExitCode::from(2)
    } else if worst >= Severity::Critical {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
