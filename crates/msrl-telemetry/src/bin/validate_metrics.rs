//! CI schema check for observability artefacts.
//!
//! `validate_metrics <file>...` — each argument is a run-metrics JSONL
//! file (validated line by line as `RunEvent`s) or a
//! `flightrec-*.json` dump (validated structurally). Missing files are
//! skipped with a notice (e2e jobs only produce them when the env vars
//! are set); any malformed file fails the build.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: validate_metrics <metrics.jsonl | flightrec-*.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &args {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(_) => {
                println!("validate_metrics: {path}: missing, skipped");
                continue;
            }
        };
        let is_flightrec = std::path::Path::new(path)
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("flightrec-"));
        let outcome = if is_flightrec {
            msrl_telemetry::validate_flightrec(&content).map(|n| format!("{n} span records"))
        } else {
            msrl_telemetry::validate_metrics(&content).map(|n| format!("{n} run events"))
        };
        match outcome {
            Ok(what) => println!("validate_metrics: {path}: OK ({what})"),
            Err(e) => {
                eprintln!("validate_metrics: {path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
