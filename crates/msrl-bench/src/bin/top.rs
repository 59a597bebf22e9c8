//! `top` — live per-fragment utilisation view over the metrics stream.
//!
//! Tails the run-event JSONL file the telemetry sink appends to (the
//! `MSRL_METRICS_FILE` stream) and renders the latest
//! `msrl.run_event.v2` attribution breakdown as a per-fragment table:
//! busy share, the rollout/learn/comm/eval split, idle and straggler
//! slack, plus critical-path membership, straggler flags and — when the
//! stream carries schema-v3 health blocks — a health column (the run
//! watchdog's status on the fragment that trains). The footer shows the
//! iteration's bottleneck, how much of the wall time the critical path
//! covers, and the health gauges with any active findings.
//!
//! ```text
//! cargo run -p msrl-bench --bin top -- [metrics.jsonl] [--once] [--interval-ms N]
//! ```
//!
//! The path defaults to `$MSRL_METRICS_FILE`. `--once` renders a single
//! snapshot and exits (CI mode); without it the view refreshes every
//! `--interval-ms` (default 1000) until interrupted. v1 lines in the
//! stream are skipped, so mixed-schema files tail cleanly.

use std::process::ExitCode;

use serde::{Deserialize, Value};
use serde_json::value_from_str;

fn num(v: &Value, name: &str) -> u64 {
    v.field(name).ok().and_then(|f| u64::from_value(f).ok()).unwrap_or(0)
}

fn flag(v: &Value, name: &str) -> bool {
    matches!(v.field(name), Ok(Value::Bool(true)))
}

fn text<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name) {
        Ok(Value::Str(s)) => s,
        _ => "?",
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Formats a possibly-null numeric health gauge compactly.
fn gauge(v: &Value, name: &str) -> String {
    match v.field(name).ok().and_then(|f| f64::from_value(f).ok()) {
        Some(x) => format!("{x:.3e}"),
        None => "-".to_string(),
    }
}

/// The health column for one fragment row: the run watchdog's status on
/// the fragment that trains (where the sentinel gauges originate),
/// blank elsewhere.
fn health_cell(health: Option<&Value>, role: &str) -> &'static str {
    let trains = matches!(role, "learner" | "param_server") || role.starts_with("fused");
    match health {
        Some(h) if trains => match text(h, "status") {
            "ok" => "ok",
            "warn" => "WARN",
            "critical" => "CRIT",
            _ => "?",
        },
        _ => "-",
    }
}

/// Renders one v2/v3 run event as the utilisation table, or `None` when
/// the line carries no attribution payload.
fn render(line: &str, source: &str, seen: usize) -> Option<String> {
    let root = value_from_str(line).ok()?;
    let attr = root.field("attr").ok()?;
    let health = root.field("health").ok();
    let policy = text(&root, "policy");
    let iteration = num(&root, "iteration");
    let wall = num(attr, "wall_ns");
    let critical = num(attr, "critical_path_ns");
    let Ok(Value::Seq(frags)) = attr.field("fragments") else { return None };

    let mut out = String::new();
    out.push_str(&format!(
        "msrl top — {source} ({seen} v2 event(s), policy {policy}, iteration {iteration})\n\n"
    ));
    out.push_str(&format!(
        "{:<16} {:>6} {:>9} {:>7} {:>6} {:>6} {:>7} {:>6}  {}\n",
        "fragment", "busy%", "rollout%", "learn%", "comm%", "idle%", "slack%", "health", "flags"
    ));
    for f in frags {
        let wall_f = num(f, "wall_ns");
        let mut flags = Vec::new();
        if flag(f, "critical") {
            flags.push("crit");
        }
        if flag(f, "straggler") {
            flags.push("strag");
        }
        let role = text(f, "role");
        out.push_str(&format!(
            "{:<16} {:>6.1} {:>9.1} {:>7.1} {:>6.1} {:>6.1} {:>7.1} {:>6}  {}\n",
            format!("{}/{}", role, num(f, "id")),
            pct(num(f, "busy_ns"), wall_f),
            pct(num(f, "rollout_ns"), wall_f),
            pct(num(f, "learn_ns"), wall_f),
            pct(num(f, "comm_ns"), wall_f),
            pct(num(f, "idle_ns"), wall_f),
            pct(num(f, "slack_ns"), wall_f),
            health_cell(health, role),
            flags.join(","),
        ));
    }
    out.push_str(&format!(
        "\nbottleneck: {}   critical path: {:.3} ms / wall {:.3} ms ({:.1}%)\n",
        text(attr, "bottleneck"),
        critical as f64 / 1e6,
        wall as f64 / 1e6,
        pct(critical, wall),
    ));
    if let Some(h) = health {
        out.push_str(&format!(
            "health: {}   grad {}  weight {}  upd {}  nonfinite {}\n",
            text(h, "status").to_uppercase(),
            gauge(h, "grad_norm"),
            gauge(h, "weight_norm"),
            gauge(h, "update_ratio"),
            gauge(h, "nonfinite_params"),
        ));
        if let Ok(Value::Seq(findings)) = h.field("findings") {
            for f in findings {
                out.push_str(&format!(
                    "  finding: {} [{}] @ iter {}: {}\n",
                    text(f, "detector"),
                    text(f, "severity"),
                    num(f, "iteration"),
                    text(f, "detail"),
                ));
            }
        }
    }
    Some(out)
}

/// Reads the stream and renders its latest v2 event, counting how many
/// v2 events the file holds so progress is visible while tailing.
fn snapshot(path: &str) -> std::io::Result<Option<String>> {
    let content = std::fs::read_to_string(path)?;
    let v2: Vec<&str> = content.lines().filter(|l| l.contains("\"attr\"")).collect();
    Ok(v2.last().and_then(|line| render(line, path, v2.len())))
}

fn main() -> ExitCode {
    let mut path = std::env::var("MSRL_METRICS_FILE").ok();
    let mut once = false;
    let mut interval_ms = 1000u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => once = true,
            "--interval-ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => interval_ms = v,
                    None => return usage("--interval-ms needs an integer"),
                }
            }
            flag if flag.starts_with("--") => return usage(&format!("unknown flag {flag}")),
            p => path = Some(p.to_string()),
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage("no metrics file: pass a path or set MSRL_METRICS_FILE");
    };

    loop {
        match snapshot(&path) {
            Ok(Some(table)) => {
                if !once {
                    // Clear and home so the refresh reads as a live view.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{table}");
            }
            Ok(None) => {
                if once {
                    eprintln!("top: no msrl.run_event.v2 events in {path}");
                    return ExitCode::FAILURE;
                }
                println!("top: waiting for v2 events in {path} ...");
            }
            Err(e) => {
                if once {
                    eprintln!("top: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("top: waiting for {path}: {e}");
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("top: {err}");
    eprintln!("usage: top [metrics.jsonl] [--once] [--interval-ms N]");
    ExitCode::FAILURE
}
