//! `top` — live per-fragment utilisation view over the metrics stream.
//!
//! Tails the run-event JSONL file the telemetry sink appends to (the
//! `MSRL_METRICS_FILE` stream) and renders the `attr` block of the
//! latest event that carries one as a per-fragment table: busy share,
//! the rollout/learn/comm/eval split, idle and straggler slack, plus
//! critical-path membership, straggler flags and — when the event
//! carries a `health` block — a health column (the run watchdog's status
//! on the fragment that trains). The footer shows the iteration's
//! bottleneck, how much of the wall time the critical path covers, and
//! the health gauges with any active findings.
//!
//! ```text
//! cargo run -p msrl-bench --bin top -- [metrics.jsonl] [--once] [--interval-ms N]
//! ```
//!
//! The path defaults to `$MSRL_METRICS_FILE`. `--once` renders a single
//! snapshot and exits (CI mode); without it the view refreshes every
//! `--interval-ms` (default 1000) until interrupted. Events without an
//! attribution are skipped.

use std::process::ExitCode;

use msrl_telemetry::{RunEvent, Severity};

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders one run event as the utilisation table, or `None` when it
/// carries no attribution.
fn render(ev: &RunEvent, source: &str, seen: usize) -> Option<String> {
    let attr = ev.attr.as_ref()?;
    let mut out = String::new();
    out.push_str(&format!(
        "msrl top — {source} ({seen} attributed event(s), policy {}, iteration {})\n\n",
        ev.policy, ev.iteration
    ));
    out.push_str(&format!(
        "{:<16} {:>6} {:>9} {:>7} {:>6} {:>6} {:>7} {:>6}  {}\n",
        "fragment", "busy%", "rollout%", "learn%", "comm%", "idle%", "slack%", "health", "flags"
    ));
    for f in &attr.fragments {
        let mut flags = Vec::new();
        if f.critical {
            flags.push("crit");
        }
        if f.straggler {
            flags.push("strag");
        }
        // The run watchdog's status on the fragment that trains (whose
        // learner the signals come from), blank elsewhere.
        let trains =
            matches!(f.role.as_str(), "learner" | "param_server") || f.role.starts_with("fused");
        let health = match ev.health.as_ref().map(|h| h.status) {
            Some(Severity::Ok) if trains => "ok",
            Some(Severity::Warn) if trains => "WARN",
            Some(Severity::Critical) if trains => "CRIT",
            _ => "-",
        };
        out.push_str(&format!(
            "{:<16} {:>6.1} {:>9.1} {:>7.1} {:>6.1} {:>6.1} {:>7.1} {:>6}  {}\n",
            format!("{}/{}", f.role, f.id),
            pct(f.busy_ns, f.wall_ns),
            pct(f.rollout_ns, f.wall_ns),
            pct(f.learn_ns, f.wall_ns),
            pct(f.comm_ns, f.wall_ns),
            pct(f.idle_ns, f.wall_ns),
            pct(f.slack_ns, f.wall_ns),
            health,
            flags.join(","),
        ));
    }
    out.push_str(&format!(
        "\nbottleneck: {}   critical path: {:.3} ms / wall {:.3} ms ({:.1}%)\n",
        attr.bottleneck,
        attr.critical_path_ns as f64 / 1e6,
        attr.wall_ns as f64 / 1e6,
        pct(attr.critical_path_ns, attr.wall_ns),
    ));
    if let Some(h) = &ev.health {
        let gauge = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.3e}"));
        out.push_str(&format!(
            "health: {}   grad {}  weight {}  upd {}  nonfinite {}\n",
            h.status.name().to_uppercase(),
            gauge(h.grad_norm),
            gauge(h.weight_norm),
            gauge(h.update_ratio),
            gauge(h.nonfinite_params.map(|c| c as f64)),
        ));
        for f in &h.findings {
            out.push_str(&format!(
                "  finding: {} [{}] @ iter {}: {}\n",
                f.detector,
                f.severity.name(),
                f.iteration,
                f.detail,
            ));
        }
    }
    Some(out)
}

/// Reads the stream and renders its latest attributed event, counting
/// how many the file holds so progress is visible while tailing.
fn snapshot(path: &str) -> std::io::Result<Option<String>> {
    let content = std::fs::read_to_string(path)?;
    let attributed: Vec<RunEvent> = content
        .lines()
        .filter_map(|l| RunEvent::parse(l).ok())
        .filter(|ev| ev.attr.is_some())
        .collect();
    Ok(attributed.last().and_then(|ev| render(ev, path, attributed.len())))
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
                    eprintln!("top: no attributed events in {path}");
                    return ExitCode::FAILURE;
                }
                println!("top: waiting for attributed events in {path} ...");
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
