//! Reader for the metrics stream the program already writes
//! (`MSRL_METRICS_FILE`): the `attr` and `health` blocks of each
//! RunEvent line.

use serde_json::Value;

use crate::json::{as_seq, f64_at, get, u64_at};
use crate::stats::{median, percentile};

/// What one RunEvent line says about its iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterAttr {
    pub iteration: u64,
    pub wall_ns: f64,
    pub rollout_ns: f64,
    pub learn_ns: f64,
    pub comm_ns: f64,
    /// `eval + idle + slack`: time no fragment class accounts for.
    pub idle_ns: f64,
    pub findings: usize,
}

/// Parses one JSONL line; `None` for a line without an `attr` block.
pub fn parse_line(line: &str) -> Result<Option<IterAttr>, String> {
    let v = serde_json::value_from_str(line).map_err(|e| format!("metrics line: {e}"))?;
    let iteration = u64_at(&v, "iteration").ok_or("metrics line without `iteration`")?;
    let Some(attr) = get(&v, "attr") else {
        return Ok(None);
    };
    let ns = |key: &str| f64_at(attr, key).ok_or_else(|| format!("attr block without `{key}`"));
    let findings = get(&v, "health")
        .and_then(|h| get(h, "findings"))
        .and_then(as_seq)
        .map_or(0, <[Value]>::len);
    Ok(Some(IterAttr {
        iteration,
        wall_ns: ns("wall_ns")?,
        rollout_ns: ns("rollout_ns")?,
        learn_ns: ns("learn_ns")?,
        comm_ns: ns("comm_ns")?,
        idle_ns: ns("eval_ns")? + ns("idle_ns")? + ns("slack_ns")?,
        findings,
    }))
}

/// Phase shares and iteration times of one run's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    pub iterations: usize,
    pub rollout_share: f64,
    pub learn_share: f64,
    pub comm_share: f64,
    pub idle_share: f64,
    pub iter_ms_p50: f64,
    pub iter_ms_p99: f64,
    pub findings: usize,
}

/// Summarises the measured run in `content`: its last `iterations`
/// lines (the lines before them belong to the warm-up run), minus the
/// measured run's own first iteration, which still spawns threads,
/// unless that is all there is.
pub fn summarize(content: &str, iterations: usize) -> Result<StreamSummary, String> {
    let mut events = Vec::new();
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(e) = parse_line(line)? {
            events.push(e);
        }
    }
    if events.len() < iterations || iterations == 0 {
        return Err(format!(
            "metrics stream has {} attributed lines, the run had {iterations} iterations",
            events.len()
        ));
    }
    let run = &events[events.len() - iterations..];
    if run[0].iteration != 0 {
        return Err("metrics stream does not end with one whole run".to_string());
    }
    let steady = if run.len() > 1 { &run[1..] } else { run };
    let sum = |f: fn(&IterAttr) -> f64| steady.iter().map(f).sum::<f64>();
    let wall = sum(|e| e.wall_ns);
    let iter_ms: Vec<f64> = steady.iter().map(|e| e.wall_ns / 1e6).collect();
    Ok(StreamSummary {
        iterations: steady.len(),
        rollout_share: sum(|e| e.rollout_ns) / wall,
        learn_share: sum(|e| e.learn_ns) / wall,
        comm_share: sum(|e| e.comm_ns) / wall,
        idle_share: sum(|e| e.idle_ns) / wall,
        iter_ms_p50: median(&iter_ms),
        iter_ms_p99: percentile(&iter_ms, 99.0),
        findings: run.iter().map(|e| e.findings).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line as `RunEvent::to_json_line` writes it (schema v3, DP-A, one
    /// actor and one learner fragment).
    const FIXTURE: &str = concat!(
        r#"{"schema": "msrl.run_event.v3", "policy": "dp_a", "iteration": 7, "reward": 21.5, "#,
        r#""loss": 0.25, "entropy": 0.69, "iters_per_sec": 12.5, "comm_bytes": 143176, "#,
        r#""staleness": 1, "plan_cache_hit_rate": null, "attr": {"wall_ns": 80000000, "#,
        r#""critical_path_ns": 80000000, "cp_clamped": false, "rollout_ns": 11000000, "#,
        r#""learn_ns": 29000000, "comm_ns": 1000000, "eval_ns": 0, "idle_ns": 30000000, "#,
        r#""slack_ns": 9000000, "bottleneck": "learn", "fragments": [{"role": "actor", "#,
        r#""id": 0, "rollout_ns": 22000000, "learn_ns": 0, "comm_ns": 1000000, "eval_ns": 0, "#,
        r#""idle_ns": 39000000, "slack_ns": 18000000, "busy_ns": 23000000, "#,
        r#""wall_ns": 80000000, "straggler": false, "critical": false}]}, "#,
        r#""health": {"status": "warn", "nonfinite": false, "grad_norm": 0.4, "#,
        r#""weight_norm": 11.0, "update_ratio": 0.001, "nonfinite_params": 0, "#,
        r#""audit_rel_err": null, "findings": [{"detector": "entropy_collapse", "#,
        r#""severity": "warn", "iteration": 7, "detail": "x"}]}}"#
    );

    #[test]
    fn parses_the_attr_block_of_a_run_event_line() {
        let e = parse_line(FIXTURE).unwrap().unwrap();
        assert_eq!(e.iteration, 7);
        assert_eq!(e.wall_ns, 80e6);
        assert_eq!(e.rollout_ns, 11e6);
        assert_eq!(e.learn_ns, 29e6);
        assert_eq!(e.comm_ns, 1e6);
        assert_eq!(e.idle_ns, 39e6);
        assert_eq!(e.findings, 1);
        // The classes the line carries cover its wall time.
        assert_eq!(e.rollout_ns + e.learn_ns + e.comm_ns + e.idle_ns, e.wall_ns);
    }

    #[test]
    fn a_line_without_attr_is_skipped_and_garbage_is_an_error() {
        let v1 = r#"{"schema": "msrl.run_event.v1", "policy": "dp_a", "iteration": 0}"#;
        assert_eq!(parse_line(v1).unwrap(), None);
        assert!(parse_line("{oops").is_err());
    }

    #[test]
    fn summary_drops_the_warm_up_run_and_the_first_iteration() {
        let line = |it: u64, wall: u64, learn: u64| {
            format!(
                concat!(
                    r#"{{"iteration": {}, "attr": {{"wall_ns": {}, "rollout_ns": 0, "#,
                    r#""learn_ns": {}, "comm_ns": 0, "eval_ns": 0, "idle_ns": {}, "slack_ns": 0}}}}"#
                ),
                it,
                wall,
                learn,
                wall - learn
            )
        };
        // Warm-up run (one iteration), then a three-iteration run.
        let content =
            [line(0, 900, 100), line(0, 500, 100), line(1, 100, 60), line(2, 100, 80)].join("\n");
        let s = summarize(&content, 3).unwrap();
        assert_eq!(s.iterations, 2);
        assert_eq!(s.learn_share, 0.7);
        assert!((s.idle_share - 0.3).abs() < 1e-12);
        assert_eq!(s.iter_ms_p50, 1e-4);
        assert!(summarize(&content, 5).is_err());
    }
}
