//! The training-metrics stream: one [`RunEvent`] per driver iteration,
//! written as JSONL to `MSRL_METRICS_FILE` and summarised as a
//! Prometheus-style text exposition ([`metrics_text`], dumped to
//! `MSRL_METRICS_TEXT_FILE` by [`flush_metrics`]).
//!
//! Every exec driver (`dp_a`–`dp_f`, `a3c`) emits the per-iteration
//! training signal — episode return, loss, entropy, throughput, comm
//! bytes, staleness, plan-cache hit-rate — the raw data behind the
//! paper's throughput/convergence figures, streamed live instead of
//! reconstructed post-hoc. Each JSONL line is written with a single
//! `write` on a file opened in append mode, so concurrent processes
//! (the e2e test binaries in CI share one metrics file) never interleave
//! partial lines.
//!
//! Two schemas coexist on one stream: plain training lines are
//! `msrl.run_event.v1`; lines carrying a critical-path attribution
//! ([`RunEvent::attr`]) are `msrl.run_event.v2` and add an `attr`
//! object whose per-fragment components sum exactly to the iteration
//! wall time — the validator enforces the identity.
//!
//! [`validate_metrics`] structurally checks a metrics file line by line;
//! the `validate_metrics` binary wraps it for CI.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// Schema tag of attribution-free metrics lines.
pub const RUN_EVENT_SCHEMA: &str = "msrl.run_event.v1";

/// Schema tag of metrics lines carrying a critical-path attribution.
pub const RUN_EVENT_SCHEMA_V2: &str = "msrl.run_event.v2";

/// Schema tag of metrics lines carrying a per-iteration health block
/// (they may also carry an attribution).
pub const RUN_EVENT_SCHEMA_V3: &str = "msrl.run_event.v3";

/// Act-server activity during one iteration (counter deltas of the
/// `actsrv.*` family): how many cross-actor batched forwards ran and
/// how many observation rows they covered. Carried on [`RunEvent`] only
/// when the act server is active — its presence does not bump the
/// schema tag (both v1 and v2 lines may carry it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActsrvStats {
    /// Batched forwards run by round leaders this iteration.
    pub batches: u64,
    /// Observation rows those forwards covered (≥ `batches`: every
    /// round batches at least one live client's rows).
    pub rows: u64,
}

/// One per-iteration training-metrics record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEvent {
    /// Distribution policy (`"dp_a"` … `"dp_f"`, `"a3c"`).
    pub policy: &'static str,
    /// Zero-based iteration (for A3C: applied gradient push) index.
    pub iteration: u64,
    /// Mean episode return observed this iteration.
    pub reward: f64,
    /// Training loss, when the driver computes one centrally.
    pub loss: Option<f64>,
    /// Policy entropy (mean over the batch), when available.
    pub entropy: Option<f64>,
    /// Iterations per second over the last iteration.
    pub iters_per_sec: f64,
    /// Fabric bytes sent during the iteration (process-wide delta).
    pub comm_bytes: u64,
    /// Configured staleness bound the iteration ran under.
    pub staleness: u64,
    /// Plan-cache hit rate so far (`None` before any plan lookup).
    pub plan_cache_hit_rate: Option<f64>,
    /// Critical-path attribution for the iteration; when present the
    /// line is stamped schema v2 and carries the per-fragment breakdown.
    pub attr: Option<crate::IterAttribution>,
    /// Act-server batching activity this iteration; `None` when the
    /// cross-actor act server is off.
    pub actsrv: Option<ActsrvStats>,
    /// Per-iteration health block from the watchdog; when present the
    /// line is stamped schema v3 (see [`crate::health`]).
    pub health: Option<crate::HealthStatus>,
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn attr_json(a: &crate::IterAttribution) -> String {
    let mut frags = String::from("[");
    for (i, f) in a.fragments.iter().enumerate() {
        if i > 0 {
            frags.push_str(", ");
        }
        frags.push_str(&format!(
            concat!(
                "{{\"role\": \"{}\", \"id\": {}, \"rollout_ns\": {}, \"learn_ns\": {}, ",
                "\"comm_ns\": {}, \"eval_ns\": {}, \"idle_ns\": {}, \"slack_ns\": {}, ",
                "\"busy_ns\": {}, \"wall_ns\": {}, \"straggler\": {}, \"critical\": {}}}"
            ),
            f.role,
            f.fragment,
            f.rollout_ns,
            f.learn_ns,
            f.comm_ns,
            f.eval_ns,
            f.idle_ns,
            f.slack_ns,
            f.busy_ns,
            f.wall_ns,
            f.straggler,
            f.critical,
        ));
    }
    frags.push(']');
    format!(
        concat!(
            "{{\"wall_ns\": {}, \"critical_path_ns\": {}, \"cp_clamped\": {}, ",
            "\"rollout_ns\": {}, ",
            "\"learn_ns\": {}, \"comm_ns\": {}, \"eval_ns\": {}, \"idle_ns\": {}, ",
            "\"slack_ns\": {}, \"bottleneck\": \"{}\", \"fragments\": {}}}"
        ),
        a.wall_ns,
        a.critical_path_ns,
        a.cp_clamped,
        a.rollout_ns,
        a.learn_ns,
        a.comm_ns,
        a.eval_ns,
        a.idle_ns,
        a.slack_ns,
        a.bottleneck,
        frags,
    )
}

impl RunEvent {
    /// The schema tag this event is stamped with: v3 when it carries a
    /// health block, v2 when it carries (only) an attribution, v1
    /// otherwise.
    pub fn schema(&self) -> &'static str {
        if self.health.is_some() {
            RUN_EVENT_SCHEMA_V3
        } else if self.attr.is_some() {
            RUN_EVENT_SCHEMA_V2
        } else {
            RUN_EVENT_SCHEMA
        }
    }

    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let attr_field = match &self.attr {
            Some(a) => format!(", \"attr\": {}", attr_json(a)),
            None => String::new(),
        };
        let actsrv_field = match &self.actsrv {
            Some(s) => {
                format!(", \"actsrv\": {{\"batches\": {}, \"rows\": {}}}", s.batches, s.rows)
            }
            None => String::new(),
        };
        let health_field = match &self.health {
            Some(h) => format!(", \"health\": {}", h.to_json()),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"schema\": \"{}\", \"policy\": \"{}\", \"iteration\": {}, ",
                "\"reward\": {}, \"loss\": {}, \"entropy\": {}, \"iters_per_sec\": {}, ",
                "\"comm_bytes\": {}, \"staleness\": {}, \"plan_cache_hit_rate\": {}{}{}{}}}"
            ),
            self.schema(),
            self.policy,
            self.iteration,
            fmt_f64(self.reward),
            fmt_opt(self.loss),
            fmt_opt(self.entropy),
            fmt_f64(self.iters_per_sec),
            self.comm_bytes,
            self.staleness,
            fmt_opt(self.plan_cache_hit_rate),
            attr_field,
            actsrv_field,
            health_field,
        )
    }
}

struct SinkState {
    /// Append-mode metrics file, opened lazily from `MSRL_METRICS_FILE`
    /// (or [`set_metrics_file`]).
    file: Option<File>,
    /// Whether the env var has been consulted yet.
    resolved: bool,
    /// Last event per policy, for the text exposition.
    last: BTreeMap<&'static str, RunEvent>,
    /// Total events emitted by this process.
    emitted: u64,
    /// First write error since the last [`flush_metrics`] — emit is
    /// called on the iteration hot loop and cannot return it, so the
    /// error is held (and counted on `sink.io_errors`) until the next
    /// flush surfaces it.
    io_error: Option<std::io::Error>,
}

fn sink() -> &'static Mutex<SinkState> {
    static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(SinkState {
            file: None,
            resolved: false,
            last: BTreeMap::new(),
            emitted: 0,
            io_error: None,
        })
    })
}

fn open_append(path: &str) -> Option<File> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    OpenOptions::new().create(true).append(true).open(path).ok()
}

/// Points the metrics stream at `path` (append mode), or detaches it
/// with `None`. Overrides `MSRL_METRICS_FILE`; tests use this to write
/// into a temp dir.
pub fn set_metrics_file(path: Option<&str>) {
    let mut s = sink().lock().expect("metrics sink poisoned");
    s.file = path.and_then(open_append);
    s.resolved = true;
}

/// Emits one [`RunEvent`]: appends a JSONL line to the metrics file (if
/// configured) and updates the in-memory last-event table behind
/// [`metrics_text`]. Called once per driver iteration — file I/O cost,
/// not hot-path cost.
pub fn emit_run_event(ev: &RunEvent) {
    let mut s = sink().lock().expect("metrics sink poisoned");
    if !s.resolved {
        s.file = std::env::var("MSRL_METRICS_FILE")
            .ok()
            .filter(|p| !p.is_empty())
            .and_then(|p| open_append(&p));
        s.resolved = true;
    }
    if let Some(f) = &mut s.file {
        // One write per line: O_APPEND keeps concurrent writers from
        // interleaving partial lines. A failed write (full disk, yanked
        // volume) is counted and held for the next flush — losing
        // metrics must itself be observable.
        if let Err(e) = f.write_all(format!("{}\n", ev.to_json_line()).as_bytes()) {
            crate::static_counter!("sink.io_errors").add(1);
            if s.io_error.is_none() {
                s.io_error = Some(e);
            }
        }
    }
    s.emitted += 1;
    s.last.insert(ev.policy, ev.clone());
}

/// Events emitted by this process so far.
pub fn run_events_emitted() -> u64 {
    sink().lock().expect("metrics sink poisoned").emitted
}

fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Renders a Prometheus-style text exposition of the whole registry:
/// counters, gauges, histogram quantiles, and the latest [`RunEvent`]
/// per policy. Deterministically ordered (all sources are name-sorted).
pub fn metrics_text() -> String {
    let mut out = String::new();
    out.push_str("# msrl metrics exposition\n");
    for (name, v) in crate::registry::counters_snapshot() {
        out.push_str(&format!("msrl_counter_{} {}\n", prom_name(&name), v));
    }
    for (name, v) in crate::registry::gauges_snapshot() {
        out.push_str(&format!("msrl_gauge_{} {}\n", prom_name(&name), fmt_f64(v)));
    }
    // Real Prometheus histogram series. Bucket `i` of the log₂ layout
    // holds values in `[2^(i-1), 2^i)`, so the inclusive `le` bound of
    // its cumulative line is `2^i - 1` — counts are exact, not
    // interpolated. Empty buckets are elided; cumulative semantics are
    // unaffected by sparse `le` steps.
    for (name, buckets, sum) in crate::histogram::histograms_raw_snapshot() {
        let base = format!("msrl_hist_{}", prom_name(&name));
        out.push_str(&format!("# TYPE {base}_ns histogram\n"));
        let mut cumulative = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            cumulative += c;
            if c > 0 && i < crate::HISTOGRAM_BUCKETS - 1 {
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                out.push_str(&format!("{base}_ns_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
        }
        out.push_str(&format!("{base}_ns_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{base}_ns_sum {sum}\n"));
        out.push_str(&format!("{base}_ns_count {cumulative}\n"));
        // Legacy quantile-gauge lines, kept for one deprecation cycle.
        let s = crate::HistogramStats::from_buckets(&buckets);
        out.push_str(&format!("{base}_count {}\n", s.count));
        for (q, v) in [("0.5", s.p50_ns), ("0.9", s.p90_ns), ("0.99", s.p99_ns)] {
            out.push_str(&format!("{base}_ns{{quantile=\"{q}\"}} {v}\n"));
        }
    }
    let s = sink().lock().expect("metrics sink poisoned");
    for (policy, ev) in &s.last {
        let l = format!("{{policy=\"{policy}\"}}");
        out.push_str(&format!("msrl_run_iteration{l} {}\n", ev.iteration));
        out.push_str(&format!("msrl_run_reward{l} {}\n", fmt_f64(ev.reward)));
        if let Some(loss) = ev.loss {
            out.push_str(&format!("msrl_run_loss{l} {}\n", fmt_f64(loss)));
        }
        if let Some(e) = ev.entropy {
            out.push_str(&format!("msrl_run_entropy{l} {}\n", fmt_f64(e)));
        }
        out.push_str(&format!("msrl_run_iters_per_sec{l} {}\n", fmt_f64(ev.iters_per_sec)));
        out.push_str(&format!("msrl_run_comm_bytes{l} {}\n", ev.comm_bytes));
    }
    out
}

/// Flushes the metrics stream and, if `MSRL_METRICS_TEXT_FILE` is set,
/// writes the current [`metrics_text`] exposition there. Drivers call
/// this at the end of a run; safe to call repeatedly (the text file is
/// overwritten with the latest snapshot).
///
/// # Errors
///
/// Propagates I/O errors from the flush or the text-file write —
/// including the first write error any earlier [`emit_run_event`] hit
/// (held rather than swallowed; also counted on `sink.io_errors`).
pub fn flush_metrics() -> std::io::Result<()> {
    {
        let mut s = sink().lock().expect("metrics sink poisoned");
        if let Some(e) = s.io_error.take() {
            return Err(e);
        }
        if let Some(f) = &mut s.file {
            f.flush()?;
        }
    }
    if let Ok(path) = std::env::var("MSRL_METRICS_TEXT_FILE") {
        if !path.is_empty() {
            std::fs::write(&path, metrics_text())?;
        }
    }
    Ok(())
}

/// Structurally validates a JSONL metrics stream: every non-empty line
/// must be a [`RunEvent`] object with the right field types (optionals
/// may be `null`). Returns the number of valid lines.
///
/// # Errors
///
/// A description of the first malformed line (1-based line number).
pub fn validate_metrics(content: &str) -> Result<usize, String> {
    use serde_json::Value;
    let mut valid = 0usize;
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let v = serde_json::value_from_str(line).map_err(|e| format!("line {n}: not JSON: {e}"))?;
        let (v2, v3) = match v.field("schema") {
            Ok(Value::Str(s)) if s == RUN_EVENT_SCHEMA => (false, false),
            Ok(Value::Str(s)) if s == RUN_EVENT_SCHEMA_V2 => (true, false),
            Ok(Value::Str(s)) if s == RUN_EVENT_SCHEMA_V3 => (false, true),
            other => return Err(format!("line {n}: bad schema: {other:?}")),
        };
        match v.field("policy") {
            Ok(Value::Str(p)) if !p.is_empty() => {}
            other => return Err(format!("line {n}: bad policy: {other:?}")),
        }
        for key in ["iteration", "comm_bytes", "staleness"] {
            if !matches!(v.field(key), Ok(Value::I64(_) | Value::U64(_))) {
                return Err(format!("line {n}: missing integer field {key:?}"));
            }
        }
        for key in ["reward", "iters_per_sec"] {
            if !matches!(v.field(key), Ok(Value::I64(_) | Value::U64(_) | Value::F64(_))) {
                return Err(format!("line {n}: missing numeric field {key:?}"));
            }
        }
        for key in ["loss", "entropy", "plan_cache_hit_rate"] {
            match v.field(key) {
                Ok(Value::Null | Value::I64(_) | Value::U64(_) | Value::F64(_)) => {}
                other => return Err(format!("line {n}: bad optional field {key:?}: {other:?}")),
            }
        }
        if let Ok(Value::F64(r)) = v.field("plan_cache_hit_rate") {
            if !(0.0..=1.0).contains(r) {
                return Err(format!("line {n}: plan_cache_hit_rate out of [0,1]: {r}"));
            }
        }
        if v2 {
            validate_attr(&v, n)?;
        } else if !v3 && v.field("attr").is_ok() {
            return Err(format!("line {n}: v1 line must not carry an attr object"));
        }
        if v3 {
            // A v3 line must carry a health block and may also carry an
            // attribution (health presence wins the schema tag).
            validate_health(&v, n)?;
            if v.field("attr").is_ok() {
                validate_attr(&v, n)?;
            }
        } else if v.field("health").is_ok() {
            return Err(format!("line {n}: only v3 lines may carry a health object"));
        }
        if let Ok(actsrv) = v.field("actsrv") {
            let uint = |key: &str| -> Result<u64, String> {
                match actsrv.field(key) {
                    Ok(Value::U64(x)) => Ok(*x),
                    Ok(Value::I64(x)) if *x >= 0 => Ok(*x as u64),
                    other => Err(format!(
                        "line {n}: actsrv field {key:?} not a non-negative int: {other:?}"
                    )),
                }
            };
            let (batches, rows) = (uint("batches")?, uint("rows")?);
            if batches > 0 && rows < batches {
                return Err(format!(
                    "line {n}: actsrv rows ({rows}) below batches ({batches}): every \
                     batched forward covers at least one row"
                ));
            }
        }
        valid += 1;
    }
    Ok(valid)
}

/// Validates the `attr` object of a v2 line: required numeric fields, a
/// known bottleneck label, and per-fragment components that sum exactly
/// to the fragment's wall time (the attribution identity).
fn validate_attr(v: &serde_json::Value, n: usize) -> Result<(), String> {
    use serde_json::Value;
    let Ok(attr) = v.field("attr") else {
        return Err(format!("line {n}: v2 line missing attr object"));
    };
    let uint = |obj: &Value, key: &str| -> Result<u64, String> {
        match obj.field(key) {
            Ok(Value::U64(x)) => Ok(*x),
            Ok(Value::I64(x)) if *x >= 0 => Ok(*x as u64),
            other => Err(format!("line {n}: attr field {key:?} not a non-negative int: {other:?}")),
        }
    };
    for key in [
        "wall_ns",
        "critical_path_ns",
        "rollout_ns",
        "learn_ns",
        "comm_ns",
        "eval_ns",
        "idle_ns",
        "slack_ns",
    ] {
        uint(attr, key)?;
    }
    match attr.field("bottleneck") {
        Ok(Value::Str(b)) if matches!(b.as_str(), "rollout" | "learn" | "comm" | "idle") => {}
        other => return Err(format!("line {n}: bad attr bottleneck: {other:?}")),
    }
    if !matches!(attr.field("cp_clamped"), Ok(Value::Bool(_))) {
        return Err(format!("line {n}: attr missing bool field \"cp_clamped\""));
    }
    // The clamp invariant itself: a reported critical path never
    // exceeds the iteration wall.
    if uint(attr, "critical_path_ns")? > uint(attr, "wall_ns")? {
        return Err(format!("line {n}: critical_path_ns exceeds wall_ns (clamp missing)"));
    }
    let Ok(Value::Seq(frags)) = attr.field("fragments") else {
        return Err(format!("line {n}: attr missing fragments array"));
    };
    for (i, f) in frags.iter().enumerate() {
        match f.field("role") {
            Ok(Value::Str(r)) if !r.is_empty() => {}
            other => return Err(format!("line {n}: fragment {i}: bad role: {other:?}")),
        }
        uint(f, "id")?;
        for key in ["straggler", "critical"] {
            if !matches!(f.field(key), Ok(Value::Bool(_))) {
                return Err(format!("line {n}: fragment {i}: missing bool field {key:?}"));
            }
        }
        let parts: Result<Vec<u64>, String> =
            ["rollout_ns", "learn_ns", "comm_ns", "eval_ns", "idle_ns", "slack_ns"]
                .iter()
                .map(|k| uint(f, k))
                .collect();
        let sum: u64 = parts?.iter().sum();
        let wall = uint(f, "wall_ns")?;
        if sum != wall {
            return Err(format!(
                "line {n}: fragment {i}: components sum to {sum} but wall_ns is {wall}"
            ));
        }
    }
    Ok(())
}

/// Validates the `health` object of a v3 line: a known status label, an
/// explicit non-finite flag, null-or-numeric sentinel gauges, and a
/// findings array of well-formed firings.
fn validate_health(v: &serde_json::Value, n: usize) -> Result<(), String> {
    use serde_json::Value;
    let Ok(health) = v.field("health") else {
        return Err(format!("line {n}: v3 line missing health object"));
    };
    match health.field("status") {
        Ok(Value::Str(s)) if crate::Severity::parse(s).is_some() => {}
        other => return Err(format!("line {n}: bad health status: {other:?}")),
    }
    if !matches!(health.field("nonfinite"), Ok(Value::Bool(_))) {
        return Err(format!("line {n}: health missing bool field \"nonfinite\""));
    }
    for key in ["grad_norm", "weight_norm", "update_ratio"] {
        match health.field(key) {
            Ok(Value::Null | Value::I64(_) | Value::U64(_) | Value::F64(_)) => {}
            other => return Err(format!("line {n}: bad health field {key:?}: {other:?}")),
        }
    }
    match health.field("nonfinite_params") {
        Ok(Value::Null | Value::U64(_)) => {}
        Ok(Value::I64(x)) if *x >= 0 => {}
        other => return Err(format!("line {n}: bad health nonfinite_params: {other:?}")),
    }
    let Ok(Value::Seq(findings)) = health.field("findings") else {
        return Err(format!("line {n}: health missing findings array"));
    };
    for (i, f) in findings.iter().enumerate() {
        match f.field("detector") {
            Ok(Value::Str(d)) if !d.is_empty() => {}
            other => return Err(format!("line {n}: finding {i}: bad detector: {other:?}")),
        }
        match f.field("severity") {
            Ok(Value::Str(s)) if crate::Severity::parse(s).is_some() => {}
            other => return Err(format!("line {n}: finding {i}: bad severity: {other:?}")),
        }
        if !matches!(f.field("iteration"), Ok(Value::I64(_) | Value::U64(_))) {
            return Err(format!("line {n}: finding {i}: missing iteration"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: u64) -> RunEvent {
        RunEvent {
            policy: "dp_a",
            iteration,
            reward: 21.5,
            loss: Some(0.42),
            entropy: Some(0.69),
            iters_per_sec: 88.0,
            comm_bytes: 13400,
            staleness: 1,
            plan_cache_hit_rate: Some(0.97),
            attr: None,
            actsrv: None,
            health: None,
        }
    }

    fn sample_v2(iteration: u64) -> RunEvent {
        let stamps = vec![
            crate::StepStamp {
                role: "actor",
                fragment: 0,
                class: crate::StepClass::Rollout,
                start_ns: 0,
                end_ns: 95,
            },
            crate::StepStamp {
                role: "learner",
                fragment: 0,
                class: crate::StepClass::Learn,
                start_ns: 0,
                end_ns: 90,
            },
        ];
        RunEvent { attr: Some(crate::attribute(&stamps, 0, 100, 2.0)), ..sample(iteration) }
    }

    #[test]
    fn json_lines_validate() {
        let lines: Vec<String> = (0..3).map(|i| sample(i).to_json_line()).collect();
        let content = lines.join("\n");
        assert_eq!(validate_metrics(&content).expect("valid stream"), 3);
        // Optionals may be null.
        let mut ev = sample(9);
        ev.loss = None;
        ev.entropy = None;
        ev.plan_cache_hit_rate = None;
        assert_eq!(validate_metrics(&ev.to_json_line()).unwrap(), 1);
    }

    #[test]
    fn v2_lines_validate_and_mix_with_v1() {
        let ev = sample_v2(3);
        assert_eq!(ev.schema(), RUN_EVENT_SCHEMA_V2);
        let line = ev.to_json_line();
        assert!(line.contains("\"schema\": \"msrl.run_event.v2\""));
        assert!(line.contains("\"bottleneck\": \"rollout\""));
        assert!(line.contains("\"fragments\": ["));
        let mixed = format!("{}\n{}", sample(2).to_json_line(), line);
        assert_eq!(validate_metrics(&mixed).expect("v1 and v2 both accepted"), 2);
        // A v2 line whose fragment components do not sum to the wall is
        // rejected — the identity is part of the schema.
        let broken = line.replacen("\"rollout_ns\": 95", "\"rollout_ns\": 96", 1);
        assert!(validate_metrics(&broken).is_err());
    }

    fn sample_v3(iteration: u64) -> RunEvent {
        let mut monitor = crate::HealthMonitor::default();
        let health = monitor.observe(&crate::HealthSample {
            iteration,
            reward: 21.5,
            loss: Some(0.42),
            entropy: Some(0.69),
            iters_per_sec: 88.0,
            staleness_bound: 1,
            grad_norm: Some(1.2),
            weight_norm: Some(30.0),
            update_ratio: Some(2e-3),
            nonfinite_params: Some(0),
            ..crate::HealthSample::default()
        });
        RunEvent { health: Some(health), ..sample(iteration) }
    }

    #[test]
    fn v3_lines_validate_and_mix_with_older_schemas() {
        let ev = sample_v3(4);
        assert_eq!(ev.schema(), RUN_EVENT_SCHEMA_V3);
        let line = ev.to_json_line();
        assert!(line.contains("\"schema\": \"msrl.run_event.v3\""));
        assert!(line.contains("\"health\": {\"status\": \"ok\", \"nonfinite\": false"));
        assert!(line.contains("\"findings\": []"));
        let mixed =
            format!("{}\n{}\n{}", sample(1).to_json_line(), sample_v2(2).to_json_line(), line);
        assert_eq!(validate_metrics(&mixed).expect("all three schemas accepted"), 3);
        // Health on v3 may coexist with an attribution.
        let both = RunEvent { health: sample_v3(5).health, ..sample_v2(5) };
        assert_eq!(both.schema(), RUN_EVENT_SCHEMA_V3);
        assert_eq!(validate_metrics(&both.to_json_line()).expect("attr+health validates"), 1);
        // A v1 line must not smuggle a health object.
        let smuggled = sample(6).to_json_line().replacen(
            ", \"plan_cache_hit_rate\"",
            ", \"health\": {\"status\": \"ok\"}, \"plan_cache_hit_rate\"",
            1,
        );
        assert!(validate_metrics(&smuggled).is_err());
        // A bad status label is rejected.
        let bad = line.replacen("\"status\": \"ok\"", "\"status\": \"meh\"", 1);
        assert!(validate_metrics(&bad).is_err());
        // NaN gauges render as null and still validate; the explicit
        // nonfinite flag carries the poison.
        let mut monitor = crate::HealthMonitor::default();
        let health = monitor.observe(&crate::HealthSample {
            iteration: 7,
            reward: 1.0,
            loss: Some(f64::NAN),
            iters_per_sec: 10.0,
            grad_norm: Some(f64::INFINITY),
            nonfinite_params: Some(4),
            ..crate::HealthSample::default()
        });
        assert_eq!(health.status, crate::Severity::Critical);
        let poisoned = RunEvent { health: Some(health), ..sample(7) };
        let pline = poisoned.to_json_line();
        assert!(pline.contains("\"nonfinite\": true"));
        assert!(pline.contains("\"grad_norm\": null"));
        assert!(pline.contains("\"detector\": \"nonfinite\""));
        assert_eq!(validate_metrics(&pline).expect("poisoned line still validates"), 1);
    }

    #[test]
    fn emit_write_error_is_counted_and_surfaced_on_flush() {
        // Point the sink at an unwritable path: open succeeds on a
        // directory-less path? No — use a path that *opens* but cannot
        // be written: /dev/full returns ENOSPC on write on Linux.
        if !std::path::Path::new("/dev/full").exists() {
            return; // not on this platform; covered in CI (Linux)
        }
        let before = crate::counter_total("sink.io_errors");
        set_metrics_file(Some("/dev/full"));
        emit_run_event(&sample(1));
        let err = flush_metrics();
        set_metrics_file(None);
        // The registry and sink are process-global and sibling tests
        // emit concurrently, so assert lower bounds only.
        assert!(crate::counter_total("sink.io_errors") > before);
        assert!(err.is_err(), "held write error surfaces on flush");
    }

    #[test]
    fn actsrv_stats_render_and_validate() {
        let ev = RunEvent { actsrv: Some(ActsrvStats { batches: 32, rows: 192 }), ..sample(4) };
        let line = ev.to_json_line();
        assert!(line.contains("\"actsrv\": {\"batches\": 32, \"rows\": 192}"));
        // Present on v1 lines without a schema bump, absent when None.
        assert!(line.contains("\"schema\": \"msrl.run_event.v1\""));
        assert!(!sample(4).to_json_line().contains("actsrv"));
        let mixed = format!("{}\n{}", line, sample(5).to_json_line());
        assert_eq!(validate_metrics(&mixed).expect("actsrv lines validate"), 2);
        // rows < batches breaks the at-least-one-row-per-forward
        // invariant and is rejected.
        let broken = line.replacen("\"rows\": 192", "\"rows\": 7", 1);
        assert!(validate_metrics(&broken).is_err());
        let bad_type = line.replacen("\"batches\": 32", "\"batches\": \"32\"", 1);
        assert!(validate_metrics(&bad_type).is_err());
    }

    #[test]
    fn prometheus_histogram_series_are_exact() {
        crate::histogram_record("sink.test.promhist", 5); // bucket 3, le 7
        crate::histogram_record("sink.test.promhist", 6);
        crate::histogram_record("sink.test.promhist", 900); // bucket 10, le 1023
        let text = metrics_text();
        assert!(text.contains("# TYPE msrl_hist_sink_test_promhist_ns histogram"));
        assert!(text.contains("msrl_hist_sink_test_promhist_ns_bucket{le=\"7\"} 2"));
        assert!(text.contains("msrl_hist_sink_test_promhist_ns_bucket{le=\"1023\"} 3"));
        assert!(text.contains("msrl_hist_sink_test_promhist_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("msrl_hist_sink_test_promhist_ns_sum 911"));
        assert!(text.contains("msrl_hist_sink_test_promhist_ns_count 3"));
        // Legacy quantile lines survive the deprecation cycle.
        assert!(text.contains("msrl_hist_sink_test_promhist_ns{quantile=\"0.5\"}"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(validate_metrics("{\"schema\": \"nope\"}").is_err());
        assert!(validate_metrics("not json at all").is_err());
        let truncated = &sample(0).to_json_line()[..40];
        assert!(validate_metrics(truncated).is_err());
        let bad_rate = sample(0).to_json_line().replace("0.97", "1.97");
        assert!(validate_metrics(&bad_rate).is_err());
    }

    #[test]
    fn emit_updates_text_exposition() {
        emit_run_event(&sample(5));
        assert!(run_events_emitted() >= 1);
        let text = metrics_text();
        assert!(text.contains("msrl_run_iteration{policy=\"dp_a\"}"));
        assert!(text.contains("msrl_run_reward{policy=\"dp_a\"} 21.5"));
    }
}
