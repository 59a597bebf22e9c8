//! The training-metrics stream: one [`RunEvent`] per run iteration,
//! written as JSONL to `MSRL_METRICS_FILE` and summarised as a
//! Prometheus-style text exposition ([`metrics_text`], dumped to
//! `MSRL_METRICS_TEXT_FILE` by [`flush_metrics`]).
//!
//! The fragment runner's observer (`msrl-runtime`'s `observe.rs`) is the
//! one writer: once per iteration of every policy it emits the training
//! signal — episode return, loss, entropy, throughput, comm bytes,
//! staleness — the raw data behind the paper's
//! throughput/convergence figures, streamed live instead of
//! reconstructed post-hoc. Each JSONL line is written with a single
//! `write` on a file opened in append mode, so concurrent processes
//! (the e2e test binaries in CI share one metrics file) never interleave
//! partial lines.
//!
//! One schema, [`RUN_EVENT_SCHEMA`], whatever is switched on: the
//! `attr` (critical-path attribution), `actsrv` (act-server batching)
//! and `health` (watchdog) blocks are optional, and an absent block has
//! no key at all. [`RunEvent::to_json_line`] and [`RunEvent::parse`] are
//! the one serialise/parse pair; every reader — [`validate_metrics`],
//! [`replay_stream`](crate::replay_stream) behind `doctor`, the live
//! advisor behind `advise --live`, `top` — takes the typed event. Key
//! names, integer `_ns` fields, absent-not-`null` blocks and `null` for
//! a non-finite number are the wire contract the frozen ledger reader
//! (`benchmark/src/stream.rs`) depends on.
//!
//! [`validate_metrics`] parses a metrics file line by line and checks the
//! invariants the types cannot state; the `validate_metrics` binary
//! wraps it for CI.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::{Mutex, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{HealthFinding, HealthStatus, HealthVerdict, IterAttribution, Severity};

/// Schema tag of every metrics line.
pub const RUN_EVENT_SCHEMA: &str = "msrl.run_event.v4";

/// Schema tag of a serialised [`HealthVerdict`].
const HEALTH_VERDICT_SCHEMA: &str = "msrl.health_verdict.v1";

/// Act-server activity during one iteration (counter deltas of the
/// `actsrv.*` family): how many cross-actor batched forwards ran and
/// how many observation rows they covered. Carried on [`RunEvent`] only
/// when the act server is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    pub policy: String,
    /// Zero-based iteration (for A3C: applied gradient push) index.
    pub iteration: u64,
    /// Mean episode return observed this iteration (written as `null`
    /// and read back as NaN when it is not finite).
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
    /// Critical-path attribution for the iteration; `None` when
    /// `MSRL_ATTR=0`.
    pub attr: Option<IterAttribution>,
    /// Act-server batching activity this iteration; `None` when the
    /// cross-actor act server is off.
    pub actsrv: Option<ActsrvStats>,
    /// Per-iteration health block from the watchdog (see
    /// [`crate::health`]); `None` when `MSRL_HEALTH=0`.
    pub health: Option<HealthStatus>,
}

impl RunEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("a value tree always renders")
    }

    /// Parses one metrics line — the only place a metrics line is turned
    /// into a value tree.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown schema tag, a missing or mistyped
    /// field, or an unknown label.
    pub fn parse(line: &str) -> Result<RunEvent, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The invariants the types cannot state: a non-empty policy,
    /// fragment components that sum exactly to the
    /// fragment's wall, a clamped critical path, and act-server rows
    /// covering its batches.
    fn check(&self) -> Result<(), String> {
        if self.policy.is_empty() {
            return Err("empty policy".to_string());
        }
        if let Some(a) = &self.attr {
            if a.critical_path_ns > a.wall_ns {
                return Err("critical_path_ns exceeds wall_ns (clamp missing)".to_string());
            }
            for (i, f) in a.fragments.iter().enumerate() {
                let parts = [f.rollout_ns, f.learn_ns, f.comm_ns, f.eval_ns, f.idle_ns, f.slack_ns];
                let sum: u128 = parts.iter().map(|&p| u128::from(p)).sum();
                if sum != u128::from(f.wall_ns) {
                    return Err(format!(
                        "fragment {i}: components sum to {sum} but wall_ns is {}",
                        f.wall_ns
                    ));
                }
            }
        }
        match self.actsrv {
            Some(s) if s.rows < s.batches => Err(format!(
                "actsrv rows ({}) below batches ({}): every batched forward covers at least one row",
                s.rows, s.batches
            )),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire format. Hand-written where the shim's derive falls short: it can
// neither omit an absent block, nor write a non-finite number as `null`,
// nor read a label back into a closed set. `ActsrvStats` and
// `FragmentAttr` derive theirs.
// ---------------------------------------------------------------------------

pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A finite number, or `null` (JSON has no literal for NaN/Inf).
pub(crate) fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

fn opt_num(x: Option<f64>) -> Value {
    x.map_or(Value::Null, num)
}

/// Reads field `key` of an object, naming the key in the error.
fn get<T: Deserialize>(v: &Value, key: &str) -> Result<T, DeError> {
    T::from_value(v.field(key)?).map_err(|e| DeError::new(format!("{key}: {e}")))
}

/// A number [`num`] may have written as `null`: reads back as NaN, so a
/// poisoned value stays poisoned.
fn get_num(v: &Value, key: &str) -> Result<f64, DeError> {
    Ok(get::<Option<f64>>(v, key)?.unwrap_or(f64::NAN))
}

/// An optional block: absent is `None`, present must parse.
fn get_block<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, DeError> {
    v.field(key).map_or(Ok(None), |_| get(v, key).map(Some))
}

fn check_schema(v: &Value, tag: &str) -> Result<(), DeError> {
    let schema: String = get(v, "schema")?;
    if schema == tag {
        Ok(())
    } else {
        Err(DeError::new(format!("schema {schema:?} is not {tag:?}")))
    }
}

/// A label from a closed set.
fn get_label(v: &Value, key: &str, known: &[&'static str]) -> Result<&'static str, DeError> {
    let s: String = get(v, key)?;
    known
        .iter()
        .copied()
        .find(|k| *k == s)
        .ok_or_else(|| DeError::new(format!("{key}: unknown {s:?}")))
}

impl Serialize for RunEvent {
    fn to_value(&self) -> Value {
        let mut m = vec![
            ("schema", RUN_EVENT_SCHEMA.to_value()),
            ("policy", self.policy.to_value()),
            ("iteration", self.iteration.to_value()),
            ("reward", num(self.reward)),
            ("loss", opt_num(self.loss)),
            ("entropy", opt_num(self.entropy)),
            ("iters_per_sec", num(self.iters_per_sec)),
            ("comm_bytes", self.comm_bytes.to_value()),
            ("staleness", self.staleness.to_value()),
        ];
        if let Some(a) = &self.attr {
            m.push(("attr", a.to_value()));
        }
        if let Some(s) = &self.actsrv {
            m.push(("actsrv", s.to_value()));
        }
        if let Some(h) = &self.health {
            m.push(("health", h.to_value()));
        }
        obj(m)
    }
}

impl Deserialize for RunEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        check_schema(v, RUN_EVENT_SCHEMA)?;
        Ok(RunEvent {
            policy: get(v, "policy")?,
            iteration: get(v, "iteration")?,
            reward: get_num(v, "reward")?,
            loss: get(v, "loss")?,
            entropy: get(v, "entropy")?,
            iters_per_sec: get_num(v, "iters_per_sec")?,
            comm_bytes: get(v, "comm_bytes")?,
            staleness: get(v, "staleness")?,
            attr: get_block(v, "attr")?,
            actsrv: get_block(v, "actsrv")?,
            health: get_block(v, "health")?,
        })
    }
}

impl Serialize for IterAttribution {
    fn to_value(&self) -> Value {
        obj(vec![
            ("wall_ns", self.wall_ns.to_value()),
            ("critical_path_ns", self.critical_path_ns.to_value()),
            ("cp_clamped", self.cp_clamped.to_value()),
            ("rollout_ns", self.rollout_ns.to_value()),
            ("learn_ns", self.learn_ns.to_value()),
            ("comm_ns", self.comm_ns.to_value()),
            ("eval_ns", self.eval_ns.to_value()),
            ("idle_ns", self.idle_ns.to_value()),
            ("slack_ns", self.slack_ns.to_value()),
            ("bottleneck", self.bottleneck.to_value()),
            ("fragments", self.fragments.to_value()),
        ])
    }
}

impl Deserialize for IterAttribution {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(IterAttribution {
            wall_ns: get(v, "wall_ns")?,
            critical_path_ns: get(v, "critical_path_ns")?,
            cp_clamped: get(v, "cp_clamped")?,
            rollout_ns: get(v, "rollout_ns")?,
            learn_ns: get(v, "learn_ns")?,
            comm_ns: get(v, "comm_ns")?,
            eval_ns: get(v, "eval_ns")?,
            idle_ns: get(v, "idle_ns")?,
            slack_ns: get(v, "slack_ns")?,
            bottleneck: get_label(v, "bottleneck", &crate::attribution::BOTTLENECKS)?,
            fragments: get(v, "fragments")?,
        })
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        self.name().to_value()
    }
}

impl Deserialize for Severity {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        [Severity::Ok, Severity::Warn, Severity::Critical]
            .into_iter()
            .find(|known| known.name() == s)
            .ok_or_else(|| DeError::new(format!("unknown severity {s:?}")))
    }
}

impl Serialize for HealthStatus {
    fn to_value(&self) -> Value {
        obj(vec![
            ("status", self.status.to_value()),
            ("nonfinite", self.nonfinite.to_value()),
            ("grad_norm", opt_num(self.grad_norm)),
            ("weight_norm", opt_num(self.weight_norm)),
            ("update_ratio", opt_num(self.update_ratio)),
            ("nonfinite_params", self.nonfinite_params.to_value()),
            ("findings", self.findings.to_value()),
        ])
    }
}

impl Deserialize for HealthStatus {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(HealthStatus {
            status: get(v, "status")?,
            nonfinite: get(v, "nonfinite")?,
            grad_norm: get(v, "grad_norm")?,
            weight_norm: get(v, "weight_norm")?,
            update_ratio: get(v, "update_ratio")?,
            nonfinite_params: get(v, "nonfinite_params")?,
            findings: get(v, "findings")?,
        })
    }
}

impl Serialize for HealthFinding {
    fn to_value(&self) -> Value {
        obj(vec![
            ("detector", self.detector.to_value()),
            ("severity", self.severity.to_value()),
            ("iteration", self.iteration.to_value()),
            ("detail", self.detail.to_value()),
        ])
    }
}

impl Deserialize for HealthFinding {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(HealthFinding {
            detector: get_label(v, "detector", &crate::health::DETECTORS)?,
            severity: get(v, "severity")?,
            iteration: get(v, "iteration")?,
            detail: get(v, "detail")?,
        })
    }
}

impl Serialize for HealthVerdict {
    fn to_value(&self) -> Value {
        obj(vec![
            ("schema", HEALTH_VERDICT_SCHEMA.to_value()),
            ("status", self.status.to_value()),
            ("iterations", self.iterations.to_value()),
            ("findings", self.findings.to_value()),
        ])
    }
}

impl Deserialize for HealthVerdict {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        check_schema(v, HEALTH_VERDICT_SCHEMA)?;
        Ok(HealthVerdict {
            status: get(v, "status")?,
            iterations: get(v, "iterations")?,
            findings: get(v, "findings")?,
        })
    }
}

// ---------------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------------

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct SinkState {
    /// Append-mode metrics file, opened lazily from `MSRL_METRICS_FILE`
    /// (or [`set_metrics_file`]).
    file: Option<File>,
    /// Whether the env var has been consulted yet.
    resolved: bool,
    /// Last event per policy, for the text exposition.
    last: BTreeMap<String, RunEvent>,
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
    s.last.insert(ev.policy.clone(), ev.clone());
}

/// Events emitted by this process so far.
pub fn run_events_emitted() -> u64 {
    sink().lock().expect("metrics sink poisoned").emitted
}

fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Renders a Prometheus-style text exposition of the whole registry:
/// counters, gauges, histogram buckets, and the latest [`RunEvent`]
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

/// Validates a JSONL metrics stream: every non-empty line must parse as
/// a [`RunEvent`] and hold its invariants (see [`RunEvent::parse`]).
/// Returns the number of valid lines.
///
/// # Errors
///
/// A description of the first bad line (1-based line number).
pub fn validate_metrics(content: &str) -> Result<usize, String> {
    let mut valid = 0usize;
    for (i, line) in content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        RunEvent::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|ev| ev.check())
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        valid += 1;
    }
    Ok(valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: u64) -> RunEvent {
        RunEvent {
            policy: "dp_a".into(),
            iteration,
            reward: 21.5,
            loss: Some(0.42),
            entropy: Some(0.69),
            iters_per_sec: 88.0,
            comm_bytes: 13400,
            staleness: 1,
            attr: None,
            actsrv: None,
            health: None,
        }
    }

    fn with_attr(iteration: u64) -> RunEvent {
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

    fn with_health(iteration: u64) -> RunEvent {
        let mut monitor = crate::HealthMonitor::default();
        let health = monitor.observe(&crate::HealthSample {
            iteration,
            reward: 21.5,
            loss: Some(0.42),
            entropy: Some(0.69),
            iters_per_sec: 88.0,
            grad_norm: Some(1.2),
            weight_norm: Some(30.0),
            update_ratio: Some(2e-3),
            nonfinite_params: Some(0),
        });
        RunEvent { health: Some(health), ..sample(iteration) }
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
        assert_eq!(validate_metrics(&ev.to_json_line()).unwrap(), 1);
        assert_eq!(RunEvent::parse(&ev.to_json_line()).unwrap(), ev);
        // Streams written while events still carried a plan-cache hit
        // rate validate too: a key the schema does not name is ignored.
        let old = ev.to_json_line().replacen('}', ",\"plan_cache_hit_rate\":0.9}", 1);
        assert_ne!(old, ev.to_json_line());
        assert_eq!(validate_metrics(&old).unwrap(), 1);
        assert_eq!(RunEvent::parse(&old).unwrap(), ev);
    }

    #[test]
    fn attr_blocks_validate_and_must_sum_to_wall() {
        let ev = with_attr(3);
        let line = ev.to_json_line();
        assert_eq!(RunEvent::parse(&line).unwrap(), ev);
        let mixed = format!("{}\n{}", sample(2).to_json_line(), line);
        assert_eq!(validate_metrics(&mixed).expect("lines with and without attr"), 2);
        // A fragment whose components do not sum to its wall is rejected
        // — the identity is part of the schema.
        let mut broken = ev.clone();
        broken.attr.as_mut().unwrap().fragments[0].rollout_ns += 1;
        assert!(validate_metrics(&broken.to_json_line()).is_err());
        // So is an unclamped critical path and an unknown bottleneck.
        let mut unclamped = ev.clone();
        unclamped.attr.as_mut().unwrap().critical_path_ns = 101;
        assert!(validate_metrics(&unclamped.to_json_line()).is_err());
        let unknown = line.replacen("\"bottleneck\":\"rollout\"", "\"bottleneck\":\"nap\"", 1);
        assert_ne!(unknown, line);
        assert!(validate_metrics(&unknown).is_err());
    }

    #[test]
    fn health_blocks_validate_and_nonfinite_gauges_render_null() {
        let ev = with_health(4);
        assert_eq!(RunEvent::parse(&ev.to_json_line()).unwrap(), ev);
        // Health may coexist with an attribution on one line.
        let both = RunEvent { health: with_health(5).health, ..with_attr(5) };
        assert_eq!(validate_metrics(&both.to_json_line()).expect("attr+health validates"), 1);
        // A bad status label is rejected.
        let bad = ev.to_json_line().replacen("\"status\":\"ok\"", "\"status\":\"meh\"", 1);
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
        assert_eq!(health.status, Severity::Critical);
        let poisoned = RunEvent { health: Some(health), ..sample(7) };
        let pline = poisoned.to_json_line();
        assert!(pline.contains("\"grad_norm\":null"));
        assert_eq!(validate_metrics(&pline).expect("poisoned line still validates"), 1);
        let h = RunEvent::parse(&pline).unwrap().health.unwrap();
        assert!(h.nonfinite);
        assert_eq!(h.grad_norm, None);
        assert_eq!(h.findings[0].detector, "nonfinite");
    }

    #[test]
    fn nonfinite_reward_validates_and_convicts_on_replay() {
        // The stream writes a NaN reward as null. It is still a valid
        // line, and replay reads it back as non-finite: the stream
        // `doctor` clears must be the stream the live watchdog convicts.
        let ev = RunEvent { reward: f64::NAN, iters_per_sec: f64::INFINITY, ..sample(3) };
        let line = ev.to_json_line();
        assert!(line.contains("\"reward\":null"));
        assert_eq!(validate_metrics(&line), Ok(1));
        let verdict = crate::replay_stream(&line).expect("replays");
        assert_eq!(verdict.status, Severity::Critical, "{}", verdict.render());
        assert!(verdict.findings.iter().any(|f| f.detector == "nonfinite"));
    }

    #[test]
    fn absent_blocks_have_no_key_and_ns_fields_are_integers() {
        // The frozen ledger reader (`benchmark/src/stream.rs`) takes a
        // present `attr` key for a block and reads its `_ns` fields as
        // numbers: an absent block must not be written as `null`.
        let bare = serde_json::value_from_str(&sample(1).to_json_line()).unwrap();
        for key in ["attr", "actsrv", "health"] {
            assert!(bare.field(key).is_err(), "absent {key} has no key");
        }
        let line = RunEvent { actsrv: Some(ActsrvStats { batches: 2, rows: 9 }), ..with_attr(2) };
        let v = serde_json::value_from_str(&line.to_json_line()).unwrap();
        let attr = v.field("attr").unwrap();
        let frag = attr.field("fragments").unwrap().index(0).unwrap();
        for key in
            ["wall_ns", "rollout_ns", "learn_ns", "comm_ns", "eval_ns", "idle_ns", "slack_ns"]
        {
            assert!(matches!(attr.field(key), Ok(Value::I64(_))), "attr.{key} is an integer");
            assert!(matches!(frag.field(key), Ok(Value::I64(_))), "fragment {key} is an integer");
        }
        assert_eq!(v.field("iteration"), Ok(&Value::I64(2)));
        assert_eq!(v.field("schema"), Ok(&Value::Str(RUN_EVENT_SCHEMA.to_string())));
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
        assert!(line.contains("\"actsrv\":{\"batches\":32,\"rows\":192}"));
        assert!(!sample(4).to_json_line().contains("actsrv"));
        let mixed = format!("{}\n{}", line, sample(5).to_json_line());
        assert_eq!(validate_metrics(&mixed).expect("actsrv lines validate"), 2);
        // rows < batches breaks the at-least-one-row-per-forward
        // invariant and is rejected.
        let broken = line.replacen("\"rows\":192", "\"rows\":7", 1);
        assert!(validate_metrics(&broken).is_err());
        let bad_type = line.replacen("\"batches\":32", "\"batches\":\"32\"", 1);
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
        // A histogram family carries `_bucket`, `_sum` and `_count`
        // samples and nothing else.
        let base = "msrl_hist_sink_test_promhist_ns";
        let family = text
            .lines()
            .skip_while(|l| *l != format!("# TYPE {base} histogram"))
            .skip(1)
            .take_while(|l| !l.starts_with("# TYPE") && !l.starts_with("msrl_run_"));
        for line in family {
            let ok = ["_bucket{", "_sum ", "_count "]
                .iter()
                .any(|s| line.starts_with(&(base.to_owned() + s)));
            assert!(ok, "{line:?} under the TYPE line of {base}");
        }
        assert!(!text.contains("quantile="), "no summary samples in a histogram exposition");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(validate_metrics("{\"schema\": \"nope\"}").is_err());
        assert!(validate_metrics("not json at all").is_err());
        let truncated = &sample(0).to_json_line()[..40];
        assert!(validate_metrics(truncated).is_err());
        // Any other tag is not this schema.
        let other = sample(0).to_json_line().replace(RUN_EVENT_SCHEMA, "msrl.run_event.v0");
        assert!(validate_metrics(&other).is_err());
        // A present block is a block: `null` is not "absent".
        let null_attr = sample(0).to_json_line().replacen('}', ",\"attr\":null}", 1);
        assert!(validate_metrics(&null_attr).is_err());
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
