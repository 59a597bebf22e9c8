//! The training-metrics stream: one [`RunEvent`] per run iteration,
//! written as JSONL to `MSRL_METRICS_FILE`.
//!
//! The fragment runner's observer (`msrl-runtime`'s `observe.rs`) is the
//! one writer: once per iteration of every run it emits the training
//! signal — episode return, loss, entropy, throughput, comm bytes,
//! staleness — under the run's id, streamed live. Each line is one
//! `write` on a file opened in append mode, so concurrent processes (the
//! e2e test binaries in CI share one metrics file) never interleave
//! partial lines, and the run id keeps their runs apart ([`split_runs`]).
//!
//! The stream is the one profile a run leaves: where each iteration's
//! time went (`attr`), how fast it ran and how much it sent, and whether
//! it was healthy. One schema, [`RUN_EVENT_SCHEMA`]: the `attr` and
//! `health` blocks are optional, and an absent block has no key at all.
//! A key the schema does not name is ignored, so older streams (an
//! `actsrv` block, a plan-cache hit rate, a critical path) still parse.
//! [`RunEvent::to_json_line`] and [`RunEvent::parse`] are the one
//! serialise/parse pair; every reader — [`validate_metrics`],
//! [`replay_stream`](crate::replay_stream) behind `doctor`, the live
//! advisor behind `advise`, `top` — takes the typed event. Key
//! names, integer `_ns` fields, absent-not-`null` blocks and `null` for
//! a non-finite number are the wire contract the frozen ledger reader
//! (`benchmark/src/stream.rs`) depends on.
//!
//! [`validate_metrics`] parses a metrics file line by line and checks the
//! invariants the types cannot state; the `validate_metrics` binary
//! wraps it for CI.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::{Mutex, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{HealthFinding, HealthStatus, HealthVerdict, IterAttribution, Severity};

/// Schema tag of every metrics line.
pub const RUN_EVENT_SCHEMA: &str = "msrl.run_event.v4";

/// Schema tag of a serialised [`HealthVerdict`].
const HEALTH_VERDICT_SCHEMA: &str = "msrl.health_verdict.v1";

/// One per-iteration training-metrics record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEvent {
    /// The run that wrote the event ([`crate::next_run`]); 0 for a line
    /// written before events carried one.
    pub run: u64,
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
    /// Bytes the run's own fabric sent during the iteration.
    pub comm_bytes: u64,
    /// Configured staleness bound the iteration ran under.
    pub staleness: u64,
    /// The iteration's per-fragment time budget. Every event a run
    /// writes carries one; the schema keeps it optional (an absent block
    /// has no key).
    pub attr: Option<IterAttribution>,
    /// Per-iteration health block from the watchdog (see
    /// [`crate::health`]). Every event a run writes carries one; the
    /// schema keeps it optional.
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

    /// The invariants the types cannot state: a non-empty policy and
    /// fragment components that sum exactly to the fragment's wall.
    fn check(&self) -> Result<(), String> {
        if self.policy.is_empty() {
            return Err("empty policy".to_string());
        }
        if let Some(a) = &self.attr {
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
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Wire format. Hand-written where the shim's derive falls short: it can
// neither omit an absent block, nor write a non-finite number as `null`,
// nor read a label back into a closed set. `FragmentAttr` derives its
// own.
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

/// An optional field: absent is `None`, present must parse.
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
            ("run", self.run.to_value()),
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
            run: get_block(v, "run")?.unwrap_or(0),
            policy: get(v, "policy")?,
            iteration: get(v, "iteration")?,
            reward: get_num(v, "reward")?,
            loss: get(v, "loss")?,
            entropy: get(v, "entropy")?,
            iters_per_sec: get_num(v, "iters_per_sec")?,
            comm_bytes: get(v, "comm_bytes")?,
            staleness: get(v, "staleness")?,
            attr: get_block(v, "attr")?,
            health: get_block(v, "health")?,
        })
    }
}

impl Serialize for IterAttribution {
    fn to_value(&self) -> Value {
        obj(vec![
            ("wall_ns", self.wall_ns.to_value()),
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

struct SinkState {
    /// Append-mode metrics file, opened lazily from `MSRL_METRICS_FILE`
    /// (or [`set_metrics_file`]).
    file: Option<File>,
    /// Whether the env var has been consulted yet.
    resolved: bool,
    /// First write error since the last [`flush_metrics`] — emit is
    /// called on the iteration hot loop and cannot return it, so the
    /// error is held (and counted on `sink.io_errors`) until the next
    /// flush surfaces it.
    io_error: Option<std::io::Error>,
}

fn sink() -> &'static Mutex<SinkState> {
    static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(SinkState { file: None, resolved: false, io_error: None }))
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

/// Emits one [`RunEvent`]: appends a JSONL line to the metrics file, if
/// configured. Called once per driver iteration — file I/O cost, not
/// hot-path cost.
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
}

/// Flushes the metrics stream. Drivers call this at the end of a run;
/// safe to call repeatedly.
///
/// # Errors
///
/// Propagates I/O errors from the flush — including the first write
/// error any earlier [`emit_run_event`] hit (held rather than
/// swallowed; also counted on `sink.io_errors`).
pub fn flush_metrics() -> std::io::Result<()> {
    let mut s = sink().lock().expect("metrics sink poisoned");
    if let Some(e) = s.io_error.take() {
        return Err(e);
    }
    if let Some(f) = &mut s.file {
        f.flush()?;
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

/// Groups a stream's events into runs, in the order the runs start: a
/// run is the events of one `(run, policy)` pair, however the lines of
/// runs written into one file at once interleave. Lines written before
/// events carried a run id all read as run 0: one run per policy.
pub fn split_runs(events: impl IntoIterator<Item = RunEvent>) -> Vec<Vec<RunEvent>> {
    let mut runs: Vec<Vec<RunEvent>> = Vec::new();
    for ev in events {
        match runs.iter_mut().find(|r| r[0].run == ev.run && r[0].policy == ev.policy) {
            Some(run) => run.push(ev),
            None => runs.push(vec![ev]),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs of one policy interleave their lines, a second policy's
    /// run sits between them, and a line written before events carried a
    /// run id reads as run 0: a run of its own.
    #[test]
    fn runs_split_by_run_id_and_policy() {
        let ev = |run, policy: &str, iteration| RunEvent {
            run,
            policy: policy.into(),
            ..sample(iteration)
        };
        let old = ev(7, "dp_a", 5).to_json_line().replacen("\"run\":7,", "", 1);
        assert!(!old.contains("\"run\""));
        let stream = [
            ev(1, "dp_a", 0),
            ev(2, "dp_a", 0),
            ev(2, "dp_a", 1),
            ev(3, "dp_c", 0),
            ev(1, "dp_a", 1),
            RunEvent::parse(&old).expect("a line without a run parses"),
            ev(2, "dp_a", 2),
            ev(1, "dp_a", 2),
        ];
        let runs: Vec<Vec<(u64, String, u64)>> = split_runs(stream)
            .into_iter()
            .map(|run| run.into_iter().map(|e| (e.run, e.policy, e.iteration)).collect())
            .collect();
        let at = |run: u64, policy: &str, iterations: &[u64]| -> Vec<(u64, String, u64)> {
            iterations.iter().map(|&i| (run, policy.to_string(), i)).collect()
        };
        assert_eq!(
            runs,
            [
                at(1, "dp_a", &[0, 1, 2]),
                at(2, "dp_a", &[0, 1, 2]),
                at(3, "dp_c", &[0]),
                at(0, "dp_a", &[5]),
            ]
        );
    }

    fn sample(iteration: u64) -> RunEvent {
        RunEvent {
            run: 1,
            policy: "dp_a".into(),
            iteration,
            reward: 21.5,
            loss: Some(0.42),
            entropy: Some(0.69),
            iters_per_sec: 88.0,
            comm_bytes: 13400,
            staleness: 1,
            attr: None,
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
        RunEvent { attr: Some(crate::attribute(&stamps, 0, 100)), ..sample(iteration) }
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
    fn actsrv_stats_render_and_validate() {
        // The act-server block is no longer written: the act server that
        // filled it is gone.
        let ev = sample(4);
        assert!(!ev.to_json_line().contains("actsrv"), "the block is no longer written");
        // Older lines that carry it still validate and parse to the same
        // event, mixed with new lines and whatever the block holds: rows
        // below batches or a mistyped field is an unknown key's business.
        for block in [
            "\"actsrv\":{\"batches\":32,\"rows\":192}",
            "\"actsrv\":{\"batches\":32,\"rows\":7}",
            "\"actsrv\":{\"batches\":\"32\",\"rows\":192}",
        ] {
            let old = ev.to_json_line().replacen('}', &format!(",{block}}}"), 1);
            assert!(old.contains(block));
            assert_eq!(RunEvent::parse(&old).unwrap(), ev);
            let mixed = format!("{}\n{}", old, sample(5).to_json_line());
            assert_eq!(validate_metrics(&mixed).expect("old actsrv lines validate"), 2);
        }
    }

    #[test]
    fn critical_path_keys_parse_and_validate() {
        // The critical path and the per-fragment `critical` /
        // `straggler` flags are no longer written.
        let ev = with_attr(6);
        let line = ev.to_json_line();
        for key in ["critical_path_ns", "cp_clamped", "critical", "straggler"] {
            assert!(!line.contains(key), "{key} is no longer written");
        }
        // Older lines that carry them still validate and parse to the
        // same event, whatever they held: a path past the wall was the
        // clamp rule's business, and that rule went with the path.
        for path in ["90000000", "101", "\"x\""] {
            let old = line
                .replacen(
                    "\"wall_ns\"",
                    &format!("\"critical_path_ns\":{path},\"cp_clamped\":true,\"wall_ns\""),
                    1,
                )
                .replace(
                    "\"wall_ns\":100}",
                    "\"wall_ns\":100,\"straggler\":false,\"critical\":true}",
                );
            assert!(old.contains("critical_path_ns") && old.contains("\"critical\":true"));
            assert_eq!(RunEvent::parse(&old).unwrap(), ev);
            let mixed = format!("{}\n{}", old, sample(7).to_json_line());
            assert_eq!(validate_metrics(&mixed).expect("old critical-path lines validate"), 2);
        }
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
        // So is an unknown bottleneck.
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
        for key in ["attr", "health"] {
            assert!(bare.field(key).is_err(), "absent {key} has no key");
        }
        let v = serde_json::value_from_str(&with_attr(2).to_json_line()).unwrap();
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
        // The registry is process-global and sibling tests emit
        // concurrently, so assert a lower bound only.
        assert!(crate::counter_total("sink.io_errors") > before);
        assert!(err.is_err(), "held write error surfaces on flush");
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
}
