//! Chrome trace-event export and schema validation.
//!
//! [`chrome_trace`] serialises a drained event stream into the JSON
//! Trace Event Format that Perfetto and `chrome://tracing` load. Each
//! recording thread becomes one duration lane (`ph: "B"/"E"`), and every
//! span labelled with a fragment id additionally appears on an async
//! lane (`ph: "b"/"e"`, `cat: "fragment"`) keyed by that id — so the
//! timeline shows both *where* (which worker thread) and *what* (which
//! fragment) the time went to.
//!
//! [`validate_chrome_trace`] parses a trace back and checks the schema
//! invariants tests and CI rely on: every `B` has a matching `E` on the
//! same thread in LIFO order, every async `b` has its `e`, and
//! timestamps are present, non-negative and ordered within each pair.

use serde_json::Value;
use std::collections::HashMap;

use crate::recorder::{Event, Phase};

fn push_common(out: &mut String, name: &str, cat: &str, ph: char, tid: u64, ts_ns: u64) {
    out.push_str("{\"name\":");
    serde_json::escape_into(name, out);
    out.push_str(",\"cat\":\"");
    out.push_str(cat);
    out.push_str("\",\"ph\":\"");
    out.push(ph);
    out.push_str(&format!("\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}", ts_ns as f64 / 1e3));
}

/// Serialises events into Chrome trace-event JSON (microsecond
/// timestamps, one duration lane per recording thread, async lanes per
/// fragment id).
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"msrl\"}}");
    let mut named: Vec<u64> = Vec::new();
    for e in events {
        if !named.contains(&e.tid) {
            named.push(e.tid);
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"worker-{}\"}}}}",
                e.tid, e.tid
            ));
        }
        let ph = match e.phase {
            Phase::Begin => 'B',
            Phase::End => 'E',
        };
        out.push_str(",\n");
        push_common(&mut out, e.name, "msrl", ph, e.tid, e.ts_ns);
        if let (Phase::Begin, Some(id)) = (e.phase, e.id) {
            out.push_str(&format!(",\"args\":{{\"id\":{id}}}"));
        }
        out.push('}');
        // Fragment-labelled spans get an async lane keyed by their id.
        if let Some(id) = e.id {
            if e.name.starts_with("fragment") {
                let aph = match e.phase {
                    Phase::Begin => 'b',
                    Phase::End => 'e',
                };
                out.push_str(",\n");
                push_common(&mut out, e.name, "fragment", aph, e.tid, e.ts_ns);
                out.push_str(&format!(",\"id\":\"{id}\"}}"));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// What [`validate_chrome_trace`] measured while checking a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total trace events (metadata included).
    pub events: usize,
    /// Matched thread-lane `B`/`E` pairs.
    pub span_pairs: usize,
    /// Matched async-lane `b`/`e` pairs.
    pub async_pairs: usize,
    /// `B` events whose span name starts with `fragment`.
    pub fragment_spans: usize,
}

fn get<'v>(map: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// Parses a Chrome trace produced by [`chrome_trace`] (or anything
/// schema-compatible) and checks its structural invariants.
///
/// # Errors
///
/// Returns a description of the first violation: unparsable JSON, a
/// missing field, an `E` without a matching `B` (or mismatched name), a
/// negative or out-of-order timestamp, or an unbalanced async pair.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let root = serde_json::value_from_str(json).map_err(|e| format!("unparsable JSON: {e}"))?;
    let events = match &root {
        Value::Seq(items) => items,
        Value::Map(entries) => match get(entries, "traceEvents") {
            Some(Value::Seq(items)) => items,
            _ => return Err("top-level object lacks a traceEvents array".into()),
        },
        _ => return Err("trace must be an array or an object".into()),
    };

    let mut check = TraceCheck { events: events.len(), ..TraceCheck::default() };
    // Per-thread open-span stacks: (name, ts).
    let mut stacks: HashMap<u64, Vec<(String, f64)>> = HashMap::new();
    // Async balance per (cat, id, name): (+opens, last open ts).
    let mut async_open: HashMap<(String, String, String), Vec<f64>> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        let Value::Map(fields) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let ph = get(fields, "ph")
            .and_then(as_str)
            .ok_or_else(|| format!("event {i} lacks a ph field"))?;
        if ph == "M" {
            continue; // metadata
        }
        let name = get(fields, "name")
            .and_then(as_str)
            .ok_or_else(|| format!("event {i} lacks a name"))?
            .to_string();
        let ts = get(fields, "ts")
            .and_then(as_f64)
            .ok_or_else(|| format!("event {i} ({name}) lacks a ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i} ({name}) has negative ts {ts}"));
        }
        match ph {
            "B" | "E" => {
                let tid = get(fields, "tid")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("event {i} ({name}) lacks a tid"))?
                    as u64;
                let stack = stacks.entry(tid).or_default();
                if ph == "B" {
                    if name.starts_with("fragment") {
                        check.fragment_spans += 1;
                    }
                    stack.push((name, ts));
                } else {
                    let Some((open_name, open_ts)) = stack.pop() else {
                        return Err(format!(
                            "event {i}: E \"{name}\" with no open span on tid {tid}"
                        ));
                    };
                    if open_name != name {
                        return Err(format!(
                            "event {i}: E \"{name}\" closes \"{open_name}\" on tid {tid}"
                        ));
                    }
                    if ts < open_ts {
                        return Err(format!("event {i}: span \"{name}\" ends before it begins"));
                    }
                    check.span_pairs += 1;
                }
            }
            "b" | "e" => {
                let cat = get(fields, "cat").and_then(as_str).unwrap_or("").to_string();
                let id = match get(fields, "id") {
                    Some(Value::Str(s)) => s.clone(),
                    Some(v) => as_f64(v).map(|f| f.to_string()).unwrap_or_default(),
                    None => return Err(format!("event {i} ({name}): async event lacks an id")),
                };
                let key = (cat, id, name.clone());
                if ph == "b" {
                    async_open.entry(key).or_default().push(ts);
                } else {
                    let Some(opens) = async_open.get_mut(&key) else {
                        return Err(format!("event {i}: e \"{name}\" with no open async span"));
                    };
                    let Some(open_ts) = opens.pop() else {
                        return Err(format!("event {i}: e \"{name}\" with no open async span"));
                    };
                    if ts < open_ts {
                        return Err(format!("event {i}: async \"{name}\" ends before it begins"));
                    }
                    check.async_pairs += 1;
                }
            }
            other => return Err(format!("event {i} ({name}) has unsupported ph \"{other}\"")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span \"{name}\" on tid {tid} never ends"));
        }
    }
    for ((_, id, name), opens) in &async_open {
        if !opens.is_empty() {
            return Err(format!("async span \"{name}\" (id {id}) never ends"));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase, ts_ns: u64, tid: u64, id: Option<u64>) -> Event {
        Event { name, phase, ts_ns, tid, id }
    }

    #[test]
    fn round_trip_validates() {
        let events = vec![
            ev("fragment.eval", Phase::Begin, 1_000, 1, Some(4)),
            ev("interp.macro", Phase::Begin, 2_000, 1, None),
            ev("interp.macro", Phase::End, 3_000, 1, None),
            ev("fragment.eval", Phase::End, 9_000, 1, Some(4)),
            ev("comm.send", Phase::Begin, 2_500, 2, None),
            ev("comm.send", Phase::End, 2_600, 2, None),
        ];
        let trace = chrome_trace(&events);
        let check = validate_chrome_trace(&trace).unwrap();
        assert_eq!(check.span_pairs, 3);
        assert_eq!(check.async_pairs, 1);
        assert_eq!(check.fragment_spans, 1);
    }

    #[test]
    fn unbalanced_span_is_rejected() {
        let events = vec![ev("lonely", Phase::Begin, 10, 1, None)];
        let trace = chrome_trace(&events);
        let err = validate_chrome_trace(&trace).unwrap_err();
        assert!(err.contains("never ends"), "{err}");
    }

    #[test]
    fn mismatched_nesting_is_rejected() {
        let trace = r#"[
            {"name":"a","ph":"B","tid":1,"ts":1.0},
            {"name":"b","ph":"B","tid":1,"ts":2.0},
            {"name":"a","ph":"E","tid":1,"ts":3.0},
            {"name":"b","ph":"E","tid":1,"ts":4.0}
        ]"#;
        assert!(validate_chrome_trace(trace).is_err());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
    }
}
