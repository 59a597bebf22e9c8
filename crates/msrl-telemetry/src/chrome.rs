//! Chrome trace-event export and schema validation.
//!
//! [`chrome_trace`] serialises drained spans into the JSON Trace Event
//! Format that Perfetto and `chrome://tracing` load. Each span is one
//! complete event (`ph: "X"`) on its recording thread's lane, and every
//! span labelled with a fragment id whose name starts with `fragment`
//! also appears on an async lane (`ph: "b"/"e"`, `cat: "fragment"`) keyed
//! by that id, built from the same record — so the timeline shows both
//! *where* (which worker thread) and *what* (which fragment) the time
//! went to.
//!
//! [`validate_chrome_trace`] parses a trace back and checks the schema
//! invariants tests and CI rely on: every complete event has a name, a
//! thread, a non-negative start and duration, and every async `b` has
//! its `e` no earlier than it.

use serde::{Serialize, Value};
use std::collections::HashMap;

use crate::recorder::Span;
use crate::sink::obj;

/// Nanoseconds on the telemetry clock as the format's microseconds.
fn us(ns: u64) -> Value {
    Value::F64(ns as f64 / 1e3)
}

/// Serialises spans into Chrome trace-event JSON (microsecond
/// timestamps, one lane per recording thread, async lanes per fragment
/// id).
pub fn chrome_trace(spans: &[Span]) -> String {
    let meta = |name: &str, tid: Option<u64>, label: String| {
        let mut fields =
            vec![("name", name.to_value()), ("ph", "M".to_value()), ("pid", 1.to_value())];
        fields.extend(tid.map(|tid| ("tid", tid.to_value())));
        fields.push(("args", obj(vec![("name", label.to_value())])));
        obj(fields)
    };
    let mut events = vec![meta("process_name", None, "msrl".into())];
    let mut named: Vec<u64> = Vec::new();
    for s in spans {
        if !named.contains(&s.tid) {
            named.push(s.tid);
            events.push(meta("thread_name", Some(s.tid), format!("worker-{}", s.tid)));
        }
        let at = |cat: &str, ph: &str, ts_ns: u64| {
            let (name, tid) = (s.name.to_value(), s.tid.to_value());
            vec![
                ("name", name),
                ("cat", cat.to_value()),
                ("ph", ph.to_value()),
                ("pid", 1.to_value()),
                ("tid", tid),
                ("ts", us(ts_ns)),
            ]
        };
        let mut x = at("msrl", "X", s.start_ns);
        x.push(("dur", us(s.duration_ns())));
        x.extend(s.id.map(|id| ("args", obj(vec![("id", id.to_value())]))));
        events.push(obj(x));
        if let Some(id) = s.id.filter(|_| s.name.starts_with("fragment")) {
            for (ph, ts_ns) in [("b", s.start_ns), ("e", s.start_ns + s.duration_ns())] {
                let mut edge = at("fragment", ph, ts_ns);
                edge.push(("id", id.to_string().to_value()));
                events.push(obj(edge));
            }
        }
    }
    let trace =
        obj(vec![("displayTimeUnit", "ms".to_value()), ("traceEvents", Value::Seq(events))]);
    serde_json::to_string(&trace).expect("a value tree always renders")
}

/// What [`validate_chrome_trace`] measured while checking a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total trace events (metadata included).
    pub events: usize,
    /// Complete (`X`) span events.
    pub spans: usize,
    /// Matched async-lane `b`/`e` pairs.
    pub async_pairs: usize,
    /// `X` events whose span name starts with `fragment`.
    pub fragment_spans: usize,
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
/// missing field, a negative timestamp or duration, an unsupported
/// phase, or an unbalanced or backwards async pair.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let root = serde_json::value_from_str(json).map_err(|e| format!("unparsable JSON: {e}"))?;
    let events = match &root {
        Value::Seq(items) => items,
        Value::Map(_) => match root.field("traceEvents") {
            Ok(Value::Seq(items)) => items,
            _ => return Err("top-level object lacks a traceEvents array".into()),
        },
        _ => return Err("trace must be an array or an object".into()),
    };

    let mut check = TraceCheck { events: events.len(), ..TraceCheck::default() };
    // Open async spans per (cat, id, name): their start times.
    let mut async_open: HashMap<(String, String, String), Vec<f64>> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Value::Map(_)) {
            return Err(format!("event {i} is not an object"));
        }
        let text = |key: &str| match ev.field(key) {
            Ok(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let number = |key: &str| ev.field(key).ok().and_then(as_f64);
        let ph = text("ph").ok_or_else(|| format!("event {i} lacks a ph field"))?;
        if ph == "M" {
            continue; // metadata
        }
        let name = text("name").ok_or_else(|| format!("event {i} lacks a name"))?;
        let ts = number("ts").ok_or_else(|| format!("event {i} ({name}) lacks a ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i} ({name}) has negative ts {ts}"));
        }
        match ph.as_str() {
            "X" => {
                number("tid").ok_or_else(|| format!("event {i} ({name}) lacks a tid"))?;
                let dur = number("dur").ok_or_else(|| format!("event {i} ({name}) lacks a dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: span \"{name}\" ends before it begins"));
                }
                if name.starts_with("fragment") {
                    check.fragment_spans += 1;
                }
                check.spans += 1;
            }
            "b" | "e" => {
                let id = match ev.field("id") {
                    Ok(Value::Str(s)) => s.clone(),
                    Ok(v) => as_f64(v).map(|f| f.to_string()).unwrap_or_default(),
                    Err(_) => return Err(format!("event {i} ({name}): async event lacks an id")),
                };
                let key = (text("cat").unwrap_or_default(), id, name.clone());
                if ph == "b" {
                    async_open.entry(key).or_default().push(ts);
                } else {
                    let open_ts = async_open.get_mut(&key).and_then(Vec::pop);
                    let Some(open_ts) = open_ts else {
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
    use crate::StepClass;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, tid: u64, id: Option<u64>) -> Span {
        Span { name, id, class: None, tid, start_ns, end_ns: Some(end_ns) }
    }

    #[test]
    fn round_trip_validates() {
        let spans = vec![
            span("fragment.eval", 1_000, 9_000, 1, Some(4)),
            span("interp.macro", 2_000, 3_000, 1, None),
            Span { class: Some(StepClass::Comm), ..span("comm.recv", 2_500, 2_600, 2, None) },
        ];
        let trace = chrome_trace(&spans);
        let check = validate_chrome_trace(&trace).unwrap();
        assert_eq!(check.spans, 3);
        assert_eq!(check.async_pairs, 1);
        assert_eq!(check.fragment_spans, 1);
        assert_eq!(check.events, 1 + 2 + 3 + 2, "process, two threads, three spans, one pair");
    }

    #[test]
    fn names_with_quotes_and_newlines_round_trip() {
        let name = "fragment \"quoted\"\nspan";
        let trace = chrome_trace(&[span(name, 10, 20, 1, Some(2))]);
        let check = validate_chrome_trace(&trace).expect("escaped trace validates");
        assert_eq!((check.spans, check.async_pairs), (1, 1));
        let root = serde_json::value_from_str(&trace).expect("trace parses");
        let x = root.field("traceEvents").and_then(|e| e.index(2)).expect("the span's event");
        assert_eq!(x.field("name"), Ok(&Value::Str(name.to_string())));
        assert_eq!(x.field("dur"), Ok(&Value::F64(0.01)));
    }

    #[test]
    fn unbalanced_span_is_rejected() {
        let trace =
            r#"[{"name":"fragment.a","cat":"fragment","ph":"b","id":"1","tid":1,"ts":1.0}]"#;
        let err = validate_chrome_trace(trace).unwrap_err();
        assert!(err.contains("never ends"), "{err}");
    }

    #[test]
    fn mismatched_nesting_is_rejected() {
        // An async end that closes a span opened under another id, and a
        // complete event that ends before it begins.
        let trace = r#"[
            {"name":"fragment.a","cat":"fragment","ph":"b","id":"1","ts":1.0},
            {"name":"fragment.a","cat":"fragment","ph":"e","id":"2","ts":3.0}
        ]"#;
        assert!(validate_chrome_trace(trace).is_err());
        let trace = r#"[{"name":"a","ph":"X","tid":1,"ts":3.0,"dur":-1.0}]"#;
        assert!(validate_chrome_trace(trace).is_err());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
    }
}
