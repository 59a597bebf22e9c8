//! Flight recorder: the recent past of every thread, dumped to
//! `results/flightrec-*.json` on panic or driver error for post-mortem
//! debugging.
//!
//! It records nothing of its own. Each thread's lane (see
//! `crate::recorder`) keeps its last [`RING_CAPACITY`] closed span
//! records and its spans still open, tracing on or off, and a dump reads
//! them: per lane, its tid, the fragment it hosts, the closed records
//! (`end_ns: null` for a span with no class closed while tracing was
//! off: only its start is timed) and the open ones (`end_ns: null` —
//! what the thread was inside when it died). Counter, gauge and histogram totals come from the registry
//! snapshots, the `MSRL_*` environment and the run's latest health
//! verdict ride along.
//!
//! [`install_panic_hook`] chains onto the existing panic hook, so a
//! panicking worker writes a dump before the usual backtrace. Drivers
//! also call [`dump`] on their error paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use serde::{Serialize, Value};

use crate::recorder::Span;
use crate::sink::{num, obj};

/// Closed span records a lane keeps for the dump.
pub const RING_CAPACITY: usize = 256;

/// Schema tag of a dump.
const FLIGHTREC_SCHEMA: &str = "msrl.flightrec.v2";

static DUMP_DIR: Mutex<Option<String>> = Mutex::new(None);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Overrides the dump directory (default `results`, created on demand).
/// Tests point this at a temp dir.
pub fn set_dump_dir(dir: &str) {
    *DUMP_DIR.lock().expect("flightrec dump dir poisoned") = Some(dir.to_string());
}

fn dump_dir() -> String {
    DUMP_DIR
        .lock()
        .expect("flightrec dump dir poisoned")
        .clone()
        .unwrap_or_else(|| "results".to_string())
}

/// One record of a dump; an open one, or one whose end was not timed,
/// has `end_ns: null`.
fn record(s: &Span) -> Value {
    obj(vec![
        ("name", s.name.to_value()),
        ("id", s.id.to_value()),
        ("class", s.class.map(crate::StepClass::name).to_value()),
        ("start_ns", s.start_ns.to_value()),
        ("end_ns", s.end_ns.to_value()),
    ])
}

/// Renders the dump JSON: every lane's recent and open records,
/// counter/gauge/histogram snapshots, and the `MSRL_*` environment.
pub fn render_dump(trigger: &str, reason: &str) -> String {
    let mut lanes = Vec::new();
    crate::recorder::for_each_lane(|lane| {
        let s = lane.lock();
        let (role, fragment) = s.fragment.unzip();
        lanes.push(obj(vec![
            ("tid", lane.tid.to_value()),
            ("role", role.to_value()),
            ("fragment", fragment.to_value()),
            ("closed", Value::Seq(s.recent.iter().map(record).collect())),
            ("open", Value::Seq(s.open.iter().map(|(_, r)| record(r)).collect())),
        ]));
    });
    let mut env: Vec<(String, Value)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MSRL_"))
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    // Name-sorted quantile state plus the raw log₂ buckets (non-zero
    // only) and exact sum, so a post-mortem carries the full
    // distribution as recorded at crash time, not just estimates.
    let histograms =
        crate::histogram::histograms_raw_snapshot().into_iter().map(|(name, buckets, sum)| {
            let s = crate::HistogramStats::from_buckets(&buckets);
            let raw = buckets.iter().enumerate().filter(|(_, &c)| c > 0);
            let stats = obj(vec![
                ("count", s.count.to_value()),
                ("sum", sum.to_value()),
                ("p50_ns", s.p50_ns.to_value()),
                ("p90_ns", s.p90_ns.to_value()),
                ("p99_ns", s.p99_ns.to_value()),
                ("max_ns", s.max_ns.to_value()),
                ("buckets", Value::Map(raw.map(|(b, c)| (b.to_string(), c.to_value())).collect())),
            ]);
            (name, stats)
        });
    let counters = crate::registry::counters_snapshot().into_iter();
    let gauges = crate::registry::gauges_snapshot().into_iter();
    let mut dump = vec![
        ("schema", FLIGHTREC_SCHEMA.to_value()),
        ("trigger", trigger.to_value()),
        ("reason", reason.to_value()),
        ("pid", std::process::id().to_value()),
    ];
    // The run's latest health verdict, when the watchdog has stored one
    // (a critical detector firing is itself a dump trigger): the
    // post-mortem carries *why* training was judged unhealthy.
    if let Some(verdict) = crate::health::last_verdict_value() {
        dump.push(("health", verdict));
    }
    dump.extend([
        ("config", Value::Map(env)),
        ("lanes", Value::Seq(lanes)),
        ("counters", Value::Map(counters.map(|(n, v)| (n, v.to_value())).collect())),
        ("gauges", Value::Map(gauges.map(|(n, v)| (n, num(v))).collect())),
        ("histograms", Value::Map(histograms.collect())),
    ]);
    serde_json::to_string_pretty(&obj(dump)).expect("a value tree always renders")
}

/// Writes a flight-recorder dump to
/// `<dump dir>/flightrec-<pid>-<seq>.json` and returns the path.
///
/// # Errors
///
/// Propagates the I/O error when the directory or file cannot be
/// written.
pub fn dump(trigger: &str, reason: &str) -> std::io::Result<String> {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = format!("{dir}/flightrec-{}-{seq}.json", std::process::id());
    std::fs::write(&path, render_dump(trigger, reason))?;
    Ok(path)
}

/// Installs a process-wide panic hook (idempotent) that writes a
/// flight-recorder dump before chaining to the previous hook. Drivers
/// call this at entry so a panicking worker leaves post-mortem state on
/// disk.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump("panic", &info.to_string());
            prev(info);
        }));
    });
}

/// Structural check of a dump file's JSON: required keys, lane and
/// record shape, closed records ending no earlier than they start (or
/// untimed) and open ones with `end_ns: null`. Returns the record count.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_flightrec(content: &str) -> Result<usize, String> {
    let v = serde_json::value_from_str(content).map_err(|e| format!("not JSON: {e}"))?;
    let is_num = |v: Result<&Value, _>| matches!(v, Ok(Value::I64(_) | Value::U64(_)));
    for key in ["schema", "trigger", "reason"] {
        if !matches!(v.field(key), Ok(Value::Str(_))) {
            return Err(format!("missing string field {key:?}"));
        }
    }
    if v.field("schema") != Ok(&Value::Str(FLIGHTREC_SCHEMA.to_string())) {
        return Err(format!("bad schema field: {:?}", v.field("schema")));
    }
    for key in ["config", "counters", "gauges", "histograms"] {
        if !matches!(v.field(key), Ok(Value::Map(_))) {
            return Err(format!("missing object field {key:?}"));
        }
    }
    if let Ok(Value::Map(hists)) = v.field("histograms") {
        for (name, h) in hists {
            for key in ["count", "sum"] {
                if !is_num(h.field(key)) {
                    return Err(format!("histogram {name:?}: missing numeric field {key:?}"));
                }
            }
            if !matches!(h.field("buckets"), Ok(Value::Map(_))) {
                return Err(format!("histogram {name:?}: missing buckets object"));
            }
        }
    }
    let Ok(Value::Seq(lanes)) = v.field("lanes") else {
        return Err("missing lanes array".to_string());
    };
    let mut records = 0;
    for (i, lane) in lanes.iter().enumerate() {
        if !is_num(lane.field("tid")) {
            return Err(format!("lane {i}: missing numeric tid"));
        }
        for (key, open) in [("closed", false), ("open", true)] {
            let Ok(Value::Seq(spans)) = lane.field(key) else {
                return Err(format!("lane {i}: missing {key} array"));
            };
            for (j, r) in spans.iter().enumerate() {
                let at = format!("lane {i}: {key} record {j}");
                if !matches!(r.field("name"), Ok(Value::Str(_))) {
                    return Err(format!("{at}: missing name"));
                }
                let (Ok(&Value::I64(start)), end) = (r.field("start_ns"), r.field("end_ns")) else {
                    return Err(format!("{at}: missing numeric start_ns"));
                };
                match (open, &end) {
                    (_, Ok(Value::Null)) => {}
                    (false, Ok(&Value::I64(end))) if end >= start => {}
                    _ => return Err(format!("{at}: bad end_ns {end:?}")),
                }
            }
            records += spans.len();
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_bounds_and_dump_validates() {
        let tid = crate::recorder::with_lane(|lane| lane.tid).expect("lane");
        let name = "flightrec.test \"quoted\"\nspan";
        drop(crate::span!(name, 3, class: Comm));
        let _open = crate::span!("flightrec.test.open");
        crate::histogram_record("flightrec.test.hist", 12);
        let json = render_dump("test", "unit test");
        assert!(validate_flightrec(&json).expect("dump validates") >= 2);

        let v = serde_json::value_from_str(&json).expect("dump parses");
        let Ok(Value::Seq(lanes)) = v.field("lanes") else { panic!("lanes") };
        let lane = lanes
            .iter()
            .find(|l| l.field("tid") == Ok(&Value::I64(tid as i64)))
            .expect("this thread's lane is dumped");
        let Ok(Value::Seq(closed)) = lane.field("closed") else { panic!("closed") };
        let last = closed.last().expect("a closed record");
        assert_eq!(last.field("name"), Ok(&Value::Str(name.to_string())), "names round-trip");
        assert_eq!(last.field("id"), Ok(&Value::I64(3)));
        assert_eq!(last.field("class"), Ok(&Value::Str("comm".to_string())));
        let Ok(Value::Seq(open)) = lane.field("open") else { panic!("open") };
        let open = open.last().expect("the open span is listed");
        assert_eq!(open.field("name"), Ok(&Value::Str("flightrec.test.open".to_string())));
        assert_eq!(open.field("end_ns"), Ok(&Value::Null));
        let hist = v.field("histograms").and_then(|h| h.field("flightrec.test.hist"));
        let hist = hist.expect("dump carries raw histogram state");
        assert_eq!(
            (hist.field("count"), hist.field("sum")),
            (Ok(&Value::I64(1)), Ok(&Value::I64(12)))
        );
        let bucket = hist.field("buckets").and_then(|b| b.field("4"));
        assert_eq!(bucket, Ok(&Value::I64(1)), "12 lands in bucket 4");

        for _ in 0..(RING_CAPACITY * 3) {
            drop(crate::span!("flightrec.test.flood"));
        }
        let kept = crate::recorder::with_lane(|lane| lane.lock().recent.len()).expect("lane");
        assert_eq!(kept, RING_CAPACITY, "the ring is bounded");
    }
}
