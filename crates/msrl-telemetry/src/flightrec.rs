//! Flight recorder: the recent past of a run's threads, dumped to
//! `results/flightrec-*.json` on panic or driver error for post-mortem
//! debugging.
//!
//! It records nothing of its own. Each thread's lane (see
//! `crate::recorder`) keeps its last [`RING_CAPACITY`] closed span
//! records and its spans still open, tracing on or off, and a dump of a
//! run reads its lanes (a dump of no run, every lane): per lane, its tid,
//! the run, role and rank it hosts, the closed records (`end_ns: null`
//! for a span with no class closed while tracing was off) and the open
//! ones (`end_ns: null` — what the thread was inside when it died). The
//! process's counter totals and the `MSRL_*` environment ride along, and
//! a dump the health watchdog triggers carries that run's verdict.
//!
//! [`install_panic_hook`] chains onto the existing panic hook, so a
//! panicking worker writes a dump of its run before the usual backtrace.
//! Drivers also call [`dump`] on their error paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use serde::{Serialize, Value};

use crate::recorder::Span;
use crate::sink::obj;

/// Closed span records a lane keeps for the dump.
pub const RING_CAPACITY: usize = 256;

/// Schema tag of a dump.
const FLIGHTREC_SCHEMA: &str = "msrl.flightrec.v3";

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

/// Renders the dump JSON: run `run`'s lanes' recent and open records
/// (every lane's for `None`), the process's counter snapshot, the
/// `MSRL_*` environment, and `health`, the verdict of the run whose
/// watchdog triggered the dump.
pub fn render_dump(
    trigger: &str,
    reason: &str,
    run: Option<u64>,
    health: Option<&crate::HealthVerdict>,
) -> String {
    let mut lanes = Vec::new();
    crate::recorder::for_each_lane(|lane, s| {
        let tag = s.fragment;
        if run.is_some_and(|run| tag.map(|t| t.0) != Some(run)) {
            return;
        }
        lanes.push(obj(vec![
            ("tid", lane.tid.to_value()),
            ("run", tag.map(|t| t.0).to_value()),
            ("role", tag.map(|t| t.1).to_value()),
            ("fragment", tag.map(|t| t.2).to_value()),
            ("closed", Value::Seq(s.recent.iter().map(record).collect())),
            ("open", Value::Seq(s.open.iter().map(|(_, r)| record(r)).collect())),
        ]));
    });
    let mut env: Vec<(String, Value)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MSRL_"))
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    let counters = crate::registry::counters_snapshot().into_iter();
    let mut dump = vec![
        ("schema", FLIGHTREC_SCHEMA.to_value()),
        ("trigger", trigger.to_value()),
        ("reason", reason.to_value()),
        ("pid", std::process::id().to_value()),
        ("run", run.to_value()),
    ];
    // A critical detector firing is itself a dump trigger: the
    // post-mortem carries *why* that run was judged unhealthy.
    if let Some(verdict) = health {
        dump.push(("health", verdict.to_value()));
    }
    dump.extend([
        ("config", Value::Map(env)),
        ("lanes", Value::Seq(lanes)),
        ("counters", Value::Map(counters.map(|(n, v)| (n, v.to_value())).collect())),
    ]);
    serde_json::to_string_pretty(&obj(dump)).expect("a value tree always renders")
}

/// Writes a flight-recorder dump ([`render_dump`]) to
/// `<dump dir>/flightrec-<pid>-<seq>.json` and returns the path.
///
/// # Errors
///
/// Propagates the I/O error when the directory or file cannot be
/// written.
pub fn dump(
    trigger: &str,
    reason: &str,
    run: Option<u64>,
    health: Option<&crate::HealthVerdict>,
) -> std::io::Result<String> {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = format!("{dir}/flightrec-{}-{seq}.json", std::process::id());
    std::fs::write(&path, render_dump(trigger, reason, run, health))?;
    Ok(path)
}

/// Installs a process-wide panic hook (idempotent) that writes a
/// flight-recorder dump of the panicking thread's run before chaining
/// to the previous hook. Drivers call this at entry so a panicking
/// worker leaves post-mortem state on disk.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let run = crate::recorder::with_lane(|l| l.lock().fragment.map(|t| t.0)).flatten();
            let _ = dump("panic", &info.to_string(), run, None);
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
    for key in ["config", "counters"] {
        if !matches!(v.field(key), Ok(Value::Map(_))) {
            return Err(format!("missing object field {key:?}"));
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
        let json = render_dump("test", "unit test", None, None);
        assert!(validate_flightrec(&json).expect("dump validates") >= 2);
        assert!(json.contains("\"msrl.flightrec.v3\""), "the dump is tagged v3");
        // The previous schema, with its `gauges` and `histograms`
        // sections, does not validate as this one.
        let v2 = json.replacen(FLIGHTREC_SCHEMA, "msrl.flightrec.v2", 1).replacen(
            "\"counters\":",
            "\"gauges\": {}, \"histograms\": {}, \"counters\":",
            1,
        );
        let err = validate_flightrec(&v2).expect_err("a v2 dump is rejected");
        assert!(err.contains("schema"), "{err}");

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
        for gone in ["histograms", "gauges"] {
            assert!(v.field(gone).is_err(), "a v3 dump has no {gone:?} key");
        }

        for _ in 0..(RING_CAPACITY * 3) {
            drop(crate::span!("flightrec.test.flood"));
        }
        let kept = crate::recorder::with_lane(|lane| lane.lock().recent.len()).expect("lane");
        assert_eq!(kept, RING_CAPACITY, "the ring is bounded");
    }

    #[test]
    fn dump_escapes_counter_names() {
        crate::counter("flightrec.test counter \\ \"x\"", 3);
        let json = render_dump("test", "counters", None, None);
        validate_flightrec(&json).expect("dump validates");
        let v = serde_json::value_from_str(&json).expect("dump parses");
        let counters = v.field("counters").unwrap();
        assert_eq!(counters.field("flightrec.test counter \\ \"x\""), Ok(&Value::I64(3)));
    }

    /// A dump for one run holds that run's lanes alone, while another
    /// run's lanes are live, and every counter of the process.
    #[test]
    fn a_run_s_dump_holds_its_lanes_and_every_counter() {
        let (a, b) = (crate::next_run(), crate::next_run());
        crate::set_fragment(a, "flightrec_a", 0);
        drop(crate::span!("flightrec.test.a", class: Learn));
        let (ready_tx, ready) = std::sync::mpsc::channel();
        let (done, done_rx) = std::sync::mpsc::channel::<()>();
        let other = std::thread::spawn(move || {
            crate::set_fragment(b, "flightrec_b", 1);
            let _open = crate::span!("flightrec.test.b", class: Rollout);
            crate::counter("flightrec.test.b_counter", 2);
            ready_tx.send(()).expect("test waits");
            done_rx.recv().expect("test signals");
        });
        ready.recv().expect("run b is live");
        let roles = |json: &str| -> Vec<(Value, Value)> {
            validate_flightrec(json).expect("dump validates");
            let v = serde_json::value_from_str(json).expect("dump parses");
            let Ok(Value::Seq(lanes)) = v.field("lanes") else { panic!("lanes") };
            lanes
                .iter()
                .map(|l| (l.field("run").unwrap().clone(), l.field("role").unwrap().clone()))
                .collect()
        };
        let run = |r: u64, role: &str| (Value::I64(r as i64), Value::Str(role.into()));
        let json = render_dump("test", "run a", Some(a), None);
        assert_eq!(roles(&json), [run(a, "flightrec_a")], "run a's one lane, alone");
        let v = serde_json::value_from_str(&json).expect("dump parses");
        assert_eq!(v.field("run"), Ok(&Value::I64(a as i64)));
        let counter = v.field("counters").and_then(|c| c.field("flightrec.test.b_counter"));
        assert!(matches!(counter, Ok(Value::I64(n)) if *n >= 2), "every counter: {counter:?}");
        let every = roles(&render_dump("test", "every lane", None, None));
        assert!(every.contains(&run(a, "flightrec_a")) && every.contains(&run(b, "flightrec_b")));
        done.send(()).expect("run b waits");
        other.join().expect("run b ran");
        crate::release_run(a);
        crate::release_run(b);
    }
}
