//! Flight recorder: a bounded per-thread ring of recent span/counter
//! events that stays on even when tracing is off, dumped to
//! `results/flightrec-*.json` on panic or driver error for post-mortem
//! debugging.
//!
//! Every span probe notes its name into the calling thread's ring (a
//! fixed array of relaxed atomics — the hot-path cost is one enable
//! check, one timestamp and three relaxed stores), and the cold-path
//! [`counter`](crate::counter) helper notes counter bumps the same way.
//! Hot cached [`Counter`](crate::Counter) handles are *not* hooked —
//! their totals appear in the dump's registry snapshot instead.
//!
//! [`install_panic_hook`] chains onto the existing panic hook, so a
//! panicking worker writes a dump (ring contents from **all** registered
//! threads, counter/gauge/histogram snapshots, the `MSRL_*` environment)
//! before the usual backtrace. Drivers also call
//! [`dump`] on their error paths. Disable with `MSRL_FLIGHTREC=0`.
//!
//! Slot fields are independent relaxed atomics; a dump racing a writer
//! may pair one event's name with a neighbour's timestamp, which is
//! acceptable for a post-mortem ring (names resolve through an intern
//! table, so a torn read never yields an invalid string).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// Events retained per thread.
pub const RING_CAPACITY: usize = 256;

const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static FREC_ENABLED: AtomicU8 = AtomicU8::new(UNSET);

/// Whether the flight recorder is active. Resolved from
/// `MSRL_FLIGHTREC` on first call (on unless `0`/`false`/`off`), then a
/// single relaxed atomic load.
#[inline]
pub fn flightrec_enabled() -> bool {
    match FREC_ENABLED.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => resolve_enabled(),
    }
}

#[cold]
fn resolve_enabled() -> bool {
    let off = matches!(
        std::env::var("MSRL_FLIGHTREC").as_deref(),
        Ok("0") | Ok("false") | Ok("FALSE") | Ok("off") | Ok("OFF")
    );
    set_flightrec_enabled(!off);
    !off
}

/// Programmatically enables or disables the flight recorder (takes
/// precedence over `MSRL_FLIGHTREC`).
pub fn set_flightrec_enabled(on: bool) {
    FREC_ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Event kinds in the ring.
const KIND_SPAN: u64 = 1;
const KIND_COUNT: u64 = 2;

struct Slot {
    /// Pointer identity of an interned `&'static str` name (0 = empty).
    name_ptr: AtomicUsize,
    /// Nanoseconds since the telemetry epoch.
    ts_ns: AtomicU64,
    /// `kind << 56 | arg` (arg: counter delta, truncated to 56 bits).
    meta: AtomicU64,
}

struct ThreadRing {
    tid: u64,
    head: AtomicUsize,
    slots: Vec<Slot>,
}

impl ThreadRing {
    fn new(tid: u64) -> ThreadRing {
        ThreadRing {
            tid,
            head: AtomicUsize::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    name_ptr: AtomicUsize::new(0),
                    ts_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn push(&self, name_ptr: usize, kind: u64, arg: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) % RING_CAPACITY;
        let slot = &self.slots[idx];
        slot.name_ptr.store(name_ptr, Ordering::Relaxed);
        slot.ts_ns.store(crate::recorder::now_ns(), Ordering::Relaxed);
        slot.meta.store((kind << 56) | (arg & ((1 << 56) - 1)), Ordering::Relaxed);
    }
}

/// ptr → name table so dumps can resolve names without unsafe
/// reconstruction. Instrumentation names are few and `'static`, so this
/// table is tiny and append-only.
fn name_table() -> &'static Mutex<BTreeMap<usize, &'static str>> {
    static TABLE: OnceLock<Mutex<BTreeMap<usize, &'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn intern_name(name: &'static str) -> usize {
    let ptr = name.as_ptr() as usize;
    thread_local! {
        static SEEN: std::cell::RefCell<std::collections::HashSet<usize>> =
            std::cell::RefCell::new(std::collections::HashSet::new());
    }
    let known = SEEN.try_with(|s| s.borrow().contains(&ptr)).unwrap_or(true);
    if !known {
        name_table().lock().expect("flightrec name table poisoned").insert(ptr, name);
        let _ = SEEN.try_with(|s| {
            s.borrow_mut().insert(ptr);
        });
    }
    ptr
}

/// Interns a non-`'static` name (cold counter paths) by leaking one
/// copy per distinct string — bounded by the instrumentation name set.
fn intern_dyn(name: &str) -> usize {
    static BY_NAME: OnceLock<Mutex<BTreeMap<String, usize>>> = OnceLock::new();
    let by_name = BY_NAME.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut m = by_name.lock().expect("flightrec dyn name table poisoned");
    if let Some(&ptr) = m.get(name) {
        return ptr;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let ptr = leaked.as_ptr() as usize;
    name_table().lock().expect("flightrec name table poisoned").insert(ptr, leaked);
    m.insert(leaked.to_string(), ptr);
    ptr
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing::new(crate::recorder::current_tid()));
        rings().lock().expect("flightrec rings poisoned").push(Arc::clone(&ring));
        ring
    };
}

/// Notes a span open on the calling thread's ring (called by every span
/// probe, enabled or not; one relaxed load when the recorder is off).
#[inline]
pub(crate) fn note_span(name: &'static str) {
    if !flightrec_enabled() {
        return;
    }
    let ptr = intern_name(name);
    let _ = LOCAL_RING.try_with(|r| r.push(ptr, KIND_SPAN, 0));
}

/// Notes a cold-path counter bump on the calling thread's ring.
#[inline]
pub(crate) fn note_count(name: &str, delta: u64) {
    if !flightrec_enabled() {
        return;
    }
    let ptr = intern_dyn(name);
    let _ = LOCAL_RING.try_with(|r| r.push(ptr, KIND_COUNT, delta));
}

/// One resolved ring entry in a dump.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Telemetry lane id of the recording thread.
    pub tid: u64,
    /// Nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// `"span"` or `"count"`.
    pub kind: &'static str,
    /// Span/counter name.
    pub name: String,
    /// Counter delta (0 for spans).
    pub arg: u64,
}

/// Snapshots every registered thread ring, oldest-first per thread,
/// merged and sorted by timestamp.
pub fn snapshot_events() -> Vec<FlightEvent> {
    let names = name_table().lock().expect("flightrec name table poisoned").clone();
    let rings = rings().lock().expect("flightrec rings poisoned").clone();
    let mut out = Vec::new();
    for ring in rings {
        let head = ring.head.load(Ordering::Relaxed);
        let filled = head.min(RING_CAPACITY);
        for k in 0..filled {
            // Oldest retained slot first.
            let idx = if head <= RING_CAPACITY { k } else { (head + k) % RING_CAPACITY };
            let slot = &ring.slots[idx];
            let ptr = slot.name_ptr.load(Ordering::Relaxed);
            let Some(name) = names.get(&ptr) else { continue };
            let meta = slot.meta.load(Ordering::Relaxed);
            out.push(FlightEvent {
                tid: ring.tid,
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                kind: if meta >> 56 == KIND_COUNT { "count" } else { "span" },
                name: (*name).to_string(),
                arg: meta & ((1 << 56) - 1),
            });
        }
    }
    out.sort_by_key(|e| e.ts_ns);
    out
}

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

/// `s` as a quoted JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    serde_json::escape_into(s, &mut out);
    out
}

/// Renders the dump JSON: ring events, counter/gauge/histogram
/// snapshots, and the `MSRL_*` environment.
pub fn render_dump(trigger: &str, reason: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"msrl.flightrec.v1\",\n");
    out.push_str(&format!("  \"trigger\": {},\n", quoted(trigger)));
    out.push_str(&format!("  \"reason\": {},\n", quoted(reason)));
    out.push_str(&format!("  \"pid\": {},\n", std::process::id()));
    // The run's latest health verdict, when the watchdog has stored one
    // (a critical detector firing is itself a dump trigger): the
    // post-mortem carries *why* training was judged unhealthy.
    if let Some(verdict) = crate::health::last_verdict_json() {
        out.push_str(&format!("  \"health\": {verdict},\n"));
    }
    out.push_str("  \"config\": {");
    let mut env: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("MSRL_")).collect();
    env.sort();
    for (i, (k, v)) in env.iter().enumerate() {
        out.push_str(&format!(
            "\n    {}: {}{}",
            quoted(k),
            quoted(v),
            if i + 1 == env.len() { "\n  " } else { "," }
        ));
    }
    out.push_str("},\n  \"events\": [\n");
    let events = snapshot_events();
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tid\": {}, \"ts_ns\": {}, \"kind\": \"{}\", \"name\": {}, \"arg\": {}}}{}\n",
            e.tid,
            e.ts_ns,
            e.kind,
            quoted(&e.name),
            e.arg,
            if i + 1 == events.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"counters\": {");
    let counters = crate::registry::counters_snapshot();
    for (i, (name, v)) in counters.iter().enumerate() {
        out.push_str(&format!(
            "\n    {}: {}{}",
            quoted(name),
            v,
            if i + 1 == counters.len() { "\n  " } else { "," }
        ));
    }
    out.push_str("},\n  \"gauges\": {");
    let gauges = crate::registry::gauges_snapshot();
    for (i, (name, v)) in gauges.iter().enumerate() {
        let v = if v.is_finite() { format!("{v:.3}") } else { "null".to_string() };
        out.push_str(&format!(
            "\n    {}: {}{}",
            quoted(name),
            v,
            if i + 1 == gauges.len() { "\n  " } else { "," }
        ));
    }
    out.push_str("},\n  \"histograms\": {");
    // Name-sorted quantile state plus the raw log₂ buckets (non-zero
    // only) and exact sum, so a post-mortem carries the full
    // distribution as recorded at crash time, not just estimates.
    let hists = crate::histogram::histograms_raw_snapshot();
    for (i, (name, buckets, sum)) in hists.iter().enumerate() {
        let s = crate::HistogramStats::from_buckets(buckets);
        let raw: Vec<String> = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| format!("\"{b}\": {c}"))
            .collect();
        out.push_str(&format!(
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"buckets\": {{{}}}}}{}",
            quoted(name),
            s.count,
            sum,
            s.p50_ns,
            s.p90_ns,
            s.p99_ns,
            s.max_ns,
            raw.join(", "),
            if i + 1 == hists.len() { "\n  " } else { "," }
        ));
    }
    out.push_str("}\n}\n");
    out
}

/// Writes a flight-recorder dump to
/// `<dump dir>/flightrec-<pid>-<seq>.json` and returns the path, or
/// `Ok(None)` when the recorder is disabled.
///
/// # Errors
///
/// Propagates the I/O error when the directory or file cannot be
/// written.
pub fn dump(trigger: &str, reason: &str) -> std::io::Result<Option<String>> {
    if !flightrec_enabled() {
        return Ok(None);
    }
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = format!("{dir}/flightrec-{}-{seq}.json", std::process::id());
    std::fs::write(&path, render_dump(trigger, reason))?;
    Ok(Some(path))
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

/// Structural check of a dump file's JSON: required keys, event-entry
/// shape, non-negative timestamps. Returns the event count.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_flightrec(content: &str) -> Result<usize, String> {
    use serde_json::Value;
    let v = serde_json::value_from_str(content).map_err(|e| format!("not JSON: {e}"))?;
    let str_field = |key: &str| -> Result<String, String> {
        match v.field(key) {
            Ok(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("missing string field {key:?}")),
        }
    };
    let schema = str_field("schema")?;
    if schema != "msrl.flightrec.v1" {
        return Err(format!("bad schema field: {schema:?}"));
    }
    str_field("trigger")?;
    str_field("reason")?;
    for key in ["config", "counters", "gauges", "histograms"] {
        if !matches!(v.field(key), Ok(Value::Map(_))) {
            return Err(format!("missing object field {key:?}"));
        }
    }
    if let Ok(Value::Map(hists)) = v.field("histograms") {
        for (name, h) in hists {
            for key in ["count", "sum"] {
                if !matches!(h.field(key), Ok(Value::I64(_) | Value::U64(_))) {
                    return Err(format!("histogram {name:?}: missing numeric field {key:?}"));
                }
            }
            if !matches!(h.field("buckets"), Ok(Value::Map(_))) {
                return Err(format!("histogram {name:?}: missing buckets object"));
            }
        }
    }
    let Ok(Value::Seq(events)) = v.field("events") else {
        return Err("missing events array".to_string());
    };
    for (i, e) in events.iter().enumerate() {
        for key in ["tid", "ts_ns", "arg"] {
            if !matches!(e.field(key), Ok(Value::I64(_) | Value::U64(_))) {
                return Err(format!("event {i}: missing numeric field {key:?}"));
            }
        }
        match e.field("kind") {
            Ok(Value::Str(k)) if k == "span" || k == "count" => {}
            other => return Err(format!("event {i}: bad kind {other:?}")),
        }
        if !matches!(e.field("name"), Ok(Value::Str(_))) {
            return Err(format!("event {i}: missing name"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One body: the enable flag is process-wide and sibling tests run
    /// on parallel threads.
    #[test]
    fn ring_records_bounds_and_dump_validates() {
        set_flightrec_enabled(false);
        note_span("flightrec.test.disabled");
        assert!(!snapshot_events().iter().any(|e| e.name == "flightrec.test.disabled"));

        set_flightrec_enabled(true);
        note_span("flightrec.test.span");
        note_count("flightrec.test.count", 3);
        let events = snapshot_events();
        assert!(events.iter().any(|e| e.name == "flightrec.test.span" && e.kind == "span"));
        assert!(events
            .iter()
            .any(|e| e.name == "flightrec.test.count" && e.kind == "count" && e.arg == 3));
        crate::histogram_record("flightrec.test.hist", 12);
        let json = render_dump("test", "unit test");
        let n = validate_flightrec(&json).expect("dump validates");
        assert!(n >= 2);
        assert!(
            json.contains("\"flightrec.test.hist\": {\"count\": 1, \"sum\": 12,"),
            "dump carries raw histogram state"
        );
        assert!(json.contains("\"buckets\": {\"4\": 1}"), "12 lands in bucket 4");

        for _ in 0..(RING_CAPACITY * 3) {
            note_span("flightrec.test.flood");
        }
        let per_thread: std::collections::HashMap<u64, usize> =
            snapshot_events().iter().fold(std::collections::HashMap::new(), |mut m, e| {
                *m.entry(e.tid).or_default() += 1;
                m
            });
        assert!(per_thread.values().all(|&n| n <= RING_CAPACITY), "ring is bounded");
    }
}
