//! Unified telemetry for the msrl-rs runtime.
//!
//! Every layer of the execution path — the operator interpreter, the
//! communication fabric, the distribution-policy drivers, the environment
//! steppers and the tensor buffer pool — reports into this one crate, so
//! distribution policies can be *compared* the way the paper compares
//! them (§6): per-fragment execution time, communication volume, and
//! phase breakdowns, all from a single metric pipeline.
//!
//! Two primitive kinds:
//!
//! * **Spans** — timed intervals, each one record ([`Span`]) on the
//!   calling thread's *lane*: one per thread, one lock taken to open and
//!   to close (no other thread touches it except a reader). A span
//!   may carry a fragment id (its async lane in the Chrome trace) and an
//!   attribution class ([`StepClass`]); `span!("comm.recv", class: Comm)`
//!   is the one guard a comm wait, a phase or a fragment eval opens.
//!   Spans always record; `MSRL_TRACE` (or [`set_enabled`]) only decides
//!   whether the lane also keeps every record for [`drain`]. A timed
//!   site's latency is its span, nothing else.
//! * **Counters** — named monotonic totals held in a process-wide
//!   registry of relaxed atomics. Counters are *always on*: an increment
//!   is one `fetch_add`, cheap enough that reports (baseline comparisons,
//!   byte totals) work without enabling tracing. Hot call sites cache a
//!   [`Counter`] handle (or use [`static_counter!`]) to skip the registry
//!   lookup.
//!
//! Three readers share the lanes' records, each with its own retention:
//! [`flightrec`] dumps a run's lanes (last 256 closed records, open
//! spans) with the counter snapshot on panic or driver error;
//! [`attribution`] turns a run's classed records into its per-iteration
//! time budget, the `RunEvent` `attr` block; and, while tracing is on,
//! [`drain`] hands every record to [`chrome_trace`] (Chrome trace-event
//! JSON for Perfetto or `chrome://tracing`; thread lanes are worker
//! threads, async lanes are fragments).
//!
//! A run's profile is its event stream: the [`sink`] module streams one
//! [`RunEvent`] per driver iteration as JSONL (`MSRL_METRICS_FILE`),
//! with the attribution in its `attr` block and the [`health`]
//! watchdog's streaming detectors in its `health` block. `doctor`, `top`
//! and `advise` all read that stream.
//!
//! # Quick start
//!
//! ```
//! use msrl_telemetry as telemetry;
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span!("fragment.eval", 3, class: Eval);
//!     telemetry::counter("demo.ops", 2);
//! }
//! let spans = telemetry::drain();
//! assert!(spans.iter().any(|s| s.name == "fragment.eval" && s.id == Some(3)));
//! let trace = telemetry::chrome_trace(&spans);
//! telemetry::validate_chrome_trace(&trace).unwrap();
//! telemetry::set_enabled(false);
//! ```
//!
//! Environment variables: `MSRL_TRACE=1` keeps every span for [`drain`]
//! for the whole process; `MSRL_TRACE_FILE=trace.json` makes binaries
//! that call [`write_trace_to_env_file`] dump the Chrome trace there on
//! exit.

#![warn(missing_docs)]

pub mod attribution;
mod chrome;
pub mod flightrec;
pub mod health;
mod recorder;
mod registry;
pub mod sink;

pub use attribution::{
    attribute, computing_fragments, enter_computing, finish_iteration, next_run, pause_computing,
    resume_computing, set_fragment, ComputingGuard, FragmentAttr, IterAttribution, StepClass,
    StepStamp,
};
pub use chrome::{chrome_trace, validate_chrome_trace, TraceCheck};
pub use flightrec::{install_panic_hook, validate_flightrec};
pub use health::{
    replay_stream, Ewma, HealthFinding, HealthMonitor, HealthSample, HealthStatus, HealthVerdict,
    Hysteresis, Severity,
};
pub use recorder::{drain, now_ns, release_run, span, Span, SpanGuard};
pub use registry::{counter, counter_total, counters_snapshot, reset_counters, Counter};
pub use sink::{
    emit_run_event, flush_metrics, set_metrics_file, split_runs, validate_metrics, RunEvent,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// The one on/off vocabulary of every boolean `MSRL_*` variable:
/// `0|off|false|no` is off and `1|on|true|yes` is on, ASCII
/// case-insensitive, surrounding whitespace ignored. Anything else is
/// `None`, and the switch keeps its default.
pub fn parse_switch(value: &str) -> Option<bool> {
    let value = value.trim();
    let any = |words: [&str; 4]| words.iter().any(|w| value.eq_ignore_ascii_case(w));
    if any(["0", "off", "false", "no"]) {
        Some(false)
    } else if any(["1", "on", "true", "yes"]) {
        Some(true)
    } else {
        None
    }
}

/// Whether lanes keep every record for [`drain`]: unresolved (0), off
/// (1) or on (2).
static TRACE: AtomicU8 = AtomicU8::new(0);

/// What `MSRL_TRACE`, read through `lookup`, turns tracing to: off when
/// unset or unrecognised ([`parse_switch`]).
fn trace_var(lookup: impl Fn(&str) -> Option<String>) -> bool {
    lookup("MSRL_TRACE").as_deref().and_then(parse_switch).unwrap_or(false)
}

/// Whether tracing is on: lanes keep every span they close for
/// [`drain`]. Resolved from `MSRL_TRACE` on first call (default off),
/// then a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match TRACE.load(Ordering::Relaxed) {
        0 => resolve_trace(),
        state => state == 2,
    }
}

#[cold]
fn resolve_trace() -> bool {
    let state = 1 + u8::from(trace_var(|var| std::env::var(var).ok()));
    // A `set_enabled` that raced the lookup wins.
    match TRACE.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => state == 2,
        Err(set) => set == 2,
    }
}

/// Turns tracing on or off (takes precedence over `MSRL_TRACE`). Spans
/// and counters record either way.
pub fn set_enabled(on: bool) {
    TRACE.store(1 + u8::from(on), Ordering::Relaxed);
}

/// Opens a span on the calling thread's lane. Four forms:
/// `span!("name")`, `span!("name", id)` where `id` labels the
/// fragment/replica the span belongs to (its async-lane id in the Chrome
/// trace), and either of those followed by `class: Comm` (any
/// [`StepClass`] variant), which also hands the record to attribution.
///
/// Bind the result to a local (`let _span = ...`) so the span closes when
/// the scope ends.
#[macro_export]
macro_rules! span {
    ($name:expr, class: $class:ident) => {
        $crate::span($name, None, Some($crate::StepClass::$class))
    };
    ($name:expr, $id:expr, class: $class:ident) => {
        $crate::span($name, Some($id as u64), Some($crate::StepClass::$class))
    };
    ($name:expr, $id:expr) => {
        $crate::span($name, Some($id as u64), None)
    };
    ($name:expr) => {
        $crate::span($name, None, None)
    };
}

/// Interns a [`Counter`] handle once per call site and returns a
/// `&'static Counter` — the pattern for hot paths that cannot afford a
/// registry lookup per increment.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static CELL: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::Counter::handle($name))
    }};
}

/// If `MSRL_TRACE_FILE` is set, drains every traced span, writes the
/// Chrome trace there, and returns the path written. Binaries call this
/// once at exit.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn write_trace_to_env_file() -> std::io::Result<Option<String>> {
    let Ok(path) = std::env::var("MSRL_TRACE_FILE") else {
        return Ok(None);
    };
    if path.is_empty() {
        return Ok(None);
    }
    std::fs::write(&path, chrome_trace(&drain()))?;
    Ok(Some(path))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serialises the tests that touch process-wide capture state: the
    /// trace switch and [`drain`]. `cargo test` runs sibling tests on
    /// parallel threads.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn end_to_end_record_export_report() {
        let _serial = serial();
        set_enabled(false);
        drain();
        {
            let _s = span!("quiet.section");
        }
        assert!(drain().is_empty(), "untraced spans are not kept for drain");

        set_enabled(true);
        {
            let _outer = span!("fragment.eval", 7);
            let _inner = span!("lib.op");
        }
        let t = std::thread::spawn(|| {
            let _s = span!("worker.section");
        });
        t.join().unwrap();
        let spans = drain();
        set_enabled(false);
        let ours = ["fragment.eval", "lib.op", "worker.section"];
        let spans: Vec<Span> = spans.into_iter().filter(|s| ours.contains(&s.name)).collect();
        assert_eq!(spans.len(), 3, "three spans");
        let tids: std::collections::HashSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 2, "two thread lanes");

        let trace = chrome_trace(&spans);
        let check = validate_chrome_trace(&trace).expect("emitted trace validates");
        assert_eq!(check.spans, 3);
        assert_eq!(check.fragment_spans, 1);
        assert_eq!(check.async_pairs, 1, "fragment span gets an async lane");

        let frag = spans.iter().find(|s| s.name == "fragment.eval").expect("span drained");
        let inner = spans.iter().find(|s| s.name == "lib.op").expect("span drained");
        assert_eq!((frag.id, frag.tid), (Some(7), inner.tid));
        let end = |s: &Span| s.start_ns + s.duration_ns();
        assert!(
            frag.start_ns <= inner.start_ns && end(inner) <= end(frag),
            "the inner span nests in the outer one"
        );
    }

    /// One classed span is one record that all three readers see: the
    /// flight-recorder dump, the iteration's attribution, and — only
    /// while tracing is on — `drain`.
    #[test]
    fn a_classed_span_reaches_all_three_readers() {
        let _serial = serial();
        for traced in [false, true] {
            set_enabled(traced);
            drain();
            let run = next_run();
            set_fragment(run, "lib_test", 41);
            let mut window = now_ns();
            {
                let _s = span!("lib.test.classed", 5, class: Rollout);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            set_enabled(false);
            let dump = flightrec::render_dump("test", "three readers", Some(run), None);
            assert!(dump.contains("\"lib.test.classed\""), "the record is in the dump");
            let attr = finish_iteration(run, &mut window);
            release_run(run);
            let [row] = attr.fragments.as_slice() else { panic!("one fragment: {attr:?}") };
            assert_eq!((row.role.as_str(), row.id), ("lib_test", 41));
            assert!(row.rollout_ns >= 1_000_000, "attributed to its class");
            let drained = drain().into_iter().filter(|s| s.name == "lib.test.classed").count();
            assert_eq!(drained, usize::from(traced), "drain returns it only if tracing was on");
        }
    }

    #[test]
    fn scoped_counters_feed_the_global_total() {
        let a = Counter::scoped("test.scoped_feed");
        let b = Counter::scoped("test.scoped_feed");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 3, "scoped handle sees only its own increments");
        assert_eq!(b.get(), 4);
        assert!(counter_total("test.scoped_feed") >= 7, "global total sees both");
    }

    /// Every switch reads one vocabulary: each spelling of on turns the
    /// switch on, each spelling of off keeps it off, and unset or
    /// unrecognised values leave it off (`MSRL_TRACE` is the one switch).
    #[test]
    fn every_switch_reads_one_vocabulary() {
        let table: [(Option<&str>, Option<bool>); 17] = [
            (None, None),
            (Some("0"), Some(false)),
            (Some("off"), Some(false)),
            (Some("OFF"), Some(false)),
            (Some("False"), Some(false)),
            (Some("no"), Some(false)),
            (Some("NO"), Some(false)),
            (Some(" no\n"), Some(false)),
            (Some("1"), Some(true)),
            (Some("on"), Some(true)),
            (Some("True"), Some(true)),
            (Some("yes"), Some(true)),
            (Some("YES"), Some(true)),
            (Some(""), None),
            (Some("2"), None),
            (Some("disabled"), None),
            (Some("maybe"), None),
        ];
        for (value, expect) in table {
            let lookup = |name: &str| value.filter(|_| name == "MSRL_TRACE").map(str::to_owned);
            assert_eq!(trace_var(lookup), expect.unwrap_or(false), "{value:?}");
            assert_eq!(parse_switch(value.unwrap_or("")), expect, "{value:?}");
        }
    }
}
