//! Unified telemetry for the msrl-rs runtime.
//!
//! Every layer of the execution path — the operator interpreter, the
//! communication fabric, the distribution-policy drivers, the environment
//! steppers and the tensor buffer pool — reports into this one crate, so
//! distribution policies can be *compared* the way the paper compares
//! them (§6): per-fragment execution time, communication volume, and
//! phase breakdowns, all from a single metric pipeline.
//!
//! Three primitive kinds:
//!
//! * **Spans** — timed `Begin`/`End` intervals recorded into per-thread
//!   buffers (no locks on the hot path). Spans are gated by the
//!   `MSRL_TRACE` environment variable (or [`set_enabled`]); when tracing
//!   is off, opening a span costs one relaxed atomic load.
//! * **Counters** — named monotonic totals held in a process-wide
//!   registry of relaxed atomics. Counters are *always on*: an increment
//!   is one `fetch_add`, cheap enough that reports (baseline comparisons,
//!   byte totals) work without enabling tracing. Hot call sites cache a
//!   [`Counter`] handle (or use [`static_counter!`]) to skip the registry
//!   lookup.
//! * **Gauges** — named last-value/high-water readings ([`Gauge`]).
//! * **Histograms** — always-on lock-free log₂-bucket latency
//!   distributions ([`Histogram`]): record = one relaxed `fetch_add`,
//!   read back as estimated p50/p90/p99 — real quantiles without
//!   enabling tracing.
//!
//! Live-run observability rides on top: the [`sink`] module streams one
//! [`RunEvent`] per driver iteration as JSONL (`MSRL_METRICS_FILE`) and
//! renders a Prometheus-style exposition ([`metrics_text`],
//! `MSRL_METRICS_TEXT_FILE`); the [`flightrec`] module keeps a bounded
//! per-thread ring of recent span/counter events (on even when tracing
//! is off, `MSRL_FLIGHTREC=0` disables) and dumps it with registry
//! snapshots on panic or driver error for post-mortem debugging; the
//! [`attribution`] module turns always-on phase/comm/eval step stamps
//! into a per-iteration critical-path and time-attribution breakdown
//! (rollout / learn / comm-blocked / idle / straggler slack per
//! fragment) carried in each `RunEvent`'s `attr` block; the [`health`]
//! watchdog's streaming detectors add a `health` block.
//!
//! Two exporters turn a drained event stream into artefacts:
//! [`chrome_trace`] emits Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`; thread lanes are worker threads, async lanes are
//! fragments), and [`TelemetryReport`] aggregates p50/p99 span durations
//! plus counter/gauge snapshots into text or JSON summaries.
//!
//! # Quick start
//!
//! ```
//! use msrl_telemetry as telemetry;
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span!("fragment.eval", 3);
//!     telemetry::counter("demo.ops", 2);
//! }
//! let events = telemetry::drain();
//! assert_eq!(events.len(), 2); // balanced Begin/End
//! let trace = telemetry::chrome_trace(&events);
//! telemetry::validate_chrome_trace(&trace).unwrap();
//! telemetry::set_enabled(false);
//! ```
//!
//! Environment variables: `MSRL_TRACE=1` enables span recording for the
//! whole process; `MSRL_TRACE_FILE=trace.json` makes binaries that call
//! [`write_trace_to_env_file`] dump the Chrome trace there on exit.

#![warn(missing_docs)]

pub mod attribution;
mod chrome;
pub mod flightrec;
pub mod health;
mod histogram;
mod recorder;
mod registry;
mod report;
pub mod sink;

pub use attribution::{
    attr_enabled, attribute, computing_fragments, enter_computing, finish_iteration,
    pause_computing, record_step, reset_window, resume_computing, set_attr_enabled, set_fragment,
    step, steps_dropped, straggler_k, ComputingGuard, CriticalPath, DagNode, FragmentAttr,
    IterAttribution, StepClass, StepDag, StepGuard, StepStamp,
};
pub use chrome::{chrome_trace, validate_chrome_trace, TraceCheck};
pub use flightrec::{install_panic_hook, validate_flightrec};
pub use health::{
    health_enabled, replay_stream, set_health_enabled, set_last_verdict, Ewma, HealthConfig,
    HealthFinding, HealthMonitor, HealthSample, HealthStatus, HealthVerdict, Hysteresis, Severity,
};
pub use histogram::{
    bucket_estimate, bucket_index, bucket_lower_bound, histogram_record, histogram_stats,
    histograms_raw_snapshot, histograms_snapshot, reset_histograms, HistTimer, Histogram,
    HistogramStats, HISTOGRAM_BUCKETS,
};
pub use recorder::{clear_events, drain, flush_thread, span, span_id, Event, Phase, SpanGuard};
pub use registry::{
    counter, counter_total, counters_snapshot, gauge_max, gauge_set, gauges_snapshot,
    reset_counters, reset_gauges, Counter, Gauge,
};
pub use report::{percentile_ns, SpanStats, TelemetryReport};
pub use sink::{
    emit_run_event, flush_metrics, metrics_text, run_events_emitted, set_metrics_file,
    validate_metrics, ActsrvStats, RunEvent,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// The one on/off vocabulary of every boolean `MSRL_*` variable:
/// `0|off|false|no` is off and `1|on|true|yes` is on, ASCII
/// case-insensitive, surrounding whitespace ignored. Anything else is
/// `None`: the telemetry switches then keep their default, and
/// `msrl_runtime::RuntimeConfig` reports an error.
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

/// A process-wide on/off gate: resolved from `var` ([`parse_switch`];
/// `default` when unset or unrecognised) on first use, or set by the
/// program first, then one relaxed atomic load.
pub(crate) struct Switch {
    var: &'static str,
    default: bool,
    state: AtomicU8,
}

impl Switch {
    const UNSET: u8 = 0;
    const OFF: u8 = 1;
    const ON: u8 = 2;

    pub(crate) const fn new(var: &'static str, default: bool) -> Switch {
        Switch { var, default, state: AtomicU8::new(Switch::UNSET) }
    }

    #[inline]
    pub(crate) fn get(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            Switch::ON => true,
            Switch::OFF => false,
            _ => self.resolve(),
        }
    }

    pub(crate) fn set(&self, on: bool) {
        self.state.store(if on { Switch::ON } else { Switch::OFF }, Ordering::Relaxed);
    }

    /// What `lookup(var)` turns the switch to.
    fn resolved(&self, lookup: impl Fn(&str) -> Option<String>) -> bool {
        lookup(self.var).as_deref().and_then(parse_switch).unwrap_or(self.default)
    }

    #[cold]
    fn resolve(&self) -> bool {
        let on = self.resolved(|var| std::env::var(var).ok());
        let state = if on { Switch::ON } else { Switch::OFF };
        // A `set` that raced the lookup wins.
        match self.state.compare_exchange(
            Switch::UNSET,
            state,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => on,
            Err(now) => now == Switch::ON,
        }
    }
}

/// Span recording, off unless `MSRL_TRACE` turns it on.
static TRACE: Switch = Switch::new("MSRL_TRACE", false);

/// Whether span recording is active.
///
/// Resolved from `MSRL_TRACE` on first call (default off), then a single
/// relaxed atomic load — the entire disabled-path cost of every
/// instrumentation site.
#[inline]
pub fn enabled() -> bool {
    TRACE.get()
}

/// Programmatically enables or disables span recording (takes precedence
/// over `MSRL_TRACE`). Counters and gauges are unaffected — they are
/// always live.
pub fn set_enabled(on: bool) {
    TRACE.set(on);
}

/// Opens a span; two forms: `span!("name")` and `span!("name", id)` where
/// `id` labels the fragment/replica the span belongs to (it becomes the
/// async-lane id in the Chrome trace).
///
/// Bind the result to a local (`let _span = ...`) so the span closes when
/// the scope ends; with tracing disabled this is a no-op guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $id:expr) => {
        $crate::span_id($name, $id as u64)
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

/// Interns a [`Histogram`] handle once per call site and returns a
/// `&'static Histogram` — like [`static_counter!`], for hot paths that
/// record latency observations every call.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static CELL: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::Histogram::handle($name))
    }};
}

/// If `MSRL_TRACE_FILE` is set, drains all recorded events, writes the
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
    let events = drain();
    std::fs::write(&path, chrome_trace(&events))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state touching checks run in one test body: `cargo test`
    /// runs sibling tests on parallel threads and the enable flag, event
    /// sink and registry are process-wide.
    #[test]
    fn end_to_end_record_export_report() {
        set_enabled(false);
        clear_events();
        {
            let _s = span!("quiet.section");
        }
        assert!(drain().is_empty(), "disabled tracing records nothing");

        set_enabled(true);
        clear_events();
        {
            let _outer = span!("fragment.eval", 7);
            let _inner = span!("lib.op");
        }
        let t = std::thread::spawn(|| {
            let _s = span!("worker.section");
        });
        t.join().unwrap();
        let events = drain();
        assert_eq!(events.len(), 6, "three balanced spans");
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two thread lanes");

        let trace = chrome_trace(&events);
        let check = validate_chrome_trace(&trace).expect("emitted trace validates");
        assert_eq!(check.span_pairs, 3);
        assert_eq!(check.fragment_spans, 1);
        assert_eq!(check.async_pairs, 1, "fragment span gets an async lane");

        let report = TelemetryReport::from_events(&events);
        let frag = report.span("fragment.eval").expect("span aggregated");
        assert_eq!(frag.count, 1);
        assert!(frag.p50_ns <= frag.p99_ns && frag.p99_ns <= frag.max_ns);
        set_enabled(false);
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

    #[test]
    fn gauges_track_max() {
        let g = Gauge::handle("test.hw");
        g.maximum(3.0);
        g.maximum(9.5);
        g.maximum(1.0);
        assert_eq!(g.get(), 9.5);
    }

    /// Every switch reads one vocabulary: each spelling of off turns a
    /// default-on switch off, each spelling of on turns a default-off
    /// switch on, and unset or unrecognised values keep the default.
    #[test]
    fn every_switch_reads_one_vocabulary() {
        let switches = [
            (&TRACE, "MSRL_TRACE", false),
            (&attribution::ATTR, "MSRL_ATTR", true),
            (&flightrec::FLIGHTREC, "MSRL_FLIGHTREC", true),
            (&health::HEALTH, "MSRL_HEALTH", true),
        ];
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
        for (switch, var, default) in switches {
            assert_eq!((switch.var, switch.default), (var, default));
            for (value, expect) in table {
                let lookup = |name: &str| value.filter(|_| name == var).map(str::to_owned);
                let got = switch.resolved(lookup);
                assert_eq!(got, expect.unwrap_or(default), "{var}={value:?}");
                assert_eq!(parse_switch(value.unwrap_or("")), expect, "{value:?}");
            }
        }
    }
}
