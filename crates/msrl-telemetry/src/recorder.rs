//! Span event recording: per-thread buffers, a global sink, draining.
//!
//! Each thread records into its own `Vec<Event>` — no locks, no atomics
//! beyond the enable gate — and flushes that buffer into the process-wide
//! sink when it grows past a threshold and when the thread exits (via the
//! thread-local's destructor). [`drain`] therefore sees every event from
//! threads that have finished; callers that record on long-lived threads
//! flush explicitly with [`flush_thread`]. All the execution drivers in
//! this workspace join their workers (scoped threads, joined mailbox
//! threads) before reporting, and `msrl_tensor::par`'s long-lived
//! helpers flush after every job, so nothing stays behind in practice.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether an event opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One recorded span boundary.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span name (static: instrumentation sites use literals).
    pub name: &'static str,
    /// Opening or closing boundary.
    pub phase: Phase,
    /// Nanoseconds since the process-wide telemetry epoch.
    pub ts_ns: u64,
    /// Recording thread's telemetry lane id (small, dense, stable for
    /// the thread's lifetime).
    pub tid: u64,
    /// Optional fragment/replica id the span belongs to.
    pub id: Option<u64>,
}

/// The single time origin all threads stamp against.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The calling thread's telemetry lane id (0 during TLS teardown).
pub(crate) fn current_tid() -> u64 {
    LOCAL.try_with(|l| l.borrow().tid).unwrap_or(0)
}

/// Events flushed from exited (or explicitly flushed) threads.
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Next thread lane id.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Local events past this length flush to the sink (amortises the lock).
const FLUSH_AT: usize = 8 * 1024;

struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = SINK.lock().expect("telemetry sink poisoned");
        sink.append(&mut self.events);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

fn record(name: &'static str, phase: Phase, id: Option<u64>) {
    let ts_ns = now_ns();
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let tid = buf.tid;
        buf.events.push(Event { name, phase, ts_ns, tid, id });
        if buf.events.len() >= FLUSH_AT {
            buf.flush();
        }
    });
}

/// An RAII span: records `Begin` on creation and `End` on drop. A guard
/// created while tracing is disabled is inert.
#[must_use = "bind the span guard to a local so it closes at scope exit"]
pub struct SpanGuard {
    name: Option<&'static str>,
    id: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record(name, Phase::End, self.id);
        }
    }
}

/// Opens an unlabelled span (see the [`span!`](crate::span!) macro).
/// The flight recorder notes every span open (when on) even while
/// tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    crate::flightrec::note_span(name);
    if !crate::enabled() {
        return SpanGuard { name: None, id: None };
    }
    record(name, Phase::Begin, None);
    SpanGuard { name: Some(name), id: None }
}

/// Opens a span labelled with a fragment/replica id.
#[inline]
pub fn span_id(name: &'static str, id: u64) -> SpanGuard {
    crate::flightrec::note_span(name);
    if !crate::enabled() {
        return SpanGuard { name: None, id: None };
    }
    record(name, Phase::Begin, Some(id));
    SpanGuard { name: Some(name), id: Some(id) }
}

/// Flushes the calling thread's local buffer into the global sink.
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Flushes the calling thread, then removes and returns every event in
/// the sink, sorted by timestamp (the sort is stable, so each thread's
/// own ordering is preserved).
pub fn drain() -> Vec<Event> {
    flush_thread();
    let mut events = {
        let mut sink = SINK.lock().expect("telemetry sink poisoned");
        std::mem::take(&mut *sink)
    };
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Discards all recorded events (calling thread's buffer and the sink).
pub fn clear_events() {
    LOCAL.with(|l| l.borrow_mut().events.clear());
    SINK.lock().expect("telemetry sink poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn guard_without_name_is_inert() {
        // Dropping a disabled guard must not record.
        let g = SpanGuard { name: None, id: None };
        drop(g);
    }
}
