//! The lane: one per thread, the one place a span is recorded.
//!
//! A span is one record, [`Span`]: a name, an optional fragment id, an
//! optional attribution class, and its start and end on the process-wide
//! telemetry clock ([`now_ns`]). Opening a [`span!`](crate::span!) puts
//! the record on the calling thread's lane as open; dropping its guard
//! closes it. The end is timed when a reader needs it: for a classed
//! span, and while tracing is on. A clock read is most of what a span
//! costs, so a span with no class closed while tracing is off keeps its
//! start alone. Three readers keep their own retention over the same
//! records:
//!
//! * the flight recorder reads the last [`RING_CAPACITY`] closed records
//!   and the spans still open ([`crate::flightrec`]);
//! * attribution takes a run's lanes' classed records at the run's
//!   iteration boundary, at most [`STEP_CAPACITY`] per lane
//!   ([`crate::finish_iteration`]); a classed record dropped before it
//!   was attributed counts `attr.dropped`, and a lane that hosts no
//!   fragment ([`crate::set_fragment`]) keeps none;
//! * while tracing is on ([`crate::enabled`]), the lane also keeps every
//!   record it closes for [`drain`].
//!
//! A lane is one lock, taken once to open a span and once to close it,
//! and contended only by a reader walking the registry. Lanes live in
//! one process-wide registry; a run's close ([`release_run`]) and
//! [`drain`] drop the lanes of exited threads that no run holds and
//! whose traced records `drain` has taken.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::attribution::{StepClass, STEP_CAPACITY};
use crate::flightrec::RING_CAPACITY;

/// One span: what ran, on which thread, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name (static: instrumentation sites use literals).
    pub name: &'static str,
    /// The fragment/replica the span belongs to, if labelled.
    pub id: Option<u64>,
    /// What attribution counts the span as, if anything.
    pub class: Option<StepClass>,
    /// The recording thread's lane id (small, dense, stable for the
    /// thread's lifetime).
    pub tid: u64,
    /// Opened, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Closed, nanoseconds since the telemetry epoch: `None` while open,
    /// and for a span with no class closed while tracing was off. Every
    /// span [`drain`] returns has one.
    pub end_ns: Option<u64>,
}

impl Span {
    /// `end_ns - start_ns` (0 without an end).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// The single time origin all threads stamp against.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the telemetry clock, which every span is stamped on.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One thread's records.
pub(crate) struct Lane {
    pub(crate) tid: u64,
    /// Held while `state` is read or written: one swap takes it, one
    /// store releases it (a `Mutex` release is a second swap, and the
    /// owning thread takes its lane twice per span).
    busy: AtomicBool,
    state: UnsafeCell<LaneState>,
}

// SAFETY: `state` is reached only through `Lane::lock`, whose guard
// holds `busy` and so is exclusive.
unsafe impl Sync for Lane {}

impl Lane {
    /// Waits out whoever holds the lane (its thread between two pushes,
    /// or a reader copying records out) and takes it.
    pub(crate) fn lock(&self) -> LaneGuard<'_> {
        while self.busy.swap(true, Ordering::Acquire) {
            std::thread::yield_now();
        }
        LaneGuard(self)
    }
}

/// Exclusive access to a lane's state; dropping it releases the lane.
pub(crate) struct LaneGuard<'a>(&'a Lane);

impl Deref for LaneGuard<'_> {
    type Target = LaneState;
    fn deref(&self) -> &LaneState {
        // SAFETY: the guard holds `busy` (see `Lane::lock`).
        unsafe { &*self.0.state.get() }
    }
}

impl DerefMut for LaneGuard<'_> {
    fn deref_mut(&mut self) -> &mut LaneState {
        // SAFETY: the guard holds `busy` (see `Lane::lock`).
        unsafe { &mut *self.0.state.get() }
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.0.busy.store(false, Ordering::Release);
    }
}

#[derive(Default)]
pub(crate) struct LaneState {
    /// The run, role and rank the thread hosts ([`crate::set_fragment`]).
    pub(crate) fragment: Option<(u64, &'static str, u64)>,
    next_key: u64,
    /// Spans still open, oldest first, keyed by their guard's key.
    pub(crate) open: Vec<(u64, Span)>,
    /// The last [`RING_CAPACITY`] closed records: the flight recorder's.
    pub(crate) recent: VecDeque<Span>,
    /// Classed records closed since the hosted run's last iteration
    /// boundary, in closing order: attribution's.
    pub(crate) classed: VecDeque<Span>,
    /// Every record closed while tracing was on: [`drain`]'s.
    traced: Vec<Span>,
}

impl LaneState {
    fn close(&mut self, key: u64, end_ns: Option<u64>, traced: bool) {
        let Some(at) = self.open.iter().rposition(|&(k, _)| k == key) else { return };
        let (_, mut span) = self.open.remove(at);
        span.end_ns = end_ns;
        if self.recent.len() == RING_CAPACITY {
            self.recent.pop_front();
        }
        self.recent.push_back(span);
        if span.class.is_some() && self.fragment.is_some() {
            if self.classed.len() == STEP_CAPACITY {
                self.classed.pop_front();
                crate::attribution::dropped().add(1);
            }
            self.classed.push_back(span);
        }
        if traced {
            self.traced.push(span);
        }
    }
}

fn lanes() -> MutexGuard<'static, Vec<Arc<Lane>>> {
    static LANES: Mutex<Vec<Arc<Lane>>> = Mutex::new(Vec::new());
    LANES.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LANE: Arc<Lane> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let lane = Arc::new(Lane {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            busy: AtomicBool::new(false),
            state: UnsafeCell::default(),
        });
        lanes().push(Arc::clone(&lane));
        lane
    };
}

/// Runs `f` on the calling thread's lane; `None` during thread teardown.
pub(crate) fn with_lane<R>(f: impl FnOnce(&Lane) -> R) -> Option<R> {
    LANE.try_with(|lane| f(lane)).ok()
}

/// Runs `f` on every registered lane, under the registry lock (taken
/// before any lane's).
pub(crate) fn for_each_lane(mut f: impl FnMut(&Lane, &mut LaneState)) {
    lanes().iter().for_each(|lane| f(lane, &mut lane.lock()));
}

/// [`for_each_lane`], then drops the lanes nothing reads any more: their
/// thread has exited, no run holds them and `drain` has taken their
/// traced records. Only a run's close and `drain` sweep, so an
/// iteration's attribution pass never frees a lane.
fn sweep_lanes(mut f: impl FnMut(&mut LaneState)) {
    lanes().retain(|lane| {
        let mut s = lane.lock();
        f(&mut s);
        // The registry alone holds an exited thread's lane.
        Arc::strong_count(lane) > 1 || s.fragment.is_some() || !s.traced.is_empty()
    });
}

/// Ends run `run`'s hold on its lanes (and on the classed records no
/// window of it will take), so its exited threads' lanes go.
pub fn release_run(run: u64) {
    sweep_lanes(|s| {
        if s.fragment.is_some_and(|(r, _, _)| r == run) {
            s.fragment = None;
            s.classed.clear();
        }
    });
}

/// An open span; dropping it closes the span's record, whatever order
/// the thread's guards drop in.
#[must_use = "bind the span guard to a local so it closes at scope exit"]
pub struct SpanGuard {
    /// The record's key on the lane (`None`: opened during teardown).
    key: Option<u64>,
    /// The record is classed: its end is timed whether or not tracing is.
    classed: bool,
    /// The record lives on the opening thread's lane.
    _thread: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(key) = self.key {
            let traced = crate::enabled();
            let end_ns = (self.classed || traced).then(now_ns);
            with_lane(|lane| lane.lock().close(key, end_ns, traced));
        }
    }
}

/// Opens a span on the calling thread's lane (see the
/// [`span!`](crate::span!) macro, which spells `id` and `class`).
#[inline]
pub fn span(name: &'static str, id: Option<u64>, class: Option<StepClass>) -> SpanGuard {
    let start_ns = now_ns();
    let key = with_lane(|lane| {
        let mut s = lane.lock();
        let key = s.next_key;
        s.next_key += 1;
        let tid = lane.tid;
        s.open.push((key, Span { name, id, class, tid, start_ns, end_ns: None }));
        key
    });
    SpanGuard { key, classed: class.is_some(), _thread: PhantomData }
}

/// Removes and returns every span closed while tracing was on, from
/// every lane, ordered by start.
pub fn drain() -> Vec<Span> {
    let mut spans = Vec::new();
    sweep_lanes(|s| spans.append(&mut s.traced));
    spans.sort_by_key(|s| s.start_ns);
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_tids() -> Vec<u64> {
        let mut tids = Vec::new();
        for_each_lane(|lane, _| tids.push(lane.tid));
        tids
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    /// Guards dropped out of LIFO order close their own records.
    #[test]
    fn guards_dropped_out_of_order_close_their_own_records() {
        let tid = with_lane(|lane| lane.tid).expect("lane");
        let outer = span("recorder.test.outer", Some(1), Some(StepClass::Learn));
        let inner = span("recorder.test.inner", None, Some(StepClass::Comm));
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(outer);
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(inner);
        let recent: Vec<Span> =
            with_lane(|lane| lane.lock().recent.iter().copied().collect()).expect("lane");
        let find = |name| recent.iter().rev().find(|s| s.name == name).copied().expect(name);
        let (outer, inner) = (find("recorder.test.outer"), find("recorder.test.inner"));
        assert_eq!((outer.tid, outer.id, outer.class), (tid, Some(1), Some(StepClass::Learn)));
        assert_eq!(inner.class, Some(StepClass::Comm));
        assert!(outer.start_ns <= inner.start_ns && outer.end_ns < inner.end_ns);
        assert!(with_lane(|lane| lane.lock().open.is_empty()).expect("lane"));
    }

    /// A span with no class times its end only while tracing is on; a
    /// classed one always does.
    #[test]
    fn the_end_is_timed_for_a_class_or_a_trace() {
        let _serial = crate::tests::serial();
        let last_end = |class| {
            drop(span("recorder.test.end", None, class));
            with_lane(|lane| lane.lock().recent.back().copied()).flatten().expect("a record").end_ns
        };
        assert_eq!(last_end(None), None, "untraced, unclassed: start only");
        assert!(last_end(Some(StepClass::Eval)).is_some());
        crate::set_enabled(true);
        assert!(last_end(None).is_some(), "traced");
        crate::set_enabled(false);
        drain();
    }

    /// A run holds the lanes of its exited threads until it closes. Its
    /// close drops them, classed records and all, except the one that
    /// still holds a traced record, which stays until `drain` takes it.
    #[test]
    fn run_close_releases_exited_lanes_but_keeps_unread_records() {
        let _serial = crate::tests::serial();
        let run = crate::next_run();
        let idle: Vec<u64> = (0..200)
            .map(|i| {
                std::thread::spawn(move || {
                    crate::set_fragment(run, "test_short_lived", i);
                    let class = (i % 2 == 0).then_some(StepClass::Comm);
                    drop(span("recorder.test.short_lived", None, class));
                    with_lane(|lane| lane.tid).expect("lane")
                })
                .join()
                .expect("thread ran")
            })
            .collect();
        crate::set_enabled(true);
        let traced = std::thread::spawn(move || {
            crate::set_fragment(run, "test_traced", 0);
            drop(span("recorder.test.traced", None, None));
            with_lane(|lane| lane.tid).expect("lane")
        })
        .join()
        .expect("thread ran");
        crate::set_enabled(false);
        let live = lane_tids();
        assert!(idle.iter().all(|t| live.contains(t)), "the open run holds its exited lanes");
        release_run(run);
        let live = lane_tids();
        assert!(idle.iter().all(|t| !live.contains(t)), "the run's close drops exited lanes");
        assert!(live.contains(&traced), "a lane with a traced record stays");
        let drained = drain();
        assert!(drained.iter().any(|s| s.tid == traced && s.name == "recorder.test.traced"));
        assert!(!lane_tids().contains(&traced), "once drained, it goes");
    }
}
