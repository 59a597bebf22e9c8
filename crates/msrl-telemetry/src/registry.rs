//! The always-on counter registry.
//!
//! Counters are named process-wide atomics: incrementing one
//! is a relaxed `fetch_add`, reading a snapshot locks the registry map
//! briefly. They are deliberately *not* gated by the `MSRL_TRACE` flag —
//! baseline reports and byte totals must work in ordinary runs — so hot
//! call sites should cache a handle ([`Counter::handle`] /
//! [`static_counter!`](crate::static_counter)) rather than paying the
//! by-name lookup per increment.
//!
//! [`Counter::scoped`] supports the pattern the baselines need: a private
//! count (per actor, per run) whose increments *also* feed the global
//! named total, so one metric pipeline serves both per-component
//! assertions and whole-process reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type Cells = Mutex<BTreeMap<String, Arc<AtomicU64>>>;

fn counters() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn intern(name: &str) -> Arc<AtomicU64> {
    let mut m = counters().lock().expect("telemetry registry poisoned");
    if let Some(cell) = m.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(AtomicU64::new(0));
    m.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// A handle on a named monotonic counter.
#[derive(Debug, Clone)]
pub struct Counter {
    /// Private count when created with [`Counter::scoped`].
    scoped: Option<Arc<AtomicU64>>,
    /// The registry's named total.
    global: Arc<AtomicU64>,
}

impl Counter {
    /// A plain handle: increments go to (and [`get`](Counter::get) reads)
    /// the global named total.
    pub fn handle(name: &str) -> Counter {
        Counter { scoped: None, global: intern(name) }
    }

    /// A scoped handle: increments feed both a private count and the
    /// global named total; [`get`](Counter::get) reads the private count.
    pub fn scoped(name: &str) -> Counter {
        Counter { scoped: Some(Arc::new(AtomicU64::new(0))), global: intern(name) }
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.global.fetch_add(delta, Ordering::Relaxed);
        if let Some(s) = &self.scoped {
            s.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The scoped count for scoped handles, the global total otherwise.
    pub fn get(&self) -> u64 {
        self.scoped.as_deref().unwrap_or(&self.global).load(Ordering::Relaxed)
    }
}

/// Adds `delta` to the named counter (registry lookup per call — fine
/// for cold paths; hot sites cache a [`Counter`]).
pub fn counter(name: &str, delta: u64) {
    intern(name).fetch_add(delta, Ordering::Relaxed);
}

/// The named counter's global total (0 if never touched).
pub fn counter_total(name: &str) -> u64 {
    let m = counters().lock().expect("telemetry registry poisoned");
    m.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
}

/// All counters, name-sorted. The ordering is a guarantee (the
/// registry is a `BTreeMap`), so report/JSON artefacts diff cleanly
/// across runs.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let m = counters().lock().expect("telemetry registry poisoned");
    m.iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect()
}

/// Zeroes every global counter (scoped handles keep their private
/// counts). Tests call it between runs so totals attribute cleanly.
pub fn reset_counters() {
    let m = counters().lock().expect("telemetry registry poisoned");
    for v in m.values() {
        v.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_snapshots() {
        counter("registry.test.a", 2);
        counter("registry.test.a", 3);
        assert_eq!(counter_total("registry.test.a"), 5);
        assert!(counters_snapshot().iter().any(|(k, v)| k == "registry.test.a" && *v == 5));
    }

    #[test]
    fn snapshots_are_name_sorted() {
        // Register out of order; snapshots must come back sorted.
        counter("registry.sort.zz", 1);
        counter("registry.sort.aa", 1);
        let c: Vec<String> = counters_snapshot().into_iter().map(|(k, _)| k).collect();
        let mut cs = c.clone();
        cs.sort_unstable();
        assert_eq!(c, cs, "counters_snapshot is name-sorted");
    }
}
