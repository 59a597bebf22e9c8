//! Always-on lock-free latency histograms.
//!
//! A [`Histogram`] is a fixed array of 64 log₂-scale buckets of relaxed
//! atomics living in the process-wide registry next to counters and
//! gauges. Recording a value is one `leading_zeros` plus one relaxed
//! `fetch_add` — cheap enough to stay on in ordinary (untraced) runs, so
//! [`histogram_stats`] gives real p50/p90/p99 latency quantiles and every
//! flight-recorder dump carries them, even when `MSRL_TRACE` is unset.
//!
//! Bucketing: bucket 0 holds the value 0; bucket `i` (1 ≤ i < 63) holds
//! values in `[2^(i-1), 2^i)`; bucket 63 holds everything at or above
//! `2^62`. Quantiles are estimated by nearest-rank walk over the
//! cumulative bucket counts, reporting the bucket midpoint — the
//! estimate is always within one bucket of the exact percentile
//! ([`percentile_ns`], property-tested in `tests/histogram_props.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 64;

struct HistCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Exact running sum of recorded values.
    sum: AtomicU64,
}

impl HistCells {
    fn new() -> HistCells {
        HistCells { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

type HistMap = Mutex<BTreeMap<String, Arc<HistCells>>>;

fn histograms() -> &'static HistMap {
    static CELLS: OnceLock<HistMap> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn intern(name: &str) -> Arc<HistCells> {
    let mut m = histograms().lock().expect("telemetry histogram registry poisoned");
    if let Some(cells) = m.get(name) {
        return Arc::clone(cells);
    }
    let cells = Arc::new(HistCells::new());
    m.insert(name.to_string(), Arc::clone(&cells));
    cells
}

/// The bucket a value lands in: 0 for 0, otherwise
/// `64 - leading_zeros(v)` clamped to the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket (0 for bucket 0, else `2^(i-1)`).
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// The value a bucket reports for quantile estimates: 0 for bucket 0,
/// otherwise the arithmetic midpoint of `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_estimate(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        let lo = bucket_lower_bound(index);
        lo + lo / 2
    }
}

/// Nearest-rank percentile of an ascending-sorted list: the exact value
/// a bucket estimate approximates. `percentile_ns(&d, 50.0)` is the
/// median, `percentile_ns(&d, 99.0)` the p99; an empty list yields 0.
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A handle on a named always-on histogram. Hot call sites cache one
/// (or use [`static_histogram!`](crate::static_histogram)) to skip the
/// registry lookup per record.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.snapshot().count).finish()
    }
}

impl Histogram {
    /// A handle on the named histogram, creating it on first use.
    pub fn handle(name: &str) -> Histogram {
        Histogram { cells: intern(name) }
    }

    /// Records one observation: one bucket computation plus two relaxed
    /// `fetch_add`s (bucket count and exact sum). Never gated —
    /// histograms are always live.
    #[inline]
    pub fn record(&self, value: u64) {
        self.cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Starts timing a section; the returned guard records the elapsed
    /// nanoseconds into this histogram when dropped.
    #[inline]
    pub fn time(&self) -> HistTimer<'_> {
        HistTimer { hist: self, start: Instant::now() }
    }

    /// Raw per-bucket counts (index `i` per [`bucket_index`]).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed))
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Aggregated count / quantile estimates for this histogram.
    pub fn snapshot(&self) -> HistogramStats {
        HistogramStats::from_buckets(&self.bucket_counts())
    }
}

/// RAII timer: records elapsed nanoseconds into its histogram on drop.
#[must_use = "bind the timer to a local so the section is recorded at scope exit"]
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Count plus estimated quantiles of one histogram, all in the recorded
/// unit (nanoseconds at every call site in this workspace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramStats {
    /// Total recorded observations.
    pub count: u64,
    /// Estimated median.
    pub p50_ns: u64,
    /// Estimated 90th percentile.
    pub p90_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
    /// Midpoint estimate of the highest non-empty bucket.
    pub max_ns: u64,
}

impl HistogramStats {
    /// Derives stats from raw bucket counts (nearest-rank quantile over
    /// the cumulative counts, bucket-midpoint estimates).
    pub fn from_buckets(buckets: &[u64; HISTOGRAM_BUCKETS]) -> HistogramStats {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return HistogramStats::default();
        }
        let quantile = |pct: f64| -> u64 {
            let rank = ((pct / 100.0) * count as f64).ceil() as u64;
            let rank = rank.clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_estimate(i);
                }
            }
            bucket_estimate(HISTOGRAM_BUCKETS - 1)
        };
        let max_bucket = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        HistogramStats {
            count,
            p50_ns: quantile(50.0),
            p90_ns: quantile(90.0),
            p99_ns: quantile(99.0),
            max_ns: bucket_estimate(max_bucket),
        }
    }
}

/// Records one observation on the named histogram (registry lookup per
/// call — fine for cold paths; hot sites cache a [`Histogram`]).
pub fn histogram_record(name: &str, value: u64) {
    let cells = intern(name);
    cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    cells.sum.fetch_add(value, Ordering::Relaxed);
}

/// The named histogram's stats (`None` if never touched).
pub fn histogram_stats(name: &str) -> Option<HistogramStats> {
    let m = histograms().lock().expect("telemetry histogram registry poisoned");
    m.get(name).map(|cells| {
        let counts: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed));
        HistogramStats::from_buckets(&counts)
    })
}

/// All histograms, name-sorted (the registry is a `BTreeMap`, so this
/// order is deterministic across runs — report/JSON output diffs
/// cleanly).
pub fn histograms_snapshot() -> Vec<(String, HistogramStats)> {
    let m = histograms().lock().expect("telemetry histogram registry poisoned");
    m.iter()
        .map(|(k, cells)| {
            let counts: [u64; HISTOGRAM_BUCKETS] =
                std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed));
            (k.clone(), HistogramStats::from_buckets(&counts))
        })
        .collect()
}

/// All histograms' raw state, name-sorted: per-bucket counts plus the
/// exact value sum — what the flight-recorder dump carries.
pub fn histograms_raw_snapshot() -> Vec<(String, [u64; HISTOGRAM_BUCKETS], u64)> {
    let m = histograms().lock().expect("telemetry histogram registry poisoned");
    m.iter()
        .map(|(k, cells)| {
            let counts: [u64; HISTOGRAM_BUCKETS] =
                std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed));
            (k.clone(), counts, cells.sum.load(Ordering::Relaxed))
        })
        .collect()
}

/// Zeroes every histogram bucket. Tests call it between runs so
/// quantiles attribute cleanly.
pub fn reset_histograms() {
    let m = histograms().lock().expect("telemetry histogram registry poisoned");
    for cells in m.values() {
        for b in &cells.buckets {
            b.store(0, Ordering::Relaxed);
        }
        cells.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound lands in its bucket");
            assert_eq!(bucket_index(2 * lo - 1), i, "upper bound lands in its bucket");
            let est = bucket_estimate(i);
            assert_eq!(bucket_index(est), i, "estimate lies inside its bucket");
        }
    }

    #[test]
    fn percentiles_on_known_sequence() {
        // 1..=100 ns: median 50, p99 99, p100 100.
        let d: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&d, 50.0), 50);
        assert_eq!(percentile_ns(&d, 99.0), 99);
        assert_eq!(percentile_ns(&d, 100.0), 100);
        assert_eq!(percentile_ns(&d, 0.0), 1);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }

    #[test]
    fn snapshot_quantiles_on_known_values() {
        let h = Histogram::handle("hist.test.known");
        // 90 values near 1000 (bucket 10), 10 near 1M (bucket 20).
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(bucket_index(s.p50_ns), bucket_index(1000));
        assert_eq!(bucket_index(s.p90_ns), bucket_index(1000));
        assert_eq!(bucket_index(s.p99_ns), bucket_index(1_000_000));
        assert_eq!(bucket_index(s.max_ns), bucket_index(1_000_000));
    }

    #[test]
    fn snapshot_is_name_sorted_and_resettable() {
        histogram_record("hist.test.zb", 5);
        histogram_record("hist.test.za", 5);
        let snap = histograms_snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "histograms_snapshot is name-sorted");
        assert!(histogram_stats("hist.test.za").unwrap().count >= 1);
    }

    #[test]
    fn sum_tracks_recorded_values() {
        let h = Histogram::handle("hist.test.sum");
        h.record(10);
        h.record(22);
        h.record(0);
        assert_eq!(h.sum(), 32);
        let raw = histograms_raw_snapshot();
        let (_, buckets, sum) =
            raw.iter().find(|(n, _, _)| n == "hist.test.sum").expect("snapshot carries histogram");
        assert_eq!(*sum, 32);
        assert_eq!(buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn timer_records_one_observation() {
        let h = Histogram::handle("hist.test.timer");
        {
            let _t = h.time();
        }
        assert_eq!(h.snapshot().count, 1);
    }
}
