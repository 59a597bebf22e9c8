//! A thread-local buffer pool for tensor output storage.
//!
//! Every tensor operator materialises its result into a fresh `Vec<f32>`;
//! in a training loop that is one heap allocation per operator per
//! step. The pool recycles those buffers: owners that know a tensor is
//! dead hand the storage back with
//! [`Tensor::recycle`](crate::Tensor::recycle) or [`give`], and subsequent
//! operator outputs are served from the free list by [`take_zeroed`]
//! instead of the allocator — or by [`take_for_overwrite`], which
//! skips the fill, for the product kernels that overwrite every output
//! element. The givers are the inference loops of [`crate::nn`],
//! [`crate::ops`]' per-call weight packs, and the gradient tape
//! ([`crate::autograd`]): a tape returns every value it
//! alone owns when it drops, [`Gradients`](crate::autograd::Gradients)
//! whatever nobody took, and the backward pass each interior gradient
//! once it is consumed — so a learner's second epoch runs on the first
//! epoch's buffers, and its working set is the pool's steady state.
//!
//! The pool is thread-local, so there is no synchronisation on the hot
//! path. A chunk [`crate::par`] forks allocates nothing (partitioning
//! happens after the output buffer exists); a closure that does — the
//! value branch of a learn pass — draws and recycles on the helper's own
//! pool, which lives as long as the helper, for the rest of the
//! process. A buffer must go back to the pool that lent it: given to
//! another thread's, it is a miss there every time and dead weight
//! here. Buffers are binned by exact length; the pool
//! holds at most [`MAX_POOLED_ELEMS`] floats and at most
//! [`MAX_BUFFERS_PER_BUCKET`] buffers of any one length per thread,
//! silently dropping returns beyond either cap, so long runs can never
//! grow it without bound (the element cap alone would still admit
//! millions of tiny buffers whose `Vec` headers dominate).
//!
//! Hits, misses and the pooled-storage high-water mark also feed the
//! [`msrl_telemetry`] registry (`pool.hit`, `pool.miss`,
//! `pool.pooled_elems_hw`), so profiling reports see recycling behaviour
//! across every thread without poking at thread-locals.

use std::cell::RefCell;
use std::collections::HashMap;

use msrl_telemetry::{Counter, Gauge};

/// Upper bound on pooled storage per thread, in `f32` elements (16 Mi
/// elements = 64 MiB).
pub const MAX_POOLED_ELEMS: usize = 16 * 1024 * 1024;

/// Upper bound on retained buffers of any single length per thread.
pub const MAX_BUFFERS_PER_BUCKET: usize = 64;

/// Hit/miss counters for the calling thread's pool, for tests and
/// diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take_zeroed` calls served from the free list.
    pub hits: u64,
    /// `take_zeroed` calls that fell back to the allocator.
    pub misses: u64,
    /// Elements currently held in the free list.
    pub pooled_elems: usize,
    /// Most elements the free list has ever held on this thread.
    pub high_water_elems: usize,
}

struct Pool {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    stats: PoolStats,
    /// Shared-pipeline mirrors of the thread-local stats.
    hit_counter: Counter,
    miss_counter: Counter,
    high_water: Gauge,
}

impl Default for Pool {
    fn default() -> Self {
        Pool {
            buckets: HashMap::new(),
            stats: PoolStats::default(),
            hit_counter: Counter::handle("pool.hit"),
            miss_counter: Counter::handle("pool.miss"),
            high_water: Gauge::handle("pool.pooled_elems_hw"),
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Returns a zero-filled buffer of exactly `len` elements, reusing a
/// recycled buffer of the same length when one is pooled.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    take(len, Some(0.0))
}

/// As [`take_zeroed`], but every element is `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    take(len, Some(value))
}

/// As [`take_zeroed`], but a recycled buffer comes back as it was given:
/// stale, initialised `f32`s. Only for the output of a kernel documented
/// to overwrite every element — the memset is then a wasted pass over
/// the buffer. Debug builds hand out NaN instead, so a kernel that skips
/// an element fails the bitwise suites.
pub fn take_for_overwrite(len: usize) -> Vec<f32> {
    take(len, cfg!(debug_assertions).then_some(f32::NAN))
}

/// Pops a pooled buffer of `len` elements, filled with `fill` when
/// given; a miss allocates one filled with `fill` or zeros.
fn take(len: usize, fill: Option<f32>) -> Vec<f32> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if let Some(mut buf) = pool.buckets.get_mut(&len).and_then(Vec::pop) {
            pool.stats.hits += 1;
            pool.stats.pooled_elems -= len;
            pool.hit_counter.add(1);
            if let Some(value) = fill {
                buf.fill(value);
            }
            buf
        } else {
            pool.stats.misses += 1;
            pool.miss_counter.add(1);
            vec![fill.unwrap_or(0.0); len]
        }
    })
}

/// Returns a buffer to the calling thread's pool. Buffers that would push
/// the pool past [`MAX_POOLED_ELEMS`], overfill their length bucket past
/// [`MAX_BUFFERS_PER_BUCKET`], or are zero-length are dropped instead.
pub fn give(buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.stats.pooled_elems + len > MAX_POOLED_ELEMS {
            return;
        }
        let bucket = pool.buckets.entry(len).or_default();
        if bucket.len() >= MAX_BUFFERS_PER_BUCKET {
            return;
        }
        bucket.push(buf);
        pool.stats.pooled_elems += len;
        if pool.stats.pooled_elems > pool.stats.high_water_elems {
            pool.stats.high_water_elems = pool.stats.pooled_elems;
            pool.high_water.maximum(pool.stats.high_water_elems as f64);
        }
    });
}

/// Current counters for the calling thread's pool.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Empties the calling thread's pool and resets its counters.
pub fn clear() {
    POOL.with(|p| *p.borrow_mut() = Pool::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        clear();
        let a = take_zeroed(128);
        assert_eq!(stats().misses, 1);
        give(a);
        assert_eq!(stats().pooled_elems, 128);
        let b = take_zeroed(128);
        assert_eq!(stats().hits, 1);
        assert!(b.iter().all(|&v| v == 0.0));
        clear();
    }

    #[test]
    fn recycled_buffers_come_back_zeroed() {
        clear();
        let mut a = take_zeroed(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        give(a);
        assert!(take_zeroed(8).iter().all(|&v| v == 0.0));
        clear();
    }

    #[test]
    fn overwrite_buffers_skip_the_fill_only_in_release() {
        clear();
        give(vec![7.0; 8]);
        let hit = take_for_overwrite(8);
        assert_eq!((stats().hits, hit.len()), (1, 8));
        let miss = take_for_overwrite(8);
        assert_eq!(stats().misses, 1);
        if cfg!(debug_assertions) {
            assert!(hit.iter().chain(&miss).all(|v| v.is_nan()));
        } else {
            assert!(hit.iter().all(|&v| v == 7.0) && miss.iter().all(|&v| v == 0.0));
        }
        clear();
    }

    #[test]
    fn mismatched_length_misses() {
        clear();
        give(vec![1.0; 16]);
        let _ = take_zeroed(32);
        assert_eq!(stats().misses, 1);
        clear();
    }

    #[test]
    fn pool_is_bounded() {
        clear();
        give(vec![0.0; MAX_POOLED_ELEMS]);
        give(vec![0.0; 64]); // over budget: dropped
        assert_eq!(stats().pooled_elems, MAX_POOLED_ELEMS);
        clear();
    }

    #[test]
    fn buckets_are_bounded() {
        clear();
        for _ in 0..MAX_BUFFERS_PER_BUCKET + 10 {
            give(vec![0.0; 4]);
        }
        assert_eq!(stats().pooled_elems, MAX_BUFFERS_PER_BUCKET * 4);
        clear();
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        clear();
        give(vec![0.0; 256]);
        give(vec![0.0; 256]);
        let _ = take_zeroed(256);
        let s = stats();
        assert_eq!(s.pooled_elems, 256);
        assert_eq!(s.high_water_elems, 512);
        clear();
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        clear();
        let before_hits = msrl_telemetry::counter_total("pool.hit");
        let before_misses = msrl_telemetry::counter_total("pool.miss");
        give(vec![0.0; 48]);
        let _ = take_zeroed(48); // hit
        let _ = take_zeroed(48); // miss
        assert!(msrl_telemetry::counter_total("pool.hit") > before_hits);
        assert!(msrl_telemetry::counter_total("pool.miss") > before_misses);
        clear();
    }
}
