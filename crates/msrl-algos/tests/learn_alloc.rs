//! Exact allocation counts of one steady-state `PpoLearner::learn`.
//!
//! The tape shares its values and hands every dead buffer back to the
//! tensor pool, so once the pool is warm a learn pass allocates little
//! beyond what escapes it (parameter gradients, the per-batch leaves).
//! Counts repeat exactly under a fixed seed, so they are gated at a
//! bound, not on a clock: a tape that copies its operands again fails
//! here by a factor of ten (EXPERIMENTS.md "Learn pass: shared tape
//! values" has the numbers of the copying tape).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use msrl_algos::ppo::{PpoConfig, PpoLearner, PpoPolicy};
use msrl_core::api::{Learner, SampleBatch};
use msrl_tensor::{alloc, par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BIG: usize = 1 << 20;

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    calls: usize,
    bytes: usize,
    big_calls: usize,
}

thread_local! {
    // `const` and `Copy`: no lazy initialiser and no destructor, so the
    // allocator may touch them at any point of a thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { calls: 0, bytes: 0, big_calls: 0 }) };
}

/// `System`, counting the requests of whichever thread is inside
/// [`counted`].
struct CountingAlloc;

fn note(size: usize) {
    if COUNTING.get() {
        let mut c = COUNTS.get();
        c.calls += 1;
        c.bytes += size;
        c.big_calls += usize::from(size >= BIG);
        COUNTS.set(c);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// `Cell`s of `Copy` data and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted(f: impl FnOnce()) -> Counts {
    COUNTS.set(Counts::default());
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    COUNTS.get()
}

/// A rollout-shaped batch: env-major segments of 128 steps, an episode
/// end every 57th row, everything else drawn from one seeded stream.
fn synthetic_batch(rows: usize, obs_dim: usize, act_dim: usize, discrete: bool) -> SampleBatch {
    let mut rng = StdRng::seed_from_u64(17);
    let mut draw = |n: usize, lo: f32, hi: f32| -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    };
    let t = |data: Vec<f32>, dims: &[usize]| Tensor::from_vec(data, dims).expect("synthetic shape");
    let actions = if discrete {
        t(draw(rows, 0.0, act_dim as f32).into_iter().map(f32::floor).collect(), &[rows])
    } else {
        t(draw(rows * act_dim, -1.0, 1.0), &[rows, act_dim])
    };
    SampleBatch {
        obs: t(draw(rows * obs_dim, -1.0, 1.0), &[rows, obs_dim]),
        actions,
        rewards: t(draw(rows, 0.0, 1.0), &[rows]),
        next_obs: t(draw(rows * obs_dim, -1.0, 1.0), &[rows, obs_dim]),
        dones: (0..rows).map(|i| i % 57 == 56).collect(),
        log_probs: t(draw(rows, -1.5, -0.3), &[rows]),
        values: t(draw(rows, -0.5, 0.5), &[rows]),
        segment_len: 128,
    }
}

struct Shape {
    name: &'static str,
    rows: usize,
    policy: PpoPolicy,
    max_big_calls: usize,
    max_bytes: usize,
    /// Most `f32`s the tensor pool may ever hold: the pass's working set
    /// as an exact count, where `peak_rss_mb` drifts with the host.
    max_high_water_elems: usize,
}

#[test]
fn steady_state_learn_allocates_within_bounds() {
    // The shapes of the ledger's dpd / dpa / dpc learn passes. The
    // copying tape measured 96 big calls and 657 MB, 53 MB and 110 MB.
    // Every `g·wᵀ` and every wide-enough forward layer packs its weight
    // per call; the dpa and dpc bounds sit under what those packs cost
    // when they bypass the pool (9.3 MB at the dpc shape).
    // The dpd pass runs in 2,048-row blocks (13 of them, 52 tapes a
    // `learn()`): 4.66 MB, 464 packs and a pool that peaks at 1.47 M
    // elements — two blocks' worth, the full one's buffers and the
    // ragged last one's — where one 25,600-row tape measured 3.55 MB, 40
    // packs and 12.32 M. Its pool bound is a quarter of that; the other
    // two shapes are one block and hold what they held (0.99 M, 2.06 M).
    // Unoptimised kernels need two minutes for these, so a debug build
    // runs a quarter of each shape's rows: a `[6400, 64]` buffer is
    // still above 1 MiB, and the copying tape still breaks every bound
    // (EXPERIMENTS.md has both sets of numbers).
    let rows = |full: usize| if cfg!(debug_assertions) { full / 4 } else { full };
    let shapes = [
        Shape {
            name: "dpd: 25600 rows x [64,64] discrete",
            rows: rows(25_600),
            policy: PpoPolicy::discrete(4, 2, &[64, 64], 1),
            max_big_calls: 0,
            max_bytes: 6_000_000,
            max_high_water_elems: 3_000_000,
        },
        Shape {
            name: "dpa: 2048 rows x [64,64] discrete",
            rows: rows(2_048),
            policy: PpoPolicy::discrete(4, 2, &[64, 64], 1),
            max_big_calls: 0,
            max_bytes: 1_000_000,
            max_high_water_elems: 1_100_000,
        },
        Shape {
            name: "dpc: 1024 rows x [256,256] continuous",
            rows: rows(1_024),
            policy: PpoPolicy::continuous(17, 6, &[256, 256], 1),
            max_big_calls: 0,
            max_bytes: 6_000_000,
            max_high_water_elems: 2_300_000,
        },
    ];
    // One kernel thread: fan-out workers would add their own (tiny,
    // scheduling-dependent) bookkeeping allocations to the count.
    par::with_threads(1, || {
        for shape in shapes {
            alloc::clear();
            let discrete = shape.policy.discrete;
            let (obs_dim, act_dim) =
                (shape.policy.actor.input_dim(), shape.policy.actor.output_dim());
            let batch = synthetic_batch(shape.rows, obs_dim, act_dim, discrete);
            let mut learner = PpoLearner::new(shape.policy, PpoConfig::default());
            learner.learn(&batch).expect("warm-up learn");
            learner.learn(&batch).expect("second learn");
            let packs = msrl_telemetry::counter_total("tensor.pack_b");
            let third = counted(|| {
                learner.learn(&batch).expect("third learn");
            });
            let packs = msrl_telemetry::counter_total("tensor.pack_b") - packs;
            let pooled_after_third = alloc::stats().pooled_elems;
            learner.learn(&batch).expect("fourth learn");
            let stats = alloc::stats();
            println!(
                "{} ({} rows run): {third:?}, {packs} tensor.pack_b, pooled {} elems (high water {})",
                shape.name, shape.rows, stats.pooled_elems, stats.high_water_elems
            );
            assert!(
                third.big_calls <= shape.max_big_calls,
                "{}: {} allocations >= 1 MiB, bound {}",
                shape.name,
                third.big_calls,
                shape.max_big_calls
            );
            assert!(
                third.bytes <= shape.max_bytes,
                "{}: {} bytes allocated, bound {}",
                shape.name,
                third.bytes,
                shape.max_bytes
            );
            assert_eq!(
                stats.pooled_elems, pooled_after_third,
                "{}: the pool must reach a steady state",
                shape.name
            );
            assert!(
                stats.high_water_elems <= shape.max_high_water_elems,
                "{}: the pool peaked at {} elements, bound {}",
                shape.name,
                stats.high_water_elems,
                shape.max_high_water_elems
            );
        }
        alloc::clear();
    });
}
