//! Exact allocation counts of one steady-state `PpoLearner::learn`, and
//! the exact weight packs of acting.
//!
//! The tape shares its values and hands every dead buffer back to the
//! tensor pool, so once the pool is warm a learn pass allocates little
//! beyond what escapes it (parameter gradients, the per-batch leaves).
//! Counts repeat exactly under a fixed seed, so they are gated at a
//! bound, not on a clock: a tape that copies its operands again fails
//! here by a factor of ten (EXPERIMENTS.md "Learn pass: shared tape
//! values" has the numbers of the copying tape).
//!
//! The pass's value branch runs on a `par` helper whenever a core is
//! free (always, on a host with more than one, since no fragment is
//! computing here), so the counts cover every thread, and each pool —
//! the caller's and every helper's — must settle on its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use msrl_algos::ppo::{PpoActor, PpoAgent, PpoConfig, PpoLearner, PpoPolicy};
use msrl_core::api::{Actor, Learner, SampleBatch};
use msrl_tensor::alloc::PoolStats;
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

// Process-wide: this binary's one test is the only thread allocating
// besides the helpers it forks to.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static BIG_CALLS: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting the requests of every thread while [`counted`]
/// runs.
struct CountingAlloc;

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
        BIG_CALLS.fetch_add(usize::from(size >= BIG), Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
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
    for c in [&CALLS, &BYTES, &BIG_CALLS] {
        c.store(0, Ordering::Relaxed);
    }
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    Counts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        big_calls: BIG_CALLS.load(Ordering::Relaxed),
    }
}

/// The `tensor.pack_b` calls of `f`, on every thread.
fn packs_of(f: impl FnOnce()) -> u64 {
    let before = msrl_telemetry::counter_total("tensor.pack_b");
    f();
    msrl_telemetry::counter_total("tensor.pack_b") - before
}

/// The caller's pool first, then every helper's.
fn pools() -> Vec<PoolStats> {
    let mut pools = vec![alloc::stats()];
    pools.extend(par::on_helpers(alloc::stats));
    pools
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
    /// Exact `tensor.pack_b` calls of one `learn()`.
    packs: u64,
    /// Most `f32`s any one tensor pool may ever hold — the caller's, or a
    /// helper's: the working set of what runs on one thread as an exact
    /// count, where `peak_rss_mb` drifts with the host.
    max_pool_high_water_elems: usize,
    /// Most the caller's and the helpers' pools may hold together.
    max_total_high_water_elems: usize,
}

#[test]
fn steady_state_learn_allocates_within_bounds() {
    // The shapes of the ledger's dpd / dpa / dpc learn passes. The
    // copying tape measured 96 big calls and 657 MB, 53 MB and 110 MB.
    // Each branch of a pass packs each weight at most twice, whatever
    // the number of row blocks: its `x·w` panels if a block's forward is
    // wide and tall enough, its `g·wᵀ` panels if a gradient flows into
    // the layer's input (not into the first layer's, the observations).
    // Every block's tape reads those panels; a pass that packs per block
    // again multiplies the count by the blocks (dpd's 25, dpc's four:
    // 801 and 129 a `learn()`). At each shape that is 8 packs an epoch,
    // 32 over four, plus one at dpd for the GAE bootstrap forward over
    // 200 rows; dpc's is 8 rows, under `PACK_MIN_ROWS`. In a debug build
    // dpa's single 512-row block is under `PACK_MIN_FLOPS` at its first
    // layer (`[512,4]·[4,64]`), 6 an epoch, and dpd's 50-row bootstrap
    // is too. The dpa and dpc byte bounds sit under what the packs cost
    // when they bypass the pool (9.3 MB at the dpc shape).
    // The pass runs in 1,024-row blocks, the policy branch on the
    // caller and the value branch on a helper. At the dpd shape (25
    // blocks, 200 tapes a `learn()`) that is 5.16 MB, 33 packs and
    // pools that peak at 0.39 M + 0.35 M elements; one pool of 2,048-row
    // tapes held 1.50 M, one 25,600-row tape 12.32 M. At the dpa shape
    // (2 blocks) 0.37 M + 0.35 M against one pool's 0.99 M. Inline, on a
    // one-core host, one pool holds 0.40 M and 0.38 M. Both summed bounds
    // fail when a pass runs in 2,048-row blocks again. The dpc shape's
    // blocks are sized by bytes: 256 rows of its `[256,256]` policy keep
    // an operand at 256 KB, as 1,024 rows of a 64-wide one do. Its four
    // blocks peak at 0.49 M + 0.54 M elements split (2.96 MB a
    // `learn()`); in one 1,024-row block they held 1.46 M +
    // 1.48 M (inline 1.55 M), and both dpc bounds fail there. A
    // value branch handed owned copies of `obs` and `ret` drawn on the
    // caller, which its tape then recycles into the helper's pool,
    // breaks the dpd bounds three times: 7.22 MB, 0.66 M elements in the
    // helper's pool, and 0.39 M + 0.66 M together.
    // Unoptimised kernels need two minutes for these, so a debug build
    // runs a quarter of each shape's rows: a `[6400, 64]` buffer is
    // still above 1 MiB, and the copying tape still breaks every bound
    // (EXPERIMENTS.md has both sets of numbers).
    let rows = |full: usize| if cfg!(debug_assertions) { full / 4 } else { full };
    let packs = |debug: u64, release: u64| if cfg!(debug_assertions) { debug } else { release };
    let shapes = [
        Shape {
            name: "dpd: 25600 rows x [64,64] discrete",
            rows: rows(25_600),
            policy: PpoPolicy::discrete(4, 2, &[64, 64], 1),
            max_big_calls: 0,
            max_bytes: 6_000_000,
            packs: packs(32, 33),
            max_pool_high_water_elems: 600_000,
            max_total_high_water_elems: 1_000_000,
        },
        Shape {
            name: "dpa: 2048 rows x [64,64] discrete",
            rows: rows(2_048),
            policy: PpoPolicy::discrete(4, 2, &[64, 64], 1),
            max_big_calls: 0,
            max_bytes: 1_000_000,
            packs: packs(24, 32),
            max_pool_high_water_elems: 600_000,
            max_total_high_water_elems: 800_000,
        },
        Shape {
            name: "dpc: 1024 rows x [256,256] continuous",
            rows: rows(1_024),
            policy: PpoPolicy::continuous(17, 6, &[256, 256], 1),
            max_big_calls: 0,
            max_bytes: 6_000_000,
            packs: packs(32, 32),
            max_pool_high_water_elems: 650_000,
            max_total_high_water_elems: 1_150_000,
        },
    ];
    for shape in shapes {
        alloc::clear();
        par::on_helpers(alloc::clear);
        let discrete = shape.policy.discrete;
        let (obs_dim, act_dim) = (shape.policy.actor.input_dim(), shape.policy.actor.output_dim());
        let batch = synthetic_batch(shape.rows, obs_dim, act_dim, discrete);
        let mut learner = PpoLearner::new(shape.policy, PpoConfig::default());
        learner.learn(&batch).expect("warm-up learn");
        learner.learn(&batch).expect("second learn");
        let mut third = Counts::default();
        let packs = packs_of(|| {
            third = counted(|| {
                learner.learn(&batch).expect("third learn");
            });
        });
        let after_third = pools();
        learner.learn(&batch).expect("fourth learn");
        let after_fourth = pools();
        let pooled: Vec<usize> = after_fourth.iter().map(|s| s.pooled_elems).collect();
        let high_water: Vec<usize> = after_fourth.iter().map(|s| s.high_water_elems).collect();
        println!(
            "{} ({} rows run): {} allocations, {} bytes, {} >= 1 MiB, {packs} \
             tensor.pack_b, pooled {pooled:?} elems (high water {high_water:?}; caller \
             first, then each helper)",
            shape.name, shape.rows, third.calls, third.bytes, third.big_calls
        );
        assert_eq!(packs, shape.packs, "{}: tensor.pack_b calls of one learn()", shape.name);
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
        for (pool, (third, fourth)) in after_third.iter().zip(&after_fourth).enumerate() {
            assert_eq!(
                fourth.pooled_elems, third.pooled_elems,
                "{}: pool {pool} (0 is the caller's) must reach a steady state",
                shape.name
            );
        }
        for (pool, &peak) in high_water.iter().enumerate() {
            assert!(
                peak <= shape.max_pool_high_water_elems,
                "{}: pool {pool} (0 is the caller's) peaked at {peak} elements, bound {}",
                shape.name,
                shape.max_pool_high_water_elems
            );
        }
        let total: usize = high_water.iter().sum();
        assert!(
            total <= shape.max_total_high_water_elems,
            "{}: the pools peaked at {high_water:?} elements, {total} together, bound {}",
            shape.name,
            shape.max_total_high_water_elems
        );
    }
    // Acting packs each weight of both heads once per weight version
    // (`PackedPpo`): a changed sync or a reach into the learner drops the
    // panels, and only the next act packs them again, every layer — the
    // 2-wide and 1-wide heads and the 16-row batch included, which a
    // per-call forward would not pack. A count that moves means acting
    // packs per call again, or keeps panels across a weight change.
    let policy = PpoPolicy::discrete(4, 2, &[64, 64], 1);
    let layers = (policy.actor.layers.len() + policy.critic.layers.len()) as u64;
    let obs = Tensor::from_vec((0..16 * 4).map(|i| (i as f32 * 0.1).sin()).collect(), &[16, 4])
        .expect("obs shape");
    let mut actor = PpoActor::new(policy.clone(), 3);
    let flat = actor.policy_params();
    let changed: Vec<f32> = flat.iter().map(|v| v * 0.5).collect();
    assert_eq!(packs_of(|| drop(actor.act(&obs))), layers, "PpoActor: first act");
    assert_eq!(packs_of(|| drop(actor.act(&obs))), 0, "PpoActor: act on packed weights");
    actor.set_policy_params(&changed).expect("changed sync");
    assert_eq!(packs_of(|| drop(actor.act(&obs))), layers, "PpoActor: act after a changed sync");
    actor.set_policy_params(&changed).expect("identical sync");
    assert_eq!(packs_of(|| drop(actor.act(&obs))), 0, "PpoActor: act after an identical sync");
    let mut agent = PpoAgent::new(policy, PpoConfig::default(), 3);
    assert_eq!(packs_of(|| drop(agent.act(&obs))), layers, "PpoAgent: first act");
    assert_eq!(packs_of(|| drop(agent.act(&obs))), 0, "PpoAgent: act on packed weights");
    agent.learner_mut();
    assert_eq!(packs_of(|| drop(agent.act(&obs))), layers, "PpoAgent: act after learner_mut()");
    alloc::clear();
    par::on_helpers(alloc::clear);
}
