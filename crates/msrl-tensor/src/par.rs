//! The execution context, and the one helper pool every fork runs on.
//!
//! How a kernel executes — which backend, how many intra-op chunks,
//! where the serial cut-off sits, whether the fused kernels are on — is
//! one `Copy` value, [`ExecCtx`], chosen outside the code that
//! computes:
//!
//! * The **process default** is parsed once, strictly, from
//!   `MSRL_BACKEND` (`scalar` | `threaded`, default `threaded`) and
//!   `MSRL_THREADS` (a positive integer, default the host's available
//!   parallelism) by [`ExecCtx::from_env`]. A value outside those sets
//!   is a [`ConfigError`] naming the variable, never a silent fallback.
//! * An **override** is scoped to the calling thread:
//!   [`ExecCtx::scope`] installs a context in a thread-local for the
//!   duration of a closure and a drop guard restores the previous one,
//!   also on unwind. No other thread observes it, so concurrent tests
//!   and concurrent fragments cannot steer each other's numerics.
//!   [`with_backend`], [`with_threads`], [`with_par_min`] and
//!   [`with_fusion`] are one-field spellings.
//! * A context is **inherited** at exactly two seams: every fork of the
//!   pool below ([`join`], [`map_each`] and the fan-outs built on it)
//!   runs under the forking thread's context, and the fragment runner's
//!   `spawn_fragment` (`msrl_runtime::exec`) hands its caller's context
//!   to every fragment thread. A thread started any other way starts
//!   from the process default.
//!
//! The two backends:
//!
//! * [`Backend::Scalar`] — single-threaded kernels, and no fork; the
//!   bit-exact baseline the threaded backend is validated against.
//! * [`Backend::Threaded`] — the same kernels cut into
//!   [`ExecCtx::threads`] chunks along *output* regions, so no two
//!   chunks write the same element and the per-element accumulation
//!   order matches the scalar backend (matmul and axis reductions are
//!   bit-exact across backends; whole-tensor sums split per chunk and
//!   agree to rounding). With one chunk it routes straight to the serial
//!   kernels.
//!
//! Kernels read the context once per operation ([`ExecCtx::current`] is
//! one thread-local load) and pass what they need down by value; no
//! chunk closure reads it again.
//!
//! # The pool
//!
//! The process has one pool of helper threads, one per core beyond the
//! caller's (`available_parallelism() − 1`; none on a one-core host),
//! started on first use and alive for the rest of the process. Each
//! helper keeps its own warm thread-local tensor pool
//! ([`crate::alloc`]). Work reaches a helper one way, a *fork*: [`join`]
//! forks its second closure, [`map_each`] every item but the first, and
//! [`fill_chunks_aligned`] and [`map_ranges`] are [`map_each`] over
//! their chunks.
//!
//! A fork takes a helper only when one is idle *and a core is free*: the
//! fragment threads computing plus the helpers already busy are fewer
//! than the host's cores (`msrl_telemetry::computing_fragments`; a
//! fragment is counted for its lifetime and leaves the count while it is
//! parked in the fabric). A helper then runs on the core a parked
//! fragment left — the actor's core while DP-A's learner differentiates
//! — and never on one a busy fragment or another helper needs.
//! Otherwise the work runs inline on the caller, after the caller's own
//! share. A fork never queues: with no helper to take it, it does not
//! wait for one, so a fork inside a forked closure, or
//! two callers racing for one helper, degrades to inline and cannot
//! deadlock. Results do not depend on where work ran: the closures are
//! the same either way.
//!
//! [`ExecCtx::threads`] is how many chunks a kernel cuts its output
//! into, not how many threads run them, and no fork reads it: the
//! number of threads is the number of free cores. So `MSRL_THREADS=1`
//! keeps every kernel one chunk, yet [`join`] still forks. The backend
//! does bound it: under [`Backend::Scalar`] nothing forks, and every
//! kernel and both branches of a [`join`] run on the calling thread.
//!
//! A forked closure borrows from the caller's frame; the caller waits
//! for it on every path out — return or unwind — and a panic in it is
//! resumed on the caller. The helper catches the panic and serves the
//! next fork.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Which execution strategy the tensor kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded reference kernels.
    Scalar,
    /// Kernels cut into chunks, run on the pool's free cores.
    Threaded,
}

/// A rejected `MSRL_*` value: which variable, what it held, and what it
/// accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable's name.
    pub var: &'static str,
    /// The rejected value.
    pub value: String,
    /// The accepted values, for the message.
    pub accepted: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?} is not valid; accepted: {}", self.var, self.value, self.accepted)
    }
}

impl std::error::Error for ConfigError {}

/// Parses one optional variable: `Ok(None)` when unset, the parsed
/// value when `parse` accepts it, otherwise a [`ConfigError`] carrying
/// `accepted`. Shared by [`ExecCtx::parse`] and
/// `msrl_runtime::RuntimeConfig::parse`.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the variable is set to a value
/// `parse` rejects.
pub fn parse_var<T>(
    lookup: &impl Fn(&'static str) -> Option<String>,
    var: &'static str,
    accepted: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    match lookup(var) {
        None => Ok(None),
        Some(value) => match parse(value.trim()) {
            Some(v) => Ok(Some(v)),
            None => Err(ConfigError { var, value, accepted }),
        },
    }
}

/// How tensor kernels execute on the calling thread. See the module
/// docs for how a value is resolved, overridden and inherited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCtx {
    /// Serial or chunk-parallel kernels.
    pub backend: Backend,
    /// Chunks an intra-op kernel cuts its output into under
    /// [`Backend::Threaded`] (≥ 1). Not a thread count: chunks run on
    /// whatever cores are free (module docs, "The pool").
    pub threads: usize,
    /// Replaces every kernel's own serial-below cut-off
    /// ([`PAR_MIN_ELEMS`], [`PAR_MIN_FLOPS`], …) when set; tests set it
    /// to 1 so tiny inputs still exercise the multi-chunk paths.
    pub par_min: Option<usize>,
    /// Fused `MatMul+bias+activation` kernels in [`crate::nn`] and the
    /// `msrl-core` graph compiler's fusion passes. Bit-identical to the
    /// unfused operators, which stay reachable through
    /// [`with_fusion`]`(false, ..)` as the reference the bitwise suites
    /// compare against.
    pub fusion: bool,
}

thread_local! {
    /// The calling thread's override; `None` means the process default.
    static CURRENT: Cell<Option<ExecCtx>> = const { Cell::new(None) };
}

impl ExecCtx {
    /// Resolves a context from `lookup(name)`, the pure core of
    /// [`Self::from_env`]: unset variables take their defaults, set
    /// ones must parse.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for `MSRL_BACKEND` outside
    /// `scalar|threaded` or `MSRL_THREADS` that is not a positive
    /// integer.
    pub fn parse(lookup: impl Fn(&'static str) -> Option<String>) -> Result<ExecCtx, ConfigError> {
        let backend = parse_var(&lookup, "MSRL_BACKEND", "scalar|threaded", |v| match v {
            "scalar" => Some(Backend::Scalar),
            "threaded" => Some(Backend::Threaded),
            _ => None,
        })?;
        let threads = parse_var(&lookup, "MSRL_THREADS", "a positive integer", |v| {
            v.parse::<usize>().ok().filter(|&n| n > 0)
        })?;
        Ok(ExecCtx {
            backend: backend.unwrap_or(Backend::Threaded),
            threads: threads.unwrap_or_else(cores),
            par_min: None,
            fusion: true,
        })
    }

    /// [`Self::parse`] over the process environment.
    ///
    /// # Errors
    ///
    /// See [`Self::parse`].
    pub fn from_env() -> Result<ExecCtx, ConfigError> {
        ExecCtx::parse(|name| std::env::var(name).ok())
    }

    /// The context in force on the calling thread: the innermost
    /// enclosing [`Self::scope`], else the process default.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message when the process default
    /// is first needed and the environment holds a rejected value
    /// (binaries call `RuntimeConfig::from_env` up front to report it
    /// as an error instead).
    #[inline]
    pub fn current() -> ExecCtx {
        CURRENT.get().unwrap_or_else(|| {
            static DEFAULT: OnceLock<ExecCtx> = OnceLock::new();
            *DEFAULT.get_or_init(|| ExecCtx::from_env().unwrap_or_else(|e| panic!("{e}")))
        })
    }

    /// Runs `f` with `self` as the calling thread's context, restoring
    /// the previous one afterwards (also when `f` unwinds).
    pub fn scope<T>(self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<ExecCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.set(self.0);
            }
        }
        let _restore = Restore(CURRENT.replace(Some(self)));
        f()
    }

    /// True when `work_items` should be cut into chunks: threaded
    /// backend, more than one chunk, and at least `serial_below` items
    /// (or [`Self::par_min`], when set).
    #[inline]
    pub fn should_parallelize(&self, work_items: usize, serial_below: usize) -> bool {
        self.backend == Backend::Threaded
            && self.threads > 1
            && work_items >= self.par_min.unwrap_or(serial_below)
    }
}

/// The calling thread's backend.
pub fn backend() -> Backend {
    ExecCtx::current().backend
}

/// The calling thread's intra-op chunk count.
pub fn thread_count() -> usize {
    ExecCtx::current().threads
}

/// Whether fused kernels and graph-compiler fusion passes are on for
/// the calling thread (see [`ExecCtx::fusion`]).
pub fn fusion_enabled() -> bool {
    ExecCtx::current().fusion
}

/// Always `true`: the packed, register-tiled and gathered kernels are
/// the only execution path. Kept only until the frozen `benchmark/`
/// crate, which still asks, is re-pointed.
pub fn tier_enabled() -> bool {
    true
}

/// [`ExecCtx::should_parallelize`] on the calling thread's context.
pub fn should_parallelize(work_items: usize, serial_below: usize) -> bool {
    ExecCtx::current().should_parallelize(work_items, serial_below)
}

/// Runs `f` under the given backend on the calling thread.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    ExecCtx { backend, ..ExecCtx::current() }.scope(f)
}

/// Runs `f` with `threads` intra-op chunks on the calling thread.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    ExecCtx { threads: threads.max(1), ..ExecCtx::current() }.scope(f)
}

/// Runs `f` with every kernel's serial cut-off forced to `n` on the
/// calling thread.
pub fn with_par_min<T>(n: usize, f: impl FnOnce() -> T) -> T {
    ExecCtx { par_min: Some(n), ..ExecCtx::current() }.scope(f)
}

/// Runs `f` with fusion forced to `fusion` on the calling thread.
pub fn with_fusion<T>(fusion: bool, f: impl FnOnce() -> T) -> T {
    ExecCtx { fusion, ..ExecCtx::current() }.scope(f)
}

/// Elements below which threaded kernels stay serial: handing a chunk
/// to another core costs more than the work it would cover.
pub const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Multiply–add count below which matmul stays serial.
pub const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

/// Splits `out` into [`ExecCtx::threads`] contiguous chunks and runs
/// `f(offset_of_chunk, chunk)` for each through [`map_each`].
///
/// Chunk boundaries depend only on `out.len()` and the chunk count, so
/// results are deterministic for a fixed configuration. With one chunk
/// this degenerates to a plain call on the full slice.
pub fn fill_chunks<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fill_chunks_aligned(out, 1, f);
}

/// As [`fill_chunks`], but chunk boundaries are multiples of `align`
/// elements — used when `out` is made of logical records (matrix rows,
/// broadcast runs) that must not straddle two chunks.
pub fn fill_chunks_aligned<T, F>(out: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0 && out.len().is_multiple_of(align), "output must be whole records");
    let records = out.len() / align;
    let chunks = thread_count().min(records.max(1));
    let chunk_len = records.div_ceil(chunks) * align;
    if chunks <= 1 || chunk_len == 0 {
        f(0, out);
        return;
    }
    let items: Vec<_> = out.chunks_mut(chunk_len).enumerate().collect();
    map_each(items, |(idx, chunk)| f(idx * chunk_len, chunk));
}

/// Partitions `0..n` into [`ExecCtx::threads`] contiguous ranges and
/// runs `f(range)` for each through [`map_each`], collecting the
/// per-range results in range order.
pub fn map_ranges<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let chunks = thread_count().min(n.max(1));
    let chunk = n.div_ceil(chunks);
    if chunks <= 1 || chunk == 0 {
        return vec![f(0..n)];
    }
    map_each((0..n).step_by(chunk).map(|s| s..(s + chunk).min(n)).collect(), f)
}

/// Runs `f` on every item and returns the results in item order: the
/// first item on the calling thread, each other one forked to an idle
/// helper when a core is free and run inline otherwise (module docs,
/// "The pool"). Every item runs under the caller's [`ExecCtx`]; the
/// call returns once all have, and resumes the first panic among them.
pub fn map_each<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    {
        let f = &f;
        let mut items = items.into_iter().zip(results.iter_mut());
        let first = items.next();
        let mut forked = Vec::with_capacity(items.len());
        for (item, slot) in items {
            match fork(move || *slot = Some(f(item))) {
                Ok(running) => forked.push(running),
                Err(inline) => inline(),
            }
        }
        if let Some((item, slot)) = first {
            *slot = Some(f(item));
        }
        for running in forked {
            running.join();
        }
    }
    results.into_iter().map(|r| r.expect("every item ran")).collect()
}

/// Runs `a` on the calling thread and `b` on an idle helper when a core
/// is free — else inline, after `a` — and returns both results. `b`
/// runs under the caller's [`ExecCtx`] either way.
///
/// `join` returns or unwinds only once `b` has finished or was never
/// started; a panic in `b` is resumed here (after `a` is done), one in
/// `a` after `b` is done. The fork never queues (module docs, "The
/// pool"), so a `join` inside `b` completes, inline if no other helper
/// is idle.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    msrl_telemetry::static_counter!("par.join").add(1);
    let mut rb = None;
    let slot = &mut rb;
    let ra = match fork(move || *slot = Some(b())) {
        Ok(running) => {
            msrl_telemetry::static_counter!("par.join_forked").add(1);
            let ra = a();
            running.join();
            ra
        }
        Err(inline) => {
            let ra = a();
            inline();
            ra
        }
    };
    (ra, rb.expect("b ran"))
}

/// Runs `f` once on every helper thread of the pool, waiting for each
/// to be idle first, and returns the results in helper order: how a
/// caller reads a helper's thread-local state, as the allocation tests
/// read the tensor pool each helper keeps ([`crate::alloc::stats`]).
pub fn on_helpers<R, F>(f: F) -> Vec<R>
where
    R: Send,
    F: Fn() -> R + Sync,
{
    helpers()
        .iter()
        .map(|helper| {
            while !helper.claim() {
                std::thread::yield_now();
            }
            let mut result = None;
            let slot = &mut result;
            let f = &f;
            start(helper, move || *slot = Some(f())).join();
            result.expect("the helper ran f")
        })
        .collect()
}

/// The gate of every fork, as a pure function: one of the pool's
/// `helpers` is idle, and the fragment threads `computing` plus the
/// helpers already busy leave one of the host's `cores` free, so the
/// helper gets a core neither a fragment nor another helper is using.
/// Outside any fragment (tests, the sequential baseline) nothing is
/// computing.
fn may_fork(computing: usize, cores: usize, helpers: usize, idle_helpers: usize) -> bool {
    idle_helpers > 0 && computing + (helpers - idle_helpers) < cores
}

/// Cores this process may run on, resolved once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Hands `job` to an idle helper when [`may_fork`] allows, under the
/// caller's [`ExecCtx`], and gives it back otherwise, for the caller to
/// run inline. Under [`Backend::Scalar`] it always gives it back: the
/// reference backend runs on one thread.
fn fork<'a, F: FnOnce() + Send + 'a>(job: F) -> Result<Running<'a>, F> {
    let ctx = ExecCtx::current();
    if ctx.backend == Backend::Scalar {
        return Err(job);
    }
    let helpers = helpers();
    let idle = helpers.iter().filter(|h| h.idle.load(Ordering::Relaxed)).count();
    if !may_fork(msrl_telemetry::computing_fragments(), cores(), helpers.len(), idle) {
        return Err(job);
    }
    match helpers.iter().find(|h| h.claim()) {
        Some(helper) => Ok(start(helper, move || ctx.scope(job))),
        None => Err(job),
    }
}

/// Posts `job` to `helper`, which the caller has claimed.
fn start<'a>(helper: &'static Helper, job: impl FnOnce() + Send + 'a) -> Running<'a> {
    let job: Box<dyn FnOnce() + Send + 'a> = Box::new(job);
    // SAFETY: only the lifetime changes; the layout of the box is the
    // same. The job may use borrows of `'a` until it returns, and the
    // returned `Running<'a>` waits for that return on every path that
    // ends it: `Running::join`, or its `Drop` when the caller unwinds.
    // `Running` is private to this module and every caller keeps it in
    // a local or a local `Vec` until it joins, so it is never leaked
    // and `'a` cannot end before the wait. After the job returns the
    // helper touches only its own `'static` state.
    let job: Job = unsafe {
        std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Box<dyn FnOnce() + Send + 'static>>(
            job,
        )
    };
    helper.post(job);
    Running { helper: Some(helper), _borrows: PhantomData }
}

/// A job posted to a helper, with its borrows erased (see [`start`]).
type Job = Box<dyn FnOnce() + Send>;

/// What a job that unwound left: the panic payload.
type Panic = Box<dyn Any + Send>;

/// A forked job, borrowing for `'a` from the frame that forked it.
/// Dropping it waits for the job.
struct Running<'a> {
    helper: Option<&'static Helper>,
    _borrows: PhantomData<&'a mut ()>,
}

impl Running<'_> {
    /// Waits for the job and resumes its panic, if any, on the caller.
    fn join(mut self) {
        let helper = self.helper.take().expect("joined once");
        if let Some(panic) = helper.collect() {
            resume_unwind(panic);
        }
    }
}

impl Drop for Running<'_> {
    /// The caller is unwinding: wait anyway, and let its panic win.
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            drop(helper.collect());
        }
    }
}

/// One persistent helper thread and its hand-off slot.
struct Helper {
    /// Cleared by the caller that claims the helper; set again once that
    /// caller has collected the job's outcome.
    idle: AtomicBool,
    slot: Mutex<Slot>,
    /// A job was posted (the helper waits on this).
    posted: Condvar,
    /// The job finished (the caller waits on this).
    finished: Condvar,
}

#[derive(Default)]
struct Slot {
    job: Option<Job>,
    /// `Some` once the posted job has run: holding its panic if it
    /// unwound.
    outcome: Option<Option<Panic>>,
}

impl Helper {
    /// Nothing in a critical section can unwind, so a poisoned lock
    /// still guards a valid slot.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the helper for one job, if it is idle.
    fn claim(&self) -> bool {
        self.idle.compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    fn post(&self, job: Job) {
        self.lock().job = Some(job);
        self.posted.notify_one();
    }

    /// Waits for the posted job's outcome and frees the helper.
    fn collect(&self) -> Option<Panic> {
        let mut slot = self.lock();
        let outcome = loop {
            if let Some(outcome) = slot.outcome.take() {
                break outcome;
            }
            slot = self.finished.wait(slot).unwrap_or_else(PoisonError::into_inner);
        };
        drop(slot);
        self.idle.store(true, Ordering::Release);
        outcome
    }

    /// The helper thread: runs each posted job, catching its panic, and
    /// reports how it ended — for the life of the process. The spans a
    /// job recorded reach the telemetry sink before the caller hears of
    /// it, as a joined thread's do when it exits.
    fn serve(&self) {
        loop {
            let job = {
                let mut slot = self.lock();
                loop {
                    if let Some(job) = slot.job.take() {
                        break job;
                    }
                    slot = self.posted.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(job)).err();
            msrl_telemetry::flush_thread();
            self.lock().outcome = Some(outcome);
            self.finished.notify_one();
        }
    }
}

/// The pool, started on first use: one helper per core beyond the
/// caller's. A helper whose thread cannot be spawned is left out.
fn helpers() -> &'static [&'static Helper] {
    static HELPERS: OnceLock<Vec<&'static Helper>> = OnceLock::new();
    HELPERS.get_or_init(|| {
        (1..cores())
            .filter_map(|i| {
                let helper: &'static Helper = Box::leak(Box::new(Helper {
                    idle: AtomicBool::new(true),
                    slot: Mutex::default(),
                    posted: Condvar::new(),
                    finished: Condvar::new(),
                }));
                let thread = std::thread::Builder::new().name(format!("msrl-par-{i}"));
                thread.spawn(move || helper.serve()).ok().map(|_| helper)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn fill_chunks_covers_every_slot() {
        let mut out = vec![0usize; 103];
        with_threads(4, || {
            fill_chunks(&mut out, |offset, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = offset + i;
                }
            });
        });
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn map_ranges_preserves_order() {
        let sums = with_threads(3, || map_ranges(100, |r| r.sum::<usize>()));
        assert_eq!(sums.iter().sum::<usize>(), 4950);
        let firsts = with_threads(4, || map_ranges(10, |r| r.start));
        assert_eq!(firsts, vec![0, 3, 6, 9]);
    }

    #[test]
    fn scopes_nest_and_restore_also_on_unwind() {
        let outer = ExecCtx::current();
        let inner = with_backend(Backend::Scalar, || {
            with_fusion(false, || with_par_min(5, || with_threads(7, ExecCtx::current)))
        });
        let expect =
            ExecCtx { backend: Backend::Scalar, fusion: false, par_min: Some(5), threads: 7 };
        assert_eq!(inner, expect);
        assert_eq!(ExecCtx::current(), outer);
        let unwound = std::panic::catch_unwind(|| with_threads(9, || panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(ExecCtx::current(), outer, "the drop guard restores on unwind");
    }

    #[test]
    fn par_min_replaces_the_kernel_cutoff_and_one_worker_stays_serial() {
        with_backend(Backend::Threaded, || {
            with_threads(4, || {
                assert!(!should_parallelize(2, PAR_MIN_ELEMS));
                with_par_min(1, || assert!(should_parallelize(2, PAR_MIN_ELEMS)));
                with_par_min(1000, || assert!(!should_parallelize(2, 1)));
            });
            with_threads(1, || with_par_min(1, || assert!(!should_parallelize(1 << 20, 1))));
        });
        with_backend(Backend::Scalar, || {
            with_threads(4, || with_par_min(1, || assert!(!should_parallelize(1 << 20, 1))));
        });
    }

    #[test]
    fn fan_out_workers_inherit_the_callers_context_and_siblings_do_not() {
        let ctx =
            ExecCtx { backend: Backend::Threaded, threads: 4, par_min: Some(1), fusion: false };
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            // A sibling thread inside its own, different scope while the
            // fan-outs below run: neither side sees the other's.
            let sibling = s.spawn(|| {
                let mine = ExecCtx { threads: 2, fusion: true, ..ctx };
                mine.scope(|| {
                    barrier.wait();
                    let seen = map_ranges(2, |_| ExecCtx::current());
                    let joined = join(ExecCtx::current, ExecCtx::current);
                    barrier.wait();
                    (mine, seen, joined)
                })
            });
            ctx.scope(|| {
                barrier.wait();
                let seen = map_ranges(8, |_| ExecCtx::current());
                assert_eq!(seen, vec![ctx; 4]);
                let mut slots = vec![None; 8];
                fill_chunks_aligned(&mut slots, 2, |_, chunk| chunk.fill(Some(ExecCtx::current())));
                assert!(slots.iter().all(|s| *s == Some(ctx)));
                assert_eq!(join(ExecCtx::current, ExecCtx::current), (ctx, ctx));
                barrier.wait();
            });
            let (mine, seen, joined) = sibling.join().expect("sibling must not panic");
            assert_eq!(seen, vec![mine; 2]);
            assert_eq!(joined, (mine, mine));
        });
        // A helper holds no context of its own between forks.
        let outside = ExecCtx::current();
        let seen = (0..50).map(|_| join(|| (), ExecCtx::current).1);
        assert!(seen.into_iter().all(|c| c == outside));
    }

    /// Joins until `b` runs on another thread, which needs an idle helper
    /// (concurrent tests may hold it for a while) and the threaded
    /// backend, whatever `MSRL_BACKEND` says. `None` on a host with no
    /// helper.
    fn until_forked<T>(mut attempt: impl FnMut() -> (ThreadId, T)) -> Option<T> {
        if helpers().is_empty() {
            return None;
        }
        let me = std::thread::current().id();
        for _ in 0..10_000 {
            let (ran_on, out) = with_backend(Backend::Threaded, &mut attempt);
            if ran_on != me {
                return Some(out);
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        panic!("no join forked in 10,000 attempts: the helper is gone");
    }

    #[test]
    fn a_panic_in_b_reaches_the_caller_and_the_helper_serves_the_next_join() {
        let on = || std::thread::current().id();
        for _ in 0..3 {
            let payload = until_forked(|| {
                let caught = std::panic::catch_unwind(|| {
                    join(
                        || (),
                        || {
                            let ran_on = on();
                            std::panic::panic_any(ran_on);
                        },
                    )
                });
                let payload = caught.expect_err("b panicked");
                (*payload.downcast::<ThreadId>().expect("b's own payload"), ())
            });
            if payload.is_none() {
                return;
            }
        }
        assert!(until_forked(|| (join(|| (), on).1, ())).is_some(), "the helper survived");
    }

    #[test]
    fn join_waits_for_b_when_a_unwinds() {
        let finished = until_forked(|| {
            let mut written = false;
            let mut ran_on = std::thread::current().id();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                join(
                    || panic!("a fails first"),
                    || {
                        ran_on = std::thread::current().id();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        written = true;
                    },
                )
            }));
            assert!(caught.is_err(), "a's panic propagates");
            // Inline, `b` never starts after `a` unwinds; forked, it must
            // have finished before the unwind left `join`.
            (ran_on, written)
        });
        assert!(finished.unwrap_or(true), "b was still running after join unwound");
    }

    #[test]
    fn a_join_inside_b_completes() {
        let nested = join(|| 1, || join(|| 2, || join(|| 3, || 4)));
        assert_eq!(nested, (1, (2, (3, 4))));
        let mut cells = vec![0usize; 64];
        with_threads(4, || {
            let (left, right) = cells.split_at_mut(32);
            join(
                || fill_chunks(left, |o, c| c.iter_mut().enumerate().for_each(|(i, v)| *v = o + i)),
                || {
                    fill_chunks(right, |o, c| {
                        c.iter_mut().enumerate().for_each(|(i, v)| *v = 32 + o + i)
                    })
                },
            )
        });
        assert!(cells.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn a_fork_needs_an_idle_helper_and_a_core_no_fragment_or_helper_computes_on() {
        // (computing fragments, cores, helpers, idle helpers) → fork?
        let table = [
            ((0, 2, 1, 1), true),  // outside any fragment: tests, sequential runs
            ((1, 2, 1, 1), true),  // DP-A: the learner computes, the actor is parked
            ((2, 2, 1, 1), false), // DP-C/DP-D: both replicas compute
            ((3, 2, 1, 1), false), // oversubscribed
            ((0, 2, 1, 0), false), // the helper is busy
            ((1, 2, 1, 0), false),
            ((0, 1, 0, 0), false), // a one-core host has no helper
            ((2, 4, 3, 2), true),  // two fragments and one busy helper leave a core
            ((3, 4, 3, 2), false), // ... three fragments do not
            ((1, 4, 3, 1), true),  // a nested fork: one fragment, two helpers busy
            ((2, 4, 3, 1), false), // ... with a second fragment computing
            ((4, 4, 3, 3), false),
        ];
        for ((computing, cores, helpers, idle), expect) in table {
            let got = may_fork(computing, cores, helpers, idle);
            assert_eq!(got, expect, "{computing}/{cores}/{helpers}/{idle}");
        }
    }

    #[test]
    fn the_scalar_backend_never_forks() {
        let me = std::thread::current().id();
        let on = || std::thread::current().id();
        with_backend(Backend::Scalar, || {
            with_threads(4, || {
                assert_eq!(join(on, on), (me, me));
                assert_eq!(map_each(vec![(); 4], |()| on()), vec![me; 4]);
            });
        });
    }

    #[test]
    fn the_pool_has_one_helper_per_core_beyond_the_callers() {
        assert_eq!(helpers().len(), cores() - 1);
        let names = on_helpers(|| std::thread::current().name().map(str::to_owned));
        assert_eq!(names.len(), cores() - 1);
        assert!(names.iter().all(|n| n.as_deref().is_some_and(|n| n.starts_with("msrl-par-"))));
    }
}
