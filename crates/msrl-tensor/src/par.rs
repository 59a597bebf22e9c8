//! The backend, and the one helper pool the learner's branch fork runs
//! on.
//!
//! How a kernel executes is one `Copy` value, the [`Backend`], chosen
//! outside the code that computes:
//!
//! * The **process default** is parsed once, strictly, from
//!   `MSRL_BACKEND` (`scalar` | `threaded`, default `threaded`) by
//!   [`Backend::from_env`]. A value outside that set is a
//!   [`ConfigError`] naming the variable, never a silent fallback.
//! * An **override** is scoped to the calling thread: [`with_backend`]
//!   installs a backend in a thread-local for the duration of a closure
//!   and a drop guard restores the previous one, also on unwind. No
//!   other thread observes it, so concurrent tests and concurrent
//!   fragments cannot steer each other.
//! * A backend is **inherited** at exactly one seam: the fragment
//!   runner's `spawn_fragment` (`msrl_runtime::exec`) hands its caller's
//!   backend to every fragment thread. A thread started any other way —
//!   a helper running a forked branch included — starts from the process
//!   default.
//!
//! Every kernel runs as one chunk on its calling thread. Parallelism
//! comes from fragments, each on its own thread, and from one fork: the
//! policy ‖ value split of a PPO learn pass, a [`join`]. The backend
//! decides only whether that fork may happen:
//!
//! * [`Backend::Scalar`] — nothing forks; both branches of a [`join`]
//!   run on the calling thread.
//! * [`Backend::Threaded`] — a [`join`] runs its second branch on an
//!   idle helper when a core is free (below).
//!
//! Results do not depend on the backend: the closures are the same
//! wherever they run. So a forked branch needs no backend of its own: a
//! fork happens only under `Threaded`, and all a backend could tell the
//! branch is whether *it* may fork, which changes no bits.
//!
//! # The pool
//!
//! The process has one pool of helper threads, one per core beyond the
//! caller's (`available_parallelism() − 1`; none on a one-core host),
//! started on first use and alive for the rest of the process. Each
//! helper keeps its own warm thread-local tensor pool
//! ([`crate::alloc`]). Work reaches a helper one way, a *fork*: [`join`]
//! forks its second closure.
//!
//! A fork takes a helper only when one is idle *and a core is free*: the
//! fragment threads computing plus the helpers already busy are fewer
//! than the host's cores (`msrl_telemetry::computing_fragments`; a
//! fragment is counted for its lifetime and leaves the count while it is
//! parked in the fabric). A helper then runs on the core a parked
//! fragment left — the actor's core while DP-A's learner differentiates
//! — and never on one a busy fragment or another helper needs.
//! Otherwise the work runs inline on the caller, after the caller's own
//! branch. A fork never queues: with no helper to take it, it does not
//! wait for one, so a fork inside a forked closure, or two callers
//! racing for one helper, degrades to inline and cannot deadlock.
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

/// Whether a [`join`] may fork its second branch onto a helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Nothing forks: both branches of a [`join`] run on the caller.
    Scalar,
    /// A [`join`] may fork its second branch onto a free core.
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
/// `accepted`. Shared by [`Backend::parse`] and
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

impl Backend {
    /// Resolves `MSRL_BACKEND` from `lookup(name)`, the pure core of
    /// [`Self::from_env`]: unset is [`Backend::Threaded`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for `MSRL_BACKEND` outside
    /// `scalar|threaded`.
    pub fn parse(lookup: impl Fn(&'static str) -> Option<String>) -> Result<Backend, ConfigError> {
        let backend = parse_var(&lookup, "MSRL_BACKEND", "scalar|threaded", |v| match v {
            "scalar" => Some(Backend::Scalar),
            "threaded" => Some(Backend::Threaded),
            _ => None,
        })?;
        Ok(backend.unwrap_or(Backend::Threaded))
    }

    /// [`Self::parse`] over the process environment.
    ///
    /// # Errors
    ///
    /// See [`Self::parse`].
    pub fn from_env() -> Result<Backend, ConfigError> {
        Backend::parse(|name| std::env::var(name).ok())
    }
}

thread_local! {
    /// The calling thread's override; `None` means the process default.
    static CURRENT: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend in force on the calling thread: the innermost enclosing
/// [`with_backend`], else the process default.
///
/// # Panics
///
/// Panics with the [`ConfigError`] message when the process default is
/// first needed and the environment holds a rejected value (binaries
/// call `RuntimeConfig::from_env` up front to report it as an error
/// instead).
#[inline]
pub fn backend() -> Backend {
    CURRENT.get().unwrap_or_else(|| {
        static DEFAULT: OnceLock<Backend> = OnceLock::new();
        *DEFAULT.get_or_init(|| Backend::from_env().unwrap_or_else(|e| panic!("{e}")))
    })
}

/// Runs `f` with `backend` as the calling thread's backend, restoring
/// the previous one afterwards (also when `f` unwinds).
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.set(self.0);
        }
    }
    let _restore = Restore(CURRENT.replace(Some(backend)));
    f()
}

/// Always `true`: every layer runs the fused `MatMul+bias+activation`
/// kernel. Kept only until the frozen `benchmark/` crate, which still
/// asks, is re-pointed.
pub fn fusion_enabled() -> bool {
    true
}

/// Always `true`: the packed, register-tiled and gathered kernels are
/// the only execution path. Kept only until the frozen `benchmark/`
/// crate, which still asks, is re-pointed.
pub fn tier_enabled() -> bool {
    true
}

/// Runs `f`: every kernel is one chunk, so there is no chunk count to
/// set. Kept only until the frozen `benchmark/` crate, which still
/// calls it, is re-pointed.
pub fn with_threads<T>(_threads: usize, f: impl FnOnce() -> T) -> T {
    f()
}

/// Runs `a` on the calling thread and `b` on an idle helper when a core
/// is free — else inline, after `a` — and returns both results.
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

/// Hands `job` to an idle helper when [`may_fork`] allows, and gives it
/// back otherwise, for the caller to run inline. Under
/// [`Backend::Scalar`] it always gives it back: the reference backend
/// runs on one thread.
fn fork<'a, F: FnOnce() + Send + 'a>(job: F) -> Result<Running<'a>, F> {
    if backend() == Backend::Scalar {
        return Err(job);
    }
    let helpers = helpers();
    let idle = helpers.iter().filter(|h| h.idle.load(Ordering::Relaxed)).count();
    if !may_fork(msrl_telemetry::computing_fragments(), cores(), helpers.len(), idle) {
        return Err(job);
    }
    match helpers.iter().find(|h| h.claim()) {
        Some(helper) => Ok(start(helper, job)),
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
    fn scopes_nest_and_restore_also_on_unwind() {
        let outer = backend();
        let nested = with_backend(Backend::Scalar, || {
            let inner = with_backend(Backend::Threaded, backend);
            (inner, backend())
        });
        assert_eq!(nested, (Backend::Threaded, Backend::Scalar));
        assert_eq!(backend(), outer);
        let unwound = std::panic::catch_unwind(|| with_backend(Backend::Scalar, || panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(backend(), outer, "the drop guard restores on unwind");
    }

    #[test]
    fn scopes_stay_on_their_thread_and_a_forked_branch_runs_on_the_default() {
        let default = backend();
        // Two threads inside different scopes at once, joining while both
        // are open: neither sees the other's.
        let barrier = std::sync::Barrier::new(2);
        let sees = |mine: Backend| {
            with_backend(mine, || {
                barrier.wait();
                let seen = (0..50).map(|_| join(backend, || ()).0).collect::<Vec<_>>();
                barrier.wait();
                seen.into_iter().all(|b| b == mine)
            })
        };
        std::thread::scope(|s| {
            let scalar = s.spawn(|| sees(Backend::Scalar));
            assert!(sees(Backend::Threaded), "the threaded scope leaked");
            assert!(scalar.join().expect("sibling must not panic"), "the scalar scope leaked");
        });
        // A helper holds no scope of its own, and a forked branch runs on
        // the process default, not under the forking thread's scope.
        assert!(on_helpers(backend).into_iter().all(|b| b == default));
        let forked = until_forked(|| join(|| (), || (std::thread::current().id(), backend())).1);
        assert!(forked.into_iter().all(|b| b == default));
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
        with_backend(Backend::Scalar, || assert_eq!(join(on, on), (me, me)));
    }

    #[test]
    fn the_pool_has_one_helper_per_core_beyond_the_callers() {
        assert_eq!(helpers().len(), cores() - 1);
        let names = on_helpers(|| std::thread::current().name().map(str::to_owned));
        assert_eq!(names.len(), cores() - 1);
        assert!(names.iter().all(|n| n.as_deref().is_some_and(|n| n.starts_with("msrl-par-"))));
    }
}
