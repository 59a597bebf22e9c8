//! The execution context and the scoped-thread fan-out helpers.
//!
//! How a kernel executes — which backend, how many intra-op workers,
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
//! * A context is **inherited** at exactly two seams: the fan-out
//!   helpers below ([`fill_chunks`], [`fill_chunks_aligned`],
//!   [`map_ranges`]) hand the caller's context to every worker they
//!   spawn, and the fragment runner's `spawn_fragment`
//!   (`msrl_runtime::exec`) hands its caller's context to every fragment
//!   thread. A thread spawned any other way
//!   starts from the process default.
//!
//! The two backends:
//!
//! * [`Backend::Scalar`] — single-threaded kernels; the bit-exact
//!   baseline the threaded backend is validated against.
//! * [`Backend::Threaded`] — the same kernels partitioned over OS
//!   threads with `std::thread::scope`. Partitioning is always along
//!   *output* regions, so no two threads write the same element and the
//!   per-element accumulation order matches the scalar backend (matmul
//!   and axis reductions are bit-exact across backends; whole-tensor
//!   sums split per chunk and agree to rounding). With one worker it
//!   routes straight to the serial kernels.
//!
//! Kernels read the context once per operation ([`ExecCtx::current`] is
//! one thread-local load) and pass what they need down by value; no
//! worker closure reads it again.

use std::cell::Cell;
use std::sync::OnceLock;

/// Which execution strategy the tensor kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded reference kernels.
    Scalar,
    /// Kernels partitioned across scoped OS threads.
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
    /// Intra-op worker count under [`Backend::Threaded`] (≥ 1).
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
            threads: threads.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }),
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

    /// True when `work_items` should be split over threads: threaded
    /// backend, more than one worker, and at least `serial_below` items
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

/// The calling thread's intra-op worker count.
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

/// Runs `f` with `threads` intra-op workers on the calling thread.
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

/// Elements below which threaded kernels stay serial: thread spawn and
/// join cost more than the work they would cover.
pub const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Multiply–add count below which matmul stays serial.
pub const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

/// Splits `out` into one contiguous chunk per worker and runs
/// `f(offset_of_chunk, chunk)` for each on scoped threads, every worker
/// under the caller's [`ExecCtx`].
///
/// Chunk boundaries depend only on `out.len()` and the worker count, so
/// results are deterministic for a fixed configuration. With one worker
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
/// broadcast runs) that must not straddle two workers.
pub fn fill_chunks_aligned<T, F>(out: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0 && out.len().is_multiple_of(align), "output must be whole records");
    let ctx = ExecCtx::current();
    let records = out.len() / align;
    let workers = ctx.threads.min(records.max(1));
    let chunk_len = records.div_ceil(workers) * align;
    if workers <= 1 || chunk_len == 0 {
        f(0, out);
        return;
    }
    std::thread::scope(|scope| {
        for (idx, chunk) in out.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            scope.spawn(move || ctx.scope(|| f(idx * chunk_len, chunk)));
        }
    });
}

/// Partitions `0..n` into one contiguous range per worker and runs
/// `f(range)` for each on scoped threads under the caller's
/// [`ExecCtx`], collecting the per-range results in range order.
pub fn map_ranges<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let ctx = ExecCtx::current();
    let workers = ctx.threads.min(n.max(1));
    let chunk = n.div_ceil(workers);
    if workers <= 1 || chunk == 0 {
        return vec![f(0..n)];
    }
    let starts: Vec<usize> = (0..workers).map(|w| w * chunk).filter(|&s| s < n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = starts
            .iter()
            .map(|&s| {
                let f = &f;
                scope.spawn(move || ctx.scope(|| f(s..(s + chunk).min(n))))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker must not panic")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    barrier.wait();
                    (mine, seen)
                })
            });
            ctx.scope(|| {
                barrier.wait();
                let seen = map_ranges(8, |_| ExecCtx::current());
                assert_eq!(seen, vec![ctx; 4]);
                let mut slots = vec![None; 8];
                fill_chunks_aligned(&mut slots, 2, |_, chunk| chunk.fill(Some(ExecCtx::current())));
                assert!(slots.iter().all(|s| *s == Some(ctx)));
                barrier.wait();
            });
            let (mine, seen) = sibling.join().expect("sibling must not panic");
            assert_eq!(seen, vec![mine; 2]);
        });
    }
}
