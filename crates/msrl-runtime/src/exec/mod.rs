//! Real multi-threaded fragment execution (§5.2).
//!
//! Each placed fragment runs on its own OS thread ("device"); fragments
//! synchronise through `msrl-comm` endpoints exactly as their interfaces
//! prescribe: per-episode trajectory gathers and weight broadcasts under
//! DP-A, per-step exchanges under DP-B, gradient AllReduce under DP-C,
//! weight AllReduce between fused loops under DP-D, environment-worker
//! messaging under DP-E, and parameter-server push/pull under DP-F.
//!
//! Every driver consumes the *same* algorithm components from
//! `msrl-algos`; only the orchestration differs — the executable form of
//! the paper's claim that distribution policies require no algorithm
//! changes.
//!
//! # Interaction with the threaded tensor backend
//!
//! The tensor kernels these drivers invoke (batched inference in DP-B's
//! central learner, the fused per-replica loops of DP-D, per-agent
//! training under DP-E) respect [`msrl_tensor::Backend`]: under the
//! default `Threaded` backend, large ops additionally split across
//! intra-op worker threads. Fragment threads and intra-op threads
//! compose — each fragment's ops fan out independently — so on hosts
//! where `actors × MSRL_THREADS` would oversubscribe the machine, cap
//! intra-op parallelism with `MSRL_THREADS=1` (or `MSRL_BACKEND=scalar`
//! for the bit-exact reference path).
//!
//! Every fragment thread runs under the [`msrl_tensor::par::ExecCtx`] of
//! the thread that called the driver, with `fusion` taken from the
//! driver's config: [`drive`] scopes it and [`spawn_fragment`] hands it
//! on, so two drivers running at once under different contexts (two
//! tests, two backends) never see each other's.

mod a3c;
mod dp_a;
mod dp_b;
mod dp_c;
mod dp_d;
mod dp_e;
mod dp_f;

pub use a3c::{run_a3c, A3cDistConfig};
pub use dp_a::run_dp_a;
pub use dp_b::run_dp_b;
pub use dp_c::run_dp_c;
pub use dp_d::{run_dp_d, DpDConfig};
pub use dp_e::{run_dp_e, DpEConfig};
pub use dp_f::run_dp_f;

use std::thread::{Scope, ScopedJoinHandle};

use msrl_algos::ppo::PpoConfig;
use msrl_core::Result;
use msrl_tensor::par::{self, ExecCtx};

use crate::config::RuntimeConfig;

/// Configuration shared by the PPO distribution drivers.
#[derive(Debug, Clone)]
pub struct DistPpoConfig {
    /// Actor (or fused actor+learner) replicas.
    pub actors: usize,
    /// Environments per actor.
    pub envs_per_actor: usize,
    /// Vectorised steps collected per training iteration.
    pub steps_per_iter: usize,
    /// Training iterations to run.
    pub iterations: usize,
    /// Hidden layer widths of the policy.
    pub hidden: Vec<usize>,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Base RNG seed (replicas derive their own deterministically).
    pub seed: u64,
    /// Overlap communication with computation (double-buffered weight
    /// sync under DP-A/DP-F, fused collective under DP-C). Defaults from
    /// `MSRL_OVERLAP` (on); off means every sync is fully blocking.
    pub overlap: bool,
    /// Bounded-staleness window for overlapped weight sync: actors may
    /// roll out on weights at most this many iterations old. Defaults
    /// from `MSRL_STALENESS`; ignored when `overlap` is off.
    pub staleness: usize,
    /// Simulated per-message wire latency on the comm fabric — the
    /// in-process analogue of the paper's `tc`-injected network latency
    /// (Fig. 7d). Zero (the default) means in-process channel speed.
    pub link_latency: std::time::Duration,
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel and enable the graph compiler's fusion passes (both
    /// bit-identical to the unfused path). On by default; off is the
    /// reference the bitwise suites compare against.
    pub fusion: bool,
    /// Micro-batch policy forwards *across* actor fragments through the
    /// shared [`crate::actsrv::ActServer`] (DP-A). Bit-identical to the
    /// per-actor path; forces the staleness bound to zero (all actors
    /// share one weight snapshot). Defaults from `MSRL_ACTSRV` (off).
    pub act_server: bool,
}

impl Default for DistPpoConfig {
    fn default() -> Self {
        let env = RuntimeConfig::default();
        DistPpoConfig {
            actors: 2,
            envs_per_actor: 4,
            steps_per_iter: 64,
            iterations: 10,
            hidden: vec![32, 32],
            ppo: PpoConfig::default(),
            seed: 0,
            overlap: env.overlap,
            staleness: env.staleness,
            link_latency: std::time::Duration::ZERO,
            fusion: par::fusion_enabled(),
            act_server: env.act_server,
        }
    }
}

impl DistPpoConfig {
    /// The effective staleness bound: `staleness` when overlap is on,
    /// zero (fully synchronous) otherwise — one code path for both. The
    /// act server also forces zero: its clients share one policy
    /// snapshot, so per-actor weight versions cannot diverge.
    pub(crate) fn stale_bound(&self) -> usize {
        if self.overlap && !self.act_server {
            self.staleness
        } else {
            0
        }
    }
}

/// Declares the fragment the calling thread hosts: opens the
/// `fragment.<role>` span named by `span` (held until the returned
/// guard drops) and tags the thread's attribution stamps (comm waits
/// deep in the fabric included) with `<role>` and `rank`.
pub(crate) fn enter_fragment(span: &'static str, rank: usize) -> msrl_telemetry::SpanGuard {
    let role = span.strip_prefix("fragment.").expect("fragment spans are named fragment.<role>");
    msrl_telemetry::set_fragment(role, rank as u64);
    msrl_telemetry::span!(span, rank)
}

/// Spawns one fragment thread on `scope`. The new thread inherits the
/// spawning thread's [`ExecCtx`] — the one seam, besides the `par`
/// fan-out helpers, where a context crosses threads — and runs `body`
/// inside [`enter_fragment`].
pub(crate) fn spawn_fragment<'scope, T, F>(
    scope: &'scope Scope<'scope, '_>,
    span: &'static str,
    rank: usize,
    body: F,
) -> ScopedJoinHandle<'scope, T>
where
    F: FnOnce() -> T + Send + 'scope,
    T: Send + 'scope,
{
    let ctx = ExecCtx::current();
    scope.spawn(move || {
        ctx.scope(|| {
            let _frag = enter_fragment(span, rank);
            body()
        })
    })
}

/// The outcome of a distributed training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Mean return of episodes finished in each iteration (NaN-free; an
    /// iteration with no finished episode repeats the previous value).
    pub iteration_rewards: Vec<f32>,
    /// Learner loss per iteration (empty for gradient-only policies).
    pub losses: Vec<f32>,
    /// Final policy weights (flat), for evaluation by the caller.
    pub final_params: Vec<f32>,
}

impl TrainingReport {
    /// Mean reward over the last `n` iterations.
    pub fn recent_reward(&self, n: usize) -> f32 {
        let tail: Vec<f32> = self.iteration_rewards.iter().rev().take(n).copied().collect();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f32>() / tail.len() as f32
    }

    /// Mean reward over the first `n` iterations.
    pub fn early_reward(&self, n: usize) -> f32 {
        let head: Vec<f32> = self.iteration_rewards.iter().take(n).copied().collect();
        if head.is_empty() {
            return 0.0;
        }
        head.iter().sum::<f32>() / head.len() as f32
    }
}

/// Summarises finished-episode returns into one scalar, carrying the
/// previous iteration's value forward when nothing finished.
pub(crate) fn mean_or_prev(finished: &[f32], prev: f32) -> f32 {
    if finished.is_empty() {
        prev
    } else {
        finished.iter().sum::<f32>() / finished.len() as f32
    }
}

/// Per-iteration observability for a driver's learner-side loop: emits
/// one [`msrl_telemetry::RunEvent`] per iteration (reward, loss,
/// entropy, it/s, comm-byte delta, staleness, plan-cache hit rate) and
/// records the iteration period into the always-on `fragment.eval`
/// histogram — one fragment-body execution per iteration, so DP runs
/// carry latency quantiles even with `MSRL_TRACE` unset. (PPO's learn
/// path trains through the tape, not the interpreter, so the
/// interpreter's own `fragment.eval` samples only appear in
/// interpreter-driven workloads.)
pub(crate) struct RunObserver {
    policy: &'static str,
    staleness: u64,
    last: std::time::Instant,
    bytes_prev: u64,
    actsrv_batches_prev: u64,
    actsrv_rows_prev: u64,
    iteration: u64,
    /// Streaming health detectors over this run's metrics (None when
    /// `MSRL_HEALTH=0`).
    monitor: Option<msrl_telemetry::HealthMonitor>,
    health_updates_prev: u64,
}

impl RunObserver {
    /// Starts observing a run. Also installs the flight recorder's
    /// panic hook so a dying worker leaves post-mortem state on disk,
    /// and opens the first attribution window so step stamps from
    /// before the run don't leak into iteration 0.
    pub(crate) fn new(policy: &'static str, staleness: usize) -> RunObserver {
        msrl_telemetry::install_panic_hook();
        msrl_telemetry::reset_window();
        RunObserver {
            policy,
            staleness: staleness as u64,
            last: std::time::Instant::now(),
            bytes_prev: msrl_telemetry::counter_total("comm.bytes_sent"),
            actsrv_batches_prev: msrl_telemetry::counter_total("actsrv.batches"),
            actsrv_rows_prev: msrl_telemetry::counter_total("actsrv.rows"),
            iteration: 0,
            monitor: msrl_telemetry::health_enabled().then(msrl_telemetry::HealthMonitor::default),
            health_updates_prev: msrl_telemetry::counter_total("health.updates"),
        }
    }

    /// One health pass over the just-closed iteration: folds the
    /// sentinel gauges the learner published (read only when their
    /// counters moved, so learner-less drivers omit them), scans the
    /// policy parameters for non-finite values with the fused kernel,
    /// and feeds the run-level signals to the streaming detectors. A
    /// freshly fired Critical finding snapshots the verdict and
    /// triggers a flight-recorder dump carrying it (DESIGN §3.15).
    fn health_block(
        &mut self,
        reward: f32,
        loss: Option<f32>,
        entropy: Option<f32>,
        iters_per_sec: f64,
        params: Option<&[f32]>,
    ) -> Option<msrl_telemetry::HealthStatus> {
        let monitor = self.monitor.as_mut()?;
        let _t = msrl_telemetry::static_histogram!("health.observe").time();
        let gauge = |name: &str| msrl_telemetry::Gauge::handle(name).get();
        let updates = msrl_telemetry::counter_total("health.updates");
        let stepped = updates > self.health_updates_prev;
        self.health_updates_prev = updates;
        let sample = msrl_telemetry::HealthSample {
            iteration: self.iteration,
            reward: f64::from(reward),
            loss: loss.map(f64::from),
            entropy: entropy.map(f64::from),
            iters_per_sec,
            staleness_bound: self.staleness,
            // Observed staleness is not separately instrumented on the
            // live path (the comm layer enforces the bound); replay and
            // unit streams exercise the breach detector.
            staleness_observed: None,
            grad_norm: stepped.then(|| gauge("health.grad_norm")),
            weight_norm: stepped.then(|| gauge("health.weight_norm")),
            update_ratio: stepped.then(|| gauge("health.update_ratio")),
            nonfinite_params: params.map(msrl_tensor::kernels::count_nonfinite),
        };
        let status = monitor.observe(&sample);
        let critical = status
            .findings
            .iter()
            .find(|f| f.severity == msrl_telemetry::Severity::Critical)
            .map(|f| format!("{}: {}", f.detector, f.detail));
        if let Some(reason) = critical {
            msrl_telemetry::set_last_verdict(&monitor.verdict());
            match msrl_telemetry::flightrec::dump("health", &reason) {
                Ok(_) => {}
                Err(e) => eprintln!("msrl: health-triggered flightrec dump failed: {e}"),
            }
        }
        Some(status)
    }

    /// Closes one iteration: records its period, computes the
    /// critical-path attribution over the iteration window (draining
    /// every fragment thread's step stamps), runs the health detectors,
    /// and streams the training-metrics event — schema v2 when
    /// attribution is on, v3 when the health watchdog is.
    pub(crate) fn observe(
        &mut self,
        reward: f32,
        loss: Option<f32>,
        entropy: Option<f32>,
        params: Option<&[f32]>,
    ) {
        let now = std::time::Instant::now();
        let dt = now.duration_since(self.last);
        self.last = now;
        msrl_telemetry::static_histogram!("fragment.eval").record_duration(dt);
        let attr = if msrl_telemetry::attr_enabled() {
            let t = msrl_telemetry::static_histogram!("attr.finish_iteration").time();
            let a = msrl_telemetry::finish_iteration();
            drop(t);
            Some(a)
        } else {
            None
        };
        let bytes = msrl_telemetry::counter_total("comm.bytes_sent");
        let hits = msrl_telemetry::counter_total("interp.plan_cache.hit");
        let misses = msrl_telemetry::counter_total("interp.plan_cache.miss");
        let plan_cache_hit_rate = (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64);
        // Act-server deltas: an active server runs ≥1 batched forward
        // per iteration, so a zero delta means it is off — omit the
        // block rather than streaming noise.
        let actsrv_batches = msrl_telemetry::counter_total("actsrv.batches");
        let actsrv_rows = msrl_telemetry::counter_total("actsrv.rows");
        let actsrv =
            (actsrv_batches > self.actsrv_batches_prev).then(|| msrl_telemetry::ActsrvStats {
                batches: actsrv_batches.saturating_sub(self.actsrv_batches_prev),
                rows: actsrv_rows.saturating_sub(self.actsrv_rows_prev),
            });
        let iters_per_sec = if dt.as_secs_f64() > 0.0 { 1.0 / dt.as_secs_f64() } else { 0.0 };
        let health = self.health_block(reward, loss, entropy, iters_per_sec, params);
        msrl_telemetry::emit_run_event(&msrl_telemetry::RunEvent {
            policy: self.policy,
            iteration: self.iteration,
            reward: f64::from(reward),
            loss: loss.map(f64::from),
            entropy: entropy.map(f64::from),
            iters_per_sec,
            comm_bytes: bytes.saturating_sub(self.bytes_prev),
            staleness: self.staleness,
            plan_cache_hit_rate,
            attr,
            actsrv,
            health,
        });
        self.bytes_prev = bytes;
        self.actsrv_batches_prev = actsrv_batches;
        self.actsrv_rows_prev = actsrv_rows;
        self.iteration += 1;
    }
}

/// A driver's frame. Runs `body` with the config's `fusion` choice in
/// the calling thread's [`ExecCtx`] (fragments inherit it through
/// [`spawn_fragment`]), then flushes the metrics stream (and the
/// `MSRL_METRICS_TEXT_FILE` exposition) and, on an error outcome,
/// writes a flight-recorder dump so failed runs leave evidence.
///
/// A flush failure is surfaced, not swallowed: the stream is the health
/// subsystem's evidence trail, and a silently truncated JSONL file
/// would read as a healthy run. The `sink.io_errors` counter carries
/// the same signal into the exposition snapshot.
pub(crate) fn drive<T>(
    policy: &'static str,
    fusion: bool,
    body: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let result = par::with_fusion(fusion, body);
    if let Err(e) = msrl_telemetry::flush_metrics() {
        eprintln!("msrl: metrics stream write failed for {policy}: {e}");
    }
    if let Err(e) = &result {
        let _ = msrl_telemetry::flightrec::dump("driver_error", &format!("{policy}: {e:?}"));
    }
    result
}
