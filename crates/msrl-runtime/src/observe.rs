//! The evidence a run leaves behind: one [`RunEvent`] per iteration with
//! the health watchdog's verdict in it, and at the end a flushed metrics
//! stream and — on an error — a flight-recorder dump. The fragment
//! runner (`crate::exec`) is the only caller.
//!
//! [`RunEvent`]: msrl_telemetry::RunEvent

use msrl_core::api::{Learner, Signals};
use msrl_core::{FdgError, Result};

/// Per-iteration observability for the run's reporting seat: emits
/// one [`msrl_telemetry::RunEvent`] per iteration (reward, loss,
/// entropy, it/s, comm-byte delta, staleness) and records the iteration
/// period into the always-on `fragment.eval` histogram — one
/// fragment-body execution per iteration, so DP runs carry latency
/// quantiles even with `MSRL_TRACE` unset. The training signal comes
/// from the seat's own learner ([`Learner::signals`]) and nowhere else,
/// so two runs in one process cannot read each other's. A critical
/// health finding ends the run ([`RunObserver::observe`]).
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
}

impl RunObserver {
    /// Starts observing a run. Also installs the flight recorder's
    /// panic hook so a dying worker leaves post-mortem state on disk,
    /// and opens the first attribution window so classed spans from
    /// before the run don't leak into iteration 0 (which also drops the
    /// telemetry lanes of threads an earlier run left behind).
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
        }
    }

    /// One health pass over the just-closed iteration: takes the
    /// learner's signals, scans its policy parameters for non-finite
    /// values with the fused kernel, and feeds both to the streaming
    /// detectors. A freshly fired Critical finding snapshots the verdict,
    /// triggers a flight-recorder dump carrying it (DESIGN §3.15) and
    /// comes back as the run's error.
    fn health_block(
        &mut self,
        reward: f32,
        signals: &Signals,
        iters_per_sec: f64,
        learner: Option<&dyn Learner>,
    ) -> (Option<msrl_telemetry::HealthStatus>, Option<FdgError>) {
        let Some(monitor) = self.monitor.as_mut() else { return (None, None) };
        let _t = msrl_telemetry::static_histogram!("health.observe").time();
        let params = learner.map(|l| l.policy_params());
        let sample = msrl_telemetry::HealthSample {
            iteration: self.iteration,
            reward: f64::from(reward),
            loss: signals.loss.map(f64::from),
            entropy: signals.entropy.map(f64::from),
            iters_per_sec,
            grad_norm: signals.grad_norm.map(f64::from),
            weight_norm: signals.update.map(|(norm, _)| norm),
            update_ratio: signals.update.map(|(_, ratio)| ratio),
            nonfinite_params: params.as_deref().map(msrl_tensor::kernels::count_nonfinite),
        };
        let status = monitor.observe(&sample);
        let critical =
            status.findings.iter().find(|f| f.severity == msrl_telemetry::Severity::Critical);
        let err = critical.map(|f| {
            msrl_telemetry::set_last_verdict(&monitor.verdict());
            let reason = format!("{}: {}", f.detector, f.detail);
            if let Err(e) = msrl_telemetry::flightrec::dump("health", &reason) {
                eprintln!("msrl: health-triggered flightrec dump failed: {e}");
            }
            FdgError::Unhealthy { detector: f.detector, iteration: f.iteration }
        });
        (Some(status), err)
    }

    /// Closes one iteration: records its period, computes the
    /// critical-path attribution over the iteration window (taking
    /// every fragment thread's classed spans), runs the health detectors
    /// over `learner`'s signals and weights, and streams the
    /// training-metrics event — with an `attr` block, and a `health`
    /// block when the watchdog is on. A seat without a learner reports
    /// the reward alone.
    ///
    /// # Errors
    ///
    /// [`FdgError::Unhealthy`] for the first critical finding that fired
    /// this iteration, after its event line and dump are written.
    pub(crate) fn observe(&mut self, reward: f32, learner: Option<&dyn Learner>) -> Result<()> {
        let now = std::time::Instant::now();
        let dt = now.duration_since(self.last);
        self.last = now;
        msrl_telemetry::static_histogram!("fragment.eval").record_duration(dt);
        let t = msrl_telemetry::static_histogram!("attr.finish_iteration").time();
        let attr = msrl_telemetry::finish_iteration();
        drop(t);
        let bytes = msrl_telemetry::counter_total("comm.bytes_sent");
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
        let signals = learner.map(Learner::signals).unwrap_or_default();
        let (health, critical) = self.health_block(reward, &signals, iters_per_sec, learner);
        msrl_telemetry::emit_run_event(&msrl_telemetry::RunEvent {
            policy: self.policy.to_string(),
            iteration: self.iteration,
            reward: f64::from(reward),
            loss: signals.loss.map(f64::from),
            entropy: signals.entropy.map(f64::from),
            iters_per_sec,
            comm_bytes: bytes.saturating_sub(self.bytes_prev),
            staleness: self.staleness,
            attr: Some(attr),
            actsrv,
            health,
        });
        self.bytes_prev = bytes;
        self.actsrv_batches_prev = actsrv_batches;
        self.actsrv_rows_prev = actsrv_rows;
        self.iteration += 1;
        critical.map_or(Ok(()), Err)
    }
}

/// Closes a run's evidence trail: flushes the metrics stream and, on an
/// error outcome, writes a flight-recorder dump so failed runs leave
/// evidence.
///
/// A flush failure is surfaced, not swallowed: the stream is the health
/// subsystem's evidence trail, and a silently truncated JSONL file
/// would read as a healthy run. The `sink.io_errors` counter carries
/// the same signal into every flight-recorder dump.
pub(crate) fn close_run<T>(policy: &'static str, result: &Result<T>) {
    if let Err(e) = msrl_telemetry::flush_metrics() {
        eprintln!("msrl: metrics stream write failed for {policy}: {e}");
    }
    if let Err(e) = result {
        let _ = msrl_telemetry::flightrec::dump("driver_error", &format!("{policy}: {e:?}"));
    }
}
