//! The evidence a run leaves behind: one [`RunEvent`] per iteration with
//! the time budget and the health watchdog's verdict in it, and at the
//! end a flushed metrics stream and — on an error — a flight-recorder
//! dump. What a site took is in its span; the observer keeps no second
//! aggregate of it, only two counters pricing the attribution pass
//! itself. The fragment runner (`crate::exec`) is the only caller.
//!
//! [`RunEvent`]: msrl_telemetry::RunEvent

use msrl_core::api::{Learner, Signals};
use msrl_core::{FdgError, Result};

/// Per-iteration observability for the run's reporting seat: emits
/// one [`msrl_telemetry::RunEvent`] per iteration (reward, loss,
/// entropy, it/s, the run's comm-byte delta, staleness, the time budget
/// and the health block), and counts what pricing the budget cost in
/// `attr.finish_iteration.ns` and `attr.finish_iteration.calls`. The
/// training signal comes from the seat's own learner
/// ([`Learner::signals`]) and nowhere else, and the byte count from the
/// run's own fabric, so two runs in one
/// process cannot read each other's; so does the time budget, priced
/// over the run's own fragments in the window the observer owns. A
/// critical health finding ends the run ([`RunObserver::observe`]).
pub(crate) struct RunObserver {
    /// The run's id ([`msrl_telemetry::next_run`]).
    run: u64,
    /// Where the current iteration began, on the telemetry clock.
    window_start: u64,
    policy: &'static str,
    staleness: u64,
    bytes_prev: u64,
    iteration: u64,
    /// Streaming health detectors over this run's metrics.
    monitor: msrl_telemetry::HealthMonitor,
}

impl RunObserver {
    /// Starts observing run `run`. Also installs the flight recorder's
    /// panic hook so a dying worker leaves post-mortem state on disk,
    /// and opens the run's first iteration window at "now" (its
    /// fragments' classed spans that closed before are clipped away).
    pub(crate) fn new(run: u64, policy: &'static str, staleness: usize) -> RunObserver {
        msrl_telemetry::install_panic_hook();
        RunObserver {
            run,
            window_start: msrl_telemetry::now_ns(),
            policy,
            staleness: staleness as u64,
            bytes_prev: 0,
            iteration: 0,
            monitor: msrl_telemetry::HealthMonitor::default(),
        }
    }

    /// One health pass over the just-closed iteration: takes the
    /// learner's signals, scans its policy parameters for non-finite
    /// values with the fused kernel, and feeds both to the streaming
    /// detectors. A freshly fired Critical finding triggers a
    /// flight-recorder dump carrying this run's verdict (DESIGN §3.15)
    /// and comes back as the run's error.
    fn health_block(
        &mut self,
        reward: f32,
        signals: &Signals,
        iters_per_sec: f64,
        learner: Option<&dyn Learner>,
    ) -> (msrl_telemetry::HealthStatus, Option<FdgError>) {
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
        let status = self.monitor.observe(&sample);
        let critical =
            status.findings.iter().find(|f| f.severity == msrl_telemetry::Severity::Critical);
        let err = critical.map(|f| {
            let reason = format!("{}: {}", f.detector, f.detail);
            let verdict = self.monitor.verdict();
            let dump =
                msrl_telemetry::flightrec::dump("health", &reason, Some(self.run), Some(&verdict));
            if let Err(e) = dump {
                eprintln!("msrl: health-triggered flightrec dump failed: {e}");
            }
            FdgError::Unhealthy { detector: f.detector, iteration: f.iteration }
        });
        (status, err)
    }

    /// Closes one iteration: prices the iteration window per fragment
    /// (taking the classed spans of the run's fragment threads), runs the
    /// health detectors over `learner`'s signals and weights, and streams
    /// the training-metrics event with its `attr` and `health` blocks. A seat without a learner reports
    /// the reward alone. `bytes_sent` is the run's fabric total so far
    /// (`Endpoint::group_bytes_sent`); the event carries its delta.
    ///
    /// # Errors
    ///
    /// [`FdgError::Unhealthy`] for the first critical finding that fired
    /// this iteration, after its event line and dump are written.
    pub(crate) fn observe(
        &mut self,
        reward: f32,
        learner: Option<&dyn Learner>,
        bytes_sent: u64,
    ) -> Result<()> {
        let t = std::time::Instant::now();
        let attr = msrl_telemetry::finish_iteration(self.run, &mut self.window_start);
        msrl_telemetry::static_counter!("attr.finish_iteration.ns")
            .add(t.elapsed().as_nanos() as u64);
        msrl_telemetry::static_counter!("attr.finish_iteration.calls").add(1);
        let iters_per_sec = if attr.wall_ns > 0 { 1e9 / attr.wall_ns as f64 } else { 0.0 };
        let signals = learner.map(Learner::signals).unwrap_or_default();
        let (health, critical) = self.health_block(reward, &signals, iters_per_sec, learner);
        msrl_telemetry::emit_run_event(&msrl_telemetry::RunEvent {
            run: self.run,
            policy: self.policy.to_string(),
            iteration: self.iteration,
            reward: f64::from(reward),
            loss: signals.loss.map(f64::from),
            entropy: signals.entropy.map(f64::from),
            iters_per_sec,
            comm_bytes: bytes_sent - self.bytes_prev,
            staleness: self.staleness,
            attr: Some(attr),
            health: Some(health),
        });
        self.bytes_prev = bytes_sent;
        self.iteration += 1;
        critical.map_or(Ok(()), Err)
    }
}

/// Closes run `run`'s evidence trail: flushes the metrics stream, on an
/// error outcome writes a flight-recorder dump of the run so failed runs
/// leave evidence, and releases the run's telemetry lanes
/// ([`msrl_telemetry::release_run`]). A run the watchdog ended already
/// left its `health` dump: one failure writes one dump.
///
/// A flush failure is surfaced, not swallowed: the stream is the health
/// subsystem's evidence trail, and a silently truncated JSONL file
/// would read as a healthy run. The `sink.io_errors` counter carries
/// the same signal into every flight-recorder dump.
pub(crate) fn close_run<T>(run: u64, policy: &'static str, result: &Result<T>) {
    if let Err(e) = msrl_telemetry::flush_metrics() {
        eprintln!("msrl: metrics stream write failed for {policy}: {e}");
    }
    if let Some(e) = result.as_ref().err().filter(|e| !matches!(e, FdgError::Unhealthy { .. })) {
        let reason = format!("{policy}: {e:?}");
        let _ = msrl_telemetry::flightrec::dump("driver_error", &reason, Some(run), None);
    }
    msrl_telemetry::release_run(run);
}
