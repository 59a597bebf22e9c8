//! Training-health watchdog: streaming detectors over the per-iteration
//! [`RunEvent`](crate::RunEvent) signal (DESIGN §3.15).
//!
//! PRs 2/5/7 made runs observable in *time*; this module watches whether
//! training is *healthy*. A [`HealthMonitor`] consumes one
//! [`HealthSample`] per iteration — the same numbers the metrics stream
//! carries, plus the numeric sentinels the drivers compute (non-finite
//! parameter counts, gradient/weight norms) — and runs a bank of five
//! streaming detectors:
//!
//! * **nonfinite** — NaN/Inf in loss, reward, entropy, gradient norm or
//!   the parameter vector itself (critical, fires on the first sample);
//! * **entropy_collapse** — policy entropy EWMA falling below a fraction
//!   of its post-warmup baseline (warn);
//! * **grad_explosion** — a finite gradient-norm spike far above its
//!   EWMA (warn; a *non-finite* norm is the nonfinite detector's job);
//! * **reward_regression** — reward EWMA falling well below the best
//!   EWMA the run has reached (warn);
//! * **tput_regression** — iterations/second EWMA collapsing below a
//!   fraction of its peak (warn).
//!
//! Each detector is an [`Ewma`] + [`Hysteresis`] window — the one
//! streaming-detector primitive, which `advisor::LiveAdvisor` uses too:
//! a breach must persist for three consecutive samples to fire, a
//! firing is reported **exactly once**, and the detector re-arms only
//! after eight consecutive healthy samples — sub-hysteresis noise
//! produces no findings at all. The three level detectors (entropy,
//! reward, throughput) are one rule with three floors: the signal's
//! EWMA, once five samples have warmed it, against a fraction of a
//! reference the run set itself — the EWMA at the end of warmup
//! (entropy) or the highest EWMA since (reward, throughput).
//!
//! The watchdog always runs. Firings accumulate into a
//! [`HealthVerdict`]; a critical firing triggers a flight-recorder dump
//! that carries the run's verdict, and the drivers stamp each RunEvent
//! with a per-iteration `health` block. [`replay_stream`] runs the same
//! detectors over a completed JSONL stream — the engine behind the
//! `doctor` bin's post-hoc verdict report.

// ---------------------------------------------------------------------------
// Samples, findings, verdicts
// ---------------------------------------------------------------------------

/// Finding severity, ordered `Ok < Warn < Critical`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Nothing wrong.
    #[default]
    Ok,
    /// Degraded but plausibly recoverable (regressions, collapses).
    Warn,
    /// Training is numerically broken or an invariant was violated.
    Critical,
}

impl Severity {
    /// Lower-case label used in JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Ok => "ok",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// One iteration's worth of health signal, as fed to
/// [`HealthMonitor::observe`]. Optional fields are simply skipped by the
/// detectors that need them.
#[derive(Debug, Clone, Default)]
pub struct HealthSample {
    /// Zero-based iteration index.
    pub iteration: u64,
    /// Mean episode return this iteration.
    pub reward: f64,
    /// Central training loss, when the driver computes one.
    pub loss: Option<f64>,
    /// Mean policy entropy, when available.
    pub entropy: Option<f64>,
    /// Iterations per second over the last iteration.
    pub iters_per_sec: f64,
    /// Pre-clip global gradient L2 norm from the learner.
    pub grad_norm: Option<f64>,
    /// Post-update weight L2 norm from the learner.
    pub weight_norm: Option<f64>,
    /// `‖Δweights‖ / ‖weights‖` of the iteration's update.
    pub update_ratio: Option<f64>,
    /// Non-finite entries counted in the flat parameter vector.
    pub nonfinite_params: Option<u64>,
}

/// One detector firing.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthFinding {
    /// Detector name (`"nonfinite"`, `"entropy_collapse"`, ...).
    pub detector: &'static str,
    /// Severity of the firing.
    pub severity: Severity,
    /// Iteration the firing was confirmed at.
    pub iteration: u64,
    /// Human-readable one-line diagnosis.
    pub detail: String,
}

/// The per-iteration `health` block of a [`RunEvent`](crate::RunEvent):
/// the current status, the learner's norms, an explicit non-finite flag
/// (the stream writes NaN/Inf as `null`, so the boolean carries what the
/// numbers cannot), and any findings that fired *this* iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthStatus {
    /// Worst severity currently active (fired detectors stay active
    /// until they re-arm).
    pub status: Severity,
    /// Whether any watched quantity was non-finite this iteration.
    pub nonfinite: bool,
    /// Pre-clip gradient L2 norm, when the learner published one.
    pub grad_norm: Option<f64>,
    /// Post-update weight L2 norm.
    pub weight_norm: Option<f64>,
    /// `‖Δweights‖ / ‖weights‖` of the update.
    pub update_ratio: Option<f64>,
    /// Non-finite parameter entries counted this iteration.
    pub nonfinite_params: Option<u64>,
    /// Findings that fired this iteration (exactly-once semantics).
    pub findings: Vec<HealthFinding>,
}

/// Run-level accumulation of every firing: the object embedded in
/// flight-recorder dumps and printed by the `doctor` bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthVerdict {
    /// Worst severity over the whole run.
    pub status: Severity,
    /// Samples the monitor consumed.
    pub iterations: u64,
    /// Every firing, in order.
    pub findings: Vec<HealthFinding>,
}

impl HealthVerdict {
    /// Renders a ranked human-readable report: critical findings first,
    /// then warnings, each with its iteration and diagnosis.
    pub fn render(&self) -> String {
        let mut out = format!(
            "verdict: {} ({} findings over {} iterations)\n",
            self.status.name().to_uppercase(),
            self.findings.len(),
            self.iterations
        );
        let mut ranked: Vec<&HealthFinding> = self.findings.iter().collect();
        ranked.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.iteration.cmp(&b.iteration)));
        for f in ranked {
            out.push_str(&format!(
                "  [{:<8}] iter {:>5}  {:<18} {}\n",
                f.severity.name(),
                f.iteration,
                f.detector,
                f.detail
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Detector machinery
// ---------------------------------------------------------------------------

// The detector windows, deliberately loose: the watchdog must stay
// silent on every healthy CI stream, and warn-level sensitivity is tuned
// by the noise floor of small CartPole runs.
/// EWMA smoothing factor.
const ALPHA: f64 = 0.2;
/// Consecutive breaching samples required to fire.
const CONFIRM: u32 = 3;
/// Consecutive healthy samples required to re-arm after a firing.
const REARM: u32 = 8;
/// Samples before the EWMA detectors judge; a [`Level`]'s warmup
/// reference is its EWMA at the last of them.
const WARMUP: u64 = 5;
/// Entropy collapse: EWMA below this fraction of the baseline.
const ENTROPY_FRAC: f64 = 0.2;
/// Grad explosion: a finite norm above this multiple of its EWMA.
const GRAD_MARGIN: f64 = 12.0;
/// Reward regression: EWMA below `best − frac·max(|best|, 1)`.
const REWARD_FRAC: f64 = 0.6;
/// Throughput regression: EWMA below this fraction of its peak.
const TPUT_FRAC: f64 = 0.25;

/// Exponentially weighted moving average; the first sample seeds it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ewma {
    /// The current average (`None` before the first sample).
    pub value: Option<f64>,
}

impl Ewma {
    /// Folds `x` in with weight `alpha` and returns the new average.
    pub fn update(&mut self, alpha: f64, x: f64) -> f64 {
        let v = match self.value {
            Some(v) => v + alpha * (x - v),
            None => x,
        };
        self.value = Some(v);
        v
    }
}

/// The hysteresis half of a detector: `confirm` consecutive breaches to
/// fire, exactly-once reporting, `rearm` consecutive healthy samples to
/// re-arm.
#[derive(Debug, Clone)]
pub struct Hysteresis {
    confirm: u32,
    rearm: u32,
    streak: u32,
    healthy: u32,
    armed: bool,
}

impl Hysteresis {
    /// A window that fires after `confirm` consecutive breaches and
    /// re-arms after `rearm` consecutive healthy samples (both ≥ 1).
    pub fn new(confirm: u32, rearm: u32) -> Self {
        Hysteresis {
            confirm: confirm.max(1),
            rearm: rearm.max(1),
            streak: 0,
            healthy: 0,
            armed: true,
        }
    }

    /// Feeds one breach/healthy observation; returns `true` on the one
    /// sample where the detector fires.
    pub fn observe(&mut self, breach: bool) -> bool {
        if breach {
            self.healthy = 0;
            self.streak = self.streak.saturating_add(1);
            if self.armed && self.streak >= self.confirm {
                self.armed = false;
                return true;
            }
        } else {
            self.streak = 0;
            if !self.armed {
                self.healthy += 1;
                if self.healthy >= self.rearm {
                    self.armed = true;
                    self.healthy = 0;
                }
            }
        }
        false
    }

    /// Whether the detector has fired and not yet re-armed.
    pub fn active(&self) -> bool {
        !self.armed
    }
}

struct Detector {
    name: &'static str,
    severity: Severity,
    hyst: Hysteresis,
}

impl Detector {
    fn new(name: &'static str, severity: Severity, confirm: u32, rearm: u32) -> Self {
        Detector { name, severity, hyst: Hysteresis::new(confirm, rearm) }
    }

    fn observe(
        &mut self,
        breach: bool,
        iteration: u64,
        detail: impl FnOnce() -> String,
        findings: &mut Vec<HealthFinding>,
    ) {
        if self.hyst.observe(breach) {
            findings.push(HealthFinding {
                detector: self.name,
                severity: self.severity,
                iteration,
                detail: detail(),
            });
        }
    }
}

/// A level detector: a signal's EWMA, judged once warm against a floor
/// under a reference the run set itself — the EWMA at the end of warmup,
/// or the highest since. The entropy, reward and throughput detectors.
struct Level {
    ewma: Ewma,
    /// Whether the reference is the highest EWMA since warmup.
    peak: bool,
    reference: Option<f64>,
    /// The floor under a reference, `None` for one too small to judge by.
    floor: fn(f64) -> Option<f64>,
    /// A firing's diagnosis from the EWMA and the reference.
    detail: fn(f64, f64) -> String,
    det: Detector,
}

impl Level {
    fn new(
        name: &'static str,
        peak: bool,
        floor: fn(f64) -> Option<f64>,
        detail: fn(f64, f64) -> String,
    ) -> Self {
        let det = Detector::new(name, Severity::Warn, CONFIRM, REARM);
        Level { ewma: Ewma::default(), peak, reference: None, floor, detail, det }
    }

    /// Folds the `n`-th sample's value `x` in and judges the EWMA.
    fn observe(&mut self, n: u64, x: f64, it: u64, findings: &mut Vec<HealthFinding>) {
        let ewma = self.ewma.update(ALPHA, x);
        if self.peak && n > WARMUP {
            self.reference = Some(self.reference.map_or(ewma, |r| r.max(ewma)));
        } else if !self.peak && n == WARMUP {
            self.reference = Some(ewma);
        }
        if n > WARMUP {
            let breach = self.reference.and_then(self.floor).is_some_and(|f| ewma < f);
            let detail = || (self.detail)(ewma, self.reference.unwrap_or_default());
            self.det.observe(breach, it, detail, findings);
        }
    }
}

/// The streaming detector bank. Feed one [`HealthSample`] per iteration
/// via [`HealthMonitor::observe`]; read the run-level verdict back via
/// [`HealthMonitor::verdict`].
pub struct HealthMonitor {
    n: u64,
    grad: Ewma,
    nonfinite: Detector,
    entropy_collapse: Level,
    grad_explosion: Detector,
    reward_regression: Level,
    tput_regression: Level,
    findings: Vec<HealthFinding>,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor {
            n: 0,
            grad: Ewma::default(),
            // The numeric-poison detector confirms on the first
            // breaching sample: one NaN is already fatal.
            nonfinite: Detector::new("nonfinite", Severity::Critical, 1, REARM),
            entropy_collapse: Level::new(
                "entropy_collapse",
                false,
                |baseline| (baseline > 1e-9).then_some(ENTROPY_FRAC * baseline),
                |ewma, baseline| {
                    let pct = ENTROPY_FRAC * 100.0;
                    format!("entropy EWMA {ewma:.4} below {pct:.0}% of baseline {baseline:.4}")
                },
            ),
            grad_explosion: Detector::new("grad_explosion", Severity::Warn, CONFIRM, REARM),
            reward_regression: Level::new(
                "reward_regression",
                true,
                |best| Some(best - REWARD_FRAC * best.abs().max(1.0)),
                |ewma, best| {
                    let slack = REWARD_FRAC * best.abs().max(1.0);
                    format!("reward EWMA {ewma:.3} fell below best {best:.3} − slack {slack:.3}")
                },
            ),
            tput_regression: Level::new(
                "tput_regression",
                true,
                |peak| Some(TPUT_FRAC * peak),
                |ewma, peak| {
                    let pct = TPUT_FRAC * 100.0;
                    format!("it/s EWMA {ewma:.3} below {pct:.0}% of peak {peak:.3}")
                },
            ),
            findings: Vec::new(),
        }
    }
}

impl HealthMonitor {
    /// Feeds one iteration; returns the per-iteration status block
    /// (including any findings that fired exactly this iteration).
    pub fn observe(&mut self, s: &HealthSample) -> HealthStatus {
        self.n += 1;
        let (n, it) = (self.n, s.iteration);
        let mut new = Vec::new();

        let bad_loss = s.loss.is_some_and(|l| !l.is_finite());
        let bad_grad = s.grad_norm.is_some_and(|g| !g.is_finite());
        let bad_params = s.nonfinite_params.is_some_and(|c| c > 0);
        let nonfinite = !s.reward.is_finite()
            || bad_loss
            || s.entropy.is_some_and(|e| !e.is_finite())
            || bad_grad
            || s.update_ratio.is_some_and(|u| !u.is_finite())
            || bad_params;
        self.nonfinite.observe(
            nonfinite,
            it,
            || {
                format!(
                    "non-finite training signal (loss bad: {}, grad bad: {}, params bad: {})",
                    bad_loss,
                    bad_grad,
                    s.nonfinite_params.unwrap_or(0)
                )
            },
            &mut new,
        );

        if let Some(e) = s.entropy.filter(|e| e.is_finite()) {
            self.entropy_collapse.observe(n, e, it, &mut new);
        }

        // Gradient norm: compare against the healthy-sample EWMA, and
        // keep breaching samples *out* of it — a sustained explosion
        // must not normalise itself into a new baseline, or the streak
        // would break after one sample and `confirm` never be reached.
        if let Some(g) = s.grad_norm.filter(|g| g.is_finite()) {
            let prev = self.grad.value;
            let breach = n > WARMUP && prev.is_some_and(|p| g > GRAD_MARGIN * p.max(1e-9));
            let p = prev.unwrap_or(0.0);
            self.grad_explosion.observe(
                breach,
                it,
                || format!("grad norm {g:.3e} over {GRAD_MARGIN}x its EWMA {p:.3e}"),
                &mut new,
            );
            if !breach {
                self.grad.update(ALPHA, g);
            }
        }

        if s.reward.is_finite() {
            self.reward_regression.observe(n, s.reward, it, &mut new);
        }
        if s.iters_per_sec.is_finite() && s.iters_per_sec > 0.0 {
            self.tput_regression.observe(n, s.iters_per_sec, it, &mut new);
        }

        self.findings.extend(new.iter().cloned());

        let status = [
            &self.nonfinite,
            &self.entropy_collapse.det,
            &self.grad_explosion,
            &self.reward_regression.det,
            &self.tput_regression.det,
        ]
        .into_iter()
        .filter(|d| d.hyst.active())
        .map(|d| d.severity)
        .fold(Severity::Ok, Severity::max);

        HealthStatus {
            status,
            nonfinite,
            grad_norm: s.grad_norm,
            weight_norm: s.weight_norm,
            update_ratio: s.update_ratio,
            nonfinite_params: s.nonfinite_params,
            findings: new,
        }
    }

    /// Appends an externally-produced finding (the replay path ingests
    /// recorded findings through this).
    pub fn ingest(&mut self, f: HealthFinding) {
        if !self.findings.iter().any(|g| g.detector == f.detector && g.iteration == f.iteration) {
            self.findings.push(f);
        }
    }

    /// The run-level verdict so far.
    pub fn verdict(&self) -> HealthVerdict {
        HealthVerdict {
            status: self.findings.iter().map(|f| f.severity).max().unwrap_or(Severity::Ok),
            iterations: self.n,
            findings: self.findings.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream replay (the `doctor` engine)
// ---------------------------------------------------------------------------

/// The detector names, a closed set (the stream's parser rejects any
/// other).
pub(crate) const DETECTORS: [&str; 5] =
    ["nonfinite", "entropy_collapse", "grad_explosion", "reward_regression", "tput_regression"];

impl From<&crate::RunEvent> for HealthSample {
    fn from(ev: &crate::RunEvent) -> HealthSample {
        let h = ev.health.as_ref();
        HealthSample {
            iteration: ev.iteration,
            reward: ev.reward,
            loss: ev.loss,
            entropy: ev.entropy,
            iters_per_sec: ev.iters_per_sec,
            grad_norm: h.and_then(|h| h.grad_norm),
            weight_norm: h.and_then(|h| h.weight_norm),
            update_ratio: h.and_then(|h| h.update_ratio),
            // The stream writes NaN/Inf gauges as null; the recorded flag
            // is then the only trace of the poison, so it re-poisons the
            // sample.
            nonfinite_params: h.and_then(|h| match h.nonfinite {
                true => Some(h.nonfinite_params.unwrap_or(0).max(1)),
                false => h.nonfinite_params,
            }),
        }
    }
}

/// Replays a completed RunEvent JSONL stream through fresh detector
/// banks, one per run ([`crate::split_runs`]: a CI stream holds many
/// runs, of one policy or several, and each is judged against its own
/// levels), and merges in every finding recorded on `health` blocks. The
/// result is the post-hoc verdict the `doctor` bin reports.
///
/// # Errors
///
/// A description of the first unparsable line.
pub fn replay_stream(content: &str) -> Result<HealthVerdict, String> {
    let mut events = Vec::new();
    for (i, line) in content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        events.push(crate::RunEvent::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    let mut verdict = HealthVerdict::default();
    for run in crate::split_runs(events) {
        let mut m = HealthMonitor::default();
        for ev in run {
            m.observe(&HealthSample::from(&ev));
            for f in ev.health.into_iter().flat_map(|h| h.findings) {
                m.ingest(HealthFinding { detail: format!("{} (recorded)", f.detail), ..f });
            }
        }
        let v = m.verdict();
        verdict.status = verdict.status.max(v.status);
        verdict.iterations += v.iterations;
        verdict.findings.extend(v.findings);
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(iteration: u64) -> HealthSample {
        HealthSample {
            iteration,
            reward: 20.0 + iteration as f64,
            loss: Some(0.5),
            entropy: Some(0.6),
            iters_per_sec: 100.0,
            grad_norm: Some(1.0),
            weight_norm: Some(10.0),
            update_ratio: Some(1e-3),
            nonfinite_params: Some(0),
        }
    }

    #[test]
    fn healthy_stream_stays_silent() {
        let mut m = HealthMonitor::default();
        for i in 0..50 {
            let s = m.observe(&healthy(i));
            assert_eq!(s.status, Severity::Ok, "iteration {i}: {:?}", s.findings);
            assert!(s.findings.is_empty());
        }
        assert_eq!(m.verdict().status, Severity::Ok);
        assert!(m.verdict().findings.is_empty());
    }

    #[test]
    fn nan_loss_fires_exactly_once_and_rearms() {
        let mut m = HealthMonitor::default();
        for i in 0..6 {
            m.observe(&healthy(i));
        }
        // A NaN loss fires on its *first* sample (confirm = 1)...
        let mut bad = healthy(6);
        bad.loss = Some(f64::NAN);
        let s = m.observe(&bad);
        assert_eq!(s.status, Severity::Critical);
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].detector, "nonfinite");
        // ...then holds silent while the breach persists.
        for i in 7..12 {
            let mut bad = healthy(i);
            bad.loss = Some(f64::NAN);
            let s = m.observe(&bad);
            assert!(s.findings.is_empty(), "exactly-once firing");
            assert_eq!(s.status, Severity::Critical, "stays active while un-armed");
        }
        // Healthy samples re-arm it; a fresh poison fires again.
        for i in 12..12 + 8 {
            m.observe(&healthy(i));
        }
        let mut bad = healthy(40);
        bad.nonfinite_params = Some(3);
        let s = m.observe(&bad);
        assert_eq!(s.findings.len(), 1, "re-armed detector fires a second time");
        assert_eq!(m.verdict().findings.len(), 2);
        assert_eq!(m.verdict().status, Severity::Critical);
    }

    #[test]
    fn sub_hysteresis_noise_never_fires() {
        let mut m = HealthMonitor::default();
        for i in 0..10 {
            m.observe(&healthy(i));
        }
        // Entropy dips hard for confirm−1 samples, then recovers —
        // repeatedly. The streak never reaches `confirm`, so nothing
        // fires.
        for round in 0..5 {
            for k in 0..2 {
                let mut s = healthy(10 + round * 3 + k);
                s.entropy = Some(0.01);
                let st = m.observe(&s);
                assert!(st.findings.is_empty(), "round {round}: sub-hysteresis dip fired");
            }
            m.observe(&healthy(12 + round * 3));
        }
        assert_eq!(m.verdict().status, Severity::Ok);
    }

    #[test]
    fn entropy_collapse_fires_after_confirm_window() {
        let mut m = HealthMonitor::default();
        for i in 0..8 {
            m.observe(&healthy(i));
        }
        let mut fired = Vec::new();
        for i in 8..20 {
            let mut s = healthy(i);
            s.entropy = Some(0.001);
            fired.extend(m.observe(&s).findings);
        }
        assert_eq!(fired.len(), 1, "one collapse firing: {fired:?}");
        assert_eq!(fired[0].detector, "entropy_collapse");
        assert_eq!(fired[0].severity, Severity::Warn);
        // EWMA needs a few samples to sink below the threshold (8 at
        // α=0.2 from 0.6 to <0.12, i.e. iteration 15), then the firing
        // lands at the end of the confirm window: iteration 17.
        assert!(fired[0].iteration >= 10 && fired[0].iteration <= 18, "{}", fired[0].iteration);
    }

    #[test]
    fn grad_explosion_is_a_warning_fired_once() {
        let mut m = HealthMonitor::default();
        for i in 0..8 {
            m.observe(&healthy(i));
        }
        let mut fired = Vec::new();
        for i in 8..8 + 4 {
            let mut s = healthy(i);
            s.grad_norm = Some(1.0e4);
            fired.extend(m.observe(&s).findings);
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].detector, "grad_explosion");
        assert_eq!(fired[0].severity, Severity::Warn, "finite spike is a warning, not critical");
    }

    /// The findings of ten healthy samples, then twenty with `bad`
    /// applied.
    fn regression(bad: impl Fn(&mut HealthSample)) -> Vec<HealthFinding> {
        let mut m = HealthMonitor::default();
        for i in 0..10 {
            m.observe(&healthy(i));
        }
        let mut fired = Vec::new();
        for i in 10..30 {
            let mut s = healthy(i);
            bad(&mut s);
            fired.extend(m.observe(&s).findings);
        }
        fired
    }

    #[test]
    fn reward_regression_fires_once_against_the_best_level() {
        let fired = regression(|s| s.reward = -40.0);
        assert_eq!(fired.len(), 1, "one regression firing: {fired:?}");
        assert_eq!(fired[0].detector, "reward_regression");
        assert_eq!(fired[0].severity, Severity::Warn);
        assert_eq!(fired[0].iteration, 13);
    }

    #[test]
    fn tput_regression_fires_once_against_the_peak_level() {
        let fired = regression(|s| s.iters_per_sec = 10.0);
        assert_eq!(fired.len(), 1, "one regression firing: {fired:?}");
        assert_eq!(fired[0].detector, "tput_regression");
        assert_eq!(fired[0].severity, Severity::Warn);
        assert_eq!(fired[0].iteration, 20);
    }

    /// The metrics line run `run`'s observer writes for sample `s`.
    fn line(run: u64, policy: &str, s: &HealthSample, health: Option<HealthStatus>) -> String {
        let ev = crate::RunEvent {
            run,
            policy: policy.to_string(),
            iteration: s.iteration,
            reward: s.reward,
            loss: s.loss,
            entropy: s.entropy,
            iters_per_sec: s.iters_per_sec,
            comm_bytes: 0,
            staleness: 1,
            attr: None,
            health,
        };
        ev.to_json_line() + "\n"
    }

    #[test]
    fn status_json_and_verdict_roundtrip_through_replay() {
        let mut m = HealthMonitor::default();
        let mut lines = String::new();
        for i in 0..10 {
            let mut s = healthy(i);
            if i == 7 {
                s.loss = Some(f64::INFINITY);
                s.nonfinite_params = Some(2);
            }
            let st = m.observe(&s);
            lines.push_str(&line(1, "dp_a", &s, Some(st)));
        }
        let verdict = m.verdict();
        assert_eq!(verdict.status, Severity::Critical);
        let json = serde_json::to_string(&verdict).unwrap();
        assert_eq!(serde_json::from_str::<HealthVerdict>(&json).unwrap(), verdict);
        let replayed = replay_stream(&lines).expect("replay parses");
        assert_eq!(replayed.status, Severity::Critical, "{}", replayed.render());
        assert!(
            replayed.findings.iter().any(|f| f.detector == "nonfinite" && f.iteration == 7),
            "replay recovers the recorded firing: {}",
            replayed.render()
        );
        // The ranked report leads with the critical finding.
        let report = replayed.render();
        assert!(report.starts_with("verdict: CRITICAL"));
    }

    #[test]
    fn replay_is_quiet_on_healthy_block_free_lines() {
        let mut lines = String::new();
        for i in 0..20 {
            let s = HealthSample {
                iteration: i,
                reward: 10.0 + i as f64,
                loss: Some(0.4),
                entropy: Some(0.7),
                iters_per_sec: 50.0,
                ..HealthSample::default()
            };
            lines.push_str(&line(1, "dp_c", &s, None));
        }
        let verdict = replay_stream(&lines).expect("replay parses");
        assert_eq!(verdict.status, Severity::Ok, "{}", verdict.render());
    }

    #[test]
    fn a_slower_second_run_is_not_a_throughput_regression() {
        // Two healthy runs of one policy in one stream, the second at a
        // tenth of the first's rate: each is judged against its own
        // level, so the second run's it/s is no collapse.
        let mut lines = String::new();
        for (run, rate) in [(1, 100.0), (2, 10.0)] {
            for i in 0..20 {
                let s = HealthSample { iters_per_sec: rate, ..healthy(i) };
                lines.push_str(&line(run, "dp_a", &s, None));
            }
        }
        let verdict = replay_stream(&lines).expect("replay parses");
        assert_eq!(verdict.iterations, 40);
        assert!(
            verdict.findings.iter().all(|f| f.detector != "tput_regression"),
            "{}",
            verdict.render()
        );
    }
}
