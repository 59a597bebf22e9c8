//! The fragment runner's skeleton: everything a run does whichever sync
//! rule it follows.
//!
//! [`run`] builds one fabric of `workers [+ hub]` endpoints, spawns one
//! fragment thread per worker seat, runs the hub seat (if the rule's row
//! has one) on the calling thread, joins, checks hub-less replicas
//! against each other and hands back one [`TrainingReport`]. A seat's
//! body sees the run through its [`Frame`]. The frame owns the seat's
//! endpoint and is dropped the moment the body returns — `Ok` or `Err`,
//! and before anything is joined — so a peer blocked on a seat that has
//! given up wakes with `Disconnected` instead of parking for good.

use std::thread::{Scope, ScopedJoinHandle};

use msrl_algos::ppo::PpoPolicy;
use msrl_comm::{Endpoint, Fabric};
use msrl_core::api::Learner;
use msrl_core::Result;
use msrl_env::ActionSpec;
use msrl_tensor::par;

use super::{Rule, TrainingReport};
use crate::observe::{close_run, RunObserver};

/// What a run needs besides its rule and the bodies of its seats.
pub(crate) struct Setup {
    /// Replicas of the rule's worker seat.
    pub workers: usize,
    /// The weights every seat starts from.
    pub policy: PpoPolicy,
    /// Simulated per-message latency of the fabric.
    pub link_latency: std::time::Duration,
    /// The staleness bound every RunEvent carries.
    pub staleness: usize,
    /// Hub-less replicas that never exchange returns each see their own
    /// episodes: the run's reward curve is the mean of theirs.
    pub mean_rewards: bool,
}

impl Setup {
    /// A run of `workers` seats starting from the policy an environment
    /// of this shape needs, on a zero-latency fabric, fully synchronous.
    pub fn new(
        workers: usize,
        obs_dim: usize,
        spec: ActionSpec,
        hidden: &[usize],
        seed: u64,
    ) -> Setup {
        let policy = if spec.is_discrete() {
            PpoPolicy::discrete(obs_dim, spec.policy_width(), hidden, seed)
        } else {
            PpoPolicy::continuous(obs_dim, spec.policy_width(), hidden, seed)
        };
        let link_latency = std::time::Duration::ZERO;
        Setup { workers, policy, link_latency, staleness: 0, mean_rewards: false }
    }
}

/// One seat's view of the run: who it is, its endpoint, and the report
/// it fills. The hub's rank is `workers`, the last of the fabric.
pub(crate) struct Frame<'a> {
    pub rank: usize,
    pub workers: usize,
    pub ep: Endpoint,
    pub policy: &'a PpoPolicy,
    pub report: TrainingReport,
    prev_reward: f32,
    /// Present on the one seat that streams the run's metrics: the hub,
    /// or rank 0 of a hub-less rule (replicas stay synchronised, so one
    /// stream suffices).
    observer: Option<RunObserver>,
}

impl Frame<'_> {
    /// Runs a seat's body on a fresh frame and hands back its report.
    /// The frame, and the endpoint in it, die here on either outcome.
    fn fill(
        rule: &Rule,
        setup: &Setup,
        rank: usize,
        ep: Endpoint,
        body: impl FnOnce(&mut Frame) -> Result<()>,
    ) -> Result<TrainingReport> {
        let reporting = rank == if rule.hub.is_some() { setup.workers } else { 0 };
        let mut frame = Frame {
            rank,
            workers: setup.workers,
            ep,
            policy: &setup.policy,
            report: TrainingReport::default(),
            prev_reward: 0.0,
            observer: reporting.then(|| RunObserver::new(rule.name, setup.staleness)),
        };
        body(&mut frame)?;
        Ok(frame.report)
    }

    /// The report tail: records the iteration's reward and, on the
    /// reporting seat, streams its RunEvent with `learner`'s training
    /// signal (and scans its weights when the watchdog is on).
    ///
    /// # Errors
    ///
    /// [`msrl_core::FdgError::Unhealthy`] when the watchdog fired a
    /// critical finding this iteration: the seat's body ends with it.
    pub fn close(&mut self, reward: f32, learner: Option<&dyn Learner>) -> Result<()> {
        self.report.iteration_rewards.push(reward);
        let Some(o) = self.observer.as_mut() else { return Ok(()) };
        o.observe(reward, learner)
    }

    /// [`Frame::close`] on the mean return of the episodes that
    /// `finished` in the iteration — the previous value when none did.
    ///
    /// # Errors
    ///
    /// As [`Frame::close`].
    pub fn close_finished(
        &mut self,
        finished: &[f32],
        learner: Option<&dyn Learner>,
    ) -> Result<()> {
        if !finished.is_empty() {
            self.prev_reward = finished.iter().sum::<f32>() / finished.len() as f32;
        }
        self.close(self.prev_reward, learner)
    }
}

/// The rollout phase of a seat: one span, classed for attribution.
pub(crate) fn rollout<T>(body: impl FnOnce() -> T) -> T {
    let _s = msrl_telemetry::span!("phase.rollout", class: Rollout);
    body()
}

/// The learn phase of a seat: a span classed for attribution, and the
/// always-on histogram.
pub(crate) fn learn<T>(body: impl FnOnce() -> T) -> T {
    let _s = msrl_telemetry::span!("phase.learn", class: Learn);
    let _h = msrl_telemetry::static_histogram!("phase.learn").time();
    body()
}

/// The `hub` argument of [`run`] for a rule whose row has no hub seat.
pub(crate) fn no_hub(_: &mut Frame) -> Result<()> {
    unreachable!("the rule's row has no hub seat")
}

/// Runs `rule`: `worker` on `setup.workers` fragment threads and `hub`,
/// when the rule's row has a hub seat, on the calling thread — all under
/// the caller's backend.
///
/// Every handle is joined before anything is returned. The hub's error
/// comes first, else the first worker error in rank order, else the
/// hub's report, else rank 0's (hub-less replicas must agree on it).
pub(crate) fn run<W, H>(rule: &Rule, setup: &Setup, worker: W, hub: H) -> Result<TrainingReport>
where
    W: Fn(&mut Frame) -> Result<()> + Sync,
    H: FnOnce(&mut Frame) -> Result<()>,
{
    let p = setup.workers;
    let mut endpoints =
        Fabric::with_latency(p + usize::from(rule.hub.is_some()), setup.link_latency);
    let hub = rule.hub.map(|seat| (seat, hub, endpoints.pop().expect("the hub's is the last")));
    let result = std::thread::scope(|scope| {
        let worker = &worker;
        let spawn = |(rank, ep)| {
            let body = move || Frame::fill(rule, setup, rank, ep, worker);
            spawn_fragment(scope, rule.worker.span, rank, body)
        };
        let handles: Vec<_> = endpoints.into_iter().enumerate().map(spawn).collect();
        let hub_report = hub.map(|(seat, body, ep)| {
            let _frag = enter_fragment(seat.span, p);
            Frame::fill(rule, setup, p, ep, body)
        });
        let mut reports = Vec::with_capacity(p);
        let mut worker_err = None;
        for h in handles {
            match h.join().expect("fragment thread must not panic") {
                Ok(report) => reports.push(report),
                Err(e) => _ = worker_err.get_or_insert(e),
            }
        }
        match (hub_report.transpose()?, worker_err) {
            (_, Some(e)) => Err(e),
            (Some(report), None) => Ok(report),
            (None, None) => Ok(merge_replicas(reports, setup.mean_rewards)),
        }
    });
    close_run(rule.name, &result);
    result
}

/// What hub-less replicas leave behind. Their weights are synchronised,
/// so rank 0's report is authoritative — checked bit for bit in debug
/// builds — with the reward curves averaged when each saw its own
/// episodes.
fn merge_replicas(mut reports: Vec<TrainingReport>, mean_rewards: bool) -> TrainingReport {
    let same_bits =
        |a: &[f32], b: &[f32]| a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits()));
    debug_assert!(
        reports.iter().all(|r| same_bits(&r.final_params, &reports[0].final_params)),
        "replicas must end on bit-identical weights"
    );
    let mean = |e: usize| {
        reports.iter().map(|r| r.iteration_rewards[e]).sum::<f32>() / reports.len() as f32
    };
    let rewards = mean_rewards.then(|| (0..reports[0].iteration_rewards.len()).map(mean).collect());
    let first = reports.swap_remove(0);
    TrainingReport { iteration_rewards: rewards.unwrap_or(first.iteration_rewards), ..first }
}

/// Declares the fragment the calling thread hosts: opens the
/// `fragment.<role>` span named by `span` and counts the thread as a
/// computing fragment (both held until the returned guards drop), and
/// tags the thread's classed spans (comm waits deep in the fabric
/// included) with `<role>` and `rank`.
fn enter_fragment(
    span: &'static str,
    rank: usize,
) -> (msrl_telemetry::SpanGuard, msrl_telemetry::ComputingGuard) {
    let role = span.strip_prefix("fragment.").expect("fragment spans are named fragment.<role>");
    msrl_telemetry::set_fragment(role, rank as u64);
    (msrl_telemetry::span!(span, rank), msrl_telemetry::enter_computing())
}

/// Spawns one fragment thread on `scope`. The new thread inherits the
/// spawning thread's [`par::backend`] — the one seam where a backend
/// crosses threads — and runs `body` inside [`enter_fragment`].
fn spawn_fragment<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    span: &'static str,
    rank: usize,
    body: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    let backend = par::backend();
    scope.spawn(move || {
        par::with_backend(backend, || {
            let _frag = enter_fragment(span, rank);
            body()
        })
    })
}
