//! Policy advisor: ranks DP-A..DP-F for the workload a run's event
//! stream describes.
//!
//! [`LiveAdvisor`] folds the `attr` block of each [`RunEvent`] into a
//! simple analytic fragment/comm cost model and predicts the
//! per-iteration period of each distribution policy at a given actor
//! count and link latency. The point is the paper's: the best policy is
//! workload- and network-dependent, and the profile of one run — its
//! stream — is enough to choose the next one.
//!
//! ## Cost model
//!
//! With `r` the per-actor rollout compute, `l` the whole-batch learn
//! compute per iteration (all epochs), `l1 = l / p` its per-actor
//! share, `L` the one-way per-message link latency, `p` the actor
//! count, `E` the epoch (sync-round) count, and `s` the env steps per
//! iteration:
//!
//! | Policy | Period | Rationale |
//! |--------|--------|-----------|
//! | DP-A | `max(r, L) + p·l1` | one batched exchange per iteration, broadcast overlapped with rollout |
//! | DP-B | `r + 2sL + p·l1` | learner-side inference pays a round trip per env step |
//! | DP-C | `r + E·(l1 + L)` | per-epoch gradient AllReduce, compute data-parallel |
//! | DP-D | `r + E·l1 + L` | fused on-device loop, one weight AllReduce per episode |
//! | DP-E | `r + 2sL + E·l1 + L` | env-worker messaging per step plus local learn and weight sync |
//! | DP-F | `max(r, 2L) + p·l1` | push+pull round trip, pulls overlapped with rollout |
//!
//! The model deliberately ignores serialisation and contention — it is
//! a ranking device, not a simulator — and the `advise` binary prints
//! each policy's measured per-iteration period from the stream next to
//! the modelled ones ([`render_table`]) so disagreement is visible.
//!
//! A RunEvent carries no step count, so [`LiveAdvisor`] leaves `s`
//! unknown and DP-B and DP-E, whose periods grow with it, print as
//! unpriced: priced at one step, DP-B would look within ×2 of DP-A where
//! it runs 32–128 round trips per iteration.
//!
//! ## Folding
//!
//! The advisor smooths the per-iteration rollout and learn terms with
//! the health watchdog's [`Ewma`] and re-ranks a candidate set on every
//! event. A recommendation is printed only when the bottleneck shift
//! persists through a [`Hysteresis`] window (margin × consecutive
//! confirmations), and it is advice only — the advisor never re-plans
//! the run itself.

use std::time::Duration;

use msrl_telemetry::{Ewma, Hysteresis, RunEvent};

/// Workload + network parameters the cost model runs on.
#[derive(Debug, Clone)]
pub struct CostModelInputs {
    /// Per-actor rollout compute per iteration, ns.
    pub rollout_ns: f64,
    /// Whole-batch learn compute per iteration (all epochs), ns.
    pub learn_ns: f64,
    /// Actor (replica) count `p`.
    pub actors: usize,
    /// Synchronisation rounds per iteration `E` (PPO epochs for the
    /// per-epoch-sync policies).
    pub epochs: usize,
    /// Env steps per iteration `s` (drives the per-step policies);
    /// `None` leaves DP-B and DP-E unpriced.
    pub steps_per_iter: Option<u64>,
    /// One-way per-message link latency `L`.
    pub latency: Duration,
}

/// One row of the advisor's ranking.
#[derive(Debug, Clone)]
pub struct PolicyEstimate {
    /// Policy name (`dp_a`..`dp_f`).
    pub policy: &'static str,
    /// Modelled per-iteration period, ns; `None` when the inputs lack a
    /// term the policy's period needs.
    pub period_ns: Option<f64>,
    /// What dominates the period under this policy.
    pub note: &'static str,
}

impl PolicyEstimate {
    /// Modelled iteration throughput (0 for a zero period).
    pub fn iters_per_sec(&self) -> Option<f64> {
        self.period_ns.map(|p| if p > 0.0 { 1e9 / p } else { 0.0 })
    }
}

/// Ranks all six policies for the given inputs, fastest first and the
/// unpriced ones last.
pub fn rank_policies(inp: &CostModelInputs) -> Vec<PolicyEstimate> {
    let r = inp.rollout_ns;
    let l1 = inp.learn_ns / inp.actors as f64;
    let p = inp.actors as f64;
    let e = inp.epochs as f64;
    let lat = inp.latency.as_nanos() as f64;
    // The round trips of the per-step policies, when the step count is known.
    let per_step = inp.steps_per_iter.map(|s| 2.0 * s as f64 * lat);
    let mut rows = vec![
        PolicyEstimate {
            policy: "dp_a",
            period_ns: Some(r.max(lat) + p * l1),
            note: "batched exchange, broadcast overlapped with rollout",
        },
        PolicyEstimate {
            policy: "dp_b",
            period_ns: per_step.map(|trips| r + trips + p * l1),
            note: "per-step round trip to the learner",
        },
        PolicyEstimate {
            policy: "dp_c",
            period_ns: Some(r + e * (l1 + lat)),
            note: "per-epoch gradient AllReduce",
        },
        PolicyEstimate {
            policy: "dp_d",
            period_ns: Some(r + e * l1 + lat),
            note: "fused on-device loop, one weight sync per episode",
        },
        PolicyEstimate {
            policy: "dp_e",
            period_ns: per_step.map(|trips| r + trips + e * l1 + lat),
            note: "env-worker message per step plus weight sync",
        },
        PolicyEstimate {
            policy: "dp_f",
            period_ns: Some(r.max(2.0 * lat) + p * l1),
            note: "parameter-server push+pull, pulls overlapped",
        },
    ];
    let key = |row: &PolicyEstimate| row.period_ns.unwrap_or(f64::INFINITY);
    rows.sort_by(|a, b| key(a).total_cmp(&key(b)));
    rows
}

/// Tuning for the live advisor's folding and hysteresis.
#[derive(Debug, Clone)]
pub struct LiveAdvisorConfig {
    /// Policies the advisor is allowed to recommend. The default pair
    /// `{dp_a, dp_c}` is the coarse-sync trade-off the cost model can
    /// genuinely flip on (DP-D dominates DP-C analytically, so ranking
    /// the full set would never recommend DP-C).
    pub candidates: Vec<&'static str>,
    /// One-way link latency `L` to plan for.
    pub latency: Duration,
    /// Sync rounds per iteration `E`.
    pub epochs: usize,
    /// EWMA weight of each new sample (0..=1; higher reacts faster).
    pub alpha: f64,
    /// A challenger must beat the incumbent's modelled period by this
    /// relative margin to count towards a flip.
    pub margin: f64,
    /// Consecutive margin-beating events required before the
    /// recommendation flips (hysteresis against transient noise). After
    /// a flip, one event must agree with the new recommendation before
    /// the next shift starts counting.
    pub confirm: u32,
}

impl Default for LiveAdvisorConfig {
    fn default() -> Self {
        LiveAdvisorConfig {
            candidates: vec!["dp_a", "dp_c"],
            latency: Duration::from_millis(10),
            epochs: 1,
            alpha: 0.3,
            margin: 0.10,
            confirm: 3,
        }
    }
}

/// A recommendation the live advisor emitted after a bottleneck shift
/// (or on the first sample).
#[derive(Debug, Clone)]
pub struct LiveRecommendation {
    /// The policy the advisor now recommends.
    pub policy: &'static str,
    /// The previous recommendation (`None` on the initial one).
    pub previous: Option<&'static str>,
    /// Modelled period of the recommended policy, ns.
    pub period_ns: f64,
    /// Bottleneck label of the event that triggered the change.
    pub bottleneck: &'static str,
    /// How many attribution events had been folded in at that point.
    pub events: u64,
}

/// Folds the attribution stream into the DP-A..DP-F cost model and
/// recommends a re-partition when the bottleneck shifts.
///
/// Recommendation only: the advisor never restarts or re-plans the run
/// itself. Workload terms (`r`, `l`) are EWMA-smoothed and a flip needs
/// [`LiveAdvisorConfig::confirm`] consecutive events where the
/// challenger beats the incumbent by [`LiveAdvisorConfig::margin`], so
/// noise below the hysteresis threshold never flips the advice.
#[derive(Debug)]
pub struct LiveAdvisor {
    cfg: LiveAdvisorConfig,
    rollout: Ewma,
    learn: Ewma,
    actors: usize,
    current: Option<&'static str>,
    shift: Hysteresis,
    events: u64,
}

impl LiveAdvisor {
    /// Creates a live advisor with the given tuning.
    pub fn new(cfg: LiveAdvisorConfig) -> LiveAdvisor {
        LiveAdvisor {
            shift: Hysteresis::new(cfg.confirm, 1),
            cfg,
            rollout: Ewma::default(),
            learn: Ewma::default(),
            actors: 1,
            current: None,
            events: 0,
        }
    }

    /// The current recommendation, if any event has been folded in.
    pub fn current(&self) -> Option<&'static str> {
        self.current
    }

    /// Attribution events folded in so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The smoothed cost-model inputs the advisor currently ranks on.
    /// The stream carries no step count, so DP-B and DP-E stay unpriced.
    pub fn inputs(&self) -> CostModelInputs {
        CostModelInputs {
            rollout_ns: self.rollout.value.unwrap_or(0.0),
            learn_ns: self.learn.value.unwrap_or(0.0),
            actors: self.actors,
            epochs: self.cfg.epochs,
            steps_per_iter: None,
            latency: self.cfg.latency,
        }
    }

    /// Folds one run event in, returning a recommendation when it is the
    /// first attributed event or the bottleneck shift has persisted
    /// through the hysteresis window. Events without an `attr` block
    /// are passed over. The cost model's per-actor rollout term `r` is
    /// the slowest fragment's rollout, its whole-batch learn term `l`
    /// the learn compute summed over fragments, and `p` the fragments
    /// that rolled out.
    pub fn observe(&mut self, ev: &RunEvent) -> Option<LiveRecommendation> {
        let attr = ev.attr.as_ref()?;
        self.events += 1;
        let frags = &attr.fragments;
        let rollout_ns = frags.iter().map(|f| f.rollout_ns).max().unwrap_or(0);
        let learn_ns: u64 = frags.iter().map(|f| f.learn_ns).sum();
        let actors = frags.iter().filter(|f| f.rollout_ns > 0).count();
        self.actors = self.actors.max(actors);
        let a = self.cfg.alpha.clamp(0.0, 1.0);
        self.rollout.update(a, rollout_ns as f64);
        self.learn.update(a, learn_ns as f64);

        let rows = rank_policies(&self.inputs());
        let candidate = |name: &str| rows.iter().find(|r| r.policy == name)?.period_ns;
        let mut best: Option<(&'static str, f64)> = None;
        for &name in &self.cfg.candidates {
            if let Some(period) = candidate(name) {
                if best.is_none_or(|(_, b)| period < b) {
                    best = Some((name, period));
                }
            }
        }
        let (winner, winner_period) = best?;
        let previous = self.current;
        if let Some(incumbent) = previous {
            let incumbent_period = candidate(incumbent).unwrap_or(f64::INFINITY);
            let shifted =
                winner != incumbent && winner_period < incumbent_period * (1.0 - self.cfg.margin);
            if !self.shift.observe(shifted) {
                return None;
            }
        }
        // First event: adopt the winner outright; later: the shift held.
        self.current = Some(winner);
        Some(LiveRecommendation {
            policy: winner,
            previous,
            period_ns: winner_period,
            bottleneck: attr.bottleneck,
            events: self.events,
        })
    }
}

/// Renders the ranking as an aligned table, followed by the measured
/// per-iteration period of each `(policy, ns)` in `measured`, fastest
/// first.
pub fn render_table(rows: &[PolicyEstimate], measured: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("rank  policy  model ms/iter  model it/s  note\n");
    for (i, row) in rows.iter().enumerate() {
        let (period, rate) = match (row.period_ns, row.iters_per_sec()) {
            (Some(p), Some(r)) => (format!("{:.3}", p / 1e6), format!("{r:.1}")),
            _ => ("unpriced".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:>4}  {:<6}  {period:>13}  {rate:>10}  {}\n",
            i + 1,
            row.policy,
            row.note
        ));
    }
    if !measured.is_empty() {
        out.push_str("\nmeasured (median over the run's events):\n");
        out.push_str("policy  ms/iter\n");
        let mut sorted: Vec<&(String, f64)> = measured.iter().collect();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (policy, period_ns) in sorted {
            out.push_str(&format!("{policy:<6}  {:>7.3}\n", period_ns / 1e6));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CartPole workload the last DP-A profile artifact described
    /// (2 actors, 128 steps per iteration, 10 ms link): its rollout and
    /// learn medians, planned for `actors`, `latency` and `epochs`.
    fn cartpole(actors: usize, latency: Duration, epochs: usize) -> CostModelInputs {
        CostModelInputs {
            rollout_ns: 634_148.0,
            learn_ns: 581_531.0,
            actors,
            epochs,
            steps_per_iter: Some(128),
            latency,
        }
    }

    #[test]
    fn advisor_ranks_dp_a_ahead_of_dp_c_for_rollout_heavy_cartpole() {
        let rows = rank_policies(&cartpole(2, Duration::from_millis(10), 1));
        let pos = |name: &str| rows.iter().position(|r| r.policy == name).unwrap();
        // DP-A hides the rollout behind the 10 ms link and pays the
        // learn once: 10 + 0.58 = 10.58 ms.
        assert_eq!((rows[0].policy, rows[0].period_ns), ("dp_a", Some(10_581_531.0)), "{rows:?}");
        // DP-C and DP-D pay the rollout, half the learn and one link
        // each: 0.63 + 0.29 + 10 = 10.92 ms.
        for (rank, policy) in [(1, "dp_c"), (2, "dp_d")] {
            assert_eq!((rows[rank].policy, rows[rank].period_ns), (policy, Some(10_924_913.5)));
        }
        // The per-step policies pay 2·128 links per iteration.
        assert!(pos("dp_b") > pos("dp_c") && pos("dp_e") > pos("dp_c"), "{rows:?}");
    }

    #[test]
    fn zero_latency_ranking_is_compute_dominated() {
        let rows = rank_policies(&cartpole(4, Duration::ZERO, 4));
        // With a free network, every period collapses to compute terms
        // and nothing should be latency-dominated.
        assert!(rows.iter().all(|r| r.period_ns.is_some_and(|p| p < 1e8)), "{rows:?}");
        let table = render_table(&rows, &[("dp_a".to_string(), 10_581_531.0)]);
        assert!(table.contains("rank") && table.contains("dp_a"));
        assert!(table.contains("dp_a     10.582"), "the measured period is listed: {table}");
    }

    /// Builds a real attributed run event: `actors` actor fragments
    /// rolling out for `r_ns` and one learner learning for `l_ns`,
    /// attributed by the engine and round-tripped through the stream's
    /// serialise/parse pair.
    fn event(iter: u64, actors: u64, r_ns: u64, l_ns: u64) -> RunEvent {
        use msrl_telemetry as tel;
        let mut stamps = Vec::new();
        for id in 0..actors {
            stamps.push(tel::StepStamp {
                role: "actor",
                fragment: id,
                class: tel::StepClass::Rollout,
                start_ns: 0,
                end_ns: r_ns,
            });
        }
        stamps.push(tel::StepStamp {
            role: "learner",
            fragment: 0,
            class: tel::StepClass::Learn,
            start_ns: 0,
            end_ns: l_ns,
        });
        let wall = r_ns.max(l_ns) + 1;
        let ev = RunEvent {
            run: 1,
            policy: "dp_a".into(),
            iteration: iter,
            reward: 1.0,
            loss: None,
            entropy: None,
            iters_per_sec: 10.0,
            comm_bytes: 0,
            staleness: 0,
            attr: Some(tel::attribute(&stamps, 0, wall)),
            health: None,
        };
        RunEvent::parse(&ev.to_json_line()).expect("the stream reads back what it writes")
    }

    #[test]
    fn live_advisor_reads_workload_terms_from_the_event() {
        // 20 ms rollout on each of three actors, 0.3 ms learn: the model
        // sees the slowest actor's rollout, the summed learn and p = 3.
        let mut adv = LiveAdvisor::new(LiveAdvisorConfig::default());
        let rec = adv.observe(&event(3, 3, 20_000_000, 300_000)).expect("first event recommends");
        let inputs = adv.inputs();
        assert_eq!(inputs.rollout_ns, 20_000_000.0, "slowest actor's rollout");
        assert_eq!(inputs.learn_ns, 300_000.0, "summed learn compute");
        assert_eq!(inputs.actors, 3);
        assert_eq!(rec.bottleneck, "rollout");
        // No step count in the stream: the per-step policies go unpriced,
        // ranked after every priced one.
        assert_eq!(inputs.steps_per_iter, None);
        let rows = rank_policies(&inputs);
        let unpriced: Vec<&str> =
            rows.iter().filter(|r| r.period_ns.is_none()).map(|r| r.policy).collect();
        assert_eq!(unpriced, ["dp_b", "dp_e"]);
        assert!(rows[4..].iter().all(|r| r.period_ns.is_none()), "{rows:?}");
        let table = render_table(&rows, &[]);
        assert!(table.lines().any(|l| l.contains("dp_b") && l.contains("unpriced")), "{table}");
        // Events without an attribution are passed over, not counted.
        let bare = RunEvent { attr: None, ..event(4, 3, 1, 1) };
        assert!(adv.observe(&bare).is_none());
        assert_eq!(adv.events(), 1);
    }

    #[test]
    fn live_advisor_flips_dp_a_to_dp_c_when_bottleneck_shifts() {
        let mut adv = LiveAdvisor::new(LiveAdvisorConfig::default());
        let mut recs = Vec::new();
        // Rollout-bound regime: 20 ms rollout, 0.3 ms learn. At 10 ms
        // latency DP-A's single batched exchange wins.
        for i in 0..6 {
            if let Some(r) = adv.observe(&event(i, 3, 20_000_000, 300_000)) {
                recs.push(r);
            }
        }
        assert_eq!(recs.len(), 1, "one initial recommendation: {recs:?}");
        assert_eq!(recs[0].policy, "dp_a");
        assert_eq!(recs[0].previous, None);
        // The workload turns learn-bound mid-stream: 5 ms rollout, 90 ms
        // learn. Data-parallel DP-C now wins decisively; the flip lands
        // after the hysteresis window (3 confirming events), not on the
        // first shifted sample.
        for i in 6..12 {
            if let Some(r) = adv.observe(&event(i, 3, 5_000_000, 90_000_000)) {
                recs.push(r);
            }
        }
        assert_eq!(recs.len(), 2, "exactly one flip: {recs:?}");
        assert_eq!(recs[1].policy, "dp_c");
        assert_eq!(recs[1].previous, Some("dp_a"));
        assert!(recs[1].events >= 6 + 3, "flip respects the confirmation window");
        assert_eq!(adv.current(), Some("dp_c"));
    }

    #[test]
    fn live_advisor_is_stable_under_noise_below_hysteresis() {
        // Workload pinned near the DP-A/DP-C break-even point
        // (l = 1.5e7 at 10 ms, p = 3: both periods are 3.5e7), with
        // alpha = 1 so every sample's jitter hits the model unsmoothed.
        // The ±4% learn jitter lets DP-C win some events, but never by
        // the 10% margin — the recommendation must not flip.
        let cfg = LiveAdvisorConfig { alpha: 1.0, ..LiveAdvisorConfig::default() };
        let mut adv = LiveAdvisor::new(cfg);
        let mut recs = Vec::new();
        for i in 0..20u64 {
            let l = if i % 2 == 0 { 14_500_000 } else { 15_500_000 };
            if let Some(r) = adv.observe(&event(i, 3, 20_000_000, l)) {
                recs.push(r);
            }
        }
        assert_eq!(recs.len(), 1, "only the initial recommendation: {recs:?}");
        assert_eq!(adv.current(), Some("dp_a"), "noise below hysteresis never flips");
    }

    #[test]
    fn live_advisor_agrees_with_committed_profile_ranking() {
        // Folding the CartPole profile's workload terms into the live
        // path must reproduce the offline ranking: DP-A beats DP-C on
        // rollout-heavy CartPole at the profiled 10 ms latency.
        let sample = event(0, 2, 634_148, 581_531);
        let mut adv = LiveAdvisor::new(LiveAdvisorConfig::default());
        let rec = adv.observe(&sample).expect("first sample recommends");
        assert_eq!(rec.policy, "dp_a");
        assert_eq!(rec.period_ns, 10_581_531.0);
    }
}
