//! Policy advisor: ranks DP-A..DP-F for a profiled workload.
//!
//! Consumes the `TelemetryReport` JSON artifacts that `profile_report`
//! commits under `results/profile_*.json` and combines the measured
//! per-fragment costs with a simple analytic fragment/comm cost model to
//! predict the per-iteration period of each distribution policy at a
//! given actor count and link latency. The point is the paper's: the
//! best policy is workload- and network-dependent, and a profile of one
//! run is enough to choose the next one.
//!
//! ## Cost model
//!
//! With `r` the per-actor rollout compute (p50), `l` the whole-batch
//! learn compute per iteration (all epochs), `l1 = l / p` its per-actor
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
//! the measured per-iteration periods from the artifacts next to the
//! modelled ones so disagreement is visible.
//!
//! ## Live mode
//!
//! [`LiveAdvisor`] feeds the same cost model from the always-on
//! attribution stream instead of a post-hoc profile: it folds the `attr`
//! block of each [`RunEvent`], smooths the per-iteration rollout and
//! learn terms with the health watchdog's [`Ewma`], and re-ranks a
//! candidate set on every event. A recommendation is printed only when
//! the bottleneck shift persists through a [`Hysteresis`] window
//! (margin × consecutive confirmations), and it is advice only — the
//! advisor never re-plans the run itself.

use std::time::Duration;

use msrl_telemetry::{Ewma, Hysteresis, RunEvent};
use serde::{Deserialize, Value};

/// What the advisor extracts from one `profile_*.json` artifact.
#[derive(Debug, Clone)]
pub struct ProfileSummary {
    /// Artifact the summary came from (file name or label).
    pub source: String,
    /// Distribution policy inferred from the artifact name (e.g.
    /// `dp_a`), or `"unknown"`.
    pub policy: String,
    /// Actor-side fragment replicas (max count over `fragment.*` spans).
    pub actors: usize,
    /// Training iterations (rollout phases per actor).
    pub iterations: usize,
    /// p50 of one `phase.rollout` (per-actor rollout compute), ns.
    pub rollout_p50_ns: u64,
    /// p50 of one `phase.learn`, ns. Pure compute only when the profile
    /// has a dedicated learner fragment; under fused policies it
    /// includes the in-phase collective.
    pub learn_p50_ns: u64,
    /// Vectorised env steps per iteration per actor.
    pub steps_per_iter: u64,
    /// Measured wall-clock per iteration of the fragment that closes
    /// each iteration: the dedicated learner when the run has one
    /// (actor fragments also carry startup and the trailing drain of
    /// overlapped broadcasts), else the busiest fragment, ns.
    pub measured_period_ns: Option<u64>,
    /// Whether the run had a dedicated learner fragment
    /// (`fragment.learner`), making `learn_p50_ns` comm-free.
    pub has_dedicated_learner: bool,
}

fn span_stat(spans: &Value, name: &str, stat: &str) -> Option<u64> {
    let Value::Seq(items) = spans else { return None };
    for item in items {
        if let Ok(Value::Str(n)) = item.field("name") {
            if n == name {
                return item.field(stat).ok().and_then(|v| u64::from_value(v).ok());
            }
        }
    }
    None
}

/// Parses one profile artifact (`TelemetryReport::to_json` output).
///
/// # Errors
///
/// Returns a description of the first structural problem: not JSON, no
/// `spans` array, or no `phase.rollout`/`fragment.*` spans to size the
/// workload from.
pub fn parse_profile(json: &str, source: &str) -> Result<ProfileSummary, String> {
    let root = serde_json::value_from_str(json).map_err(|e| format!("{source}: {e}"))?;
    let spans = root.field("spans").map_err(|e| format!("{source}: {e}"))?;
    let Value::Seq(items) = spans else {
        return Err(format!("{source}: `spans` is not an array"));
    };

    // Actor count: the widest replicated fragment.
    let mut actors = 0u64;
    // The busiest fragment carries the run's critical path.
    let mut busiest: Option<(u64, u64)> = None; // (total_ns, count)
    for item in items {
        let Ok(Value::Str(name)) = item.field("name") else { continue };
        if !name.starts_with("fragment.") {
            continue;
        }
        let count = item.field("count").ok().and_then(|v| u64::from_value(v).ok()).unwrap_or(0);
        let total = item.field("total_ns").ok().and_then(|v| u64::from_value(v).ok()).unwrap_or(0);
        actors = actors.max(count);
        if busiest.is_none_or(|(t, _)| total > t) {
            busiest = Some((total, count.max(1)));
        }
    }
    if actors == 0 {
        return Err(format!("{source}: no fragment.* spans"));
    }

    let rollout_count = span_stat(spans, "phase.rollout", "count")
        .filter(|&c| c > 0)
        .ok_or_else(|| format!("{source}: no phase.rollout span"))?;
    let iterations = (rollout_count / actors).max(1);
    let rollout_p50_ns = span_stat(spans, "phase.rollout", "p50_ns").unwrap_or(0);
    let learn_p50_ns = span_stat(spans, "phase.learn", "p50_ns").unwrap_or(0);

    let env_steps = root
        .field("counters")
        .ok()
        .and_then(|c| c.field("env.steps").ok())
        .and_then(|v| u64::from_value(v).ok())
        .unwrap_or(0);
    let steps_per_iter = env_steps / (actors * iterations).max(1);

    let has_dedicated_learner = span_stat(spans, "fragment.learner", "count").is_some();
    let measured_period_ns = if has_dedicated_learner {
        span_stat(spans, "fragment.learner", "total_ns")
            .zip(span_stat(spans, "fragment.learner", "count"))
            .map(|(total, count)| total / count.max(1) / iterations)
    } else {
        busiest.map(|(total, count)| total / count / iterations)
    };

    let policy = source
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_prefix("profile_"))
        .map(|rest| rest.trim_end_matches(".json").split('_').take(2).collect::<Vec<_>>().join("_"))
        .unwrap_or_else(|| "unknown".to_string());

    Ok(ProfileSummary {
        source: source.to_string(),
        policy,
        actors: actors as usize,
        iterations: iterations as usize,
        rollout_p50_ns,
        learn_p50_ns,
        steps_per_iter,
        measured_period_ns,
        has_dedicated_learner,
    })
}

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
    /// Env steps per iteration `s` (drives the per-step policies).
    pub steps_per_iter: u64,
    /// One-way per-message link latency `L`.
    pub latency: Duration,
}

impl CostModelInputs {
    /// Builds model inputs from a profile, overriding the actor count
    /// and network parameters the caller wants to plan for.
    pub fn from_profile(
        profile: &ProfileSummary,
        actors: usize,
        latency: Duration,
        epochs: usize,
    ) -> CostModelInputs {
        CostModelInputs {
            rollout_ns: profile.rollout_p50_ns as f64,
            learn_ns: profile.learn_p50_ns as f64,
            actors: actors.max(1),
            epochs: epochs.max(1),
            steps_per_iter: profile.steps_per_iter.max(1),
            latency,
        }
    }
}

/// One row of the advisor's ranking.
#[derive(Debug, Clone)]
pub struct PolicyEstimate {
    /// Policy name (`dp_a`..`dp_f`).
    pub policy: &'static str,
    /// Modelled per-iteration period, ns.
    pub period_ns: f64,
    /// What dominates the period under this policy.
    pub note: &'static str,
}

impl PolicyEstimate {
    /// Modelled iteration throughput.
    pub fn iters_per_sec(&self) -> f64 {
        if self.period_ns > 0.0 {
            1e9 / self.period_ns
        } else {
            0.0
        }
    }
}

/// Ranks all six policies for the given inputs, fastest first.
pub fn rank_policies(inp: &CostModelInputs) -> Vec<PolicyEstimate> {
    let r = inp.rollout_ns;
    let l1 = inp.learn_ns / inp.actors as f64;
    let p = inp.actors as f64;
    let e = inp.epochs as f64;
    let s = inp.steps_per_iter as f64;
    let lat = inp.latency.as_nanos() as f64;
    let mut rows = vec![
        PolicyEstimate {
            policy: "dp_a",
            period_ns: r.max(lat) + p * l1,
            note: "batched exchange, broadcast overlapped with rollout",
        },
        PolicyEstimate {
            policy: "dp_b",
            period_ns: r + 2.0 * s * lat + p * l1,
            note: "per-step round trip to the learner",
        },
        PolicyEstimate {
            policy: "dp_c",
            period_ns: r + e * (l1 + lat),
            note: "per-epoch gradient AllReduce",
        },
        PolicyEstimate {
            policy: "dp_d",
            period_ns: r + e * l1 + lat,
            note: "fused on-device loop, one weight sync per episode",
        },
        PolicyEstimate {
            policy: "dp_e",
            period_ns: r + 2.0 * s * lat + e * l1 + lat,
            note: "env-worker message per step plus weight sync",
        },
        PolicyEstimate {
            policy: "dp_f",
            period_ns: r.max(2.0 * lat) + p * l1,
            note: "parameter-server push+pull, pulls overlapped",
        },
    ];
    rows.sort_by(|a, b| a.period_ns.total_cmp(&b.period_ns));
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
    pub fn inputs(&self) -> CostModelInputs {
        CostModelInputs {
            rollout_ns: self.rollout.value.unwrap_or(0.0),
            learn_ns: self.learn.value.unwrap_or(0.0),
            actors: self.actors,
            epochs: self.cfg.epochs,
            steps_per_iter: 1,
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
        let candidate = |name: &str| rows.iter().find(|r| r.policy == name).map(|r| r.period_ns);
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

/// Renders the ranking (and any measured periods) as an aligned table.
pub fn render_table(rows: &[PolicyEstimate], measured: &[ProfileSummary]) -> String {
    let mut out = String::new();
    out.push_str("rank  policy  model ms/iter  model it/s  note\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{:>4}  {:<6}  {:>13.3}  {:>10.1}  {}\n",
            i + 1,
            row.policy,
            row.period_ns / 1e6,
            row.iters_per_sec(),
            row.note
        ));
    }
    if !measured.is_empty() {
        out.push_str("\nmeasured (from profile artifacts):\n");
        out.push_str("policy  ms/iter  source\n");
        let mut sorted: Vec<&ProfileSummary> = measured.iter().collect();
        sorted.sort_by_key(|s| s.measured_period_ns.unwrap_or(u64::MAX));
        for s in sorted {
            if let Some(period) = s.measured_period_ns {
                out.push_str(&format!(
                    "{:<6}  {:>7.3}  {}\n",
                    s.policy,
                    period as f64 / 1e6,
                    s.source
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(name: &str) -> ProfileSummary {
        let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(&path).expect("committed profile artifact");
        parse_profile(&json, name).expect("parse committed profile")
    }

    #[test]
    fn advisor_ranks_dp_a_ahead_of_dp_c_for_rollout_heavy_cartpole() {
        let dp_a = load("profile_dp_a_overlap.json");
        let dp_c = load("profile_dp_c_overlap.json");
        assert!(dp_a.has_dedicated_learner, "DP-A profile separates learn from comm");
        assert!(dp_a.actors >= 2 && dp_a.iterations >= 2);

        // Model ranking at the profiled 10 ms link latency.
        let inputs =
            CostModelInputs::from_profile(&dp_a, dp_a.actors, Duration::from_millis(10), 1);
        let rows = rank_policies(&inputs);
        let pos = |name: &str| rows.iter().position(|r| r.policy == name).unwrap();
        assert!(pos("dp_a") < pos("dp_c"), "model must rank DP-A ahead of DP-C: {rows:?}");
        assert_eq!(rows[0].policy, "dp_a", "DP-A wins the rollout-heavy profile");
        // The per-step policies must be heavily penalised at 10 ms.
        assert!(pos("dp_b") > pos("dp_c") && pos("dp_e") > pos("dp_c"));

        // The artifacts agree: DP-A's measured period beats DP-C's.
        let (ma, mc) = (
            dp_a.measured_period_ns.expect("dp_a busiest fragment"),
            dp_c.measured_period_ns.expect("dp_c busiest fragment"),
        );
        assert!(ma < mc, "measured DP-A ({ma} ns/iter) must beat DP-C ({mc} ns/iter)");
        // And the model's absolute estimate is in the right regime
        // (latency-dominated ≈ 10–15 ms, not µs or seconds).
        let dpa_model = rows[pos("dp_a")].period_ns;
        assert!((5e6..5e7).contains(&dpa_model), "DP-A model period: {dpa_model}");
    }

    #[test]
    fn zero_latency_ranking_is_compute_dominated() {
        let dp_a = load("profile_dp_a_overlap.json");
        let inputs = CostModelInputs::from_profile(&dp_a, 4, Duration::ZERO, 4);
        let rows = rank_policies(&inputs);
        // With a free network, every period collapses to compute terms
        // and nothing should be latency-dominated.
        assert!(rows.iter().all(|r| r.period_ns < 1e8), "{rows:?}");
        let table = render_table(&rows, &[dp_a]);
        assert!(table.contains("rank") && table.contains("dp_a"));
    }

    #[test]
    fn parse_rejects_malformed_profiles() {
        assert!(parse_profile("not json", "x").is_err());
        assert!(parse_profile("{\"spans\": []}", "x").is_err());
        assert!(parse_profile("{\"spans\": 3}", "x").is_err());
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
            policy: "dp_a".into(),
            iteration: iter,
            reward: 1.0,
            loss: None,
            entropy: None,
            iters_per_sec: 10.0,
            comm_bytes: 0,
            staleness: 0,
            attr: Some(tel::attribute(&stamps, 0, wall, 2.0)),
            actsrv: None,
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
        // Folding the committed DP-A profile's workload terms into the
        // live path must reproduce the offline ranking: DP-A beats DP-C
        // on rollout-heavy CartPole at the profiled 10 ms latency.
        let dp_a = load("profile_dp_a_overlap.json");
        let sample = event(0, dp_a.actors as u64, dp_a.rollout_p50_ns, dp_a.learn_p50_ns);
        let mut adv = LiveAdvisor::new(LiveAdvisorConfig::default());
        let rec = adv.observe(&sample).expect("first sample recommends");
        assert_eq!(rec.policy, "dp_a");
    }
}
