//! Per-fragment time budget: where each training iteration's time goes.
//!
//! MSRL's central claim is that the right distribution policy depends on
//! *which* stage bounds an iteration — rollout, learn, or communication.
//! This module makes that observable on every run, without `MSRL_TRACE`:
//! phase executions, collective waits and interpreter evaluations open
//! *classed* spans (`span!("phase.learn", class: Learn)`), whose records
//! the lane of a thread hosting a run's fragment ([`set_fragment`])
//! keeps for this reader (see `crate::recorder`). At each iteration
//! boundary the run's observer calls [`finish_iteration`], which takes
//! the classed records of that run's lanes alone and prices the window
//! per fragment: rollout / learn / comm-blocked / interpreter compute /
//! scheduler idle / slack (idle spent waiting for the busiest fragment
//! of the same role). A priority sweep over each fragment's records
//! assigns every instant to one class, so the components sum to the
//! iteration wall time by construction; their means across fragments
//! name the iteration's bottleneck.
//!
//! A lane keeps at most [`STEP_CAPACITY`] classed records between
//! boundaries; overflow drops the oldest and counts `attr.dropped`
//! (in every flight-recorder dump). The run's observer counts the
//! iteration pass's nanoseconds and calls (`attr.finish_iteration.ns`,
//! `attr.finish_iteration.calls`), whose mean `bench_report` holds
//! inside its <5% bound.
//!
//! The budget rides the run-metrics stream: each `RunEvent`'s `attr`
//! block carries one [`IterAttribution`] per iteration, consumed live by
//! `msrl-bench`'s `top` view and the advisor's live re-partition
//! recommendations.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Classed records a lane keeps between iteration boundaries.
pub const STEP_CAPACITY: usize = 4096;

/// The [`IterAttribution::bottleneck`] labels, in tie-break order.
pub(crate) const BOTTLENECKS: [&str; 4] = ["rollout", "learn", "comm", "idle"];

/// Classed records a lane dropped before they were attributed.
pub(crate) fn dropped() -> &'static crate::Counter {
    crate::static_counter!("attr.dropped")
}

/// What a stamped step was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Environment interaction / experience collection.
    Rollout,
    /// Gradient computation and weight updates.
    Learn,
    /// Blocked in a communication primitive (weight sync, collective
    /// wait). Nested comm stamps carve blocked time out of the phase
    /// that contains them.
    Comm,
    /// Interpreter fragment evaluation outside any driver phase
    /// (interpreter-driven workloads); nested under a phase it adds
    /// nothing — the sweep assigns each instant to one class.
    Eval,
}

impl StepClass {
    /// Priority when stamps overlap: an instant covered by several
    /// classes is attributed to the highest (comm wins over the phase
    /// that contains it; phases win over nested interpreter evals).
    fn priority(self) -> u8 {
        match self {
            StepClass::Comm => 3,
            StepClass::Learn => 2,
            StepClass::Rollout => 1,
            StepClass::Eval => 0,
        }
    }

    /// Stable name for streams and displays.
    pub fn name(self) -> &'static str {
        match self {
            StepClass::Rollout => "rollout",
            StepClass::Learn => "learn",
            StepClass::Comm => "comm",
            StepClass::Eval => "eval",
        }
    }
}

/// One stamped step: a fragment spent `[start_ns, end_ns)` in `class`.
#[derive(Debug, Clone)]
pub struct StepStamp {
    /// Fragment role (`"actor"`, `"learner"`, ...), the peer-group key
    /// for slack.
    pub role: &'static str,
    /// Fragment id within its role (driver rank).
    pub fragment: u64,
    /// What the step was doing.
    pub class: StepClass,
    /// Start, nanoseconds on the telemetry clock.
    pub start_ns: u64,
    /// End, nanoseconds on the telemetry clock.
    pub end_ns: u64,
}

/// A fresh run id: the process id in the high 32 bits (so runs that
/// several processes append to one stream keep apart), this process's
/// run count in the low. Never 0, the run of a line that names none.
pub fn next_run() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    dropped(); // Registered at 0, so every dump shows the count.
    u64::from(std::process::id()) << 32 | SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Declares the fragment the calling thread hosts in run `run`: its
/// classed records (comm waits deep in the fabric included) are that
/// run's until it closes. Drivers call this at each fragment's entry.
pub fn set_fragment(run: u64, role: &'static str, fragment: u64) {
    crate::recorder::with_lane(|lane| lane.lock().fragment = Some((run, role, fragment)));
}

/// Fragment threads computing right now, process-wide: entered for a
/// fragment's lifetime ([`enter_computing`]) and left for the length of
/// a blocking wait ([`pause_computing`]). `msrl_tensor::par` compares it
/// with the host's cores to decide whether a fork would take a core no
/// fragment is using. `Relaxed` throughout: a scheduling hint that
/// publishes no other data.
static COMPUTING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the calling thread is counted in [`COMPUTING`].
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts the calling thread as a computing fragment until the guard
/// drops. The fragment runner holds one for each fragment's lifetime; a
/// thread already counted is not counted twice.
pub fn enter_computing() -> ComputingGuard {
    let counted = !COUNTED.replace(true);
    if counted {
        COMPUTING.fetch_add(1, Ordering::Relaxed);
    }
    ComputingGuard { counted, _thread: std::marker::PhantomData }
}

/// The calling thread's place in the computing count; see
/// [`enter_computing`].
#[must_use = "bind the guard to a local so the thread stays counted"]
pub struct ComputingGuard {
    counted: bool,
    /// The count is per thread: the guard must drop where it was made.
    _thread: std::marker::PhantomData<*const ()>,
}

impl Drop for ComputingGuard {
    fn drop(&mut self) {
        if self.counted {
            COMPUTING.fetch_sub(1, Ordering::Relaxed);
            COUNTED.set(false);
        }
    }
}

/// Fragment threads counted as computing right now; 0 outside any
/// fragment.
pub fn computing_fragments() -> usize {
    COMPUTING.load(Ordering::Relaxed)
}

/// Takes the calling thread out of the computing count for a blocking
/// wait, if it is counted, and says whether it was. Whoever ends the
/// wait counts it back in with [`resume_computing`] — the waker on the
/// waiter's behalf at notify time, so a woken thread that has not been
/// scheduled yet still holds its core.
pub fn pause_computing() -> bool {
    let counted = COUNTED.get();
    if counted {
        COMPUTING.fetch_sub(1, Ordering::Relaxed);
    }
    counted
}

/// Counts `n` threads whose waits (see [`pause_computing`]) are ending
/// back in.
pub fn resume_computing(n: usize) {
    if n > 0 {
        COMPUTING.fetch_add(n, Ordering::Relaxed);
    }
}

/// Closes run `run`'s iteration window: takes the classed records that
/// closed by now on the run's lanes and attributes `[*window_start,
/// now)`, one row per fragment; the next window starts now.
pub fn finish_iteration(run: u64, window_start: &mut u64) -> IterAttribution {
    let end = crate::recorder::now_ns();
    let start = std::mem::replace(window_start, end);
    let (mut hosts, mut stamps) = (Vec::new(), Vec::new());
    crate::recorder::for_each_lane(|_, s| {
        let Some((_, role, fragment)) = s.fragment.filter(|&(r, _, _)| r == run) else { return };
        hosts.push((role, fragment));
        // A lane closes records in time order, so the ones that closed
        // after the boundary (for the next window) are a suffix.
        while let Some(span) = s.classed.front().filter(|span| span.end_ns <= Some(end)).copied() {
            s.classed.pop_front();
            if let (Some(class), Some(end_ns)) = (span.class, span.end_ns) {
                let start_ns = span.start_ns;
                stamps.push(StepStamp { role, fragment, class, start_ns, end_ns });
            }
        }
        // A classed span still open at the boundary ran until now: this
        // window holds its part so far, and the window it closes in clips
        // it to that window's start.
        for (_, span) in &s.open {
            if let Some(class) = span.class {
                let start_ns = span.start_ns;
                stamps.push(StepStamp { role, fragment, class, start_ns, end_ns: end });
            }
        }
    });
    price(&hosts, &stamps, start, end)
}

/// Per-fragment share of one iteration window. All `_ns` components sum
/// to `wall_ns` exactly: the sweep assigns every covered instant to one
/// class, `idle + slack` is the remainder.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FragmentAttr {
    /// Fragment role (peer-group key).
    pub role: String,
    /// Fragment id within its role.
    pub id: u64,
    /// Rollout compute inside the window.
    pub rollout_ns: u64,
    /// Learn compute inside the window (nested comm carved out).
    pub learn_ns: u64,
    /// Blocked in communication primitives.
    pub comm_ns: u64,
    /// Interpreter evaluation outside driver phases.
    pub eval_ns: u64,
    /// Unattributed scheduler idle (window minus everything else).
    pub idle_ns: u64,
    /// Idle attributable to waiting for the busiest role peer.
    pub slack_ns: u64,
    /// Total stamped (busy) time: rollout + learn + comm + eval.
    pub busy_ns: u64,
    /// The window length (same for every fragment of the iteration).
    pub wall_ns: u64,
}

/// One training iteration's attribution: per-fragment breakdowns and
/// window-level means whose components also sum to `wall_ns` (up to
/// integer rounding — each is the mean of per-fragment components that
/// sum exactly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterAttribution {
    /// Iteration window length.
    pub wall_ns: u64,
    /// Mean rollout compute across fragments.
    pub rollout_ns: u64,
    /// Mean learn compute across fragments.
    pub learn_ns: u64,
    /// Mean comm-blocked time across fragments.
    pub comm_ns: u64,
    /// Mean interpreter-eval compute across fragments.
    pub eval_ns: u64,
    /// Mean scheduler idle across fragments.
    pub idle_ns: u64,
    /// Mean slack (waiting for the busiest role peer) across fragments.
    pub slack_ns: u64,
    /// The dominant class: `"rollout"`, `"learn"`, `"comm"`, or
    /// `"idle"`.
    pub bottleneck: &'static str,
    /// Per-fragment rows, sorted by (role, id).
    pub fragments: Vec<FragmentAttr>,
}

impl IterAttribution {
    /// Sum of the window-level breakdown components (equals `wall_ns` up
    /// to per-component integer rounding).
    pub fn component_sum_ns(&self) -> u64 {
        self.rollout_ns + self.learn_ns + self.comm_ns + self.eval_ns + self.idle_ns + self.slack_ns
    }
}

/// Sweeps one fragment's stamps, clipped to `window`, into per-class
/// totals indexed by [`StepClass::priority`]: at each instant the
/// highest-priority active class wins, so nested comm waits carve time
/// out of their phase and nested interpreter evals add nothing.
fn sweep(stamps: &[&StepStamp], window: (u64, u64)) -> [u64; 4] {
    // Boundary events: +1/-1 per class, processed in time order.
    let mut events: Vec<(u64, i32, StepClass)> = Vec::with_capacity(stamps.len() * 2);
    for s in stamps {
        let lo = s.start_ns.clamp(window.0, window.1);
        let hi = s.end_ns.clamp(window.0, window.1);
        if hi > lo {
            events.push((lo, 1, s.class));
            events.push((hi, -1, s.class));
        }
    }
    events.sort_by_key(|&(t, delta, _)| (t, delta));
    let mut active = [0i64; 4]; // indexed by priority
    let mut totals = [0u64; 4];
    let mut prev_t = events.first().map_or(0, |&(t, _, _)| t);
    for (t, delta, class) in events {
        // The elementary interval [prev_t, t) goes to the highest
        // active class.
        if let Some(p) = (0..4).rev().find(|&p| active[p] > 0) {
            totals[p] += t - prev_t;
        }
        prev_t = t;
        active[class.priority() as usize] += i64::from(delta);
    }
    totals
}

/// Pure attribution over a set of stamps and a window — the function
/// [`finish_iteration`] applies to the taken records, exposed for
/// property tests. Components of every returned [`FragmentAttr`] sum to
/// the window length exactly.
pub fn attribute(stamps: &[StepStamp], start_ns: u64, end_ns: u64) -> IterAttribution {
    price(&[], stamps, start_ns, end_ns)
}

/// [`attribute`], with a row for each of `hosts` (an idle one if it ran
/// nothing classed in the window).
fn price(
    hosts: &[(&str, u64)],
    stamps: &[StepStamp],
    start_ns: u64,
    end_ns: u64,
) -> IterAttribution {
    let wall = end_ns.saturating_sub(start_ns);
    let mut attr = IterAttribution { wall_ns: wall, bottleneck: "idle", ..Default::default() };
    if wall == 0 {
        return attr;
    }
    // Group stamps by fragment, deterministically ordered.
    let mut by_frag: BTreeMap<(&str, u64), Vec<&StepStamp>> =
        hosts.iter().map(|&host| (host, Vec::new())).collect();
    for s in stamps {
        if s.end_ns > start_ns && s.start_ns < end_ns {
            by_frag.entry((s.role, s.fragment)).or_default().push(s);
        }
    }
    // The busiest fragment of each role: what its peers wait for.
    let mut busiest: BTreeMap<&str, u64> = BTreeMap::new();
    for (&(role, id), stamps) in &by_frag {
        let [eval_ns, rollout_ns, learn_ns, comm_ns] = sweep(stamps, (start_ns, end_ns));
        let busy_ns = rollout_ns + learn_ns + comm_ns + eval_ns;
        let peak = busiest.entry(role).or_default();
        *peak = (*peak).max(busy_ns);
        attr.fragments.push(FragmentAttr {
            role: role.to_string(),
            id,
            rollout_ns,
            learn_ns,
            comm_ns,
            eval_ns,
            idle_ns: wall - busy_ns.min(wall),
            slack_ns: 0,
            busy_ns,
            wall_ns: wall,
        });
    }
    for f in &mut attr.fragments {
        // Slack: the part of this fragment's idle spent waiting for its
        // busiest role peer — carved out of idle so components still
        // sum to the wall time.
        f.slack_ns = busiest[f.role.as_str()].saturating_sub(f.busy_ns).min(f.idle_ns);
        f.idle_ns -= f.slack_ns;
    }
    // Window-level means (components of an exact per-fragment identity,
    // so their sum matches the wall up to rounding).
    let n = attr.fragments.len() as u64;
    let mean = |part: fn(&FragmentAttr) -> u64| {
        attr.fragments.iter().map(part).sum::<u64>().checked_div(n).unwrap_or(0)
    };
    attr.rollout_ns = mean(|f| f.rollout_ns);
    attr.learn_ns = mean(|f| f.learn_ns);
    attr.comm_ns = mean(|f| f.comm_ns);
    attr.eval_ns = mean(|f| f.eval_ns);
    attr.idle_ns = mean(|f| f.idle_ns);
    attr.slack_ns = mean(|f| f.slack_ns);
    let classes = [attr.rollout_ns, attr.learn_ns, attr.comm_ns, attr.idle_ns + attr.slack_ns];
    attr.bottleneck = BOTTLENECKS
        .into_iter()
        .zip(classes)
        .max_by_key(|(_, v)| *v)
        .map_or("idle", |(name, _)| name);
    attr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(
        role: &'static str,
        fragment: u64,
        class: StepClass,
        start_ns: u64,
        end_ns: u64,
    ) -> StepStamp {
        StepStamp { role, fragment, class, start_ns, end_ns }
    }

    #[test]
    fn components_sum_to_wall_and_nested_comm_is_carved_out() {
        // One actor: rollout [0,40), learn [40,90) with a nested comm
        // wait [60,80), in a 100 ns window.
        let stamps = vec![
            stamp("actor", 0, StepClass::Rollout, 0, 40),
            stamp("actor", 0, StepClass::Learn, 40, 90),
            stamp("actor", 0, StepClass::Comm, 60, 80),
        ];
        let attr = attribute(&stamps, 0, 100);
        assert_eq!(attr.wall_ns, 100);
        let f = &attr.fragments[0];
        assert_eq!(f.rollout_ns, 40);
        assert_eq!(f.learn_ns, 30, "nested comm carves 20 ns out of learn");
        assert_eq!(f.comm_ns, 20);
        assert_eq!(f.idle_ns, 10);
        assert_eq!(
            f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns + f.idle_ns + f.slack_ns,
            f.wall_ns
        );
        assert_eq!(attr.component_sum_ns(), 100);
        assert_eq!(attr.bottleneck, "rollout");
    }

    #[test]
    fn straggler_and_slack_against_role_peers() {
        // Three actors; actor 2 is 5x slower than its peers. The fast
        // peers' wait shows up as slack, not unexplained idle; the
        // busiest peer and a fragment alone in its role wait for no one.
        let stamps = vec![
            stamp("actor", 0, StepClass::Rollout, 0, 100),
            stamp("actor", 1, StepClass::Rollout, 0, 110),
            stamp("actor", 2, StepClass::Rollout, 0, 500),
            stamp("learner", 0, StepClass::Learn, 0, 50),
        ];
        let attr = attribute(&stamps, 0, 500);
        let row = |role: &str, id: u64| {
            attr.fragments.iter().find(|f| f.role == role && f.id == id).unwrap()
        };
        assert_eq!(row("actor", 0).slack_ns, 400, "fast peer waits for the straggler");
        assert_eq!(row("actor", 0).idle_ns, 0);
        assert_eq!(row("actor", 1).slack_ns, 390);
        assert_eq!(row("actor", 2).slack_ns, 0, "the busiest peer waits for no one");
        assert_eq!((row("learner", 0).slack_ns, row("learner", 0).idle_ns), (0, 450));
        for f in &attr.fragments {
            assert_eq!(
                f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns + f.idle_ns + f.slack_ns,
                f.wall_ns
            );
        }
    }

    /// Opens a window for a fresh run whose fragment `role`/`id` the
    /// calling thread hosts.
    fn hosted(role: &'static str, id: u64) -> (u64, u64) {
        let run = next_run();
        set_fragment(run, role, id);
        (run, crate::now_ns())
    }

    #[test]
    fn guard_records_into_window() {
        let (run, mut window) = hosted("test_guard", 7);
        {
            let _s = crate::span!("attribution.test.learn", class: Learn);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let attr = finish_iteration(run, &mut window);
        crate::release_run(run);
        let [f] = attr.fragments.as_slice() else { panic!("the run's one fragment: {attr:?}") };
        assert_eq!((f.role.as_str(), f.id), ("test_guard", 7));
        assert!(f.learn_ns > 0, "guard must have stamped learn time: {f:?}");
        assert_eq!(
            f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns + f.idle_ns + f.slack_ns,
            f.wall_ns
        );
    }

    /// A classed span open across a boundary is priced in both windows:
    /// its part so far in the first, the rest in the window it closes in.
    #[test]
    fn an_open_span_splits_at_the_boundary() {
        let (run, mut window) = hosted("test_open", 3);
        let span = crate::span!("attribution.test.open", class: Rollout);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let first = finish_iteration(run, &mut window);
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(span);
        let second = finish_iteration(run, &mut window);
        crate::release_run(run);
        for attr in [&first, &second] {
            let [f] = attr.fragments.as_slice() else {
                panic!("the open span's fragment has a row in each window: {attr:?}")
            };
            assert_eq!((f.role.as_str(), f.id), ("test_open", 3));
            assert!(f.rollout_ns >= 2_000_000, "{f:?}");
            assert!(f.rollout_ns <= f.wall_ns, "no window holds more than its wall: {f:?}");
        }
    }

    /// Overflowing one lane inside one window counts every classed record
    /// dropped unattributed.
    #[test]
    fn overflow_counts_attr_dropped() {
        let (run, mut window) = (next_run(), crate::now_ns());
        let before = crate::counter_total("attr.dropped");
        std::thread::spawn(move || {
            set_fragment(run, "test_flood", 0);
            for _ in 0..STEP_CAPACITY + 100 {
                let _s = crate::span!("attribution.test.flood", class: Comm);
            }
        })
        .join()
        .expect("flood ran");
        assert!(crate::counter_total("attr.dropped") >= before + 100, "the overflow is counted");
        let _ = finish_iteration(run, &mut window);
        crate::release_run(run);
    }
}
