//! Critical-path attribution: where each training iteration's time goes.
//!
//! MSRL's central claim is that the right distribution policy depends on
//! *which* stage bounds an iteration — rollout, learn, or communication.
//! This module makes that observable on every run, without `MSRL_TRACE`:
//! phase executions, collective waits and interpreter evaluations open
//! *classed* spans (`span!("phase.learn", class: Learn)`), whose records
//! each thread's lane keeps for this reader (see [`crate::recorder`]), and
//! at each iteration boundary the driver's observer calls
//! [`finish_iteration`], which takes the classed records and computes
//!
//! * a per-fragment time breakdown — rollout / learn / comm-blocked /
//!   interpreter compute / scheduler idle / straggler slack — whose
//!   components sum to the iteration wall time by construction,
//! * per-fragment straggler flags (busy time above twice the median of
//!   the fragment's role peers),
//! * the critical path through the iteration's step-dependency DAG
//!   ([`StepDag`]): intra-fragment program order plus cross-fragment
//!   edges at collective (comm) rounds, longest path in O(nodes+edges).
//!
//! A lane keeps at most [`STEP_CAPACITY`] classed records between
//! boundaries; overflow drops the oldest and counts `attr.dropped`
//! (in every flight-recorder dump). The iteration
//! pass is timed by the always-on `attr.finish_iteration` histogram and
//! held inside `bench_report`'s <5% bound.
//!
//! The attribution rides the run-metrics stream: each `RunEvent`'s
//! `attr` block carries one [`IterAttribution`] per iteration, consumed
//! live by `msrl-bench`'s `top` view and the advisor's live
//! re-partition recommendations.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Classed records a lane keeps between iteration boundaries.
pub const STEP_CAPACITY: usize = 4096;

/// The [`IterAttribution::bottleneck`] labels, in tie-break order.
pub(crate) const BOTTLENECKS: [&str; 4] = ["rollout", "learn", "comm", "idle"];

/// A fragment is a straggler when its busy time exceeds this multiple of
/// its role peers' median.
const STRAGGLER_K: f64 = 2.0;

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
    /// for straggler detection.
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

/// Declares the fragment the calling thread hosts; its lane's classed
/// records (comm waits deep in the fabric included) attach to it.
/// Drivers call this once at each fragment thread's entry.
pub fn set_fragment(role: &'static str, fragment: u64) {
    crate::recorder::with_lane(|lane| lane.lock().fragment = Some((role, fragment)));
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

static WINDOW_START: AtomicU64 = AtomicU64::new(0);

/// Opens a fresh iteration window at "now", dropping the classed
/// records that closed before it (the next [`finish_iteration`] would
/// clip them away). Drivers' observers call it once at run start, so it
/// also drops the lanes of exited threads that hold nothing unread.
pub fn reset_window() {
    let start = crate::recorder::now_ns();
    WINDOW_START.store(start, Ordering::Relaxed);
    crate::recorder::prune(start);
    // Registered at 0, so every dump shows the count.
    dropped();
}

/// Closes the current iteration window: takes every lane's classed
/// records that closed by now, attributes the window
/// `[last boundary, now)`, and opens the next window at "now". Returns
/// the iteration's attribution.
pub fn finish_iteration() -> IterAttribution {
    let end = crate::recorder::now_ns();
    let start = WINDOW_START.swap(end, Ordering::Relaxed).min(end);
    let mut stamps = Vec::new();
    crate::recorder::for_each_lane(|lane| {
        let mut s = lane.lock();
        let (role, fragment) = s.fragment.unwrap_or(("thread", lane.tid));
        // A lane closes records in time order, so the ones that closed
        // after the boundary (for the next window) are a suffix.
        while let Some(span) = s.classed.front().filter(|span| span.end_ns <= Some(end)).copied() {
            s.classed.pop_front();
            if let (Some(class), Some(end_ns)) = (span.class, span.end_ns) {
                let start_ns = span.start_ns;
                stamps.push(StepStamp { role, fragment, class, start_ns, end_ns });
            }
        }
    });
    attribute(&stamps, start, end, STRAGGLER_K)
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
    /// Busy time exceeds `k ×` the median of the role peers.
    pub straggler: bool,
    /// The fragment owns at least one critical-path node.
    pub critical: bool,
}

/// One training iteration's attribution: per-fragment breakdowns, the
/// critical path, and window-level means whose components also sum to
/// `wall_ns` (up to integer rounding — each is the mean of per-fragment
/// components that sum exactly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterAttribution {
    /// Iteration window length.
    pub wall_ns: u64,
    /// Longest path through the step-dependency DAG, clamped to
    /// `wall_ns` (see `cp_clamped`).
    pub critical_path_ns: u64,
    /// Whether the DAG's longest path exceeded the iteration wall and
    /// was clamped. BSP collectives serialise every member's compute
    /// *and* comm into the dependency chain, so rounds that really
    /// overlapped can over-serialise the path past wall time — an
    /// honest flag beats an impossible number.
    pub cp_clamped: bool,
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
    /// Mean straggler slack across fragments.
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

/// One node of a step-dependency DAG: a duration plus the indices of the
/// nodes that must finish before it starts.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Node execution time.
    pub dur_ns: u64,
    /// Indices of predecessor nodes.
    pub deps: Vec<usize>,
}

/// An explicit step-dependency DAG; [`StepDag::critical_path`] is the
/// longest-duration chain through it.
#[derive(Debug, Clone, Default)]
pub struct StepDag {
    /// The DAG's nodes; edges live in each node's `deps`.
    pub nodes: Vec<DagNode>,
}

/// The longest path through a [`StepDag`].
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Total duration along the path.
    pub len_ns: u64,
    /// Node indices on the path, in execution order.
    pub path: Vec<usize>,
}

impl StepDag {
    /// Longest path by dynamic programming over a Kahn topological
    /// order — O(nodes + edges). Nodes on cycles (which the engine never
    /// produces) are ignored rather than looping.
    pub fn critical_path(&self) -> CriticalPath {
        let n = self.nodes.len();
        if n == 0 {
            return CriticalPath::default();
        }
        let mut indegree = vec![0usize; n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &d in &node.deps {
                if d < n && d != i {
                    indegree[i] += 1;
                    out_edges[d].push(i);
                }
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut finish = vec![0u64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        while let Some(i) = queue.pop_front() {
            let mut best = 0u64;
            for &d in &self.nodes[i].deps {
                if d < n && d != i && finish[d] >= best {
                    best = finish[d];
                    pred[i] = Some(d);
                }
            }
            finish[i] = best + self.nodes[i].dur_ns;
            for &next in &out_edges[i] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push_back(next);
                }
            }
        }
        let Some(end) = (0..n).max_by_key(|&i| finish[i]) else {
            return CriticalPath::default();
        };
        let mut path = Vec::new();
        let mut cur = Some(end);
        while let Some(i) = cur {
            path.push(i);
            cur = pred[i];
        }
        path.reverse();
        CriticalPath { len_ns: finish[end], path }
    }
}

/// A contiguous single-class run of one fragment's timeline, produced by
/// the priority sweep.
#[derive(Debug, Clone, Copy)]
struct Segment {
    class: StepClass,
    start_ns: u64,
    end_ns: u64,
}

/// Sweeps one fragment's (clipped) stamps into non-overlapping
/// single-class segments: at each instant the highest-priority active
/// class wins, so nested comm waits carve time out of their phase and
/// nested interpreter evals add nothing.
fn sweep_segments(stamps: &[&StepStamp], window: (u64, u64)) -> Vec<Segment> {
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
    if events.is_empty() {
        return Vec::new();
    }
    events.sort_by_key(|&(t, delta, _)| (t, delta));
    let mut active = [0i64; 4]; // indexed by priority
    let mut segments: Vec<Segment> = Vec::new();
    let mut prev_t = events[0].0;
    for (t, delta, class) in events {
        if t > prev_t {
            // Emit the elementary interval [prev_t, t) under the
            // highest active class, merging with the previous segment
            // when contiguous and same-class.
            if let Some(p) = (0..4).rev().find(|&p| active[p] > 0) {
                let class = match p {
                    3 => StepClass::Comm,
                    2 => StepClass::Learn,
                    1 => StepClass::Rollout,
                    _ => StepClass::Eval,
                };
                match segments.last_mut() {
                    Some(last) if last.end_ns == prev_t && last.class == class => {
                        last.end_ns = t;
                    }
                    _ => segments.push(Segment { class, start_ns: prev_t, end_ns: t }),
                }
            }
            prev_t = t;
        }
        active[class.priority() as usize] += i64::from(delta);
    }
    segments
}

/// Builds the iteration's step-dependency DAG from per-fragment segment
/// timelines: intra-fragment program order, plus cross-fragment edges at
/// collective rounds (each fragment's k-th comm segment depends on every
/// peer's last pre-round-k node — the BSP structure of the drivers).
/// Returns the DAG and each node's owning fragment index.
fn build_dag(timelines: &[Vec<Segment>]) -> (StepDag, Vec<usize>) {
    let mut dag = StepDag::default();
    let mut owner = Vec::new();
    // node id of (fragment, segment) and comm-round indices.
    let mut node_of: Vec<Vec<usize>> = Vec::with_capacity(timelines.len());
    let mut comm_rounds: Vec<Vec<usize>> = Vec::with_capacity(timelines.len()); // seg idx per round
    for (f, segs) in timelines.iter().enumerate() {
        let mut ids = Vec::with_capacity(segs.len());
        let mut rounds = Vec::new();
        for (k, seg) in segs.iter().enumerate() {
            let id = dag.nodes.len();
            let deps = if k > 0 { vec![ids[k - 1]] } else { Vec::new() };
            dag.nodes.push(DagNode { dur_ns: seg.end_ns - seg.start_ns, deps });
            ids.push(id);
            owner.push(f);
            if seg.class == StepClass::Comm {
                rounds.push(k);
            }
        }
        node_of.push(ids);
        comm_rounds.push(rounds);
    }
    let max_rounds = comm_rounds.iter().map(|r| r.len()).max().unwrap_or(0);
    for round in 0..max_rounds {
        for f in 0..timelines.len() {
            let Some(&comm_seg) = comm_rounds[f].get(round) else { continue };
            let comm_node = node_of[f][comm_seg];
            for (g, g_rounds) in comm_rounds.iter().enumerate() {
                if g == f {
                    continue;
                }
                let Some(&g_comm_seg) = g_rounds.get(round) else { continue };
                // The peer's last node before its own round-`round`
                // collective must finish before this collective can.
                if g_comm_seg > 0 {
                    dag.nodes[comm_node].deps.push(node_of[g][g_comm_seg - 1]);
                }
            }
        }
    }
    (dag, owner)
}

/// Pure attribution over a set of stamps and a window — the function
/// [`finish_iteration`] applies to the drained buffers, exposed for
/// property tests. Components of every returned [`FragmentAttr`] sum to
/// the window length exactly.
pub fn attribute(stamps: &[StepStamp], start_ns: u64, end_ns: u64, k: f64) -> IterAttribution {
    let wall = end_ns.saturating_sub(start_ns);
    let mut attr = IterAttribution { wall_ns: wall, bottleneck: "idle", ..Default::default() };
    if wall == 0 {
        return attr;
    }
    // Group stamps by fragment, deterministically ordered.
    let mut by_frag: std::collections::BTreeMap<(&str, u64), Vec<&StepStamp>> =
        std::collections::BTreeMap::new();
    for s in stamps {
        if s.end_ns > start_ns && s.start_ns < end_ns {
            by_frag.entry((s.role, s.fragment)).or_default().push(s);
        }
    }
    let mut timelines = Vec::with_capacity(by_frag.len());
    for ((role, fragment), stamps) in &by_frag {
        let segs = sweep_segments(stamps, (start_ns, end_ns));
        let mut row = FragmentAttr {
            role: (*role).to_string(),
            id: *fragment,
            wall_ns: wall,
            ..Default::default()
        };
        for seg in &segs {
            let d = seg.end_ns - seg.start_ns;
            match seg.class {
                StepClass::Rollout => row.rollout_ns += d,
                StepClass::Learn => row.learn_ns += d,
                StepClass::Comm => row.comm_ns += d,
                StepClass::Eval => row.eval_ns += d,
            }
        }
        row.busy_ns = row.rollout_ns + row.learn_ns + row.comm_ns + row.eval_ns;
        row.idle_ns = wall - row.busy_ns.min(wall);
        attr.fragments.push(row);
        timelines.push(segs);
    }
    // Straggler flags and slack against the role peer group.
    let roles: Vec<String> = attr.fragments.iter().map(|f| f.role.clone()).collect();
    for role in roles.iter().collect::<std::collections::BTreeSet<_>>() {
        let mut busy: Vec<u64> =
            attr.fragments.iter().filter(|f| f.role == **role).map(|f| f.busy_ns).collect();
        if busy.len() < 2 {
            continue;
        }
        busy.sort_unstable();
        let median = busy[busy.len() / 2];
        let max_busy = *busy.last().expect("non-empty");
        for f in attr.fragments.iter_mut().filter(|f| f.role == **role) {
            // Slack: the part of this fragment's idle spent waiting for
            // its slowest peer — carved out of idle so components still
            // sum to the wall time.
            f.slack_ns = max_busy.saturating_sub(f.busy_ns).min(f.idle_ns);
            f.idle_ns -= f.slack_ns;
            f.straggler = median > 0 && (f.busy_ns as f64) > k * median as f64;
        }
    }
    // Critical path over the step DAG.
    let (dag, owner) = build_dag(&timelines);
    let cp = dag.critical_path();
    attr.critical_path_ns = cp.len_ns;
    if attr.critical_path_ns > wall {
        attr.critical_path_ns = wall;
        attr.cp_clamped = true;
        crate::static_counter!("attr.cp_clamped").add(1);
    }
    for &node in &cp.path {
        attr.fragments[owner[node]].critical = true;
    }
    // Window-level means (components of an exact per-fragment identity,
    // so their sum matches the wall up to rounding).
    let n = attr.fragments.len() as u64;
    let mean = |total: u64| total.checked_div(n).unwrap_or(0);
    attr.rollout_ns = mean(attr.fragments.iter().map(|f| f.rollout_ns).sum());
    attr.learn_ns = mean(attr.fragments.iter().map(|f| f.learn_ns).sum());
    attr.comm_ns = mean(attr.fragments.iter().map(|f| f.comm_ns).sum());
    attr.eval_ns = mean(attr.fragments.iter().map(|f| f.eval_ns).sum());
    attr.idle_ns = mean(attr.fragments.iter().map(|f| f.idle_ns).sum());
    attr.slack_ns = mean(attr.fragments.iter().map(|f| f.slack_ns).sum());
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
        let attr = attribute(&stamps, 0, 100, 2.0);
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
        // peers' wait shows up as slack, not unexplained idle.
        let stamps = vec![
            stamp("actor", 0, StepClass::Rollout, 0, 100),
            stamp("actor", 1, StepClass::Rollout, 0, 110),
            stamp("actor", 2, StepClass::Rollout, 0, 500),
        ];
        let attr = attribute(&stamps, 0, 500, 2.0);
        let by_id = |id: u64| attr.fragments.iter().find(|f| f.id == id).unwrap();
        assert!(by_id(2).straggler, "5x median must flag");
        assert!(!by_id(0).straggler && !by_id(1).straggler);
        assert_eq!(by_id(0).slack_ns, 400, "fast peer waits for the straggler");
        assert_eq!(by_id(0).idle_ns, 0);
        for f in &attr.fragments {
            assert_eq!(
                f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns + f.idle_ns + f.slack_ns,
                f.wall_ns
            );
        }
    }

    #[test]
    fn critical_path_spans_collective_rounds() {
        // BSP round: both fragments compute then join one collective.
        // The critical path must route through the slower fragment's
        // compute: 80 (slow) + 20 (comm) = 100, not 30 + 20.
        let stamps = vec![
            stamp("actor", 0, StepClass::Rollout, 0, 30),
            stamp("actor", 0, StepClass::Comm, 30, 100),
            stamp("actor", 1, StepClass::Rollout, 0, 80),
            stamp("actor", 1, StepClass::Comm, 80, 100),
        ];
        let attr = attribute(&stamps, 0, 100, 2.0);
        // Fragment 0's comm node depends on fragment 1's rollout: the
        // longest chain is rollout(80) -> comm(70 or 20).
        assert!(
            attr.critical_path_ns >= 100,
            "critical path must include the slow peer: {}",
            attr.critical_path_ns
        );
        assert!(attr.fragments.iter().any(|f| f.id == 1 && f.critical));
        // The reported path never exceeds the iteration wall.
        assert!(attr.critical_path_ns <= attr.wall_ns);
    }

    #[test]
    fn over_serialised_bsp_path_is_clamped_and_flagged() {
        // Two fragments that genuinely overlap: each computes 60 and
        // comms 40 inside a 100 ns window. The BSP DAG serialises the
        // peer's compute before each comm node, so the raw longest path
        // (60 + 40 + …) exceeds the wall; the attribution must clamp it
        // to the wall and flag the clamp instead of reporting an
        // impossible number.
        let stamps = vec![
            stamp("actor", 0, StepClass::Rollout, 0, 60),
            stamp("actor", 0, StepClass::Comm, 60, 100),
            stamp("actor", 1, StepClass::Rollout, 0, 95),
            stamp("actor", 1, StepClass::Comm, 95, 100),
        ];
        let before = crate::counter_total("attr.cp_clamped");
        let attr = attribute(&stamps, 0, 100, 2.0);
        assert_eq!(attr.critical_path_ns, attr.wall_ns, "clamped to the wall");
        assert!(attr.cp_clamped, "clamp is flagged, not silent");
        assert!(crate::counter_total("attr.cp_clamped") > before);
        // A path that fits is left alone and unflagged.
        let fits = attribute(&[stamp("actor", 0, StepClass::Rollout, 0, 30)], 0, 100, 2.0);
        assert!(!fits.cp_clamped);
        assert_eq!(fits.critical_path_ns, 30);
    }

    #[test]
    fn dag_critical_path_diamond() {
        // 0 -> {1 (10), 2 (30)} -> 3: longest path 5 + 30 + 7.
        let dag = StepDag {
            nodes: vec![
                DagNode { dur_ns: 5, deps: vec![] },
                DagNode { dur_ns: 10, deps: vec![0] },
                DagNode { dur_ns: 30, deps: vec![0] },
                DagNode { dur_ns: 7, deps: vec![1, 2] },
            ],
        };
        let cp = dag.critical_path();
        assert_eq!(cp.len_ns, 42);
        assert_eq!(cp.path, vec![0, 2, 3]);
    }

    #[test]
    fn guard_records_into_window() {
        let _serial = crate::tests::serial();
        set_fragment("test_guard", 7);
        reset_window();
        {
            let _s = crate::span!("attribution.test.learn", class: Learn);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let attr = finish_iteration();
        let f = attr
            .fragments
            .iter()
            .find(|f| f.role == "test_guard" && f.id == 7)
            .expect("stamped fragment appears");
        assert!(f.learn_ns > 0, "guard must have stamped learn time: {f:?}");
        assert_eq!(
            f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns + f.idle_ns + f.slack_ns,
            f.wall_ns
        );
    }

    /// Overflowing one lane inside one window counts every classed record
    /// dropped unattributed.
    #[test]
    fn overflow_counts_attr_dropped() {
        let _serial = crate::tests::serial();
        reset_window();
        let before = crate::counter_total("attr.dropped");
        std::thread::spawn(|| {
            for _ in 0..STEP_CAPACITY + 100 {
                let _s = crate::span!("attribution.test.flood", class: Comm);
            }
        })
        .join()
        .expect("flood ran");
        assert!(crate::counter_total("attr.dropped") >= before + 100, "the overflow is counted");
        let _ = finish_iteration();
    }
}
