//! Property tests for the critical-path attribution engine.
//!
//! Invariants under arbitrary inputs:
//!
//! * [`StepDag::critical_path`]: the path length is at least the longest
//!   single node, at most the sum of all nodes, equals the sum of the
//!   nodes on the returned path, and the path respects the dependency
//!   edges.
//! * [`attribute`]: every fragment's components sum to the iteration
//!   wall time *exactly*, the window means sum to the wall within
//!   per-component integer rounding, and the critical path dominates
//!   every single fragment's busy time.

use msrl_telemetry::{attribute, DagNode, StepClass, StepDag, StepStamp};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Random DAG where every node may only depend on lower-indexed nodes,
/// so acyclicity holds by construction. (The vendored proptest shim has
/// no tuple/`prop_map` combinators; a hand-rolled strategy is the
/// supported extension point.)
struct DagStrategy;

impl proptest::strategy::Strategy for DagStrategy {
    type Value = StepDag;
    fn new_value(&self, rng: &mut TestRng) -> StepDag {
        let n = 1 + rng.below(40) as usize;
        let nodes = (0..n)
            .map(|i| {
                let mut deps: Vec<usize> = (0..rng.below(4))
                    .filter(|_| i > 0)
                    .map(|_| rng.below(i as u64) as usize)
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                DagNode { dur_ns: rng.below(1_000_000), deps }
            })
            .collect();
        StepDag { nodes }
    }
}

const ROLES: [&str; 3] = ["actor", "learner", "env_worker"];
const CLASSES: [StepClass; 4] =
    [StepClass::Rollout, StepClass::Learn, StepClass::Comm, StepClass::Eval];

/// Random stamp sets: a handful of fragments across three roles, steps
/// of every class at arbitrary (overlapping, window-crossing) offsets.
struct StampStrategy;

impl proptest::strategy::Strategy for StampStrategy {
    type Value = Vec<StepStamp>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<StepStamp> {
        let n = rng.below(60) as usize;
        (0..n)
            .map(|_| {
                let start = rng.below(2000);
                StepStamp {
                    role: ROLES[rng.below(3) as usize],
                    fragment: rng.below(4),
                    class: CLASSES[rng.below(4) as usize],
                    start_ns: start,
                    end_ns: start + 1 + rng.below(499),
                }
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn critical_path_bounds_and_chain(dag in DagStrategy) {
        let cp = dag.critical_path();
        let max_node = dag.nodes.iter().map(|n| n.dur_ns).max().unwrap_or(0);
        let total: u64 = dag.nodes.iter().map(|n| n.dur_ns).sum();
        prop_assert!(cp.len_ns >= max_node, "path {} < longest node {max_node}", cp.len_ns);
        prop_assert!(cp.len_ns <= total, "path {} > sum of nodes {total}", cp.len_ns);
        let path_sum: u64 = cp.path.iter().map(|&i| dag.nodes[i].dur_ns).sum();
        prop_assert_eq!(path_sum, cp.len_ns, "path nodes must account for the whole length");
        for pair in cp.path.windows(2) {
            prop_assert!(
                dag.nodes[pair[1]].deps.contains(&pair[0]),
                "consecutive path nodes {} -> {} must be linked by a dependency",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn attribution_components_sum_to_wall(
        stamps in StampStrategy,
        window_start in 0u64..500,
        window_len in 1u64..2500,
        k in 1.0f64..8.0,
    ) {
        let attr = attribute(&stamps, window_start, window_start + window_len, k);
        prop_assert_eq!(attr.wall_ns, window_len);
        for f in &attr.fragments {
            let sum = f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns + f.idle_ns + f.slack_ns;
            prop_assert_eq!(
                sum, f.wall_ns,
                "fragment {}/{} components {sum} must equal wall {}", f.role.clone(), f.id, f.wall_ns
            );
            prop_assert_eq!(f.busy_ns, f.rollout_ns + f.learn_ns + f.comm_ns + f.eval_ns);
            prop_assert!(f.busy_ns <= f.wall_ns, "overlapping stamps must not double count");
        }
        // Window means: each of the six components is a floor-divided
        // mean of an exact identity, so the reassembled sum may round
        // down by at most one per component.
        let sum = attr.component_sum_ns();
        prop_assert!(sum <= attr.wall_ns || attr.fragments.is_empty());
        if !attr.fragments.is_empty() {
            prop_assert!(
                attr.wall_ns - sum <= 6,
                "means sum {sum} strays more than rounding from wall {}",
                attr.wall_ns
            );
        }
        let max_busy = attr.fragments.iter().map(|f| f.busy_ns).max().unwrap_or(0);
        prop_assert!(
            attr.critical_path_ns >= max_busy,
            "critical path {} < busiest fragment {max_busy}",
            attr.critical_path_ns
        );
    }
}
