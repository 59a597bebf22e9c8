//! Property tests for the per-fragment time budget.
//!
//! Invariants of [`attribute`] under arbitrary inputs: every fragment's
//! components sum to the iteration wall time *exactly*, the window
//! means sum to the wall within per-component integer rounding, and a
//! fragment's slack is exactly the gap to its role's busiest fragment,
//! bounded by its idle time.

use msrl_telemetry::{attribute, StepClass, StepStamp};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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
    fn attribution_components_sum_to_wall(
        stamps in StampStrategy,
        window_start in 0u64..500,
        window_len in 1u64..2500,
    ) {
        let attr = attribute(&stamps, window_start, window_start + window_len);
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
        for f in &attr.fragments {
            let busiest = attr
                .fragments
                .iter()
                .filter(|g| g.role == f.role)
                .map(|g| g.busy_ns)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(
                f.slack_ns,
                (busiest - f.busy_ns).min(f.wall_ns - f.busy_ns),
                "fragment {}/{} slack is its gap to the busiest role peer", f.role.clone(), f.id
            );
        }
    }
}
