//! Acting and learning read one log-density: the log-probabilities a
//! `PpoAgent` stores while acting over a rollout are, bit for bit, the
//! ones its learner's policy-loss node recomputes on the first forward of
//! the next learn pass, and every ratio of that first epoch is exactly 1,
//! for the categorical and the Gaussian head.
//!
//! A process selects its lane family once, so the test runs the check in
//! one child process per family this host runs, each pinned to it
//! (`kernels::pin`) before any kernel runs.

use std::rc::Rc;

use msrl_algos::ppo::{PpoAgent, PpoConfig, PpoPolicy};
use msrl_algos::rollout::collect;
use msrl_core::api::Learner;
use msrl_env::cartpole::CartPole;
use msrl_env::halfcheetah::HalfCheetah;
use msrl_env::VecEnv;
use msrl_tensor::autograd::Tape;
use msrl_tensor::dist::{policy_loss, Head, Surrogate};
use msrl_tensor::{kernels, Tensor};

const CHILD_ENV: &str = "FIRST_EPOCH_RATIO_CHILD";

/// Reads, row by row, what the learner's node computes from the agent's
/// policy on the first forward over `batch_obs`: with the advantage one
/// at row `i` and zero elsewhere, and means over one row, the node's
/// surrogate is minus row `i`'s term: `log π` for the vanilla surrogate,
/// the ratio for PPO's (clipped or not, it is 1 only if the ratio is).
/// Each must match `stored`, the log-probabilities acting stored.
fn per_row(agent: &PpoAgent, batch_obs: &Tensor, actions: &Tensor, stored: &Rc<Tensor>) {
    let policy = &agent.learner().policy;
    let (mut actor, m) = (policy.actor.clone(), stored.len());
    let shared = actor.share();
    let tape = Tape::new();
    let out = shared.bind(&tape).forward(&tape.constant(batch_obs.clone())).expect("forward");
    let log_std = tape.var(policy.log_std.clone());
    let idx: Vec<usize> = actions.data().iter().map(|&a| a as usize).collect();
    let actions = Rc::new(actions.clone());
    let head = || {
        if policy.discrete {
            return Head::Categorical(&idx);
        }
        Head::Gaussian { log_std: &log_std, actions: Rc::clone(&actions) }
    };
    let what = if policy.discrete { "categorical" } else { "Gaussian" };
    let family = kernels::select();
    let mut differ = Vec::new();
    for i in 0..m {
        let adv =
            Rc::new(Tensor::from_vec((0..m).map(|j| f32::from(j == i)).collect(), &[m]).unwrap());
        let term = |surrogate| {
            -policy_loss(&out, head(), &adv, surrogate, &mut [None; 2]).expect("node").surrogate
        };
        let log_prob = term(Surrogate::Vanilla { entropy_coef: 0.0, rows: 1 });
        let clip = PpoConfig::default().clip;
        let ratio =
            term(Surrogate::Clipped { clip, old_log_probs: stored, entropy_coef: 0.0, rows: 1 });
        if log_prob.to_bits() != stored.data()[i].to_bits() || ratio != 1.0 {
            differ.push((i, stored.data()[i], log_prob, ratio));
        }
    }
    assert!(
        differ.is_empty(),
        "{what} head on {family:?}: {} of {m} rows (row, stored, learner, ratio): {:?}",
        differ.len(),
        &differ[..differ.len().min(4)]
    );
}

/// An agent acts over a rollout, learns on it once (so the Gaussian's
/// `log_std` leaves zero), and acts over a second one, whose stored
/// log-probabilities its learner must recompute exactly.
fn check(policy: PpoPolicy, mut envs: VecEnv) {
    let mut agent = PpoAgent::new(policy, PpoConfig::default(), 7);
    let first = collect(&mut agent, &mut envs, 17).expect("rollout");
    agent.learner_mut().learn(&first).map(drop).expect("learn");
    let batch = collect(&mut agent, &mut envs, 17).expect("rollout");
    per_row(&agent, &batch.obs, &batch.actions, &Rc::new(batch.log_probs.clone()));
}

/// The body of a child process, pinned to the family its variable names;
/// a no-op in an ordinary run.
#[test]
fn child() {
    let Some(family) = std::env::var_os(CHILD_ENV) else { return };
    let family = kernels::families().into_iter().find(|f| *format!("{f:?}") == *family);
    let family = family.expect("a family this host runs");
    assert!(kernels::pin(family), "{family:?}: a kernel ran before the pin");
    // 4 × 17 rows: whole lane blocks of every family and a ragged tail.
    check(PpoPolicy::discrete(4, 3, &[32, 32], 5), VecEnv::from_fn(4, |i| CartPole::new(i as u64)));
    let cheetah = |i: usize| HalfCheetah::new(10 + i as u64).with_horizon(40);
    check(PpoPolicy::continuous(17, 6, &[32, 32], 6), VecEnv::from_fn(4, cheetah));
}

#[test]
fn the_first_epoch_starts_at_ratio_one_on_every_lane_family() {
    for family in kernels::families() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "child", "--nocapture", "--test-threads=1"])
            .env(CHILD_ENV, format!("{family:?}"))
            .output()
            .expect("the test binary re-executes");
        assert!(
            out.status.success(),
            "{family:?}:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
