//! A conformance check for [`Environment`] implementations, shared by the
//! test suites of this crate and of the crates that define environments
//! of their own.
//!
//! An environment has one body per operation, the in-place
//! [`Environment::reset_into`] / [`Environment::step_into`]; the check
//! holds it to what the allocating wrappers return, bit for bit. Every
//! in-place call writes into a buffer pre-filled with NaN, so an element
//! a body leaves unwritten shows. A [`VecEnv`] of the environment — one
//! pooled buffer, rows written in place, finished instances reset into
//! their row — is held to the same loop spelled with the wrappers, on the
//! serial and on the threaded schedule.

use msrl_tensor::{par, Backend, Tensor};

use crate::spec::{Action, ActionSpec};
use crate::{Environment, VecEnv};

/// Runs the check on environments built by `make(instance)`: `steps`
/// steps of one instance, then of a [`VecEnv`] of `instances`. Pick a
/// horizon below `steps`, so auto-resets are exercised.
///
/// # Panics
///
/// Panics on the first value that differs.
#[doc(hidden)]
pub fn assert_in_place_matches_wrappers<E: Environment + 'static>(
    make: impl Fn(usize) -> E,
    instances: usize,
    steps: usize,
) {
    let (mut wrapped, mut in_place) = (make(0), make(0));
    let dim = wrapped.obs_dim();
    let mut obs = vec![f32::NAN; dim];
    in_place.reset_into(&mut obs);
    assert_bits(&obs, wrapped.reset().data(), "reset_into vs reset");
    let mut resets = 0;
    for t in 0..steps {
        let action = action(wrapped.action_spec(), t, 0);
        let s = wrapped.step(&action);
        obs.fill(f32::NAN);
        let (reward, done) = in_place.step_into(&action, &mut obs);
        assert_bits(&obs, s.obs.data(), &format!("step_into vs step, step {t}"));
        assert_eq!((reward.to_bits(), done), (s.reward.to_bits(), s.done), "step {t}");
        if done {
            obs.fill(f32::NAN);
            in_place.reset_into(&mut obs);
            assert_bits(&obs, wrapped.reset().data(), &format!("reset after step {t}"));
            resets += 1;
        }
    }
    assert!(resets > 0, "{steps} steps reached no episode end: pick a shorter horizon");

    let trace = || vec_env_trace(&make, instances, steps);
    let serial = par::with_backend(Backend::Scalar, trace);
    let threaded = par::with_backend(Backend::Threaded, || {
        par::with_threads(4, || par::with_par_min(1, trace))
    });
    let reference = wrapper_trace(&make, instances, steps);
    assert_eq!(serial, reference, "VecEnv (serial) vs the wrappers");
    assert_eq!(threaded, reference, "VecEnv (threaded) vs the wrappers");
}

/// Action `t` of instance `i`: every choice in turn, or a vector that
/// sweeps past the bounds so clamping is exercised.
fn action(spec: ActionSpec, t: usize, i: usize) -> Action {
    match spec {
        ActionSpec::Discrete { n } => Action::Discrete((t * 7 + i * 3) % n),
        ActionSpec::Continuous { dim, low, high } => {
            let reach = 1.25 * high.max(-low);
            let v = (0..dim).map(|j| ((t * dim + j + 5 * i) as f32 * 0.7).sin() * reach).collect();
            Action::Continuous(Tensor::from_vec(v, &[dim]).expect("one value per dimension"))
        }
    }
}

/// Bit patterns of every observation, reward and done of `steps` steps,
/// then the finished-episode returns.
type Trace = (Vec<u32>, Vec<u32>, Vec<bool>, Vec<u32>);

fn bits(values: &[f32]) -> impl Iterator<Item = u32> + '_ {
    values.iter().map(|v| v.to_bits())
}

fn assert_bits(got: &[f32], expect: &[f32], what: &str) {
    assert_eq!(bits(got).collect::<Vec<_>>(), bits(expect).collect::<Vec<_>>(), "{what}");
}

fn vec_env_trace<E: Environment + 'static>(
    make: &impl Fn(usize) -> E,
    instances: usize,
    steps: usize,
) -> Trace {
    let mut envs = VecEnv::from_fn(instances, make);
    let mut trace: Trace = (bits(envs.reset().data()).collect(), vec![], vec![], vec![]);
    for t in 0..steps {
        let actions: Vec<Action> =
            (0..instances).map(|i| action(envs.action_spec(), t, i)).collect();
        let s = envs.step(&actions);
        trace.0.extend(bits(s.obs.data()));
        trace.1.extend(bits(s.rewards.data()));
        trace.2.extend(s.dones);
    }
    trace.3 = bits(&envs.take_finished_returns()).collect();
    trace
}

/// [`vec_env_trace`] spelled with the allocating wrappers, one instance
/// at a time.
fn wrapper_trace<E: Environment>(
    make: &impl Fn(usize) -> E,
    instances: usize,
    steps: usize,
) -> Trace {
    let mut envs: Vec<E> = (0..instances).map(make).collect();
    let mut returns = vec![0.0f32; instances];
    let mut finished = Vec::new();
    let mut trace: Trace = (vec![], vec![], vec![], vec![]);
    for env in &mut envs {
        trace.0.extend(bits(env.reset().data()));
    }
    for t in 0..steps {
        for (i, (env, ret)) in envs.iter_mut().zip(&mut returns).enumerate() {
            let s = env.step(&action(env.action_spec(), t, i));
            *ret += s.reward;
            let obs = if s.done {
                finished.push(std::mem::take(ret));
                env.reset()
            } else {
                s.obs
            };
            trace.0.extend(bits(obs.data()));
            trace.1.push(s.reward.to_bits());
            trace.2.push(s.done);
        }
    }
    trace.3 = bits(&finished).collect();
    trace
}
