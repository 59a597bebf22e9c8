//! A Ray-like actor-model execution engine and its PPO/A3C drivers.
//!
//! Ray (Moritz et al., OSDI '18) executes algorithms as stateful
//! *actors* exchanging messages; RLlib layers centralised control on
//! top. This module provides the minimal equivalent: [`ActorHandle`]s
//! whose remote calls return [`Future`]s, backed by one thread and a
//! mailbox per actor — enough to express the rollout/learn driver loop
//! the paper compares against.
//!
//! The PPO driver keeps Ray's structural costs: each rollout actor steps
//! its environments **sequentially** and performs per-environment
//! (unbatched) policy inference on the CPU; async messaging always
//! stages payloads through host memory. Step counters expose those costs
//! to the benchmarks through [`msrl_telemetry`] scoped counters: each
//! actor keeps its private count (asserted in tests) while the same
//! increments feed the process-wide `baseline.env_steps` /
//! `baseline.infer_calls` totals that profiling reports read.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use msrl_telemetry::Counter;

use msrl_algos::buffer::step_batch;
use msrl_algos::ppo::{PpoConfig, PpoLearner, PpoPolicy};
use msrl_core::api::{Learner, SampleBatch};
use msrl_core::{FdgError, Result};
use msrl_env::{Action, Environment};
use msrl_tensor::Tensor;

/// A message processed by a Ray-like actor.
type Task<S> = Box<dyn FnOnce(&mut S) -> Vec<f32> + Send>;

/// A pending remote result.
pub struct Future {
    rx: Receiver<Vec<f32>>,
}

impl Future {
    /// Blocks until the remote call completes (`ray.get`).
    pub fn get(self) -> Vec<f32> {
        self.rx.recv().unwrap_or_default()
    }
}

/// A handle to a stateful remote actor (`ray.remote`).
pub struct ActorHandle<S: Send + 'static> {
    tx: Sender<Invocation<S>>,
    thread: Option<JoinHandle<()>>,
}

/// A queued method call: the task to run plus the reply channel.
type Invocation<S> = (Task<S>, Sender<Vec<f32>>);

impl<S: Send + 'static> ActorHandle<S> {
    /// Spawns an actor with the given initial state.
    pub fn spawn(mut state: S) -> Self {
        let (tx, rx): (Sender<Invocation<S>>, _) = channel();
        let thread = std::thread::spawn(move || {
            while let Ok((task, reply)) = rx.recv() {
                let out = task(&mut state);
                let _ = reply.send(out);
            }
        });
        ActorHandle { tx, thread: Some(thread) }
    }

    /// Invokes a method remotely; returns a future (`actor.method.remote()`).
    pub fn call<F>(&self, f: F) -> Future
    where
        F: FnOnce(&mut S) -> Vec<f32> + Send + 'static,
    {
        let (reply_tx, reply_rx) = channel();
        // A dropped receiver just means the actor exited; get() yields
        // empty, matching Ray's failed-task semantics in this harness.
        let _ = self.tx.send((Box::new(f), reply_tx));
        Future { rx: reply_rx }
    }
}

impl<S: Send + 'static> Drop for ActorHandle<S> {
    fn drop(&mut self) {
        // Close the mailbox, then join the worker.
        let (dummy_tx, _) = channel();
        drop(std::mem::replace(&mut self.tx, dummy_tx));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// State of one Ray-like rollout actor: a policy replica plus its
/// environment list.
pub struct RolloutActor {
    policy: PpoPolicy,
    envs: Vec<Box<dyn Environment>>,
    rng: rand::rngs::StdRng,
    /// Sequential environment steps executed (scoped to this actor, also
    /// feeding the global `baseline.env_steps` total).
    pub env_steps: Counter,
    /// Per-environment (unbatched) inference calls executed (scoped,
    /// also feeding `baseline.infer_calls`).
    pub infer_calls: Counter,
}

impl RolloutActor {
    /// Creates the actor state.
    pub fn new(policy: PpoPolicy, envs: Vec<Box<dyn Environment>>, seed: u64) -> Self {
        RolloutActor {
            policy,
            envs,
            rng: msrl_tensor::init::rng(seed),
            env_steps: Counter::scoped("baseline.env_steps"),
            infer_calls: Counter::scoped("baseline.infer_calls"),
        }
    }

    /// One rollout: steps every environment *sequentially*, with one
    /// (unbatched) inference per environment per step — the structure
    /// the paper measures against in Fig. 9a.
    pub fn sample(&mut self, steps: usize) -> Result<SampleBatch> {
        let mut per_env_batches = Vec::with_capacity(self.envs.len());
        for env in self.envs.iter_mut() {
            let obs_dim = env.obs_dim();
            let spec = env.action_spec();
            let mut obs = env.reset();
            let mut rows = Vec::with_capacity(steps);
            for _ in 0..steps {
                let row = obs.reshape(&[1, obs_dim]).map_err(FdgError::Tensor)?;
                // Unbatched inference on the CPU.
                let out = self.policy.act(&row, &mut self.rng)?;
                self.infer_calls.add(1);
                let action = if spec.is_discrete() {
                    Action::Discrete(out.actions.data()[0] as usize)
                } else {
                    Action::Continuous(
                        out.actions.reshape(&[spec.policy_width()]).map_err(FdgError::Tensor)?,
                    )
                };
                let step = env.step(&action);
                self.env_steps.add(1);
                let next = if step.done { env.reset() } else { step.obs.clone() };
                rows.push(step_batch(
                    row,
                    out.actions,
                    Tensor::from_vec(vec![step.reward], &[1]).map_err(FdgError::Tensor)?,
                    step.obs.reshape(&[1, obs_dim]).map_err(FdgError::Tensor)?,
                    vec![step.done],
                    out.log_probs,
                    out.values.expect("PPO policy has a critic"),
                ));
                obs = next;
            }
            let mut b = SampleBatch::concat(&rows)?;
            b.segment_len = steps;
            per_env_batches.push(b);
        }
        SampleBatch::concat(&per_env_batches)
    }

    /// Installs fresh weights.
    pub fn set_weights(&mut self, flat: &[f32]) -> Result<()> {
        self.policy.unflatten(flat)
    }
}

/// The outcome of a baseline training run.
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// Mean finished-episode reward per iteration (carried forward).
    pub iteration_rewards: Vec<f32>,
    /// Total sequential environment steps across all actors.
    pub env_steps: u64,
    /// Total unbatched inference calls across all actors.
    pub infer_calls: u64,
}

/// Runs Ray-like PPO: remote rollout actors, a driver-local learner.
///
/// # Errors
///
/// Propagates learner failures.
pub fn run_raylike_ppo<E, F>(
    make_env: F,
    actors: usize,
    envs_per_actor: usize,
    steps_per_iter: usize,
    iterations: usize,
    hidden: &[usize],
    seed: u64,
) -> Result<BaselineReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E,
{
    let probe = make_env(0, 0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let policy = if spec.is_discrete() {
        PpoPolicy::discrete(obs_dim, spec.policy_width(), hidden, seed)
    } else {
        PpoPolicy::continuous(obs_dim, spec.policy_width(), hidden, seed)
    };
    let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());

    let mut handles = Vec::new();
    let mut counters = Vec::new();
    for a in 0..actors.max(1) {
        let envs: Vec<Box<dyn Environment>> = (0..envs_per_actor.max(1))
            .map(|i| Box::new(make_env(a, i)) as Box<dyn Environment>)
            .collect();
        let state = RolloutActor::new(policy.clone(), envs, seed + 1 + a as u64);
        counters.push((state.env_steps.clone(), state.infer_calls.clone()));
        handles.push(ActorHandle::spawn(state));
    }

    let mut report = BaselineReport::default();
    for _ in 0..iterations {
        // Fan out remote sample() calls, then gather.
        let futures: Vec<Future> = handles
            .iter()
            .map(|h| {
                h.call(move |s: &mut RolloutActor| {
                    s.sample(steps_per_iter)
                        .map(|b| {
                            let reward_sum: f32 = b.rewards.data().iter().sum();
                            let mut wire = vec![reward_sum];
                            wire.extend(msrl_wire_encode(&b));
                            wire
                        })
                        .unwrap_or_default()
                })
            })
            .collect();
        let mut batches = Vec::new();
        let mut reward_sum = 0.0;
        for f in futures {
            let wire = f.get();
            if wire.is_empty() {
                continue;
            }
            reward_sum += wire[0];
            batches.push(msrl_wire_decode(&wire[1..])?);
        }
        let batch = SampleBatch::concat(&batches)?;
        learner.learn(&batch)?;
        let weights = learner.policy_params();
        let syncs: Vec<Future> = handles
            .iter()
            .map(|h| {
                let w = weights.clone();
                h.call(move |s: &mut RolloutActor| {
                    s.set_weights(&w).map(|_| vec![1.0]).unwrap_or_default()
                })
            })
            .collect();
        for s in syncs {
            s.get();
        }
        let total_steps = (actors * envs_per_actor * steps_per_iter).max(1);
        report.iteration_rewards.push(reward_sum / total_steps as f32);
    }
    report.env_steps = counters.iter().map(|(e, _)| e.get()).sum();
    report.infer_calls = counters.iter().map(|(_, i)| i.get()).sum();
    Ok(report)
}

// Minimal local wire helpers (mirrors msrl-runtime's codec; duplicated to
// keep the baseline crate independent of the MSRL runtime).
fn msrl_wire_encode(batch: &SampleBatch) -> Vec<f32> {
    let n = batch.len();
    let obs_w = batch.obs.len().checked_div(n).unwrap_or(0);
    let act_w = batch.actions.len().checked_div(n).unwrap_or(0);
    let mut out = vec![n as f32, obs_w as f32, act_w as f32, batch.segment_len as f32];
    out.extend_from_slice(batch.obs.data());
    out.extend_from_slice(batch.actions.data());
    out.extend_from_slice(batch.rewards.data());
    out.extend_from_slice(batch.next_obs.data());
    out.extend(batch.dones.iter().map(|&d| if d { 1.0 } else { 0.0 }));
    out.extend_from_slice(batch.log_probs.data());
    out.extend_from_slice(batch.values.data());
    out
}

fn msrl_wire_decode(wire: &[f32]) -> Result<SampleBatch> {
    let err = || FdgError::MissingKernel { op: "raylike wire decode".into() };
    if wire.len() < 4 {
        return Err(err());
    }
    let (n, obs_w, act_w, seg) =
        (wire[0] as usize, wire[1] as usize, wire[2] as usize, wire[3] as usize);
    if wire.len() != 4 + n * (2 * obs_w + act_w + 4) {
        return Err(err());
    }
    let mut at = 4;
    let mut take = |len: usize| {
        let s = wire[at..at + len].to_vec();
        at += len;
        s
    };
    Ok(SampleBatch {
        obs: Tensor::from_vec(take(n * obs_w), &[n, obs_w]).map_err(FdgError::Tensor)?,
        actions: if act_w == 1 {
            Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?
        } else {
            Tensor::from_vec(take(n * act_w), &[n, act_w]).map_err(FdgError::Tensor)?
        },
        rewards: Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?,
        next_obs: Tensor::from_vec(take(n * obs_w), &[n, obs_w]).map_err(FdgError::Tensor)?,
        dones: take(n).iter().map(|&d| d > 0.5).collect(),
        log_probs: Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?,
        values: Tensor::from_vec(take(n), &[n]).map_err(FdgError::Tensor)?,
        segment_len: seg,
    })
}

/// Counts the work the MSRL side does for the same rollout volume —
/// *batched* inference (one fused call per step) and parallel env
/// stepping — for the mechanism comparison of Fig. 9a.
pub fn msrl_equivalent_infer_calls(steps_per_iter: usize, iterations: usize) -> u64 {
    (steps_per_iter * iterations) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::cartpole::CartPole;

    #[test]
    fn actor_handle_executes_remote_calls() {
        let h = ActorHandle::spawn(10i64);
        let f = h.call(|s: &mut i64| {
            *s += 5;
            vec![*s as f32]
        });
        assert_eq!(f.get(), vec![15.0]);
        let f2 = h.call(|s: &mut i64| vec![*s as f32]);
        assert_eq!(f2.get(), vec![15.0], "state persists across calls");
    }

    #[test]
    fn rollout_actor_steps_sequentially() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 0);
        let envs: Vec<Box<dyn Environment>> =
            (0..3).map(|i| Box::new(CartPole::new(i)) as Box<dyn Environment>).collect();
        let mut actor = RolloutActor::new(policy, envs, 1);
        let batch = actor.sample(10).unwrap();
        assert_eq!(batch.len(), 30);
        // Sequential structure: 30 env steps AND 30 separate inference
        // calls (MSRL would do 10 fused calls).
        assert_eq!(actor.env_steps.get(), 30);
        assert_eq!(actor.infer_calls.get(), 30);
        assert_eq!(msrl_equivalent_infer_calls(10, 1), 10);
    }

    #[test]
    fn raylike_ppo_improves_cartpole() {
        let report =
            run_raylike_ppo(|a, i| CartPole::new((a * 11 + i) as u64), 2, 2, 48, 20, &[32], 3)
                .unwrap();
        assert_eq!(report.iteration_rewards.len(), 20);
        let early: f32 = report.iteration_rewards[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = report.iteration_rewards[15..].iter().sum::<f32>() / 5.0;
        assert!(late >= early, "Ray-like PPO should not regress: {early} → {late}");
        assert_eq!(report.env_steps, 2 * 2 * 48 * 20);
        assert_eq!(report.infer_calls, report.env_steps, "unbatched inference");
    }
}
