//! Sequential replica: one fragment's iteration re-spelled on one thread
//! from the crates' public parts, at the workload's shapes, with a span
//! around every call into a layer.
//!
//! It serves two purposes. Its span self times are the layer budget (env
//! step, forward, sampling, buffer, learn, sync), measured from outside
//! the program; and it is the plain single-worker run of the same task,
//! the denominator of `runtime.speedup_vs_seq`.
//!
//! The in-iteration spans mirror what the workload's driver does and
//! nothing else. Calls the driver does not make on this workload (wire
//! encoding outside DP-A, `grads`/`apply_grads` outside DP-C, ...) are
//! timed afterwards under a separate `extras` root on the last batch, so
//! every layer metric exists on every workload without distorting the
//! sequential baseline.

use std::time::{Duration, Instant};

use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::gae;
use msrl_algos::ppo::{PackedPpo, PpoLearner, PpoPolicy};
use msrl_algos::rollout::decode_actions;
use msrl_core::api::{Learner, SampleBatch};
use msrl_env::batched::{BatchedCartPole, BatchedEnv};
use msrl_env::{Environment, VecEnv};
use msrl_runtime::wire::{decode_batch, encode_batch};
use msrl_tensor::{par, Backend, Tensor};

use crate::spans::{Recorder, Span};
use crate::workloads::{self, Driver, Workload};

/// How thoroughly the replica samples: iterations it runs at least, how
/// often each call of the `extras` root is repeated, and rounds of the
/// backend comparison.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub min_iterations: usize,
    pub extra_repeats: usize,
    pub backend_rounds: usize,
}

impl Effort {
    pub const FULL: Effort = Effort { min_iterations: 3, extra_repeats: 5, backend_rounds: 3 };
    pub const SMOKE: Effort = Effort { min_iterations: 1, extra_repeats: 1, backend_rounds: 1 };
}

pub struct Replica {
    pub spans: Vec<Span>,
    /// Wall time of the iteration loop, clocked independently of the
    /// spans (the 2 % closure check compares the two).
    pub wall_ns: u64,
    pub iterations: usize,
    pub transitions: u64,
    /// `env.steps` counter movement over the iteration loop.
    pub env_steps: u64,
    pub wire_bytes: u64,
    /// Forward+backward of the last batch: scalar backend ÷ threaded
    /// backend at two intra-op threads.
    pub threaded_t2_ratio: f64,
}

enum Envs {
    Vec(VecEnv),
    Batched(BatchedCartPole),
}

impl Envs {
    fn build(w: &Workload, seed: u64) -> Envs {
        let vec_of = |make: &dyn Fn(usize) -> Box<dyn Environment>| {
            Envs::Vec(VecEnv::new((0..w.envs).map(make).collect()))
        };
        match w.driver {
            Driver::DpD => Envs::Batched(workloads::batched_cartpole(w, seed, 0)),
            Driver::DpC => vec_of(&|i| Box::new(workloads::cheetah(seed, 0, i))),
            Driver::DpA | Driver::DpB => vec_of(&|i| Box::new(workloads::cartpole(seed, 0, i))),
        }
    }

    fn reset(&mut self) -> Tensor {
        match self {
            Envs::Vec(e) => e.reset(),
            Envs::Batched(e) => e.reset(),
        }
    }

    /// Decodes the policy's action tensor and steps every instance;
    /// returns `(obs, rewards, dones)`.
    fn step(&mut self, rec: &mut Recorder, actions: &Tensor) -> (Tensor, Tensor, Vec<bool>) {
        match self {
            Envs::Vec(e) => {
                let spec = e.action_spec();
                let decoded = rec.leaf("algos.decode", || decode_actions(actions, spec));
                let s = rec.leaf("env.step", || e.step(&decoded));
                (s.obs, s.rewards, s.dones)
            }
            Envs::Batched(e) => {
                let decoded: Vec<usize> = rec
                    .leaf("algos.decode", || actions.data().iter().map(|&a| a as usize).collect());
                let s = rec.leaf("env.step", || e.step(&decoded));
                let n = e.total_agents();
                (s.obs, s.rewards, vec![s.done; n])
            }
        }
    }
}

fn gae_over_segments(batch: &SampleBatch) {
    let seg = batch.segment_len.max(1);
    for lo in (0..batch.len()).step_by(seg) {
        let hi = (lo + seg).min(batch.len());
        std::hint::black_box(gae::gae(
            &batch.rewards.data()[lo..hi],
            &batch.values.data()[lo..hi],
            &batch.dones[lo..hi],
            0.0,
            0.99,
            0.95,
        ));
    }
}

fn err<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("replica {what}: {e:?}")
}

/// Runs the replica for `effort.min_iterations` at least and until
/// `budget` is used up (or the workload's own iteration count is reached).
pub fn run(w: &Workload, seed: u64, budget: Duration, effort: Effort) -> Result<Replica, String> {
    let (obs_dim, act_dim) = w.dims();
    let policy = if w.driver == Driver::DpC {
        PpoPolicy::continuous(obs_dim, act_dim, w.hidden, seed)
    } else {
        PpoPolicy::discrete(obs_dim, act_dim, w.hidden, seed)
    };
    // DP-A and DP-C act on an actor-side copy of the weights, packed once
    // per weight version as `PpoActor` does; DP-B and DP-D infer straight
    // from the learner's policy.
    let separate_actor = matches!(w.driver, Driver::DpA | Driver::DpC);
    let use_packed = separate_actor && par::tier_enabled() && par::fusion_enabled();
    let mut actor_policy = policy.clone();
    let mut packed = use_packed.then(|| PackedPpo::pack(&actor_policy));
    let ppo = w.dist_config(seed, 1).ppo;
    let mut learner = PpoLearner::new(policy, ppo);
    let mut rng = msrl_tensor::init::rng(seed + 1);
    let mut envs = Envs::build(w, seed);

    let mut rec = Recorder::new();
    let mut wire_bytes = 0u64;
    let mut last_batch = None;
    let steps_before = msrl_telemetry::counter_total("env.steps");
    let started = Instant::now();
    let mut iterations = 0;
    while iterations < effort.min_iterations
        || (started.elapsed() < budget && iterations < w.iterations)
    {
        rec.enter("iteration");
        rec.enter("rollout");
        let mut obs = rec.leaf("env.reset", || envs.reset());
        let mut buf = TrajectoryBuffer::new();
        for _ in 0..w.steps {
            rec.enter("algos.act");
            let pol = if separate_actor { &actor_policy } else { &learner.policy };
            let (out, values) = rec
                .leaf("algos.forward", || pol.forward_with(&obs, packed.as_ref()))
                .map_err(err("forward"))?;
            let act = rec
                .leaf("algos.sample", || pol.sample_from(&out, values, &mut rng))
                .map_err(err("sample"))?;
            rec.exit();
            let (next_obs, rewards, dones) = envs.step(&mut rec, &act.actions);
            rec.leaf("algos.buffer", || {
                buf.insert(step_batch(
                    obs.clone(),
                    act.actions,
                    rewards,
                    next_obs.clone(),
                    dones,
                    act.log_probs,
                    act.values.expect("PPO policy has a critic"),
                ));
            });
            obs = next_obs;
        }
        let mut batch = rec.leaf("algos.buffer", || buf.drain_env_major()).map_err(err("drain"))?;
        rec.exit();

        if w.driver == Driver::DpA {
            batch = rec
                .leaf("runtime.wire", || {
                    let wire = encode_batch(&batch);
                    wire_bytes = 4 * wire.len() as u64;
                    decode_batch(&wire)
                })
                .map_err(err("wire"))?;
        }
        if w.driver == Driver::DpC {
            for _ in 0..w.epochs {
                let g = rec.leaf("algos.grads", || learner.grads(&batch)).map_err(err("grads"))?;
                rec.leaf("algos.apply", || learner.apply_grads(&g)).map_err(err("apply"))?;
            }
        } else {
            rec.leaf("algos.learn", || learner.learn(&batch)).map_err(err("learn"))?;
        }
        match w.driver {
            Driver::DpA | Driver::DpC => rec
                .leaf("algos.sync", || {
                    actor_policy.unflatten(&learner.policy_params()).map(|()| {
                        packed = use_packed.then(|| PackedPpo::pack(&actor_policy));
                    })
                })
                .map_err(err("sync"))?,
            // The weight all-reduce's flatten/unflatten, without a peer.
            Driver::DpD => rec
                .leaf("algos.sync", || learner.set_policy_params(&learner.policy_params()))
                .map_err(err("sync"))?,
            Driver::DpB => {}
        }
        rec.exit();
        last_batch = Some(batch);
        iterations += 1;
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let env_steps = msrl_telemetry::counter_total("env.steps") - steps_before;
    let batch = last_batch.expect("at least one iteration ran");

    rec.enter("extras");
    for _ in 0..effort.extra_repeats {
        rec.leaf("algos.gae", || gae_over_segments(&batch));
        if w.driver != Driver::DpA {
            rec.leaf("runtime.wire", || {
                let wire = encode_batch(&batch);
                wire_bytes = 4 * wire.len() as u64;
                decode_batch(&wire)
            })
            .map_err(err("wire"))?;
        }
        if w.driver == Driver::DpC {
            rec.leaf("algos.learn", || learner.learn(&batch)).map_err(err("learn"))?;
        } else {
            let g = rec.leaf("algos.grads", || learner.grads(&batch)).map_err(err("grads"))?;
            rec.leaf("algos.apply", || learner.apply_grads(&g)).map_err(err("apply"))?;
        }
        if w.driver == Driver::DpB {
            rec.leaf("algos.sync", || actor_policy.unflatten(&learner.policy_params()))
                .map_err(err("sync"))?;
        }
    }
    rec.exit();

    // Intra-op threading, on the pass that dominates `learn`: best of
    // alternating calls per backend.
    let mut best = [f64::INFINITY; 2];
    for _ in 0..effort.backend_rounds {
        for (slot, backend, threads) in [(0, Backend::Scalar, 1), (1, Backend::Threaded, 2)] {
            let t = Instant::now();
            par::with_threads(threads, || par::with_backend(backend, || learner.grads(&batch)))
                .map_err(err("grads"))?;
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
        }
    }

    Ok(Replica {
        spans: rec.into_spans(),
        wall_ns,
        iterations,
        transitions: (w.envs * w.steps * iterations) as u64,
        env_steps,
        wire_bytes,
        threaded_t2_ratio: best[0] / best[1],
    })
}
