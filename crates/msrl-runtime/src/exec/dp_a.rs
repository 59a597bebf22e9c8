//! DP-A (single learner, coarse synchronisation).
//!
//! Actor+environment fragments are replicated — one thread each, with a
//! local policy replica and a vectorised environment set. Once per
//! iteration every actor ships its whole trajectory to the single
//! learner fragment: the per-episode batched synchronisation of Tab. 2.
//!
//! Weight parameters are *double-buffered*: instead of blocking on the
//! learner's broadcast each iteration, every actor posts an `irecv` for
//! the next weight message and immediately rolls out on its current
//! weights, swapping buffers when the receive completes. A bounded
//! staleness window (`DistPpoConfig::staleness`, default 1 iteration)
//! keeps learning on-policy enough to converge: each weight message is
//! version-stamped, and at iteration `i` an actor runs on version
//! `i − staleness` exactly, blocking only if that broadcast has not
//! landed — the schedule is a function of the iteration, never of
//! which thread got ahead, so a seed replays bit-identically. Overlap
//! off degenerates to staleness 0 — the fully synchronous original —
//! through the same code path.

use std::collections::VecDeque;

use msrl_algos::ppo::{PpoActor, PpoLearner, PpoPolicy};
use msrl_algos::rollout::collect;
use msrl_comm::{Fabric, PendingRecv};
use msrl_core::api::{Actor, Learner, SampleBatch};
use msrl_core::Result;
use msrl_env::{Environment, VecEnv};

use crate::wire::{decode_batch, encode_batch};

use super::{
    drive, enter_fragment, mean_or_prev, spawn_fragment, DistPpoConfig, RunObserver, TrainingReport,
};
use crate::config::RuntimeConfig;

/// Runs PPO under DP-A. `make_env(actor, instance)` constructs one
/// environment.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_a<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    drive("dp_a", dist.fusion, || dp_a(make_env, dist))
}

fn dp_a<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    let p = dist.actors.max(1);
    // Resolved once, at entry: the fault hook is not a config field.
    let fault_nan = RuntimeConfig::default().fault_nan_iter;
    // Ranks 0..p are actors; rank p is the learner.
    let mut endpoints = Fabric::with_latency(p + 1, dist.link_latency);
    let learner_ep = endpoints.pop().expect("fabric yields p+1 endpoints");

    // Probe env specs and build the shared starting policy.
    let probe = make_env(0, 0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let policy = if spec.is_discrete() {
        PpoPolicy::discrete(obs_dim, spec.policy_width(), &dist.hidden, dist.seed)
    } else {
        PpoPolicy::continuous(obs_dim, spec.policy_width(), &dist.hidden, dist.seed)
    };

    // Cross-actor micro-batching: one shared act server collects every
    // fragment's observation rows per rollout step and runs one fused
    // forward over the concatenated block (bit-identical to the
    // per-actor path — see `crate::actsrv`).
    let srv = dist.act_server.then(|| crate::actsrv::ActServer::new(policy.clone(), p));

    std::thread::scope(|scope| -> Result<TrainingReport> {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let policy = policy.clone();
            let srv = srv.clone();
            let make_env = &make_env;
            let stale_bound = dist.stale_bound();
            handles.push(spawn_fragment(scope, "fragment.actor", rank, move || -> Result<()> {
                let seed = dist.seed + 1 + rank as u64;
                let mut actor: Box<dyn Actor> = match &srv {
                    Some(srv) => Box::new(srv.client(rank, seed)),
                    None => Box::new(PpoActor::new(policy, seed)),
                };
                let mut envs = VecEnv::new(
                    (0..dist.envs_per_actor.max(1))
                        .map(|i| Box::new(make_env(rank, i)) as Box<dyn Environment>)
                        .collect(),
                );
                // Double-buffered weights: `pending` holds posted irecvs
                // for broadcasts still in flight; `version` is the
                // iteration whose learn step produced the weights the
                // actor currently runs on (0 = initial weights).
                let mut pending: VecDeque<PendingRecv> = VecDeque::new();
                let mut version = 0usize;
                let swap =
                    |w: Vec<f32>, version: &mut usize, actor: &mut dyn Actor| -> Result<()> {
                        *version = w[0] as usize;
                        actor.set_policy_params(&w[1..])
                    };
                for iter in 0..dist.iterations {
                    {
                        let _s = msrl_telemetry::span!("phase.weight_sync");
                        // Swap in broadcasts, oldest first, up to the
                        // version the bound entitles this rollout to,
                        // blocking only if that one has not landed. A
                        // newer broadcast that happens to have landed
                        // stays pending: whether it has is a matter of
                        // thread scheduling, and the weights a rollout
                        // sees must not be, or a fixed seed no longer
                        // replays bit-identically.
                        while iter - version > stale_bound {
                            let w = pending
                                .pop_front()
                                .expect("a broadcast is outstanding whenever version lags")
                                .wait()?;
                            swap(w, &mut version, actor.as_mut())?;
                        }
                    }
                    assert!(
                        iter - version <= stale_bound,
                        "staleness bound violated: iter {iter} on version {version} weights \
                         (bound {stale_bound})"
                    );
                    let stale = version < iter;
                    if stale {
                        msrl_telemetry::static_counter!("comm.stale_iters").add(1);
                    }
                    let batch = {
                        // comm.overlap marks rollout executed while the
                        // next weight broadcast is still in flight — the
                        // communication time reclaimed by overlapping.
                        let _ov = stale.then(|| msrl_telemetry::span!("comm.overlap"));
                        let _s = msrl_telemetry::span!("phase.rollout");
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
                        collect(actor.as_mut(), &mut envs, dist.steps_per_iter)?
                    };
                    let _s = msrl_telemetry::span!("phase.weight_sync");
                    ep.isend(p, encode_batch(&batch))?.wait();
                    ep.isend(p, envs.take_finished_returns())?.wait();
                    pending.push_back(ep.irecv(p)?);
                }
                // Drain outstanding broadcasts so the learner's final
                // sends are consumed before the channel drops.
                for pr in pending {
                    let _ = pr.wait();
                }
                Ok(())
            }));
        }

        // Learner fragment body (runs on the calling thread).
        let frag = enter_fragment("fragment.learner", 0);
        let mut learner = PpoLearner::new(policy, dist.ppo.clone());
        let mut report = TrainingReport::default();
        let mut prev_reward = 0.0;
        let mut obs = RunObserver::new("dp_a", dist.stale_bound());
        for iter in 0..dist.iterations {
            let mut batches = Vec::with_capacity(p);
            let mut finished = Vec::new();
            for rank in 0..p {
                batches.push(decode_batch(&learner_ep.recv(rank)?)?);
                finished.extend(learner_ep.recv(rank)?);
            }
            let batch = SampleBatch::concat(&batches)?;
            let loss = {
                let _s = msrl_telemetry::span!("phase.learn");
                let _h = msrl_telemetry::static_histogram!("phase.learn").time();
                let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                learner.learn(&batch)?
            };
            if fault_nan == Some(iter as u64) {
                // Fault injection (`MSRL_FAULT_NAN_ITER`): scale one
                // weight to infinity so this iteration's health pass
                // must flag the poisoned parameter vector. Injecting at
                // the run's last iteration keeps the poisoned broadcast
                // unused — actors drain their final weight sync.
                let mut w = learner.policy_params();
                if let Some(v) = w.first_mut() {
                    *v = f32::INFINITY;
                }
                learner.set_policy_params(&w)?;
            }
            // Version-stamped broadcast: learning from iteration `iter`'s
            // batches produces the version `iter + 1` weights (exact as
            // f32 for any realistic iteration count).
            let mut weights = vec![(iter + 1) as f32];
            weights.extend(learner.policy_params());
            {
                let _s = msrl_telemetry::span!("phase.weight_sync");
                for rank in 0..p {
                    learner_ep.isend(rank, weights.clone())?.wait();
                }
            }
            prev_reward = mean_or_prev(&finished, prev_reward);
            report.iteration_rewards.push(prev_reward);
            report.losses.push(loss);
            let params = msrl_telemetry::health_enabled().then(|| learner.policy_params());
            obs.observe(prev_reward, Some(loss), learner.last_entropy(), params.as_deref());
        }
        drop(frag);
        for h in handles {
            h.join().expect("actor thread must not panic")?;
        }
        report.final_params = learner.policy_params();
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::cartpole::CartPole;

    #[test]
    fn dp_a_trains_cartpole_distributed() {
        // lr raised from the 3e-4 default so the improvement margin is
        // robust for both the synchronous and the overlapped
        // (bounded-staleness) weight-sync paths this test covers via the
        // MSRL_OVERLAP/MSRL_STALENESS defaults.
        let dist = DistPpoConfig {
            actors: 3,
            envs_per_actor: 2,
            steps_per_iter: 64,
            iterations: 25,
            hidden: vec![32],
            seed: 1,
            ppo: msrl_algos::ppo::PpoConfig { lr: 2e-3, ..msrl_algos::ppo::PpoConfig::default() },
            ..DistPpoConfig::default()
        };
        let report = run_dp_a(|a, i| CartPole::new((a * 100 + i) as u64), &dist).unwrap();
        assert_eq!(report.iteration_rewards.len(), 25);
        assert_eq!(report.losses.len(), 25);
        assert!(!report.final_params.is_empty());
        assert!(
            report.recent_reward(5) > report.early_reward(5),
            "distributed PPO must improve: {:?} → {:?}",
            report.early_reward(5),
            report.recent_reward(5)
        );
    }

    #[test]
    fn act_server_run_is_bit_identical_to_per_actor_run() {
        // Same config, same seeds; the only difference is routing policy
        // forwards through the cross-actor act server. Overlap is off so
        // both runs use the same (zero) staleness bound — the act server
        // forces zero regardless, and a differing bound would change
        // which weights actors roll out on.
        let base = DistPpoConfig {
            actors: 3,
            envs_per_actor: 2,
            steps_per_iter: 32,
            iterations: 4,
            hidden: vec![16],
            seed: 11,
            overlap: false,
            act_server: false,
            ..DistPpoConfig::default()
        };
        let plain = run_dp_a(|a, i| CartPole::new((a * 10 + i) as u64), &base).unwrap();
        let batched = run_dp_a(
            |a, i| CartPole::new((a * 10 + i) as u64),
            &DistPpoConfig { act_server: true, ..base },
        )
        .unwrap();
        assert_eq!(plain.final_params, batched.final_params, "weights must match bitwise");
        assert_eq!(plain.iteration_rewards, batched.iteration_rewards);
        assert_eq!(plain.losses, batched.losses);
        assert!(
            msrl_telemetry::counter_total("actsrv.batches") >= 4 * 32,
            "act server must have run one batched forward per rollout step"
        );
    }

    /// An actor fragment that dies drops its endpoint; the learner
    /// blocked on it must come back with the typed comm error, not a
    /// `MissingKernel` string.
    #[test]
    fn a_dropped_peer_surfaces_as_a_comm_error() {
        // A driver error leaves a flight-recorder dump; keep it out of
        // the source tree.
        msrl_telemetry::flightrec::set_dump_dir(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/flightrec-tests"
        ));
        /// CartPole that claims `dim` observation columns.
        struct Claims(usize, CartPole);
        impl Environment for Claims {
            fn obs_dim(&self) -> usize {
                self.0
            }
            fn action_spec(&self) -> msrl_env::ActionSpec {
                self.1.action_spec()
            }
            fn reset(&mut self) -> msrl_tensor::Tensor {
                self.1.reset()
            }
            fn step(&mut self, action: &msrl_env::Action) -> msrl_env::Step {
                self.1.step(action)
            }
        }
        // The probe (first call) sizes the policy for 5 columns; the
        // actor's real envs have 4, so its first forward is a shape
        // error and the fragment returns early.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let make_env = |_: usize, i: usize| {
            let probe = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0;
            Claims(if probe { 5 } else { 4 }, CartPole::new(i as u64))
        };
        let dist = DistPpoConfig {
            actors: 1,
            envs_per_actor: 1,
            steps_per_iter: 4,
            iterations: 1,
            hidden: vec![4],
            ..DistPpoConfig::default()
        };
        let err = run_dp_a(make_env, &dist).expect_err("the learner's peer is gone");
        assert_eq!(err, msrl_core::FdgError::Comm(msrl_comm::CommError::Disconnected));
    }

    #[test]
    fn dp_a_single_actor_matches_shape() {
        let dist = DistPpoConfig {
            actors: 1,
            envs_per_actor: 2,
            steps_per_iter: 16,
            iterations: 3,
            hidden: vec![8],
            seed: 2,
            ..DistPpoConfig::default()
        };
        let report = run_dp_a(|a, i| CartPole::new((a + i) as u64), &dist).unwrap();
        assert_eq!(report.iteration_rewards.len(), 3);
    }
}
