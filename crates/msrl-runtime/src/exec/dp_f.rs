//! DP-F (central parameter server / policy pool).
//!
//! A dedicated fragment holds the authoritative policy and its optimiser
//! state; worker fragments collect experience, compute local gradients,
//! *push* them to the server and *pull* fresh weights — the
//! parameter-server pattern of Li et al. (OSDI '14) that Tab. 2 cites for
//! CTDE-based MARL. Updates apply in arrival order (asynchronous
//! semantics: a worker never waits for its peers, only for the server's
//! reply to its own push).
//!
//! Weight pulls are overlapped: after pushing gradients a worker posts an
//! `irecv` for the server's reply and starts its next rollout right away,
//! swapping weights in when the pull lands. The number of outstanding
//! pulls is bounded by `DistPpoConfig::staleness` (overlap off ⇒ zero,
//! the fully blocking original).

use std::collections::VecDeque;

use msrl_algos::ppo::{PpoActor, PpoLearner, PpoPolicy};
use msrl_algos::rollout::collect;
use msrl_comm::{Fabric, PendingRecv};
use msrl_core::api::{Actor, Learner};
use msrl_core::Result;
use msrl_env::{Environment, VecEnv};

use super::{
    drive, enter_fragment, mean_or_prev, spawn_fragment, DistPpoConfig, RunObserver, TrainingReport,
};

/// Runs PPO under DP-F.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_f<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    drive("dp_f", dist.fusion, || dp_f(make_env, dist))
}

fn dp_f<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    let p = dist.actors.max(1);
    // Ranks 0..p are workers; rank p is the parameter server.
    let mut endpoints = Fabric::with_latency(p + 1, dist.link_latency);
    let server_ep = endpoints.pop().expect("fabric yields p+1 endpoints");

    let probe = make_env(0, 0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let policy = if spec.is_discrete() {
        PpoPolicy::discrete(obs_dim, spec.policy_width(), &dist.hidden, dist.seed)
    } else {
        PpoPolicy::continuous(obs_dim, spec.policy_width(), &dist.hidden, dist.seed)
    };

    std::thread::scope(|scope| -> Result<TrainingReport> {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let policy = policy.clone();
            let make_env = &make_env;
            let ppo = dist.ppo.clone();
            handles.push(spawn_fragment(scope, "fragment.worker", rank, move || -> Result<()> {
                let mut actor = PpoActor::new(policy.clone(), dist.seed + 1 + rank as u64);
                let mut grad_engine = PpoLearner::new(policy, ppo);
                let mut envs = VecEnv::new(
                    (0..dist.envs_per_actor.max(1))
                        .map(|i| Box::new(make_env(rank, i)) as Box<dyn Environment>)
                        .collect(),
                );
                // Outstanding weight pulls, oldest first; their count is
                // the worker's staleness (pulls not yet swapped in).
                let stale_bound = dist.stale_bound();
                let mut pending: VecDeque<PendingRecv> = VecDeque::new();
                for _ in 0..dist.iterations {
                    {
                        let _s = msrl_telemetry::span!("phase.weight_sync");
                        // Swap in any pull that already landed, then block
                        // until within the outstanding-pull bound.
                        while let Some(front) = pending.front_mut() {
                            let landed = front.poll()?;
                            if !landed && pending.len() <= stale_bound {
                                break;
                            }
                            let w = pending.pop_front().expect("front exists").wait()?;
                            actor.set_policy_params(&w)?;
                            grad_engine.set_policy_params(&w)?;
                        }
                    }
                    let stale = !pending.is_empty();
                    if stale {
                        msrl_telemetry::static_counter!("comm.stale_iters").add(1);
                    }
                    let batch = {
                        let _ov = stale.then(|| msrl_telemetry::span!("comm.overlap"));
                        let _s = msrl_telemetry::span!("phase.rollout");
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
                        collect(&mut actor, &mut envs, dist.steps_per_iter)?
                    };
                    let grads = {
                        let _s = msrl_telemetry::span!("phase.learn");
                        let _h = msrl_telemetry::static_histogram!("phase.learn").time();
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                        grad_engine.grads(&batch)?
                    };
                    // Push gradients; the pull for the server's reply is
                    // posted immediately and waited (at most) next
                    // iteration.
                    let _s = msrl_telemetry::span!("phase.weight_sync");
                    ep.isend(p, grads)?.wait();
                    ep.isend(p, envs.take_finished_returns())?.wait();
                    pending.push_back(ep.irecv(p)?);
                }
                // Consume the remaining replies so the server's sends
                // never hit a dropped channel.
                for pr in pending {
                    let _ = pr.wait();
                }
                Ok(())
            }));
        }

        // The parameter-server fragment.
        let frag = enter_fragment("fragment.param_server", p);
        let mut server = PpoLearner::new(policy, dist.ppo.clone());
        let mut report = TrainingReport::default();
        let mut prev_reward = 0.0;
        // The server loses per-worker loss context (it only sees
        // gradients), so the stream carries reward/throughput/staleness.
        let mut obs_stream = RunObserver::new("dp_f", dist.stale_bound());
        let mut outstanding: Vec<usize> = vec![dist.iterations; p];
        for _ in 0..dist.iterations {
            let mut finished = Vec::new();
            for _ in 0..p {
                // Apply in true arrival order (asynchronous updates):
                // with overlapped workers a fast rank's next push may
                // beat a slow rank's first. Only ranks with pushes still
                // owed are polled — a worker that already sent its last
                // push may have exited and dropped its endpoint.
                let active: Vec<usize> = outstanding
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(r, _)| r)
                    .collect();
                let (rank, grads) = server_ep.recv_any(&active)?;
                outstanding[rank] -= 1;
                finished.extend(server_ep.recv(rank)?);
                {
                    let _s = msrl_telemetry::span!("phase.learn");
                    let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                    server.apply_grads(&grads)?;
                }
                server_ep.send(rank, server.policy_params())?;
            }
            prev_reward = mean_or_prev(&finished, prev_reward);
            report.iteration_rewards.push(prev_reward);
            let params = msrl_telemetry::health_enabled().then(|| server.policy_params());
            obs_stream.observe(prev_reward, None, None, params.as_deref());
        }
        drop(frag);
        for h in handles {
            h.join().expect("worker thread must not panic")?;
        }
        report.final_params = server.policy_params();
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::cartpole::CartPole;

    #[test]
    fn dp_f_trains_cartpole_through_parameter_server() {
        // Overlapped pulls make the server's update order (and thus the
        // reward curve) timing-dependent, so the workload must learn
        // decisively: a higher learning rate keeps the improvement check
        // robust across schedules.
        let dist = DistPpoConfig {
            actors: 3,
            envs_per_actor: 2,
            steps_per_iter: 48,
            iterations: 25,
            hidden: vec![32],
            seed: 10,
            ppo: msrl_algos::ppo::PpoConfig { lr: 2e-3, ..Default::default() },
            ..DistPpoConfig::default()
        };
        let report = run_dp_f(|a, i| CartPole::new((a * 13 + i) as u64), &dist).unwrap();
        assert_eq!(report.iteration_rewards.len(), 25);
        assert!(
            report.recent_reward(5) > report.early_reward(5),
            "DP-F must improve: {} → {}",
            report.early_reward(5),
            report.recent_reward(5)
        );
    }
}
