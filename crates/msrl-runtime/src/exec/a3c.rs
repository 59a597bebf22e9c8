//! The asynchronous A3C driver (Figs. 7b and 9b's workload).
//!
//! Each worker fragment owns exactly one environment and a policy
//! replica; after every n-step rollout it computes gradients locally and
//! ships them to the learner fragment *asynchronously* — it does not
//! wait for its peers, only for the learner's weight reply to its own
//! push. The learner applies gradients in arrival order (Hogwild-style,
//! serialised by its mailbox), which is exactly the asynchrony that
//! makes A3C's per-actor work independent of the actor count.

use msrl_algos::a3c::{A3cConfig, A3cLearner, A3cWorker};
use msrl_algos::ppo::PpoPolicy;
use msrl_algos::rollout::collect;
use msrl_comm::Fabric;
use msrl_core::api::{Actor, Learner};
use msrl_core::Result;
use msrl_env::{Environment, VecEnv};

use super::{drive, enter_fragment, mean_or_prev, spawn_fragment, RunObserver, TrainingReport};

/// Configuration for the asynchronous A3C driver.
#[derive(Debug, Clone)]
pub struct A3cDistConfig {
    /// Worker (actor) fragments, each with one environment.
    pub workers: usize,
    /// Steps per local rollout before a gradient push.
    pub rollout_steps: usize,
    /// Gradient pushes per worker.
    pub pushes_per_worker: usize,
    /// Hidden widths of the shared network.
    pub hidden: Vec<usize>,
    /// A3C hyper-parameters.
    pub a3c: A3cConfig,
    /// Base seed.
    pub seed: u64,
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel (bit-identical to the unfused path). On by default.
    pub fusion: bool,
}

impl Default for A3cDistConfig {
    fn default() -> Self {
        A3cDistConfig {
            workers: 3,
            rollout_steps: 32,
            pushes_per_worker: 20,
            hidden: vec![32],
            a3c: A3cConfig::default(),
            seed: 0,
            fusion: msrl_tensor::par::fusion_enabled(),
        }
    }
}

/// Runs A3C with asynchronous gradient pushes.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_a3c<E, F>(make_env: F, dist: &A3cDistConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize) -> E + Send + Sync,
{
    drive("a3c", dist.fusion, || a3c(make_env, dist))
}

fn a3c<E, F>(make_env: F, dist: &A3cDistConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize) -> E + Send + Sync,
{
    let p = dist.workers.max(1);
    // Ranks 0..p are workers; rank p is the learner.
    let mut endpoints = Fabric::new(p + 1);
    let learner_ep = endpoints.pop().expect("fabric yields p+1 endpoints");

    let probe = make_env(0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let policy = PpoPolicy::discrete(obs_dim, spec.policy_width(), &dist.hidden, dist.seed);

    std::thread::scope(|scope| -> Result<TrainingReport> {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let policy = policy.clone();
            let make_env = &make_env;
            let cfg = dist.a3c.clone();
            handles.push(spawn_fragment(scope, "fragment.worker", rank, move || -> Result<()> {
                let mut worker = A3cWorker::new(policy, cfg, dist.seed + 1 + rank as u64);
                let mut envs = VecEnv::new(vec![Box::new(make_env(rank)) as Box<dyn Environment>]);
                for _ in 0..dist.pushes_per_worker {
                    let batch = {
                        let _s = msrl_telemetry::span!("phase.rollout");
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
                        collect(&mut worker, &mut envs, dist.rollout_steps)?
                    };
                    let grads = {
                        let _s = msrl_telemetry::span!("phase.learn");
                        let _h = msrl_telemetry::static_histogram!("phase.learn").time();
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                        worker.local_grads(&batch)?
                    };
                    // Asynchronous push: no coordination with peers.
                    let _s = msrl_telemetry::span!("phase.weight_sync");
                    ep.send(p, grads)?;
                    ep.send(p, envs.take_finished_returns())?;
                    let weights = ep.recv(p)?;
                    worker.set_policy_params(&weights)?;
                }
                Ok(())
            }));
        }

        // The learner applies gradients in whatever order they arrive.
        // `recv_any` waits until *some* worker's push lands, so
        // stragglers are never waited on; past the fabric's 50 µs spin
        // budget the wait is a condvar park, so an idle learner does not
        // burn the CPU its workers need.
        let frag = enter_fragment("fragment.learner", p);
        let mut learner = A3cLearner::new(policy, &dist.a3c);
        let mut report = TrainingReport::default();
        let mut prev_reward = 0.0;
        // One metrics event per applied push — the natural "iteration"
        // of an asynchronous learner.
        let mut obs_stream = RunObserver::new("a3c", 0);
        let mut remaining: Vec<usize> = vec![dist.pushes_per_worker; p];
        while remaining.iter().any(|&r| r > 0) {
            // Only poll workers with pushes outstanding: a finished
            // worker's endpoint may already be gone.
            let active: Vec<usize> =
                remaining.iter().enumerate().filter(|(_, &r)| r > 0).map(|(r, _)| r).collect();
            let (rank, grads) = learner_ep.recv_any(&active)?;
            let finished = learner_ep.recv(rank)?;
            {
                let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                learner.apply_grads(&grads)?;
            }
            learner_ep.send(rank, learner.policy_params())?;
            remaining[rank] -= 1;
            prev_reward = mean_or_prev(&finished, prev_reward);
            report.iteration_rewards.push(prev_reward);
            let params = msrl_telemetry::health_enabled().then(|| learner.policy_params());
            obs_stream.observe(prev_reward, None, None, params.as_deref());
        }
        drop(frag);
        for h in handles {
            h.join().expect("worker thread must not panic")?;
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
    fn async_a3c_trains_cartpole() {
        // Gradient arrival order is scheduler-dependent (the asynchrony
        // under test), so any single seed is noisy; the learning signal
        // must show up within a few.
        let mut improved = false;
        for seed in [1, 2, 3] {
            let dist = A3cDistConfig {
                workers: 3,
                rollout_steps: 32,
                pushes_per_worker: 40,
                hidden: vec![32],
                a3c: A3cConfig { lr: 2e-3, ..A3cConfig::default() },
                seed,
                ..A3cDistConfig::default()
            };
            let report = run_a3c(|w| CartPole::new(seed + w as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 3 * 40);
            if report.recent_reward(20) > report.early_reward(20) {
                improved = true;
                break;
            }
        }
        assert!(improved, "async A3C must improve on at least one of three seeds");
    }

    #[test]
    fn async_updates_apply_every_push() {
        let dist = A3cDistConfig {
            workers: 2,
            rollout_steps: 8,
            pushes_per_worker: 3,
            hidden: vec![8],
            seed: 18,
            ..A3cDistConfig::default()
        };
        let report = run_a3c(|w| CartPole::new(10 + w as u64), &dist).unwrap();
        assert_eq!(report.iteration_rewards.len(), 6, "one entry per applied push");
        assert!(!report.final_params.is_empty());
    }
}
