//! DP-D (GPU only).
//!
//! The whole training loop — inference, environment, update — fuses into
//! one fragment per device, which is only possible because the
//! environment has a batched, device-executable implementation
//! (`msrl_env::batched`). Fragments replicate across devices and
//! synchronise once per episode by AllReduce-averaging their policy
//! weights (the multi-GPU extension of Fig. 10b that WarpDrive lacks).

use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::ppo::{PpoConfig, PpoLearner, PpoPolicy};
use msrl_comm::Fabric;
use msrl_core::api::Learner;
use msrl_core::Result;
use msrl_env::batched::BatchedEnv;

use super::{drive, spawn_fragment, RunObserver, TrainingReport};
use crate::config::RuntimeConfig;

/// Configuration for the fused GPU-only loop.
#[derive(Debug, Clone)]
pub struct DpDConfig {
    /// Device (fragment replica) count.
    pub devices: usize,
    /// Episodes to train.
    pub episodes: usize,
    /// Hidden widths of the policy.
    pub hidden: Vec<usize>,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Base seed.
    pub seed: u64,
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel (bit-identical to the unfused path).
    pub fusion: bool,
}

/// Runs the fused training loop on `devices` replicas, each owning the
/// batched environment produced by `make_env(replica)`.
///
/// Returns the per-episode mean reward (averaged over replicas).
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_d<B, F>(make_env: F, cfg: &DpDConfig) -> Result<TrainingReport>
where
    B: BatchedEnv + 'static,
    F: Fn(usize) -> B + Send + Sync,
{
    drive("dp_d", cfg.fusion, || dp_d(make_env, cfg))
}

fn dp_d<B, F>(make_env: F, cfg: &DpDConfig) -> Result<TrainingReport>
where
    B: BatchedEnv + 'static,
    F: Fn(usize) -> B + Send + Sync,
{
    let p = cfg.devices.max(1);
    // Resolved once, at entry: `DpDConfig` has no overlap field, and a
    // per-episode read would let the ambient environment change the
    // sync path mid-run.
    let overlap = RuntimeConfig::default().overlap;
    let endpoints = Fabric::new(p);
    let probe = make_env(0);
    let (obs_dim, n_actions) = (probe.obs_dim(), probe.n_actions());
    drop(probe);
    let policy = PpoPolicy::discrete(obs_dim, n_actions, &cfg.hidden, cfg.seed);

    std::thread::scope(|scope| -> Result<TrainingReport> {
        let mut handles = Vec::new();
        for (rank, mut ep) in endpoints.into_iter().enumerate() {
            let policy = policy.clone();
            let make_env = &make_env;
            let ppo = cfg.ppo.clone();
            let body = move || -> Result<TrainingReport> {
                let mut env = make_env(rank);
                let mut learner = PpoLearner::new(policy, ppo);
                let mut rng = msrl_tensor::init::rng(cfg.seed + 100 + rank as u64);
                let mut report = TrainingReport::default();
                // Rank 0 streams the run's training metrics; replicas are
                // weight-synchronised every episode so one stream suffices.
                let mut obs_stream = (rank == 0).then(|| RunObserver::new("dp_d", 0));
                for _ in 0..cfg.episodes {
                    // Fused loop: everything below is "on device".
                    let mut buf = TrajectoryBuffer::new();
                    let rollout = msrl_telemetry::span!("phase.rollout");
                    let rollout_attr = msrl_telemetry::step(msrl_telemetry::StepClass::Rollout);
                    let mut obs = env.reset();
                    let mut total_reward = 0.0;
                    let mut steps = 0usize;
                    loop {
                        let out = learner.policy.act(&obs, &mut rng)?;
                        let actions: Vec<usize> =
                            out.actions.data().iter().map(|&a| a as usize).collect();
                        let step = env.step(&actions);
                        total_reward += step.rewards.data().iter().sum::<f32>();
                        steps += 1;
                        let n = env.total_agents();
                        buf.insert(step_batch(
                            obs.clone(),
                            out.actions,
                            step.rewards.clone(),
                            step.obs.clone(),
                            vec![step.done; n],
                            out.log_probs,
                            out.values.expect("PPO policy has a critic"),
                        ));
                        obs = step.obs;
                        if step.done {
                            break;
                        }
                    }
                    drop(rollout_attr);
                    drop(rollout);
                    let batch = buf.drain_env_major()?;
                    let loss = {
                        let _s = msrl_telemetry::span!("phase.learn");
                        let _h = msrl_telemetry::static_histogram!("phase.learn").time();
                        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Learn);
                        learner.learn(&batch)?
                    };
                    // Per-episode replica sync: average weights. With
                    // overlap on, large payloads go through the chunked
                    // all-reduce so reduction of chunk k overlaps the
                    // transfer of chunk k+1 (bit-identical either way).
                    if p > 1 {
                        let _s = msrl_telemetry::span!("phase.weight_sync");
                        let params = learner.policy_params();
                        let avg = if overlap {
                            ep.all_reduce_mean_chunked(params, msrl_comm::COMM_CHUNK_ELEMS)
                        } else {
                            ep.all_reduce_mean(params)
                        }?;
                        learner.set_policy_params(&avg)?;
                    }
                    let denom = (env.total_agents() * steps.max(1)) as f32;
                    report.iteration_rewards.push(total_reward / denom);
                    if let Some(o) = obs_stream.as_mut() {
                        let params =
                            msrl_telemetry::health_enabled().then(|| learner.policy_params());
                        o.observe(
                            total_reward / denom,
                            Some(loss),
                            learner.last_entropy(),
                            params.as_deref(),
                        );
                    }
                }
                report.final_params = learner.policy_params();
                Ok(report)
            };
            handles.push(spawn_fragment(scope, "fragment.fused_loop", rank, body));
        }
        let mut reports = Vec::with_capacity(p);
        for h in handles {
            reports.push(h.join().expect("fragment thread must not panic")?);
        }
        // Average the per-replica reward curves.
        let episodes = cfg.episodes;
        let mut merged = TrainingReport::default();
        for e in 0..episodes {
            let mean = reports.iter().map(|r| r.iteration_rewards[e]).sum::<f32>() / p as f32;
            merged.iteration_rewards.push(mean);
        }
        merged.final_params = reports.swap_remove(0).final_params;
        Ok(merged)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_env::batched::{BatchedCartPole, BatchedTag};

    #[test]
    fn dp_d_runs_fused_cartpole_loop() {
        let cfg = DpDConfig {
            devices: 2,
            episodes: 8,
            hidden: vec![16],
            ppo: PpoConfig { lr: 1e-3, epochs: 2, ..PpoConfig::default() },
            seed: 7,
            fusion: msrl_tensor::par::fusion_enabled(),
        };
        let report = run_dp_d(|r| BatchedCartPole::new(16, r as u64), &cfg).unwrap();
        assert_eq!(report.iteration_rewards.len(), 8);
        assert!(report.final_params.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dp_d_runs_batched_tag() {
        let cfg = DpDConfig {
            devices: 1,
            episodes: 4,
            hidden: vec![16],
            ppo: PpoConfig { epochs: 1, ..PpoConfig::default() },
            seed: 8,
            fusion: msrl_tensor::par::fusion_enabled(),
        };
        let report = run_dp_d(|r| BatchedTag::new(8, 3, 1, r as u64), &cfg).unwrap();
        assert_eq!(report.iteration_rewards.len(), 4);
    }
}
