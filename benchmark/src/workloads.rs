//! The four gated workloads and the seven-driver sweep.
//!
//! Every field of every driver config is spelled out here, and children
//! run with `MSRL_*` scrubbed from their environment, so a run never
//! inherits a knob: the program sees only what this file generates from
//! `--seed`.

use std::time::Duration;

use msrl_algos::a3c::A3cConfig;
use msrl_algos::ppo::PpoConfig;
use msrl_core::config::{AlgorithmConfig, DeploymentConfig, PolicyName};
use msrl_env::batched::BatchedCartPole;
use msrl_env::cartpole::CartPole;
use msrl_env::halfcheetah::HalfCheetah;
use msrl_env::mpe::SimpleSpread;
use msrl_runtime::exec::{
    run_a3c, run_dp_a, run_dp_b, run_dp_c, run_dp_d, run_dp_e, run_dp_f, A3cDistConfig,
    DistPpoConfig, DpDConfig, DpEConfig,
};
use msrl_runtime::{Coordinator, TrainingReport};
use serde_json::Value;

use crate::json::{num, obj};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    DpA,
    DpB,
    DpC,
    DpD,
}

/// One gated workload. `fragments × envs × steps × iterations` is the
/// number of transitions a repeat must produce.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    /// Actor (DP-A/B), replica (DP-C) or device (DP-D) count. With the
    /// learner of DP-A/B that makes two fragment threads everywhere.
    pub fragments: usize,
    /// Environment instances (DP-D: worlds) per fragment.
    pub envs: usize,
    /// Steps per iteration (DP-D: the fixed 200-step episode).
    pub steps: usize,
    /// Iterations (DP-D: episodes) of one repeat, sized for 4–6 s on the
    /// 2-core reference host and frozen here.
    pub iterations: usize,
    pub hidden: &'static [usize],
    pub epochs: usize,
    /// Reward the 5-iteration moving average must reach; `None` where a
    /// repeat is too few gradient steps to learn anything, and
    /// `time_to_target_s` is then the time to finish the fixed budget.
    pub target: Option<f32>,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dpa-cartpole",
        driver: Driver::DpA,
        fragments: 1,
        envs: 16,
        steps: 128,
        iterations: 80,
        hidden: &[64, 64],
        epochs: 4,
        target: Some(70.0),
        why: "Default policy, quickstart shape: the actor hides behind the learner, so the small-tensor learn path (GAE, log-prob, tape, Adam) bounds throughput",
    },
    Workload {
        name: "dpb-cartpole-step",
        driver: Driver::DpB,
        fragments: 1,
        envs: 16,
        steps: 128,
        iterations: 120,
        hidden: &[64, 64],
        epochs: 1,
        target: Some(50.0),
        why: "Per-step synchronisation: ~385 tiny fabric messages and a batch-16 central inference per iteration; acting, env and messaging bound it, not learning",
    },
    Workload {
        name: "dpc-cheetah-wide",
        driver: Driver::DpC,
        fragments: 2,
        envs: 8,
        steps: 128,
        iterations: 18,
        hidden: &[256, 256],
        epochs: 4,
        target: Some(40.0),
        why: "Continuous control on a 142,605-parameter model: matmul/tanh kernels carry the learn phase and 4.56 MB is all-reduced per iteration (bulk collectives)",
    },
    Workload {
        name: "dpd-cartpole-batched",
        driver: Driver::DpD,
        fragments: 2,
        envs: 128,
        steps: 200,
        iterations: 4,
        hidden: &[64, 64],
        epochs: 4,
        target: None,
        why: "Tall-batch regime: batch-128 inference and 25,600-row learn passes per device; bandwidth and allocation dominate, and peak RSS means something",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Environment seeds are a fixed function of `--seed` and the instance's
/// position, so equal seeds give equal inputs and no two instances share
/// a stream.
fn env_seed(seed: u64, fragment: usize, instance: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add((fragment * 1024 + instance) as u64)
}

fn ppo(epochs: usize) -> PpoConfig {
    PpoConfig {
        gamma: 0.99,
        gae_lambda: 0.95,
        clip: 0.2,
        lr: 3e-4,
        epochs,
        entropy_coef: 0.01,
        value_coef: 0.5,
        max_grad_norm: 0.5,
    }
}

fn dist(
    actors: usize,
    envs_per_actor: usize,
    steps_per_iter: usize,
    iterations: usize,
    hidden: &[usize],
    epochs: usize,
    seed: u64,
) -> DistPpoConfig {
    DistPpoConfig {
        actors,
        envs_per_actor,
        steps_per_iter,
        iterations,
        hidden: hidden.to_vec(),
        ppo: ppo(epochs),
        seed,
        overlap: true,
        staleness: 1,
        link_latency: Duration::ZERO,
        fusion: true,
        act_server: false,
    }
}

pub fn cartpole(seed: u64, fragment: usize, instance: usize) -> CartPole {
    CartPole::new(env_seed(seed, fragment, instance))
}

/// `collect` resets the environments every iteration, so the horizon has
/// to stay within `steps` or no episode ever finishes.
pub fn cheetah(seed: u64, fragment: usize, instance: usize) -> HalfCheetah {
    HalfCheetah::new(env_seed(seed, fragment, instance)).with_horizon(64)
}

pub fn batched_cartpole(w: &Workload, seed: u64, device: usize) -> BatchedCartPole {
    BatchedCartPole::new(w.envs, env_seed(seed, device, 0))
}

impl Workload {
    /// Transitions one repeat of `iterations` iterations must produce.
    pub fn transitions(&self, iterations: usize) -> u64 {
        (self.fragments * self.envs * self.steps * iterations) as u64
    }

    pub fn dist_config(&self, seed: u64, iterations: usize) -> DistPpoConfig {
        dist(self.fragments, self.envs, self.steps, iterations, self.hidden, self.epochs, seed)
    }

    pub fn dpd_config(&self, seed: u64, iterations: usize) -> DpDConfig {
        DpDConfig {
            devices: self.fragments,
            episodes: iterations,
            hidden: self.hidden.to_vec(),
            ppo: ppo(self.epochs),
            seed,
            fusion: true,
        }
    }

    /// `(obs_dim, act_dim)` of the workload's environment.
    pub fn dims(&self) -> (usize, usize) {
        match self.driver {
            Driver::DpC => (17, 6),
            _ => (4, 2),
        }
    }

    /// Runs the real driver for `iterations` iterations.
    pub fn run(&self, seed: u64, iterations: usize) -> msrl_core::Result<TrainingReport> {
        match self.driver {
            Driver::DpA => {
                run_dp_a(|a, i| cartpole(seed, a, i), &self.dist_config(seed, iterations))
            }
            Driver::DpB => {
                run_dp_b(|a, i| cartpole(seed, a, i), &self.dist_config(seed, iterations))
            }
            Driver::DpC => {
                run_dp_c(|a, i| cheetah(seed, a, i), &self.dist_config(seed, iterations))
            }
            Driver::DpD => {
                run_dp_d(|d| batched_cartpole(self, seed, d), &self.dpd_config(seed, iterations))
            }
        }
    }

    fn policy_name(&self) -> PolicyName {
        match self.driver {
            Driver::DpA => PolicyName::SingleLearnerCoarse,
            Driver::DpB => PolicyName::SingleLearnerFine,
            Driver::DpC => PolicyName::MultipleLearners,
            Driver::DpD => PolicyName::GpuOnly,
        }
    }

    /// Traces, partitions and places the workload's policy the way a user
    /// would before training: one worker with two devices.
    pub fn deploy(&self) -> Result<msrl_runtime::Deployment, String> {
        let (obs_dim, act_dim) = self.dims();
        let algo = AlgorithmConfig::ppo(self.fragments, self.envs);
        let deploy = DeploymentConfig::workers(1, 2, self.policy_name());
        let d = Coordinator::deploy_ppo(&algo, &deploy, obs_dim, act_dim, self.hidden[0])
            .map_err(|e| format!("deploy_ppo: {e}"))?;
        d.validate()?;
        if d.placement.fragments.len() != 2 {
            return Err(format!(
                "expected two placed fragments, got {}",
                d.placement.fragments.len()
            ));
        }
        Ok(d)
    }

    /// The config the program sees, for the ledger's provenance header.
    pub fn resolved_config(&self, seed: u64, iterations: usize) -> Value {
        obj(vec![
            ("driver", Value::Str(format!("{:?}", self.driver))),
            ("fragments", Value::U64(self.fragments as u64)),
            ("envs_per_fragment", Value::U64(self.envs as u64)),
            ("steps_per_iter", Value::U64(self.steps as u64)),
            ("iterations", Value::U64(iterations as u64)),
            ("hidden", Value::Seq(self.hidden.iter().map(|&h| Value::U64(h as u64)).collect())),
            ("ppo", Value::Str(format!("{:?}", ppo(self.epochs)))),
            ("seed", Value::U64(seed)),
            ("overlap", Value::Bool(true)),
            ("staleness", Value::U64(1)),
            ("link_latency_ns", Value::U64(0)),
            ("fusion", Value::Bool(true)),
            ("act_server", Value::Bool(false)),
            ("target", self.target.map_or(Value::Null, |t| num(f64::from(t)))),
            ("env", Value::Str(self.env_name().to_string())),
            ("MSRL_THREADS", Value::U64(1)),
            ("why", Value::Str(self.why.to_string())),
        ])
    }

    fn env_name(&self) -> &'static str {
        match self.driver {
            Driver::DpC => "HalfCheetah::with_horizon(64)",
            Driver::DpD => "BatchedCartPole",
            _ => "CartPole",
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep: one short run of each of the seven drivers.
// ---------------------------------------------------------------------------

pub const SWEEP_DRIVERS: [&str; 7] = ["dp_a", "dp_b", "dp_c", "dp_d", "dp_e", "dp_f", "a3c"];

/// A sweep run's report and the transitions its config says it makes.
pub struct SweepRun {
    pub report: msrl_core::Result<TrainingReport>,
    pub transitions: u64,
}

/// Runs one sweep driver at `scale` × its nominal length (≈2 s at 1.0).
pub fn run_sweep(driver: &str, seed: u64, scale: f64) -> SweepRun {
    let n = |nominal: usize| ((nominal as f64 * scale).round() as usize).max(2);
    match driver {
        "dp_a" | "dp_b" | "dp_c" | "dp_f" => {
            let (actors, envs, steps, it) = (2, 4, 64, n(160));
            let cfg = dist(actors, envs, steps, it, &[64, 64], 4, seed);
            let env = |a, i| cartpole(seed, a, i);
            let report = match driver {
                "dp_a" => run_dp_a(env, &cfg),
                "dp_b" => run_dp_b(env, &cfg),
                "dp_c" => run_dp_c(env, &cfg),
                _ => run_dp_f(env, &cfg),
            };
            SweepRun { report, transitions: (actors * envs * steps * it) as u64 }
        }
        "dp_d" => {
            let it = n(24);
            let cfg = DpDConfig {
                devices: 2,
                episodes: it,
                hidden: vec![64, 64],
                ppo: ppo(4),
                seed,
                fusion: true,
            };
            let report = run_dp_d(|d| BatchedCartPole::new(16, env_seed(seed, d, 0)), &cfg);
            SweepRun { report, transitions: (2 * 16 * 200 * it) as u64 }
        }
        "dp_e" => {
            // 1,000 episodes at full scale: the non-finite gradient this
            // driver runs into on SimpleSpread shows up before that on
            // most seeds (episode 856 on seed 7; README, "Findings").
            let it = n(1000);
            let cfg =
                DpEConfig { episodes: it, hidden: vec![64, 64], ppo: ppo(4), seed, fusion: true };
            let env = SimpleSpread::new(2, seed);
            let per_episode = 2 * msrl_env::MultiAgentEnvironment::horizon(&env);
            let report = run_dp_e(move || env, &cfg);
            SweepRun { report, transitions: (per_episode * it) as u64 }
        }
        "a3c" => {
            let pushes = n(600);
            let cfg = A3cDistConfig {
                workers: 2,
                rollout_steps: 32,
                pushes_per_worker: pushes,
                hidden: vec![64, 64],
                a3c: A3cConfig {
                    gamma: 0.99,
                    lr: 1e-3,
                    entropy_coef: 0.01,
                    value_coef: 0.5,
                    max_grad_norm: 1.0,
                },
                seed,
                fusion: true,
            };
            let report = run_a3c(|w| cartpole(seed, w, 0), &cfg);
            SweepRun { report, transitions: (2 * 32 * pushes) as u64 }
        }
        other => panic!("unknown sweep driver {other}"),
    }
}
