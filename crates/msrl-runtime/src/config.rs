//! The run configurations — [`DistPpoConfig`] for the four PPO rules
//! that share it, [`DpDConfig`], [`DpEConfig`], [`A3cDistConfig`] —
//! re-exported from `crate::exec`, whose entry points take them.
//!
//! No run configuration reads the environment: how a PPO run
//! synchronises is one field of its config, [`DistPpoConfig::staleness`],
//! and nothing else. The one non-telemetry `MSRL_*` variable,
//! `MSRL_BACKEND`, is resolved strictly by
//! [`Backend::parse`](msrl_tensor::par::Backend::parse): a value outside
//! its accepted set is a [`ConfigError`] naming the variable — never a
//! silent default. Binaries call `Backend::from_env` first so a bad value
//! is reported as an error before any work starts.

use msrl_algos::a3c::A3cConfig;
use msrl_algos::ppo::PpoConfig;
pub use msrl_tensor::par::ConfigError;

/// Configuration shared by the PPO distribution policies
/// ([`crate::exec::run_ppo`]: DP-A, DP-B, DP-C, DP-F).
#[derive(Debug, Clone)]
pub struct DistPpoConfig {
    /// Actor (or fused actor+learner) replicas.
    pub actors: usize,
    /// Environments per actor.
    pub envs_per_actor: usize,
    /// Vectorised steps collected per training iteration.
    pub steps_per_iter: usize,
    /// Training iterations to run.
    pub iterations: usize,
    /// Hidden layer widths of the policy.
    pub hidden: Vec<usize>,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Base RNG seed (replicas derive their own deterministically).
    pub seed: u64,
    /// Not read: how a run synchronises is [`Self::staleness`] alone,
    /// and DP-C's returns always ride its last gradient all-reduce. Kept
    /// only because the frozen ledger spells it in struct literals;
    /// elsewhere use `..Default::default()`.
    pub overlap: bool,
    /// How many weight replies a push–pull worker (DP-A, DP-F) may still
    /// be owed when it starts a rollout: at iteration `i` it acts on the
    /// weights that answered its push `i − 1 − staleness`. 0 is fully
    /// synchronous; 1 (the default) hides one reply behind each rollout.
    /// DP-B and DP-C synchronise every step or epoch and ignore it.
    pub staleness: usize,
    /// Simulated per-message wire latency on the comm fabric — the
    /// in-process analogue of the paper's `tc`-injected network latency
    /// (Fig. 7d). Zero (the default) means in-process channel speed.
    pub link_latency: std::time::Duration,
    /// Not read. Every layer runs the fused `MatMul+bias+activation`
    /// kernel, which is bit-identical to the separate operators by
    /// contract (`msrl_tensor::ops::linear_act`), so no value of this
    /// field could change a run. Kept only because the frozen ledger
    /// spells it in struct literals; elsewhere use `..Default::default()`.
    pub fusion: bool,
    /// Not read: DP-A's actors each forward their own rows (DP-B's hub
    /// is the seat that forwards every actor's rows at once). Kept only
    /// because the frozen ledger spells it in struct literals; elsewhere
    /// use `..Default::default()`.
    pub act_server: bool,
}

impl Default for DistPpoConfig {
    fn default() -> Self {
        DistPpoConfig {
            actors: 2,
            envs_per_actor: 4,
            steps_per_iter: 64,
            iterations: 10,
            hidden: vec![32, 32],
            ppo: PpoConfig::default(),
            seed: 0,
            overlap: true,
            staleness: 1,
            link_latency: std::time::Duration::ZERO,
            fusion: true,
            act_server: false,
        }
    }
}

/// Configuration for the fused GPU-only loop (DP-D).
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
    /// Not read: every layer runs the fused `MatMul+bias+activation`
    /// kernel (see [`DistPpoConfig::fusion`]).
    pub fusion: bool,
}

impl Default for DpDConfig {
    fn default() -> Self {
        DpDConfig {
            devices: 2,
            episodes: 10,
            hidden: vec![32, 32],
            ppo: PpoConfig::default(),
            seed: 0,
            fusion: true,
        }
    }
}

/// Configuration for MAPPO with a dedicated environment worker (DP-E).
#[derive(Debug, Clone)]
pub struct DpEConfig {
    /// Episodes to train.
    pub episodes: usize,
    /// Hidden widths of per-agent policies.
    pub hidden: Vec<usize>,
    /// PPO hyper-parameters for each agent learner.
    pub ppo: PpoConfig,
    /// Base seed.
    pub seed: u64,
    /// Not read: every layer runs the fused `MatMul+bias+activation`
    /// kernel (see [`DistPpoConfig::fusion`]).
    pub fusion: bool,
}

impl Default for DpEConfig {
    fn default() -> Self {
        DpEConfig {
            episodes: 10,
            hidden: vec![32, 32],
            ppo: PpoConfig::default(),
            seed: 0,
            fusion: true,
        }
    }
}

/// Configuration for asynchronous A3C.
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
    /// Not read: every layer runs the fused `MatMul+bias+activation`
    /// kernel (see [`DistPpoConfig::fusion`]).
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
            fusion: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_tensor::par::Backend;

    fn parse(vars: &[(&'static str, &str)]) -> Result<Backend, ConfigError> {
        Backend::parse(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_string()))
    }

    #[test]
    fn bad_values_are_errors_naming_the_variable_and_what_it_accepts() {
        for (var, value, accepted) in
            [("MSRL_BACKEND", "gpu", "scalar|threaded"), ("MSRL_BACKEND", "-1", "scalar|threaded")]
        {
            let err = parse(&[(var, value)]).expect_err("bad value must be rejected");
            assert_eq!(err, ConfigError { var, value: value.to_string(), accepted });
            let msg = err.to_string();
            assert!(msg.contains(var) && msg.contains(accepted), "unhelpful message: {msg}");
        }
    }

    #[test]
    fn unset_takes_defaults_and_good_values_parse() {
        assert_eq!(parse(&[]).unwrap(), Backend::Threaded);
        assert_eq!(parse(&[("MSRL_BACKEND", "scalar")]).unwrap(), Backend::Scalar);
        assert_eq!(parse(&[("MSRL_BACKEND", " threaded\n")]).unwrap(), Backend::Threaded);
    }

    /// `MSRL_THREADS` is not read, and the benchmark harness still sets
    /// it: whatever it holds, the backend parses as if it were unset.
    #[test]
    fn msrl_threads_is_ignored() {
        let ignored = parse(&[("MSRL_THREADS", "abc")]).expect("MSRL_THREADS is not parsed");
        assert_eq!(ignored, parse(&[]).unwrap());
    }
}
