//! The resolved runtime configuration: every non-telemetry `MSRL_*`
//! variable, parsed in one place and strictly.
//!
//! [`RuntimeConfig::from_env`] is the only reader of `MSRL_OVERLAP`,
//! `MSRL_STALENESS`, `MSRL_ACTSRV` and `MSRL_FAULT_NAN_ITER`, and it
//! delegates `MSRL_BACKEND` and `MSRL_THREADS` to
//! [`ExecCtx::from_env`]. A value outside a variable's accepted set is a
//! [`ConfigError`] naming the variable — never a silent default. The
//! `Default` impls of the driver configs take their environment-backed
//! fields from here; binaries call `from_env` first so a bad value is
//! reported as an error before any work starts.
//!
//! The run configurations live here too — [`DistPpoConfig`] for the four
//! PPO rules that share it, [`DpDConfig`], [`DpEConfig`],
//! [`A3cDistConfig`] — re-exported from `crate::exec`, whose entry
//! points take them.

use msrl_algos::a3c::A3cConfig;
use msrl_algos::ppo::PpoConfig;
pub use msrl_tensor::par::ConfigError;
use msrl_tensor::par::{self, parse_var, ExecCtx};

/// Everything the environment can say about how a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Tensor execution context (`MSRL_BACKEND`, `MSRL_THREADS`).
    pub exec: ExecCtx,
    /// Overlap communication with computation (`MSRL_OVERLAP`, default
    /// on).
    pub overlap: bool,
    /// Bounded-staleness window for overlapped weight sync, in
    /// iterations (`MSRL_STALENESS`, default 1).
    pub staleness: usize,
    /// Route DP-A policy forwards through the cross-actor act server
    /// (`MSRL_ACTSRV`, default off).
    pub act_server: bool,
    /// Fault injection for the health e2e: after this (0-based) DP-A
    /// iteration one learner weight is scaled to infinity
    /// (`MSRL_FAULT_NAN_ITER`, default none).
    pub fault_nan_iter: Option<u64>,
}

const BOOL_VALUES: &str = "0|off|false|no|1|on|true|yes";

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "0" | "off" | "false" | "no" => Some(false),
        "1" | "on" | "true" | "yes" => Some(true),
        _ => None,
    }
}

impl RuntimeConfig {
    /// Resolves a configuration from `lookup(name)`, the pure core of
    /// [`Self::from_env`]: unset variables take their defaults, set
    /// ones must parse.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`]: those of [`ExecCtx::parse`],
    /// a non-boolean `MSRL_OVERLAP`/`MSRL_ACTSRV`, or an
    /// `MSRL_STALENESS`/`MSRL_FAULT_NAN_ITER` that is not a
    /// non-negative integer.
    pub fn parse(
        lookup: impl Fn(&'static str) -> Option<String>,
    ) -> Result<RuntimeConfig, ConfigError> {
        const COUNT: &str = "a non-negative integer";
        let overlap = parse_var(&lookup, "MSRL_OVERLAP", BOOL_VALUES, parse_bool)?;
        let staleness = parse_var(&lookup, "MSRL_STALENESS", COUNT, |v| v.parse().ok())?;
        let act_server = parse_var(&lookup, "MSRL_ACTSRV", BOOL_VALUES, parse_bool)?;
        let fault_nan_iter = parse_var(&lookup, "MSRL_FAULT_NAN_ITER", COUNT, |v| v.parse().ok())?;
        Ok(RuntimeConfig {
            exec: ExecCtx::parse(lookup)?,
            overlap: overlap.unwrap_or(true),
            staleness: staleness.unwrap_or(1),
            act_server: act_server.unwrap_or(false),
            fault_nan_iter,
        })
    }

    /// [`Self::parse`] over the process environment.
    ///
    /// # Errors
    ///
    /// See [`Self::parse`].
    pub fn from_env() -> Result<RuntimeConfig, ConfigError> {
        RuntimeConfig::parse(|name| std::env::var(name).ok())
    }
}

impl Default for RuntimeConfig {
    /// The environment's configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on a rejected value;
    /// binaries call [`RuntimeConfig::from_env`] up front to report it
    /// as an error instead.
    fn default() -> Self {
        RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

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
    /// Overlap communication with computation (double-buffered weight
    /// sync under DP-A/DP-F, fused collective under DP-C). Defaults from
    /// `MSRL_OVERLAP` (on); off means every sync is fully blocking.
    pub overlap: bool,
    /// Bounded-staleness window for overlapped weight sync: actors may
    /// roll out on weights at most this many iterations old. Defaults
    /// from `MSRL_STALENESS`; ignored when `overlap` is off.
    pub staleness: usize,
    /// Simulated per-message wire latency on the comm fabric — the
    /// in-process analogue of the paper's `tc`-injected network latency
    /// (Fig. 7d). Zero (the default) means in-process channel speed.
    pub link_latency: std::time::Duration,
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel and enable the graph compiler's fusion passes (both
    /// bit-identical to the unfused path). On by default; off is the
    /// reference the bitwise suites compare against.
    pub fusion: bool,
    /// Micro-batch policy forwards *across* actor fragments through the
    /// shared [`crate::actsrv::ActServer`] (DP-A). Bit-identical to the
    /// per-actor path; forces the staleness bound to zero (all actors
    /// share one weight snapshot). Defaults from `MSRL_ACTSRV` (off).
    pub act_server: bool,
}

impl Default for DistPpoConfig {
    fn default() -> Self {
        let env = RuntimeConfig::default();
        DistPpoConfig {
            actors: 2,
            envs_per_actor: 4,
            steps_per_iter: 64,
            iterations: 10,
            hidden: vec![32, 32],
            ppo: PpoConfig::default(),
            seed: 0,
            overlap: env.overlap,
            staleness: env.staleness,
            link_latency: std::time::Duration::ZERO,
            fusion: par::fusion_enabled(),
            act_server: env.act_server,
        }
    }
}

impl DistPpoConfig {
    /// The effective staleness bound: `staleness` when overlap is on,
    /// zero (fully synchronous) otherwise — one code path for both. The
    /// act server also forces zero: its clients share one policy
    /// snapshot, so per-actor weight versions cannot diverge.
    pub(crate) fn stale_bound(&self) -> usize {
        if self.overlap && !self.act_server {
            self.staleness
        } else {
            0
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
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel (bit-identical to the unfused path).
    pub fusion: bool,
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
    /// Route linear layers through the fused `MatMul+bias+activation`
    /// kernel (bit-identical to the unfused path).
    pub fusion: bool,
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
            fusion: par::fusion_enabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_tensor::par::Backend;

    fn parse(vars: &[(&'static str, &str)]) -> Result<RuntimeConfig, ConfigError> {
        RuntimeConfig::parse(|name| {
            vars.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn bad_values_are_errors_naming_the_variable_and_what_it_accepts() {
        for (var, value, accepted) in [
            ("MSRL_BACKEND", "gpu", "scalar|threaded"),
            ("MSRL_THREADS", "abc", "a positive integer"),
            ("MSRL_THREADS", "0", "a positive integer"),
            ("MSRL_STALENESS", "-1", "a non-negative integer"),
            ("MSRL_OVERLAP", "maybe", BOOL_VALUES),
            ("MSRL_ACTSRV", "", BOOL_VALUES),
            ("MSRL_FAULT_NAN_ITER", "soon", "a non-negative integer"),
        ] {
            let err = parse(&[(var, value)]).expect_err("bad value must be rejected");
            assert_eq!(err, ConfigError { var, value: value.to_string(), accepted });
            let msg = err.to_string();
            assert!(msg.contains(var) && msg.contains(accepted), "unhelpful message: {msg}");
        }
    }

    #[test]
    fn unset_takes_defaults_and_good_values_parse() {
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.overlap, d.staleness, d.act_server, d.fault_nan_iter),
            (true, 1, false, None)
        );
        assert_eq!((d.exec.backend, d.exec.fusion), (Backend::Threaded, true));
        assert!(d.exec.threads >= 1 && d.exec.par_min.is_none());
        let c = parse(&[
            ("MSRL_BACKEND", "scalar"),
            ("MSRL_THREADS", " 3 "),
            ("MSRL_OVERLAP", "off"),
            ("MSRL_STALENESS", "0"),
            ("MSRL_ACTSRV", "1"),
            ("MSRL_FAULT_NAN_ITER", "7"),
        ])
        .unwrap();
        assert_eq!((c.exec.backend, c.exec.threads), (Backend::Scalar, 3));
        assert_eq!(
            (c.overlap, c.staleness, c.act_server, c.fault_nan_iter),
            (false, 0, true, Some(7))
        );
    }
}
