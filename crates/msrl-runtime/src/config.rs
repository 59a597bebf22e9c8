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

pub use msrl_tensor::par::ConfigError;
use msrl_tensor::par::{parse_var, ExecCtx};

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
