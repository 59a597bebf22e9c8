//! Names, units, directions and bounds of every metric the benchmark
//! prints. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test keeps the two in step.

use crate::workloads::SWEEP_DRIVERS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` calls it a regression. Sized to the reference
    /// host's run-to-run spread (README, "Steadiness"), which on two
    /// shared cores is several times the 5 % one would like.
    pub bound: f64,
    /// Whether the metric holds still when only `--seed` changes. The
    /// driver contract of `BENCHMARK.json` measures spread across seeds,
    /// so only these are listed there as end-to-end; the others are
    /// gated by `compare`, which is run seed against same seed.
    pub seed_steady: bool,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "env_steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        seed_steady: true,
    },
    EndToEnd {
        name: "time_to_target_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        seed_steady: false,
    },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, seed_steady: true },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        seed_steady: true,
    },
];

/// Per-layer metrics every traced run reports, with unit and direction.
/// The sweep's fourteen (`sweep.<driver>.env_steps_per_s|failed_ops`)
/// are appended by [`per_layer`].
const LAYER: [(&str, &str, Better); 38] = [
    ("e2e.time_to_target_s", "s", Better::Lower),
    ("e2e.iters_to_target", "count", Better::Lower),
    ("env.step_us", "us", Better::Lower),
    ("env.steps", "count", Better::Higher),
    ("algos.act_us", "us", Better::Lower),
    ("algos.forward_us", "us", Better::Lower),
    ("algos.sample_us", "us", Better::Lower),
    ("algos.buffer_us", "us", Better::Lower),
    ("algos.gae_us", "us", Better::Lower),
    ("algos.grads_ms", "ms", Better::Lower),
    ("algos.apply_ms", "ms", Better::Lower),
    ("algos.learn_ms", "ms", Better::Lower),
    ("algos.sync_us", "us", Better::Lower),
    ("runtime.wire_us", "us", Better::Lower),
    ("runtime.wire_bytes", "B", Better::Lower),
    ("seq.env_steps_per_s", "1/s", Better::Higher),
    ("runtime.speedup_vs_seq", "ratio", Better::Higher),
    ("comm.pingpong_us", "us", Better::Lower),
    ("comm.allreduce_ms", "ms", Better::Lower),
    ("comm.allreduce_gbps", "GB/s", Better::Higher),
    ("comm.broadcast_us", "us", Better::Lower),
    ("comm.bytes_per_iter", "B", Better::Lower),
    ("comm.msgs_per_iter", "count", Better::Lower),
    ("comm.stale_iter_share", "ratio", Better::Lower),
    ("core.deploy_ms", "ms", Better::Lower),
    ("core.plan_compile_us", "us", Better::Lower),
    ("core.fragment_eval_us", "us", Better::Lower),
    ("tensor.matmul_gflops", "GFLOP/s", Better::Higher),
    ("tensor.pool_hit_rate", "ratio", Better::Higher),
    ("tensor.threaded_t2_ratio", "ratio", Better::Higher),
    ("runtime.rollout_share", "ratio", Better::Lower),
    ("runtime.learn_share", "ratio", Better::Lower),
    ("runtime.comm_share", "ratio", Better::Lower),
    ("runtime.idle_share", "ratio", Better::Lower),
    ("runtime.iter_ms_p50", "ms", Better::Lower),
    ("runtime.iter_ms_p99", "ms", Better::Lower),
    ("telemetry.trace_overhead_pct", "%", Better::Lower),
    ("health.findings", "count", Better::Lower),
];

pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> =
        LAYER.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    for d in SWEEP_DRIVERS {
        all.push((format!("sweep.{d}.env_steps_per_s"), "1/s", Better::Higher));
        all.push((format!("sweep.{d}.failed_ops"), "count", Better::Lower));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_seq, as_str, f64_at, get};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` names exactly what this binary prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let v = serde_json::value_from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            as_seq(get(&v, key).unwrap())
                .unwrap()
                .iter()
                .map(|m| as_str(get(m, "name").unwrap()).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);

        let steady: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.seed_steady).collect();
        assert_eq!(names("end_to_end"), steady.iter().map(|m| m.name).collect::<Vec<_>>());
        for (entry, m) in as_seq(get(&v, "end_to_end").unwrap()).unwrap().iter().zip(steady) {
            assert_eq!(as_str(get(entry, "unit").unwrap()), Some(m.unit), "{}", m.name);
            assert_eq!(as_str(get(entry, "better").unwrap()), Some(m.better.name()), "{}", m.name);
            assert_eq!(f64_at(entry, "bound"), Some(m.bound), "{}", m.name);
        }

        let layers = per_layer();
        assert_eq!(names("per_layer"), layers.iter().map(|l| l.0.clone()).collect::<Vec<_>>());
        for (entry, (name, unit, better)) in
            as_seq(get(&v, "per_layer").unwrap()).unwrap().iter().zip(&layers)
        {
            assert_eq!(as_str(get(entry, "unit").unwrap()), Some(*unit), "{name}");
            assert_eq!(as_str(get(entry, "better").unwrap()), Some(better.name()), "{name}");
        }
    }
}
