//! One repeat of one workload, in a process of its own.
//!
//! The child pays the whole set-up a user pays (deploy, construction, a
//! one-iteration warm-up that resolves ISA dispatch, fills the buffer
//! pools and spawns threads once), then runs the measured driver call,
//! checks its outputs and prints one JSON line.

use std::time::Instant;

use msrl_runtime::TrainingReport;
use serde_json::Value;

use crate::json::{self, num, nums, obj};
use crate::workloads::{self, Workload};

/// Counters the program already keeps; read before and after the
/// measured call, never reset.
const COUNTERS: [&str; 6] =
    ["env.steps", "comm.bytes_sent", "comm.msgs_sent", "comm.stale_iters", "pool.hit", "pool.miss"];
/// How many of them (from the front) depend on the inputs alone, not on
/// thread timing: same seed, same count.
const EXACT_COUNTERS: usize = 3;

fn read_counters() -> Vec<u64> {
    COUNTERS.iter().map(|c| msrl_telemetry::counter_total(c)).collect()
}

/// FNV-1a over the bit patterns, so `-0.0` and `0.0` differ, as a bitwise
/// determinism check needs.
pub fn checksum(values: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Index of the first iteration whose 5-iteration moving average of
/// `rewards` reaches `target`.
pub fn first_crossing(rewards: &[f32], target: f32) -> Option<usize> {
    const WINDOW: usize = 5;
    (WINDOW - 1..rewards.len()).find(|&i| {
        let w = &rewards[i + 1 - WINDOW..=i];
        w.iter().sum::<f32>() / WINDOW as f32 >= target
    })
}

/// Output checks of one finished run; each violation voids the repeat.
fn check(
    w: &Workload,
    iterations: usize,
    report: &TrainingReport,
    env_steps: u64,
    errors: &mut Vec<String>,
) {
    let expect = w.transitions(iterations);
    if env_steps != expect {
        errors.push(format!("env.steps moved by {env_steps}, config product is {expect}"));
    }
    if report.iteration_rewards.len() != iterations {
        errors.push(format!(
            "{} iteration rewards for {iterations} iterations",
            report.iteration_rewards.len()
        ));
    }
    if report.iteration_rewards.iter().chain(&report.losses).any(|v| !v.is_finite()) {
        errors.push("non-finite reward or loss".to_string());
    }
    if report.final_params.is_empty() || report.final_params.iter().any(|v| !v.is_finite()) {
        errors.push("final_params empty or non-finite".to_string());
    }
}

pub fn run(
    w: &Workload,
    seed: u64,
    iterations: usize,
    setup_only: bool,
    check_target: bool,
) -> Value {
    let t0 = Instant::now();
    let mut errors = Vec::new();
    if let Err(e) = w.deploy() {
        errors.push(e);
    }
    if let Err(e) = w.run(seed, 1) {
        errors.push(format!("warm-up: {e}"));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut out = vec![
        ("workload", Value::Str(w.name.to_string())),
        ("seed", Value::U64(seed)),
        ("iterations", Value::U64(iterations as u64)),
        ("setup_s", num(setup_s)),
    ];
    if !setup_only {
        let before = read_counters();
        let t = Instant::now();
        let result = w.run(seed, iterations);
        let wall_s = t.elapsed().as_secs_f64();
        let deltas: Vec<u64> =
            read_counters().iter().zip(&before).map(|(a, b)| a.saturating_sub(*b)).collect();
        let transitions = w.transitions(iterations);
        out.push(("wall_s", num(wall_s)));
        out.push(("transitions", Value::U64(transitions)));
        out.push(("env_steps_per_s", num(transitions as f64 / wall_s)));
        out.push((
            "counters",
            obj(COUNTERS.iter().zip(&deltas).map(|(c, d)| (*c, Value::U64(*d))).collect()),
        ));
        match result {
            Ok(report) => {
                check(w, iterations, &report, deltas[0], &mut errors);
                let k = match w.target.filter(|_| check_target) {
                    Some(t) => first_crossing(&report.iteration_rewards, t),
                    None => iterations.checked_sub(1),
                };
                // What must repeat exactly on one commit and seed.
                let mut exact = vec![("final_params", Value::Str(checksum(&report.final_params)))];
                match k {
                    Some(k) => {
                        exact.push(("iters_to_target", Value::U64(k as u64 + 1)));
                        let share = (k + 1) as f64 / iterations as f64;
                        out.push(("time_to_target_s", num(wall_s * share)));
                    }
                    None => errors.push(format!(
                        "target {:?} never reached (best 5-iteration mean {:.1})",
                        w.target,
                        best_window(&report.iteration_rewards)
                    )),
                }
                for (c, d) in COUNTERS.iter().zip(&deltas).take(EXACT_COUNTERS) {
                    exact.push((c, Value::U64(*d)));
                }
                out.push(("exact", obj(exact)));
                let rewards: Vec<f64> =
                    report.iteration_rewards.iter().map(|&r| f64::from(r)).collect();
                out.push(("rewards", nums(&rewards)));
            }
            Err(e) => errors.push(format!("driver returned Err: {e}")),
        }
    }
    match peak_rss_mb() {
        Some(mb) => out.push(("peak_rss_mb", num(mb))),
        None => errors.push("VmHWM unreadable".to_string()),
    }
    out.push(("errors", json::strs(&errors)));
    obj(out)
}

/// One short run of one of the seven drivers. Violations are counted,
/// not hidden: the sweep is coverage, and what it finds is reported.
pub fn run_sweep(driver: &str, seed: u64, scale: f64) -> Value {
    let before = msrl_telemetry::counter_total("env.steps");
    let t = Instant::now();
    let run = workloads::run_sweep(driver, seed, scale);
    let wall_s = t.elapsed().as_secs_f64();
    let env_steps = msrl_telemetry::counter_total("env.steps") - before;
    let mut errors = Vec::new();
    let mut checksum_of = String::new();
    match &run.report {
        Ok(r) => {
            if r.iteration_rewards.is_empty()
                || r.iteration_rewards.iter().chain(&r.losses).any(|v| !v.is_finite())
            {
                errors.push("empty or non-finite rewards/losses".to_string());
            }
            if r.final_params.iter().any(|v| !v.is_finite()) {
                errors.push("non-finite final_params".to_string());
            }
            // DP-E returns no final_params; its rewards stand in.
            checksum_of = checksum(if r.final_params.is_empty() {
                &r.iteration_rewards
            } else {
                &r.final_params
            });
        }
        Err(e) => errors.push(format!("driver returned Err: {e}")),
    }
    // The MPE environments of DP-E do not count their steps.
    if driver != "dp_e" && env_steps != run.transitions {
        errors
            .push(format!("env.steps moved by {env_steps}, config product is {}", run.transitions));
    }
    obj(vec![
        ("driver", Value::Str(driver.to_string())),
        ("wall_s", num(wall_s)),
        ("env_steps_per_s", num(run.transitions as f64 / wall_s)),
        ("checksum", Value::Str(checksum_of)),
        ("errors", json::strs(&errors)),
    ])
}

fn best_window(rewards: &[f32]) -> f32 {
    rewards.windows(5).map(|w| w.iter().sum::<f32>() / 5.0).fold(f32::MIN, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_crossing_uses_a_five_iteration_window() {
        let r = [0.0, 0.0, 0.0, 0.0, 50.0, 50.0, 50.0, 50.0, 50.0];
        assert_eq!(first_crossing(&r, 10.0), Some(4));
        assert_eq!(first_crossing(&r, 50.0), Some(8));
        assert_eq!(first_crossing(&r, 50.1), None);
        assert_eq!(first_crossing(&r[..3], 0.0), None);
    }

    #[test]
    fn checksum_sees_sign_of_zero_and_order() {
        assert_ne!(checksum(&[0.0]), checksum(&[-0.0]));
        assert_ne!(checksum(&[1.0, 2.0]), checksum(&[2.0, 1.0]));
        assert_eq!(checksum(&[1.5, 2.5]), checksum(&[1.5, 2.5]));
    }
}
