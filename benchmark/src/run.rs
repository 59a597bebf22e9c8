//! The parent side: spawns one child process per repeat, checks what
//! comes back, and folds repeats into end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::json::{self, as_seq, as_str, f64_at, get};
use crate::metrics::END_TO_END;
use crate::spans::{self, Span};
use crate::stats::median;
use crate::workloads::{Workload, SWEEP_DRIVERS};
use crate::{probes, replica, stream};

/// Set-up is sampled at least this often per run, by set-up-only
/// children beyond the measured repeats, so its median holds still ...
const MIN_SETUP_SAMPLES: usize = 5;
/// ... and, where set-up takes only milliseconds and the clock's noise is
/// a large share of it, as often as fits in a second, up to this.
const MAX_SETUP_SAMPLES: usize = 15;
/// No run needs more repeats than this, however short `--seconds` makes
/// them look on a fast host.
const MAX_REPEATS: usize = 8;
/// A child that has not finished by then is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

pub struct Ctx {
    pub exe: PathBuf,
    /// Directory the children run under (`benchmark/out`).
    pub out: PathBuf,
}

/// How much of each workload a run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untraced repeats are started until this many seconds are measured.
    pub seconds: f64,
    /// Share of each workload's frozen iteration count that is run.
    pub scale: f64,
    /// Length of the sweep's runs, 1.0 being ≈2 s each.
    pub sweep_scale: f64,
}

impl Plan {
    pub fn smoke() -> Plan {
        Plan { seconds: 0.0, scale: 0.1, sweep_scale: 0.1 }
    }

    pub fn iterations(&self, w: &Workload) -> usize {
        ((w.iterations as f64 * self.scale).round() as usize).max(1)
    }

    /// A shortened run cannot be expected to reach the learning target,
    /// and is not worth extra set-up samples.
    fn full_length(&self) -> bool {
        self.scale >= 1.0
    }
}

pub struct ChildOutcome {
    pub json: Option<Value>,
    pub errors: Vec<String>,
}

impl ChildOutcome {
    fn f64(&self, key: &str) -> Option<f64> {
        self.json.as_ref().and_then(|j| f64_at(j, key))
    }
}

fn flightrec_dumps(cwd: &Path) -> usize {
    std::fs::read_dir(cwd.join("results")).map_or(0, |dir| {
        dir.filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("flightrec-"))
            .count()
    })
}

/// Runs `bench_e2e child <args>` with cwd `out/<label>/`, every `MSRL_*`
/// variable scrubbed and `MSRL_THREADS=1`, and waits for it to end.
/// With `metrics_file`, the child streams RunEvents to `metrics.jsonl`.
pub fn spawn(ctx: &Ctx, label: &str, args: &[String], metrics_file: bool) -> ChildOutcome {
    let cwd = ctx.out.join(label);
    let mut errors = Vec::new();
    let fail = |errors: Vec<String>| ChildOutcome { json: None, errors };
    // What an earlier child left behind must not be taken for this one's.
    let _ = std::fs::remove_dir_all(cwd.join("results"));
    let _ = std::fs::remove_file(cwd.join("metrics.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&cwd) {
        return fail(vec![format!("create {}: {e}", cwd.display())]);
    }
    let stdout_path = cwd.join("child.out");
    let stdout = match std::fs::File::create(&stdout_path) {
        Ok(f) => f,
        Err(e) => return fail(vec![format!("create {}: {e}", stdout_path.display())]),
    };
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("child").args(args).current_dir(&cwd).stdin(Stdio::null()).stdout(stdout);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MSRL_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("MSRL_THREADS", "1");
    if metrics_file {
        cmd.env("MSRL_METRICS_FILE", "metrics.jsonl");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return fail(vec![format!("spawn {}: {e}", ctx.exe.display())]),
    };
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return fail(vec![format!("wait for child: {e}")]);
            }
        }
    };
    match status {
        None => errors.push(format!("child killed after {CHILD_TIMEOUT:?}")),
        Some(s) if !s.success() => errors.push(format!("child exited with {s} (panic?)")),
        Some(_) => {}
    }
    let dumps = flightrec_dumps(&cwd);
    if dumps > 0 {
        errors
            .push(format!("{dumps} flight-recorder dump(s) in {}", cwd.join("results").display()));
    }
    let text = std::fs::read_to_string(&stdout_path).unwrap_or_default();
    let json = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| serde_json::value_from_str(l).ok());
    match &json {
        Some(j) => {
            let own = get(j, "errors").and_then(as_seq).unwrap_or_default();
            errors.extend(own.iter().filter_map(as_str).map(str::to_string));
        }
        None => errors.push("child printed no result line".to_string()),
    }
    ChildOutcome { json, errors }
}

fn child_args(w: &Workload, seed: u64, plan: &Plan, setup_only: bool) -> Vec<String> {
    let mut args: Vec<String> = ["--workload", w.name, "--seed"].map(String::from).to_vec();
    args.push(seed.to_string());
    args.push("--iterations".to_string());
    args.push(plan.iterations(w).to_string());
    if setup_only {
        args.push("--setup-only".to_string());
    }
    if !plan.full_length() {
        args.push("--no-target".to_string());
    }
    args
}

// ---------------------------------------------------------------------------
// End to end (tracing off)
// ---------------------------------------------------------------------------

/// The untraced repeats of one workload.
#[derive(Default)]
pub struct E2e {
    /// Samples per end-to-end metric, one per repeat (set-up: one per child).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per repeat, what must repeat exactly: the `final_params` checksum,
    /// iterations to target, and the comm and env counters.
    pub exact: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl E2e {
    pub fn median(&self, metric: &str) -> Option<f64> {
        self.samples.get(metric).filter(|v| !v.is_empty()).map(|v| median(v))
    }

    fn record(&mut self, w: &Workload, iterations: usize, o: &ChildOutcome) {
        self.attempted += iterations as u64;
        if !o.errors.is_empty() {
            self.failed += iterations as u64;
            self.errors.extend(o.errors.iter().map(|e| format!("{}: {e}", w.name)));
        }
        for m in &END_TO_END {
            self.samples.entry(m.name).or_default().extend(o.f64(m.name));
        }
        self.exact.extend(o.json.as_ref().and_then(|j| get(j, "exact")).cloned());
    }

    /// Same seed, same program: every repeat must end on the same
    /// weights after the same number of iterations and messages.
    fn check_determinism(&mut self, w: &Workload) {
        if self.exact.windows(2).any(|pair| pair[0] != pair[1]) {
            self.failed = self.attempted;
            let seen: Vec<String> = self.exact.iter().map(json::to_string).collect();
            self.errors.push(format!(
                "{}: same-seed repeats differ: {}",
                w.name,
                seen.join(" vs ")
            ));
        }
    }
}

pub fn end_to_end(ctx: &Ctx, w: &Workload, seed: u64, plan: &Plan) -> E2e {
    let iterations = plan.iterations(w);
    let mut e2e = E2e::default();
    let mut measured = 0.0;
    let mut children = 0;
    while children == 0 || (measured < plan.seconds && children < MAX_REPEATS) {
        let o = spawn(ctx, w.name, &child_args(w, seed, plan, false), false);
        e2e.record(w, iterations, &o);
        children += 1;
        match o.f64("wall_s") {
            Some(wall) => measured += wall,
            // Nothing was measured; another try would tell nothing new.
            None => break,
        }
    }
    let sample_setup = plan.full_length() && plan.seconds > 0.0;
    let started = Instant::now();
    let mut samples = children;
    while sample_setup
        && (samples < MIN_SETUP_SAMPLES
            || (samples < MAX_SETUP_SAMPLES && started.elapsed() < Duration::from_secs(1)))
    {
        samples += 1;
        let o = spawn(ctx, w.name, &child_args(w, seed, plan, true), false);
        e2e.errors.extend(o.errors.iter().map(|e| format!("{} set-up: {e}", w.name)));
        e2e.failed += o.errors.len().min(1) as u64;
        e2e.samples.entry("setup_s").or_default().extend(o.f64("setup_s"));
    }
    e2e.check_determinism(w);
    e2e
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

pub struct SweepRow {
    pub driver: &'static str,
    pub env_steps_per_s: f64,
    pub failed_ops: u64,
    pub errors: Vec<String>,
}

/// One short run of each of the seven drivers, each in its own child.
pub fn sweep(ctx: &Ctx, seed: u64, scale: f64) -> Vec<SweepRow> {
    SWEEP_DRIVERS
        .iter()
        .map(|&driver| {
            let args =
                ["--sweep", driver, "--seed", &seed.to_string(), "--scale", &scale.to_string()]
                    .map(String::from);
            let o = spawn(ctx, &format!("sweep-{driver}"), &args, false);
            SweepRow {
                driver,
                env_steps_per_s: o.f64("env_steps_per_s").unwrap_or(0.0),
                failed_ops: o.errors.len() as u64,
                errors: o.errors,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Per layer (one traced repeat, the replica, the probes)
// ---------------------------------------------------------------------------

pub struct Layers {
    pub metrics: BTreeMap<String, f64>,
    /// Span summary of the replica, for the ledger.
    pub spans: Value,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Self time of the spans under `iteration` roots, in ns.
fn iteration_self_ns(spans: &[Span]) -> u64 {
    let root_name = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    };
    spans::self_times(spans)
        .iter()
        .enumerate()
        .filter(|(i, _)| root_name(*i) == "iteration")
        .map(|(_, ns)| ns)
        .sum()
}

fn span_summary_json(summary: &BTreeMap<&'static str, spans::Summary>) -> Value {
    Value::Map(
        summary
            .iter()
            .map(|(name, s)| {
                let tail = s.tail_ns.map_or(Value::Null, |(p, ns)| json::nums(&[p, ns / 1e3]));
                let row = json::obj(vec![
                    ("count", Value::U64(s.count as u64)),
                    ("median_us", json::num(s.median_ns / 1e3)),
                    ("tail_percentile_us", tail),
                    ("total_ms", json::num(s.total_ns as f64 / 1e6)),
                    ("self_ms", json::num(s.self_ns as f64 / 1e6)),
                ]);
                ((*name).to_string(), row)
            })
            .collect(),
    )
}

/// `baseline` is the workload's untraced result when the caller has one
/// already; without it, one untraced repeat is run here.
pub fn layers(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    plan: &Plan,
    baseline: Option<&E2e>,
    sweep_rows: &[SweepRow],
) -> Layers {
    let iterations = plan.iterations(w);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut errors: Vec<String> = Vec::new();
    let mut set = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    // Source 3: the real driver, untraced and then streaming its
    // RunEvents; the difference between the two is the tracing overhead.
    let own_baseline;
    let (untraced, mut attempted, mut failed) = match baseline {
        Some(e2e) => (e2e, 0, 0),
        None => {
            own_baseline = end_to_end(ctx, w, seed, &Plan { seconds: 0.0, ..*plan });
            errors.extend(own_baseline.errors.iter().cloned());
            (&own_baseline, own_baseline.attempted, own_baseline.failed)
        }
    };
    let traced = spawn(ctx, w.name, &child_args(w, seed, plan, false), true);
    attempted += iterations as u64;
    if !traced.errors.is_empty() {
        failed += iterations as u64;
        errors.extend(traced.errors.iter().map(|e| format!("{} traced: {e}", w.name)));
    }
    let plain_sps = untraced.median("env_steps_per_s");
    if let (Some(p), Some(t)) = (plain_sps, traced.f64("env_steps_per_s")) {
        set("telemetry.trace_overhead_pct", (p - t) / p * 100.0);
    }
    if let Some(t) = untraced.median("time_to_target_s") {
        set("e2e.time_to_target_s", t);
    }
    if let Some(k) = untraced.exact.first().and_then(|e| f64_at(e, "iters_to_target")) {
        set("e2e.iters_to_target", k);
    }
    if let Some(c) = traced.json.as_ref().and_then(|j| get(j, "counters")) {
        let count = |key: &str| f64_at(c, key).unwrap_or(0.0);
        let it = iterations as f64;
        set("comm.bytes_per_iter", count("comm.bytes_sent") / it);
        set("comm.msgs_per_iter", count("comm.msgs_sent") / it);
        set("comm.stale_iter_share", count("comm.stale_iters") / it);
        let pool = count("pool.hit") + count("pool.miss");
        set("tensor.pool_hit_rate", if pool > 0.0 { count("pool.hit") / pool } else { 0.0 });
    }
    let stream_path = ctx.out.join(w.name).join("metrics.jsonl");
    match std::fs::read_to_string(&stream_path)
        .map_err(|e| format!("read {}: {e}", stream_path.display()))
        .and_then(|content| stream::summarize(&content, iterations))
    {
        Ok(s) => {
            set("runtime.rollout_share", s.rollout_share);
            set("runtime.learn_share", s.learn_share);
            set("runtime.comm_share", s.comm_share);
            set("runtime.idle_share", s.idle_share);
            set("runtime.iter_ms_p50", s.iter_ms_p50);
            set("runtime.iter_ms_p99", s.iter_ms_p99);
            set("health.findings", s.findings as f64);
        }
        Err(e) => errors.push(format!("{}: {e}", w.name)),
    }

    // Source 1: the sequential replica.
    let mut span_json = Value::Null;
    let budget = Duration::from_secs_f64((plan.seconds / 4.0).min(5.0));
    let effort = if plan.full_length() { replica::Effort::FULL } else { replica::Effort::SMOKE };
    match replica::run(w, seed, budget, effort) {
        Ok(r) => {
            let summary = spans::summarize(&r.spans);
            let med_us = |name: &str| summary.get(name).map_or(0.0, |s| s.median_ns / 1e3);
            set("env.step_us", med_us("env.step") / w.envs as f64);
            set("env.steps", r.env_steps as f64);
            set("algos.act_us", med_us("algos.act"));
            set("algos.forward_us", med_us("algos.forward"));
            set("algos.sample_us", med_us("algos.sample"));
            // Inserts and the drain of one iteration, together.
            let buffer_ns = summary.get("algos.buffer").map_or(0, |s| s.total_ns);
            set("algos.buffer_us", buffer_ns as f64 / r.iterations as f64 / 1e3);
            set("algos.gae_us", med_us("algos.gae"));
            set("algos.grads_ms", med_us("algos.grads") / 1e3);
            set("algos.apply_ms", med_us("algos.apply") / 1e3);
            set("algos.learn_ms", med_us("algos.learn") / 1e3);
            set("algos.sync_us", med_us("algos.sync"));
            set("runtime.wire_us", med_us("runtime.wire"));
            set("runtime.wire_bytes", r.wire_bytes as f64);
            set("tensor.threaded_t2_ratio", r.threaded_t2_ratio);
            let seq = r.transitions as f64 / (r.wall_ns as f64 / 1e9);
            set("seq.env_steps_per_s", seq);
            if let Some(p) = plain_sps {
                set("runtime.speedup_vs_seq", p / seq);
            }
            if r.env_steps != r.transitions {
                errors.push(format!(
                    "{} replica: env.steps moved by {}, expected {}",
                    w.name, r.env_steps, r.transitions
                ));
            }
            let own = iteration_self_ns(&r.spans) as f64;
            if (own - r.wall_ns as f64).abs() > 0.02 * r.wall_ns as f64 {
                errors.push(format!(
                    "{} replica: span self times sum to {own} ns, wall is {} ns",
                    w.name, r.wall_ns
                ));
            }
            span_json = span_summary_json(&summary);
            let trace_path = ctx.out.join(w.name).join("trace.json");
            if let Err(e) = std::fs::write(&trace_path, json::to_string(&spans::to_json(&r.spans)))
            {
                errors.push(format!("write {}: {e}", trace_path.display()));
            }
        }
        Err(e) => errors.push(format!("{}: {e}", w.name)),
    }

    // Source 2: the probes.
    match probes::comm(w) {
        Ok(c) => {
            set("comm.pingpong_us", c.pingpong_us);
            set("comm.allreduce_ms", c.allreduce_ms);
            set("comm.allreduce_gbps", c.allreduce_gbps);
            set("comm.broadcast_us", c.broadcast_us);
        }
        Err(e) => errors.push(format!("{}: {e}", w.name)),
    }
    match probes::core(w) {
        Ok(c) => {
            set("core.deploy_ms", c.deploy_ms);
            set("core.plan_compile_us", c.plan_compile_us);
            set("core.fragment_eval_us", c.fragment_eval_us);
        }
        Err(e) => errors.push(format!("{}: {e}", w.name)),
    }
    match probes::matmul_gflops(w) {
        Ok(g) => set("tensor.matmul_gflops", g),
        Err(e) => errors.push(format!("{}: {e}", w.name)),
    }

    for row in sweep_rows {
        set(&format!("sweep.{}.env_steps_per_s", row.driver), row.env_steps_per_s);
        set(&format!("sweep.{}.failed_ops", row.driver), row.failed_ops as f64);
    }
    // A probe or replica failure voids the traced run as a whole.
    if failed == 0 && !errors.is_empty() {
        failed = attempted;
    }
    Layers { metrics: m, spans: span_json, attempted, failed, errors }
}
