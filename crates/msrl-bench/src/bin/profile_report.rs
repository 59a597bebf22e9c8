//! `profile_report` — runs PPO CartPole under two distribution policies
//! (DP-A and DP-C), each with communication/computation overlap off and
//! on, with telemetry enabled, and emits per run:
//!
//! * `results/trace_<run>.json` — Chrome trace-event JSON (open in
//!   Perfetto or `chrome://tracing`), validated before it is written;
//! * `results/profile_<run>.json` — the aggregated
//!   [`msrl_telemetry::TelemetryReport`] (per-span p50/p99, counter and
//!   gauge snapshots).
//!
//! plus a combined `results/profile_report.json`, side-by-side
//! per-fragment / per-phase / per-comm-op tables, and an overlap
//! analysis on stdout. The workload injects a simulated 10 ms wire
//! latency (the in-process analogue of the paper's `tc` experiment,
//! Fig. 7d) so there is real communication time for the overlap
//! machinery to hide.
//!
//! The binary *asserts* the overlap contract and exits non-zero — so CI
//! gates on it — when any of these fail:
//!
//! * DP-A actor time blocked in `comm.recv` during `phase.weight_sync`
//!   must drop ≥ 50% with overlap on (double-buffered weight sync);
//! * DP-C with overlap on must show no standalone `comm.all_gather`
//!   span (episode returns ride the fused gradient all-reduce);
//! * overlap on must not increase either policy's total `comm.*` span
//!   time (`comm.overlap` excluded: it brackets compute, not waiting).

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use msrl_algos::ppo::PpoConfig;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, DistPpoConfig};
use msrl_telemetry::{Span, TelemetryReport};

/// One profiled run: its name, aggregated report, and raw spans (kept
/// for span-containment analysis the aggregate cannot answer).
struct PolicyProfile {
    name: &'static str,
    report: TelemetryReport,
    spans: Vec<Span>,
}

/// A named, boxed training run to profile.
type Run = (&'static str, Box<dyn FnOnce() -> msrl_core::Result<()>>);

/// Runs `f` with tracing enabled against a clean slate and returns the
/// aggregated report, after validating and writing the Chrome trace.
fn profile(
    name: &'static str,
    out_dir: &Path,
    f: impl FnOnce() -> msrl_core::Result<()>,
) -> Result<PolicyProfile, String> {
    msrl_telemetry::clear_spans();
    msrl_telemetry::reset_counters();
    msrl_telemetry::reset_gauges();
    msrl_telemetry::reset_histograms();
    msrl_telemetry::set_enabled(true);
    f().map_err(|e| format!("{name}: run failed: {e}"))?;
    let spans = msrl_telemetry::drain();
    let trace = msrl_telemetry::chrome_trace(&spans);
    let check = msrl_telemetry::validate_chrome_trace(&trace)
        .map_err(|e| format!("{name}: trace validation failed: {e}"))?;
    if check.fragment_spans == 0 {
        return Err(format!("{name}: trace has no fragment spans"));
    }
    let trace_path = out_dir.join(format!("trace_{name}.json"));
    std::fs::write(&trace_path, &trace).map_err(|e| format!("{name}: write trace: {e}"))?;
    let report = TelemetryReport::from_spans(&spans).with_registry();
    let profile_path = out_dir.join(format!("profile_{name}.json"));
    std::fs::write(&profile_path, report.to_json())
        .map_err(|e| format!("{name}: write profile: {e}"))?;
    println!(
        "{name}: {} events, {} spans, {} fragment lanes -> {}",
        check.events,
        check.spans,
        check.fragment_spans,
        trace_path.display()
    );
    Ok(PolicyProfile { name, report, spans })
}

/// Total time (ns) spent in `inner` spans that *begin inside* an `outer`
/// span on the same thread — e.g. `comm.recv` blocked time during
/// `phase.weight_sync`. The aggregate report cannot answer this (it
/// loses nesting), so it is computed from the raw spans: each thread's
/// `outer` intervals, sorted by start, and for each `inner` the last one
/// that started no later than it.
fn span_within(spans: &[Span], outer: &str, inner: &str) -> u64 {
    let mut outers: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == outer) {
        outers.entry(s.tid).or_default().push((s.start_ns, s.start_ns + s.duration_ns()));
    }
    outers.values_mut().for_each(|v| v.sort_unstable());
    let inside = |s: &Span| {
        let Some(v) = outers.get(&s.tid) else { return false };
        let before = v.partition_point(|&(start, _)| start <= s.start_ns);
        before > 0 && s.start_ns < v[before - 1].1
    };
    spans.iter().filter(|s| s.name == inner && inside(s)).map(Span::duration_ns).sum()
}

/// Total `comm.*` span time, excluding `comm.overlap` (which brackets
/// compute that runs while a transfer is in flight, not waiting).
fn total_comm_ns(p: &PolicyProfile) -> u64 {
    p.report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("comm.") && s.name != "comm.overlap")
        .map(|s| s.total_ns)
        .sum()
}

/// Prints a side-by-side table of span totals/percentiles for every span
/// name in the given prefix group, across all profiled policies.
fn side_by_side(profiles: &[&PolicyProfile], heading: &str, prefixes: &[&str]) {
    let names: BTreeSet<&str> = profiles
        .iter()
        .flat_map(|p| p.report.spans.iter().map(|s| s.name.as_str()))
        .filter(|n| prefixes.iter().any(|p| n.starts_with(p)))
        .collect();
    if names.is_empty() {
        return;
    }
    println!("\n{heading}");
    print!("{:<26}", "span");
    for p in profiles {
        print!(" {:>16} {:>10} {:>10}", format!("{}_total_ms", p.name), "p50_us", "p99_us");
    }
    println!();
    for name in names {
        print!("{name:<26}");
        for p in profiles {
            match p.report.span(name) {
                Some(s) => print!(
                    " {:>16.2} {:>10.1} {:>10.1}",
                    s.total_ns as f64 / 1e6,
                    s.p50_ns as f64 / 1e3,
                    s.p99_ns as f64 / 1e3
                ),
                None => print!(" {:>16} {:>10} {:>10}", "-", "-", "-"),
            }
        }
        println!();
    }
}

/// Prints comm counter totals side by side.
fn comm_counters(profiles: &[&PolicyProfile]) {
    println!("\ncommunication volume");
    for key in [
        "comm.bytes_sent",
        "comm.bytes_recv",
        "comm.msgs_sent",
        "comm.stale_iters",
        "interp.ops",
        "env.steps",
    ] {
        print!("{key:<26}");
        for p in profiles {
            print!(" {:>16}", p.report.counter(key).unwrap_or(0));
        }
        println!();
    }
}

/// Checks the overlap contract across the four profiles; returns the
/// failures (empty = all good) and prints the analysis.
fn overlap_analysis(
    dp_a_sync: &PolicyProfile,
    dp_a_overlap: &PolicyProfile,
    dp_c_sync: &PolicyProfile,
    dp_c_overlap: &PolicyProfile,
) -> Vec<String> {
    let mut failures = Vec::new();
    println!("\noverlap analysis (overlap off vs on)");

    // DP-A: actor time blocked in comm.recv during phase.weight_sync.
    let blocked_off = span_within(&dp_a_sync.spans, "phase.weight_sync", "comm.recv");
    let blocked_on = span_within(&dp_a_overlap.spans, "phase.weight_sync", "comm.recv");
    let drop_pct = 100.0 * (1.0 - blocked_on as f64 / blocked_off.max(1) as f64);
    println!(
        "dp_a comm.recv in phase.weight_sync: {:.1} ms -> {:.1} ms ({drop_pct:+.0}% vs off)",
        blocked_off as f64 / 1e6,
        blocked_on as f64 / 1e6,
    );
    println!(
        "dp_a stale rollout iterations: {} (comm.overlap span: {} ms)",
        dp_a_overlap.report.counter("comm.stale_iters").unwrap_or(0),
        dp_a_overlap.report.span("comm.overlap").map_or(0.0, |s| s.total_ns as f64 / 1e6),
    );
    if drop_pct < 50.0 {
        failures.push(format!(
            "dp_a: comm.recv blocked time in phase.weight_sync must drop >= 50% with overlap \
             on, got {drop_pct:.1}% ({blocked_off} ns -> {blocked_on} ns)"
        ));
    }

    // DP-C: the fused collective must replace the standalone all_gather.
    match dp_c_overlap.report.span("comm.all_gather") {
        Some(s) => failures.push(format!(
            "dp_c: overlap on must not execute a standalone comm.all_gather span \
             (found {} of them)",
            s.count
        )),
        None => println!(
            "dp_c collective barriers: all_reduce+all_gather -> fused ({} ms in \
             comm.all_reduce_fused)",
            dp_c_overlap
                .report
                .span("comm.all_reduce_fused")
                .map_or(0.0, |s| s.total_ns as f64 / 1e6),
        ),
    }

    // Overlap on must not increase total communication span time. 10%
    // headroom absorbs scheduler noise in these short runs.
    for (off, on) in [(dp_a_sync, dp_a_overlap), (dp_c_sync, dp_c_overlap)] {
        let (t_off, t_on) = (total_comm_ns(off), total_comm_ns(on));
        println!(
            "{} total comm span time: {:.1} ms -> {:.1} ms",
            on.name,
            t_off as f64 / 1e6,
            t_on as f64 / 1e6
        );
        if t_on as f64 > t_off as f64 * 1.10 {
            failures.push(format!(
                "{}: overlap on increased total comm span time ({t_off} ns -> {t_on} ns)",
                on.name
            ));
        }
    }
    failures
}

fn main() {
    msrl_bench::runtime_config_or_exit();
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".to_string());
    let out_dir = Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).expect("results directory is creatable");

    // The profiled workload: 8-iteration PPO CartPole with a simulated
    // 10 ms wire latency. One env and one epoch keep the rollout/learn
    // balance communication-bound — the regime distribution policies
    // overlap for.
    let base = DistPpoConfig {
        actors: 2,
        envs_per_actor: 1,
        steps_per_iter: 128,
        iterations: 8,
        hidden: vec![32],
        seed: 7,
        staleness: 1,
        link_latency: Duration::from_millis(10),
        ppo: PpoConfig { epochs: 1, ..PpoConfig::default() },
        ..DistPpoConfig::default()
    };
    let with_overlap = |on: bool| DistPpoConfig { overlap: on, ..base.clone() };

    let mut profiles = Vec::new();
    let runs: Vec<Run> = vec![
        ("dp_a_sync", {
            let dist = with_overlap(false);
            Box::new(move || run_dp_a(|a, i| CartPole::new((a * 13 + i) as u64), &dist).map(|_| ()))
        }),
        ("dp_a_overlap", {
            let dist = with_overlap(true);
            Box::new(move || run_dp_a(|a, i| CartPole::new((a * 13 + i) as u64), &dist).map(|_| ()))
        }),
        ("dp_c_sync", {
            let dist = with_overlap(false);
            Box::new(move || run_dp_c(|a, i| CartPole::new((a * 13 + i) as u64), &dist).map(|_| ()))
        }),
        ("dp_c_overlap", {
            let dist = with_overlap(true);
            Box::new(move || run_dp_c(|a, i| CartPole::new((a * 13 + i) as u64), &dist).map(|_| ()))
        }),
    ];
    for (name, f) in runs {
        match profile(name, out_dir, f) {
            Ok(p) => profiles.push(p),
            Err(e) => {
                eprintln!("profile_report: {e}");
                std::process::exit(1);
            }
        }
    }

    let views: Vec<&PolicyProfile> = profiles.iter().collect();
    side_by_side(&views, "fragment breakdown", &["fragment."]);
    side_by_side(&views, "phase breakdown", &["phase."]);
    side_by_side(&views, "comm ops", &["comm."]);
    comm_counters(&views);

    let failures = overlap_analysis(&profiles[0], &profiles[1], &profiles[2], &profiles[3]);

    // Combined artefact: one JSON object keyed by run name.
    let mut combined = String::from("{\n");
    for (i, p) in profiles.iter().enumerate() {
        let body: String =
            p.report.to_json().lines().map(|l| format!("  {l}\n")).collect::<String>();
        combined.push_str(&format!("  \"{}\": {}", p.name, body.trim_start()));
        combined.pop(); // trailing newline from the indented body
        combined.push_str(if i + 1 == profiles.len() { "\n" } else { ",\n" });
    }
    combined.push_str("}\n");
    let combined_path = out_dir.join("profile_report.json");
    std::fs::write(&combined_path, combined).expect("combined report is writable");
    println!("\nwrote {}", combined_path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("profile_report: FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("overlap contract: all checks passed");
}
