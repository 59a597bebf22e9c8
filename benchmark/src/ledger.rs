//! The full ledger: every workload end to end and per layer, plus the
//! sweep, written to `out/latest.json` with a provenance header and
//! printed metric by metric.

use std::process::Command;

use serde_json::Value;

use crate::json::{self, num, obj};
use crate::metrics::{self, END_TO_END};
use crate::run::{self, Ctx, E2e, Layers, Plan, SweepRow};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{Workload, WORKLOADS};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn isa_dispatch() -> &'static str {
    match msrl_tensor::kernels::select() {
        msrl_tensor::kernels::MatKernel::Avx512 => "avx512",
        msrl_tensor::kernels::MatKernel::Avx2 => "avx2",
        msrl_tensor::kernels::MatKernel::Portable => "portable",
    }
}

fn provenance(seed: u64, plan: &Plan) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("commit", Value::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("nproc", Value::U64(nproc as u64)),
        ("isa_dispatch", Value::Str(isa_dispatch().to_string())),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("seed", Value::U64(seed)),
        ("seconds", num(plan.seconds)),
        ("scale", num(plan.scale)),
        (
            "configs",
            Value::Map(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name.to_string(), w.resolved_config(seed, plan.iterations(w))))
                    .collect(),
            ),
        ),
    ])
}

/// Unit, direction and bound of every end-to-end metric, so a ledger
/// can be read (and compared) without this source.
fn bounds() -> Value {
    obj(END_TO_END
        .iter()
        .map(|m| {
            let row = obj(vec![
                ("unit", Value::Str(m.unit.to_string())),
                ("better", Value::Str(m.better.name().to_string())),
                ("bound", num(m.bound)),
            ]);
            (m.name, row)
        })
        .collect())
}

fn workload_record(e2e: &E2e, layers: &Layers) -> Value {
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|m| {
            let samples = e2e.samples.get(m.name).filter(|s| !s.is_empty())?;
            let (q1, q3) = quartiles(samples);
            Some((
                m.name,
                obj(vec![
                    ("median", num(median(samples))),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("n", Value::U64(samples.len() as u64)),
                    ("unit", Value::Str(m.unit.to_string())),
                    ("samples", json::nums(samples)),
                ]),
            ))
        })
        .collect();
    let units = metrics::per_layer();
    let per_layer = layers
        .metrics
        .iter()
        .filter(|(name, _)| !name.starts_with("sweep."))
        .map(|(name, &v)| {
            let unit = units.iter().find(|u| &u.0 == name).map_or("", |u| u.1);
            (name.clone(), obj(vec![("value", num(v)), ("unit", Value::Str(unit.to_string()))]))
        })
        .collect();
    let mut errors = e2e.errors.clone();
    errors.extend(layers.errors.iter().cloned());
    obj(vec![
        ("end_to_end", obj(end_to_end)),
        ("ops_attempted", Value::U64(e2e.attempted + layers.attempted)),
        ("ops_failed", Value::U64(e2e.failed + layers.failed)),
        ("errors", json::strs(&errors)),
        ("exact", e2e.exact.first().cloned().unwrap_or(Value::Null)),
        ("per_layer", Value::Map(per_layer)),
        ("replica_spans", layers.spans.clone()),
    ])
}

fn print_workload(w: &Workload, e2e: &E2e, layers: &Layers) {
    println!("\n== {} ==\n  ({})", w.name, w.why);
    for m in &END_TO_END {
        match e2e.samples.get(m.name).filter(|s| !s.is_empty()) {
            Some(s) => {
                let (q1, q3) = quartiles(s);
                // A spread wider than the bound cannot show a change of
                // the bound's size either way.
                let note =
                    if spread(s) > m.bound { "  *unresolved: IQR exceeds bound*" } else { "" };
                println!(
                    "  {:<28} {:>14.4} {:<8} (q1 {:.4}, q3 {:.4}, n={}, bound {:.0}%){note}",
                    m.name,
                    median(s),
                    m.unit,
                    q1,
                    q3,
                    s.len(),
                    m.bound * 100.0
                );
            }
            None => println!("  {:<28} {:>14} {:<8}", m.name, "missing", m.unit),
        }
    }
    println!("  {:<28} {:>14} count", "ops_attempted", e2e.attempted + layers.attempted);
    println!("  {:<28} {:>14} count", "ops_failed", e2e.failed + layers.failed);
    for (name, unit, _) in metrics::per_layer() {
        if name.starts_with("sweep.") {
            continue;
        }
        match layers.metrics.get(&name) {
            Some(v) => println!("  {name:<28} {v:>14.4} {unit}"),
            None => println!("  {name:<28} {:>14} {unit}", "missing"),
        }
    }
    for e in e2e.errors.iter().chain(&layers.errors) {
        println!("  FAILED: {e}");
    }
}

fn print_sweep(rows: &[SweepRow]) {
    println!("\n== sweep ==");
    for r in rows {
        println!("  sweep.{}.env_steps_per_s {:>14.1} 1/s", r.driver, r.env_steps_per_s);
        println!("  sweep.{}.failed_ops      {:>14} count", r.driver, r.failed_ops);
        for e in &r.errors {
            println!("    finding: {e}");
        }
    }
}

/// Runs everything, prints every metric, writes `out/latest.json`.
/// Returns whether the four gated workloads ran without a failed op.
pub fn run_all(ctx: &Ctx, seed: u64, plan: &Plan) -> Result<bool, String> {
    let mut records = Vec::new();
    let mut ok = true;
    let rows = run::sweep(ctx, seed, plan.sweep_scale);
    for w in &WORKLOADS {
        let e2e = run::end_to_end(ctx, w, seed, plan);
        let layers = run::layers(ctx, w, seed, plan, Some(&e2e), &rows);
        print_workload(w, &e2e, &layers);
        ok &= e2e.failed + layers.failed == 0;
        records.push((w.name.to_string(), workload_record(&e2e, &layers)));
    }
    print_sweep(&rows);
    let sweep = rows
        .iter()
        .map(|r| {
            (
                r.driver,
                obj(vec![
                    ("env_steps_per_s", num(r.env_steps_per_s)),
                    ("failed_ops", Value::U64(r.failed_ops)),
                    ("errors", json::strs(&r.errors)),
                ]),
            )
        })
        .collect();
    let ledger = obj(vec![
        ("schema", Value::Str("msrl.bench_e2e.v1".to_string())),
        ("provenance", provenance(seed, plan)),
        ("end_to_end_metrics", bounds()),
        ("workloads", Value::Map(records)),
        ("sweep", obj(sweep)),
    ]);
    let path = ctx.out.join("latest.json");
    std::fs::write(&path, json::to_string_pretty(&ledger) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nledger written to {}", path.display());
    Ok(ok)
}
