//! `bench_e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! bench_e2e --out DIR --workload W --seed S --seconds T --trace 0|1   one run, one JSON line
//! bench_e2e --out DIR --seed S [--seconds T] [--smoke]                the whole ledger
//! bench_e2e compare a.json b.json                                     regression check
//! bench_e2e child ...                                                 (internal) one repeat
//! ```
//!
//! `run.sh` builds this binary and passes `--out`; see `README.md`.

mod child;
mod compare;
mod json;
mod ledger;
mod metrics;
mod probes;
mod replica;
mod run;
mod spans;
mod stats;
mod stream;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use crate::json::{num, obj};
use crate::run::{Ctx, Plan};

/// `--key value` pairs and bare `--flag`s, after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args { values: BTreeMap::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{a}`"))?;
            if flags.contains(&key) {
                out.flags.push(key.to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("`{a}` needs a value"))?;
                out.values.insert(key.to_string(), v.clone());
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.values
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for --{key}")))
            .transpose()
    }

    fn need<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn workload(args: &Args) -> Result<&'static workloads::Workload, String> {
    let name: String = args.need("workload")?;
    workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn child_main(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["setup-only", "no-target"])?;
    let seed: u64 = args.need("seed")?;
    let result = match args.get::<String>("sweep")? {
        Some(driver) => child::run_sweep(&driver, seed, args.need("scale")?),
        None => child::run(
            workload(&args)?,
            seed,
            args.need("iterations")?,
            args.flag("setup-only"),
            !args.flag("no-target"),
        ),
    };
    println!("{}", json::to_string(&result));
    Ok(ExitCode::SUCCESS)
}

fn compare_main(rest: &[String]) -> Result<ExitCode, String> {
    let [a, b] = rest else {
        return Err("usage: bench_e2e compare a.json b.json".to_string());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::value_from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let held = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if held { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// One run of one workload under the driver contract: one JSON object on
/// the last line of stdout.
fn driver_run(ctx: &Ctx, args: &Args) -> Result<ExitCode, String> {
    let w = workload(args)?;
    let seed: u64 = args.need("seed")?;
    let plan = Plan { seconds: args.need("seconds")?, scale: 1.0, sweep_scale: 0.5 };
    let trace: u8 = args.need("trace")?;
    let (metrics, attempted, failed, errors) = match trace {
        0 => {
            let e2e = run::end_to_end(ctx, w, seed, &plan);
            let metrics: Vec<(String, &str, Option<f64>)> = metrics::END_TO_END
                .iter()
                .filter(|m| m.seed_steady)
                .map(|m| (m.name.to_string(), m.unit, e2e.median(m.name)))
                .collect();
            (metrics, e2e.attempted, e2e.failed, e2e.errors)
        }
        1 => {
            let rows = run::sweep(ctx, seed, plan.sweep_scale);
            let layers = run::layers(ctx, w, seed, &plan, None, &rows);
            let metrics = metrics::per_layer()
                .into_iter()
                .map(|(name, unit, _)| {
                    let v = layers.metrics.get(&name).copied();
                    (name, unit, v)
                })
                .collect();
            (metrics, layers.attempted, layers.failed, layers.errors)
        }
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    for e in &errors {
        eprintln!("bench_e2e: {e}");
    }
    let mut missing = 0;
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, v)| {
            if v.is_none() {
                eprintln!("bench_e2e: metric {name} was not measured");
                missing += 1;
            }
            let entry =
                obj(vec![("value", num(v.unwrap_or(0.0))), ("unit", Value::Str(unit.to_string()))]);
            (name, entry)
        })
        .collect();
    let correct = failed == 0 && missing == 0;
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", json::to_string(&line));
    Ok(ExitCode::SUCCESS)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("child") => return child_main(&argv[1..]),
        Some("compare") => return compare_main(&argv[1..]),
        _ => {}
    }
    let args = Args::parse(&argv, &["smoke"])?;
    // The replica and the probes run in this process: it must not inherit
    // a knob any more than the children do. No thread exists yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MSRL_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("MSRL_THREADS", "1");
    let out: PathBuf = args.need("out")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let ctx = Ctx {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        out: out.canonicalize().map_err(|e| format!("resolve {}: {e}", out.display()))?,
    };
    if args.values.contains_key("workload") {
        return driver_run(&ctx, &args);
    }
    let plan = if args.flag("smoke") {
        Plan::smoke()
    } else {
        Plan { seconds: args.get("seconds")?.unwrap_or(15.0), scale: 1.0, sweep_scale: 1.0 }
    };
    let ok = ledger::run_all(&ctx, args.need("seed")?, &plan)?;
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}");
        ExitCode::from(2)
    })
}
