//! `bench_e2e compare a.json b.json`: per metric × workload, is `b` worse
//! than `a` by more than the metric's bound?

use serde_json::Value;

use crate::json::{as_map, as_str, f64_at, get, to_string, u64_at};
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// Median and quartiles of one metric on one workload in one ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Held,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// One side's inter-quartile range is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better),
/// and what that means against the metric's bound.
pub fn judge(m: &EndToEnd, a: Stat, b: Stat) -> (f64, Verdict) {
    let worse = match m.better {
        Better::Higher => (a.median - b.median) / a.median,
        Better::Lower => (b.median - a.median) / a.median,
    };
    let verdict = if a.spread() > m.bound || b.spread() > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regression
    } else {
        Verdict::Held
    };
    (worse, verdict)
}

fn stat(workload: &Value, metric: &str) -> Option<Stat> {
    let m = get(get(workload, "end_to_end")?, metric)?;
    Some(Stat { median: f64_at(m, "median")?, q1: f64_at(m, "q1")?, q3: f64_at(m, "q3")? })
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let workloads = |v| get(v, "workloads").and_then(as_map).ok_or("ledger without `workloads`");
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut held = true;
    println!(
        "{:<22} {:<18} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (name, rec_a) in wa {
        let Some((_, rec_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<22} missing from b");
            held = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (stat(rec_a, m.name), stat(rec_b, m.name)) else {
                println!("{name:<22} {:<18} missing on one side", m.name);
                held = false;
                continue;
            };
            let (worse, verdict) = judge(m, sa, sb);
            held &= verdict != Verdict::Regression;
            let word = match verdict {
                Verdict::Held => "held",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved (spread exceeds bound)",
            };
            println!(
                "{name:<22} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {word}",
                m.name,
                sa.median,
                sb.median,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let failed = |r| u64_at(r, "ops_failed").unwrap_or(0);
        if failed(rec_b) > failed(rec_a) {
            println!("{name:<22} ops_failed {} -> {}  REGRESSION", failed(rec_a), failed(rec_b));
            held = false;
        }
        // Counts that repeat exactly on one commit and seed: a difference
        // is a change of behaviour, whatever the timings say.
        if let (Some(ea), Some(eb)) = (get(rec_a, "exact"), get(rec_b, "exact")) {
            for (key, va) in as_map(ea).unwrap_or_default() {
                let vb = get(eb, key);
                let same = vb == Some(va);
                let show = |v: &Value| as_str(v).map_or_else(|| to_string(v), str::to_string);
                println!(
                    "{name:<22} exact {key:<20} {}",
                    if same {
                        format!("identical ({})", show(va))
                    } else {
                        format!("DIFFERS: {} -> {}", show(va), vb.map_or("missing".into(), show))
                    }
                );
            }
        }
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Stat {
        Stat { median, q1: median * 0.995, q3: median * 1.005 }
    }

    fn metric(better: Better) -> EndToEnd {
        EndToEnd { name: "m", unit: "u", better, bound: 0.05, seed_steady: true }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        let (tput, rss) = (&metric(Better::Higher), &metric(Better::Lower));
        // 20 % fewer steps/s is worse; 20 % more is not.
        assert_eq!(judge(tput, tight(100.0), tight(80.0)).1, Verdict::Regression);
        assert_eq!(judge(tput, tight(100.0), tight(120.0)).1, Verdict::Held);
        // 10 % more memory is worse than a 5 % bound allows.
        assert_eq!(judge(rss, tight(100.0), tight(110.0)).1, Verdict::Regression);
        assert_eq!(judge(rss, tight(100.0), tight(90.0)).1, Verdict::Held);
    }

    #[test]
    fn a_change_inside_the_bound_holds() {
        let rss = &metric(Better::Lower);
        let (worse, verdict) = judge(rss, tight(100.0), tight(104.0));
        assert!((worse - 0.04).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Held);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let rss = &metric(Better::Lower);
        let noisy = Stat { median: 100.0, q1: 96.0, q3: 104.0 };
        assert_eq!(judge(rss, noisy, tight(100.0)).1, Verdict::Unresolved);
        assert_eq!(judge(rss, tight(100.0), noisy).1, Verdict::Unresolved);
        // Even a large apparent regression stays unresolved.
        assert_eq!(judge(rss, noisy, tight(150.0)).1, Verdict::Unresolved);
    }
}
