//! Shared reporting helpers for the figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation, printing the same rows/series the paper reports
//! plus the paper's claim for side-by-side comparison (recorded in
//! `EXPERIMENTS.md`).

#![warn(missing_docs)]

use msrl_tensor::Backend;

/// Resolves the environment's [`Backend`] (`MSRL_BACKEND`) before any
/// work starts, so a rejected value ends the binary with the error
/// message and exit status 2 instead of a panic somewhere inside a
/// driver.
pub fn backend_or_exit() -> Backend {
    Backend::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Prints a figure banner with the paper's claim.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("==============================================================");
}

/// Prints one series as aligned columns.
pub fn series(x_label: &str, y_labels: &[&str], rows: &[(f64, Vec<f64>)]) {
    print!("{x_label:>12}");
    for y in y_labels {
        print!("{y:>16}");
    }
    println!();
    for (x, ys) in rows {
        print!("{x:>12.3}");
        for y in ys {
            print!("{y:>16.4}");
        }
        println!();
    }
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(120.0), "2.0 min");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.01), "10.0 ms");
    }
}
