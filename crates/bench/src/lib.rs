//! # bfbp-bench
//!
//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the paper's evaluation (see `DESIGN.md` §4
//! for the experiment index and `EXPERIMENTS.md` for recorded results).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod gate;

use bfbp_sim::simulate::SimResult;

/// Prints a figure/table banner.
pub fn banner(title: &str, detail: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{detail}");
    println!("{}", "=".repeat(78));
}

/// Formats a fixed-width left-aligned cell.
pub fn cell(text: &str, width: usize) -> String {
    format!("{text:<width$}")
}

/// Prints a per-trace MPKI table: one row per trace, one column per
/// predictor series, followed by the arithmetic-mean row the paper
/// reports.
pub fn print_mpki_table(series_names: &[&str], series: &[Vec<SimResult>]) {
    assert_eq!(series_names.len(), series.len());
    assert!(!series.is_empty());
    let n_traces = series[0].len();
    assert!(series.iter().all(|s| s.len() == n_traces));

    print!("{}", cell("trace", 10));
    for name in series_names {
        print!("{}", cell(name, 22));
    }
    println!();
    for t in 0..n_traces {
        print!("{}", cell(series[0][t].trace_name(), 10));
        for s in series {
            print!("{}", cell(&format!("{:.3}", s[t].mpki()), 22));
        }
        println!();
    }
    print!("{}", cell("Avg.", 10));
    for s in series {
        print!("{}", cell(&format!("{:.3}", bfbp_sim::mean_mpki(s)), 22));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_pads() {
        assert_eq!(cell("ab", 5), "ab   ");
    }

    #[test]
    fn mpki_table_prints() {
        let series = vec![vec![SimResult::from_counts("T1", "p", 100, 10, 1000)]];
        print_mpki_table(&["p"], &series);
    }
}
