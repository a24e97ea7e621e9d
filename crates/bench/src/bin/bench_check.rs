//! Perf-regression gate over perfbench results, run from the repository
//! root (the rules are in [`bfbp_bench::gate`]):
//!
//! ```sh
//! bench_check .bench_out/result-paper-sweep-seed1-trace0.json \
//!             .bench_out/result-file-baselines-seed1-trace0.json
//! ```
//!
//! Exits non-zero when any result fails a rule or cannot be compared.

use std::path::Path;
use std::process::ExitCode;

use bfbp_bench::gate::{check, Status};

fn main() -> ExitCode {
    let results: Vec<String> = std::env::args().skip(1).collect();
    if results.is_empty() || results.iter().any(|r| r.starts_with('-')) {
        eprintln!("usage: bench_check RESULT.json... (from the repository root; no flags)");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for result in &results {
        match check(Path::new("."), Path::new(result)) {
            Ok((baseline, findings)) => {
                println!("bench_check: {result} vs {}", baseline.display());
                for (status, line) in &findings {
                    println!("  {:<5} {line}", format!("{status:?}"));
                    ok &= *status != Status::Fail;
                }
            }
            Err(e) => {
                eprintln!("error: {result}: {e}");
                ok = false;
            }
        }
    }
    println!("bench_check: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
