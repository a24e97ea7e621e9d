//! The benchmark's command line. Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric with its unit and a note (sample counts, how it
//! was measured), the host fingerprint, and as the last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero on any correctness mismatch. A traced run also writes its
//! spans to `.bench_out/` as Chrome Trace JSON.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bfbp_perfbench::host::{peak_rss_mb, Fingerprint};
use bfbp_perfbench::spans::chrome_trace;
use bfbp_perfbench::{per_layer, run, Config, Workload, END_TO_END, SETUP_REPS};
use bfbp_sim::engine::{json_f64, json_string};

const USAGE: &str = "usage: bfbp-perfbench --workload paper-sweep|file-baselines|serve-bf-tage \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// The result document kept beside the span file: host, settings, and
/// the rendered metrics.
fn result_json(host: &Fingerprint, args: &Args, correct: bool, metrics: &[String]) -> String {
    let host: Vec<String> = host
        .pairs()
        .iter()
        .map(|(key, value)| format!("{}: {}", json_string(key), json_string(value)))
        .collect();
    format!(
        "{{\n  \"host\": {{{}}},\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"correct\": {correct},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
        host.join(", "),
        json_string(args.workload.name()),
        args.seed,
        json_f64(args.seconds),
        u8::from(args.traced),
        metrics.join(",\n    ")
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let host = Fingerprint::probe(&root);
    let work_root = root.join(".bench_work");
    let config = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: 1.0,
        setup_reps: if args.traced { 1 } else { SETUP_REPS },
        work_dir: work_root.join(format!("{}-{}", args.workload.name(), std::process::id())),
    };
    println!(
        "host: nproc={} cpu={:?} rustc={:?} commit={}",
        host.nproc, host.cpu, host.rustc, host.commit
    );
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let outcome = run(&config, args.traced);
    let _ = std::fs::remove_dir_all(&config.work_dir);
    let _ = std::fs::remove_dir(&work_root);
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows: Vec<(String, &str)> = if args.traced {
        per_layer()
    } else {
        if let Some(mb) = peak_rss_mb() {
            outcome.push("peak_rss_mb", mb, "VmHWM of this process");
        }
        let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.push(
            "ok_frac",
            1.0 - failed_frac,
            format!(
                "failed_frac={failed_frac} of attempted={} (failed={})",
                outcome.attempted, outcome.failed
            ),
        );
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect()
    };

    let mut missing = Vec::new();
    let mut metrics_json = Vec::new();
    for (name, unit) in &rows {
        let Some(metric) = outcome
            .metrics
            .iter()
            .find(|m| &m.name == name && m.value.is_finite())
        else {
            missing.push(name.clone());
            continue;
        };
        println!("{name} = {} {unit}  [{}]", metric.value, metric.note);
        metrics_json.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_f64(metric.value),
            json_string(unit)
        ));
    }
    println!(
        "operations: attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    for mismatch in &outcome.mismatches {
        println!("MISMATCH: {mismatch}");
    }
    for name in &missing {
        println!("MISSING: {name} was not measured");
    }

    let out_dir = root.join(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    let correct = outcome.correct();
    let mut written = write_file(
        &out_dir.join(format!("result-{stem}.json")),
        &result_json(&host, &args, correct, &metrics_json),
    );
    if args.traced && written.is_ok() {
        let mut meta = host.pairs();
        meta.push(("workload", args.workload.name().to_owned()));
        meta.push(("seed", args.seed.to_string()));
        let path = out_dir.join(format!("spans-{stem}.json"));
        written = write_file(&path, &chrome_trace(&outcome.spans, &meta));
        println!("spans: {} ({} spans)", path.display(), outcome.spans.len());
    }
    if let Err(e) = written {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json.join(", ")
    );
    if correct && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
