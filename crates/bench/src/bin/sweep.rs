//! General-purpose sweep driver: run any set of registered predictor
//! specs over the synthetic suite (or on-disk BFBT trace files) through
//! the fault-tolerant parallel engine and write the machine-readable
//! `bfbp-sweep/2` results JSON.
//!
//! ```sh
//! sweep [--threads N] [--run NAME] [--interval INSTS]
//!       [--retries N] [--backoff MS] [--timeout MS]
//!       [--journal PATH] [--resume PATH]
//!       [--checkpoint-every N] [--checkpoint-dir DIR]
//!       [--metrics-out PATH] [--events-out PATH] [--progress]
//!       [--flight-recorder N] [--postmortem-dir DIR]
//!       [--trace-file PATH]... [--fault-plan PLAN]
//!       [--trace-cache|--no-trace-cache]
//!       <spec> [<spec>...]
//! sweep --list
//! ```
//!
//! Suite traces are served from the content-addressed trace cache
//! (`target/trace-cache/` by default), so repeated sweeps skip synthetic
//! generation entirely; `--no-trace-cache` (or `BFBP_TRACE_CACHE=0`)
//! forces regeneration and `--trace-cache` re-enables the default.
//!
//! Each `<spec>` is `[label=]name[:key=value,...]`, e.g.
//! `bf-neural`, `tage15=isl-tage:tables=15,sc=false`, or
//! `gshare:log-size=20`. Trace lengths scale with `BFBP_TRACE_SCALE`
//! (default 1.0); the JSON lands in `target/results/<run>.json` unless
//! `BFBP_RESULTS_DIR` overrides the directory.
//!
//! Observability: `--metrics-out` collects per-job predictor
//! introspection counters and the top-N hard-to-predict PC table into a
//! `bfbp-metrics/1` document (never perturbing the `bfbp-sweep/2`
//! results); `--events-out` appends a `bfbp-events/1` JSONL span/event
//! journal (suite trace fetches, sweep → job spans, retries, timeouts);
//! `--progress` draws a live job-completion line on stderr;
//! `--flight-recorder N` keeps the last N decisions per job in a ring
//! buffer and, together with `--postmortem-dir`, dumps them as a
//! `bfbp-postmortem/1` document whenever a job fails, times out, or is
//! killed (render dumps and export journals with the `forensics`
//! binary).
//!
//! Fault tolerance: failed jobs are retried `--retries` times with
//! `--backoff` between attempts; `--timeout` bounds each job's wall
//! clock (`0` sets no bound); `--journal` records every job that
//! finishes ok so `--resume` re-runs only the others;
//! `--checkpoint-every`/`--checkpoint-dir` additionally snapshot each
//! in-flight job's full predictor state so a killed process resumes
//! *mid-trace* instead of restarting the job.
//! `--fault-plan` injects deterministic failures (e.g.
//! `panic@1,delay@2=50,io@3=checksum,kill@4=5000`) for drills. A run
//! with failed jobs still exits 0 and reports partial results — a spec
//! that does not build at all is the only sweep-level failure.

use std::process::ExitCode;

use bfbp_bench::cli::{CommonArgs, Harness};
use bfbp_bench::{banner, print_mpki_table};
use bfbp_sim::engine::{sweep, sweep_inputs, TraceInput};
use bfbp_sim::fault::FaultPlan;
use bfbp_sim::registry::PredictorSpec;

fn main() -> ExitCode {
    let registry = bfbp::default_registry();
    let mut common = CommonArgs::default();
    let mut run = "sweep".to_owned();
    let mut specs: Vec<PredictorSpec> = Vec::new();
    let mut trace_files: Vec<String> = Vec::new();
    let mut interval: Option<u64> = None;
    let mut fault_plan: Option<FaultPlan> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match common.try_consume(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage(&e),
        }
        match arg.as_str() {
            "--list" => {
                // Caps column: `B`atch-preferred, `C`heckpointable,
                // `I`ntrospectable, `P`rovenance (probed through the
                // consolidated capability descriptor). Storage column:
                // the default configuration's total budget in KB, so
                // tuner feasibility is visible without running anything.
                for name in registry.names() {
                    let desc = registry.describe(name).unwrap_or_default();
                    let caps = registry
                        .capabilities(name)
                        .map(|caps| caps.flags())
                        .unwrap_or_else(|_| "????".to_owned());
                    let kb = registry
                        .storage(name, &bfbp_sim::registry::Params::new())
                        .map(|s| format!("{:7.1} KB", s.total_bits() as f64 / 8192.0))
                        .unwrap_or_else(|_| "      ? KB".to_owned());
                    println!("{name:<18} {caps} {kb}  {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--interval" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => interval = Some(n),
                None => return usage("--interval needs an instruction count"),
            },
            "--run" => match args.next() {
                Some(name) => run = name,
                None => return usage("--run needs a name"),
            },
            "--fault-plan" => match args.next().map(|v| FaultPlan::parse(&v)) {
                Some(Ok(plan)) => fault_plan = Some(plan),
                Some(Err(e)) => return usage(&e.to_string()),
                None => return usage("--fault-plan needs a plan string"),
            },
            "--trace-file" => match args.next() {
                Some(path) => trace_files.push(path),
                None => return usage("--trace-file needs a path"),
            },
            text => match PredictorSpec::parse(text) {
                Ok(s) => specs.push(s),
                Err(e) => return usage(&format!("bad spec {text:?}: {e}")),
            },
        }
    }
    if specs.is_empty() {
        return usage("no predictor specs given");
    }
    // Environment knobs first, explicit flags on top.
    let mut harness = Harness::from_env(1.0).with_flags(&common);
    if let Some(insts) = interval {
        harness.sweep.interval_insts = insts;
    }
    harness.sweep.fault_plan = fault_plan;

    let result = if trace_files.is_empty() {
        banner(
            "sweep",
            &format!(
                "{} spec(s) over the suite at scale {}",
                specs.len(),
                harness.scale
            ),
        );
        sweep(&registry, &specs, &harness.suite_runner(), &harness.sweep)
    } else {
        banner(
            "sweep",
            &format!(
                "{} spec(s) over {} trace file(s)",
                specs.len(),
                trace_files.len()
            ),
        );
        let inputs: Vec<TraceInput> = trace_files.iter().map(TraceInput::from_file).collect();
        for input in &inputs {
            if let TraceInput::Unavailable { name, error } = input {
                eprintln!("warning: trace {name:?} unavailable: {error}");
            }
        }
        sweep_inputs(&registry, &specs, &inputs, &harness.sweep)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            eprintln!("registered predictors: {}", registry.names().join(", "));
            return ExitCode::FAILURE;
        }
    };

    if report.is_fully_ok() {
        let labeled = report.all_results();
        let labels: Vec<&str> = labeled.iter().map(|(l, _)| l.as_str()).collect();
        let series: Vec<Vec<_>> = labeled.iter().map(|(_, r)| r.clone()).collect();
        print_mpki_table(&labels, &series);
    } else {
        // Partial results: the per-series table assumes full columns, so
        // report job statuses instead.
        println!(
            "partial results ({} of {} jobs ok):",
            report.summary().ok,
            report.jobs().len()
        );
        let traces = report.trace_names();
        for (s, info) in report.series().iter().enumerate() {
            for (t, trace) in traces.iter().enumerate() {
                let job = report.job(s, t).expect("matrix cell");
                let detail = match &job.status {
                    bfbp_sim::JobStatus::Ok(rec) => format!("mpki {:.3}", rec.result.mpki()),
                    bfbp_sim::JobStatus::Failed { error } => error.clone(),
                    _ => String::new(),
                };
                println!(
                    "  {:<12} {:<10} {:<10} {}",
                    info.label,
                    trace,
                    job.status.name(),
                    detail
                );
            }
        }
    }
    let summary = report.summary();
    println!(
        "\n{} jobs on {} threads ({} ok, {} failed, {} timed out, {} skipped{}{}): wall {:.0} ms, cpu {:.0} ms, speedup {:.2}x",
        summary.jobs,
        report.threads(),
        summary.ok,
        summary.failed,
        summary.timed_out,
        summary.skipped,
        if summary.killed > 0 {
            format!(", {} killed", summary.killed)
        } else {
            String::new()
        },
        if summary.resumed > 0 {
            format!(", {} resumed", summary.resumed)
        } else {
            String::new()
        },
        report.wall().as_secs_f64() * 1e3,
        report.cpu().as_secs_f64() * 1e3,
        report.speedup()
    );
    match report.write_json(&harness.results_dir, &run) {
        Ok(path) => println!("results: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results JSON: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &common.metrics_out {
        match report.metrics_json() {
            Some(json) => match std::fs::write(path, json) {
                Ok(()) => println!("metrics: {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write metrics JSON: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => eprintln!("warning: no metrics collected (all jobs restored or failed)"),
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: sweep [common flags] [--run NAME] [--interval INSTS]\n\
                      [--trace-file PATH]... [--fault-plan PLAN]\n\
                      <spec> [<spec>...]\n\
                sweep --list\n\
         spec: [label=]name[:key=value,...]\n\
         plan: e.g. panic@1,panic@4=1,delay@2=50,io@3=checksum,skip@5,kill@6=5000,random@42=0.1\n\
         {}",
        bfbp_bench::cli::COMMON_USAGE
    );
    ExitCode::FAILURE
}
