//! Development diagnostic: per-PC misprediction attribution (the H2P
//! table) and predictor-introspection counters for one trace and one
//! predictor spec — rendered from the same `bfbp_sim::obs` source the
//! sweep engine exports, so the human view and `--json` never diverge.
//!
//! ```sh
//! diagnose [--json] [--top N] [--events PATH]
//!          [--trace-cache|--no-trace-cache] [TRACE [SPEC]]
//! ```
//!
//! Defaults: trace `SPEC03`, spec `isl-tage:tables=10`, top 20.
//!
//! Flags are parsed through `bfbp_bench::cli::Harness`, so
//! `--trace-cache` / `--events` (also spelled `--events-out`) behave
//! exactly as in `sweep`; shared flags the diagnostic cannot honor are
//! rejected, not silently ignored. `--events` appends a one-span
//! `bfbp-events/1` journal of the diagnostic run.

use std::process::ExitCode;

use bfbp_bench::cli::Harness;
use bfbp_sim::obs::{job_obs_json, Event, EventJournal, JobObs};
use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::simulate::Simulation;
use bfbp_trace::synth::suite;

fn main() -> ExitCode {
    let mut harness = Harness::from_env(1.0);
    let mut json = false;
    let mut top = 20usize;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match harness.parse_flag(&["--events", "--trace-cache"], &arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage(&e),
        }
        match arg.as_str() {
            "--json" => json = true,
            "--top" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => return usage("--top needs a count"),
            },
            other if other.starts_with("--") => return usage(&format!("unknown flag {other:?}")),
            other => positional.push(other.to_owned()),
        }
    }
    let name = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "SPEC03".into());
    let which = positional
        .get(1)
        .cloned()
        .unwrap_or_else(|| "isl-tage:tables=10".into());

    let registry = bfbp::default_registry();
    let spec = match PredictorSpec::parse(&which) {
        Ok(s) => s,
        Err(e) => return usage(&format!("bad spec {which:?}: {e}")),
    };
    let mut predictor = match registry.build_spec(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "cannot build {which:?}: {e} (registered: {})",
                registry.names().join(", ")
            );
            return ExitCode::FAILURE;
        }
    };
    let Some(trace_spec) = suite::find(&name) else {
        return usage(&format!("unknown trace {name:?}"));
    };
    // Served from the trace cache (`BFBP_TRACE_CACHE`, `--trace-cache`)
    // when warm.
    let (trace, _status) = harness.cache.fetch(&trace_spec, trace_spec.default_len());

    let mut obs = JobObs::default();
    let mut observe = |pc, taken, mispredicted| obs.h2p.record(pc, taken, mispredicted);
    let (result, _) = Simulation::new(predictor.as_mut())
        .observer(&mut observe)
        .run_trace(&trace)
        .expect("never cancelled");
    obs.record_run(&result, predictor.as_ref());

    if let Some(path) = &harness.sweep.events {
        match EventJournal::open(path) {
            Ok(journal) => journal.emit(
                Event::new("diagnose")
                    .str("trace", &name)
                    .str("spec", &which)
                    .num("conditional_branches", result.conditional_branches())
                    .num("mispredictions", result.mispredictions())
                    .float("mpki", result.mpki()),
            ),
            Err(e) => {
                eprintln!("cannot open events journal {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if json {
        println!("{}", job_obs_json(&which, &name, Some(&obs), top));
    } else {
        println!(
            "{name} / {which}: {} cond, {} misp ({:.3} MPKI)",
            result.conditional_branches(),
            result.mispredictions(),
            result.mpki()
        );
        println!("\ntop {top} hard-to-predict branches:");
        print!("{}", obs.h2p.render_table(top));
        println!("\nintrospection:");
        print!("{}", obs.metrics.render_human());
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: diagnose [--json] [--top N] [--events PATH]\n\
        \x20               [--trace-cache|--no-trace-cache] [TRACE [SPEC]]"
    );
    ExitCode::from(2)
}
