//! Run any predictor over a trace file in the BFBT binary format —
//! the entry point for using this library on your own recorded traces.
//!
//! ```sh
//! simulate_trace <trace.bfbt> [predictor-spec]
//! ```
//!
//! The predictor spec is a registry spec: a registered name optionally
//! followed by `:key=value,...` overrides, e.g. `bf-neural` (default),
//! `isl-tage:tables=15,sc=false`, or `gshare:log-size=20,hist=18`.
//! Pass `list` to print every registered predictor.

use std::process::ExitCode;

use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::simulate::Simulation;
use bfbp_trace::source::FileSource;

fn main() -> ExitCode {
    let registry = bfbp::default_registry();
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: simulate_trace <trace.bfbt> [predictor-spec]");
        eprintln!("       simulate_trace list");
        return ExitCode::FAILURE;
    };
    if path == "list" {
        for name in registry.names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let which = args.next().unwrap_or_else(|| "bf-neural".to_owned());
    let spec = match PredictorSpec::parse(&which) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad predictor spec {which:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut predictor = match registry.build_spec(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot build {which:?}: {e}");
            eprintln!("registered predictors: {}", registry.names().join(", "));
            return ExitCode::FAILURE;
        }
    };
    // The file streams through the simulation a chunk at a time; it is
    // never held in memory whole.
    let mut source = match FileSource::open(&path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match Simulation::new(predictor.as_mut()).run(&mut source) {
        Ok((result, _)) => result,
        Err(e) => {
            eprintln!("trace error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{result}");
    println!("storage: {:.2} KiB", predictor.storage().total_kib());
    ExitCode::SUCCESS
}
