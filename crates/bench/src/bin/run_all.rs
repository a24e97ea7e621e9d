//! Runs every figure and table experiment in sequence — the full
//! evaluation of the paper (EXPERIMENTS.md records one such run).
//!
//! Settings come from the documented variables (`bfbp_bench::cli`)
//! with the flags laid over them, and every sweep of the campaign runs
//! with them. `--retries N` and `--timeout MS` (`BFBP_SWEEP_RETRIES`,
//! `BFBP_SWEEP_TIMEOUT_MS`) harden every sweep, so one pathological job
//! degrades to a partial figure instead of killing the whole run.
//!
//! `--metrics` (`BFBP_SWEEP_METRICS=1`) collects per-job introspection
//! metrics and H2P tables, written as `<run>.metrics.json` beside each
//! sweep's results; `--events PATH` (`BFBP_SWEEP_EVENTS`) appends every
//! sweep's span/event journal to one shared `bfbp-events/1` JSONL file.
//!
//! `--trace-cache` / `--no-trace-cache` (`BFBP_TRACE_CACHE=1`/`0`)
//! force the content-addressed trace cache on or off; by default the
//! cache is enabled at `target/trace-cache/`, so a second full run
//! performs zero synthetic generation.
//!
//! `--journal`, `--resume` and `--metrics-out` are rejected, since one
//! path cannot serve the campaign's many sweeps; so are `--threads` and
//! `--progress`, which the campaign has never honored.

use bfbp_bench::cli::{CommonArgs, Harness};
use bfbp_bench::experiments;

fn main() {
    let mut common = CommonArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match common.try_consume(&arg, &mut args) {
            Ok(true) => {}
            Ok(false) => die(&format!("unknown argument {arg:?}")),
            Err(e) => die(&e),
        }
    }
    if let Err(e) = common.ensure_only(&[
        "--retries",
        "--backoff",
        "--timeout",
        "--checkpoint-every",
        "--checkpoint-dir",
        "--metrics",
        "--events",
        "--flight-recorder",
        "--postmortem-dir",
        "--trace-cache",
    ]) {
        die(&e);
    }
    let harness = Harness::from_env(1.0).with_flags(&common);
    experiments::fig02_bias(&harness);
    experiments::fig08_mpki(&harness);
    experiments::fig08_32kb(&harness);
    experiments::fig09_ablation(&harness);
    experiments::fig10_tables(&harness);
    experiments::fig11_relative(&harness);
    experiments::fig12_hits(&harness);
    experiments::table1_storage(&harness);
    experiments::budget_frontier(&harness);
    experiments::profile_assist(&harness);
    experiments::design_ablations(&harness);
    experiments::relearning_perturbation();
}

fn die(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: run_all [--retries N] [--backoff MS] [--timeout MS] [--metrics]\n\
        \x20              [--events PATH] [--checkpoint-every N] [--checkpoint-dir DIR]\n\
        \x20              [--flight-recorder N] [--postmortem-dir DIR]\n\
        \x20              [--trace-cache|--no-trace-cache]"
    );
    std::process::exit(2);
}
