//! Runs every figure and table experiment in sequence — the full
//! evaluation of the paper (EXPERIMENTS.md records one such run).
//!
//! Every sweep of the campaign runs with the shared flags
//! (`bfbp_bench::cli::CAMPAIGN_FLAGS`). `--retries N` and `--timeout MS`
//! harden every sweep, so one pathological job degrades to a partial
//! figure instead of killing the whole run; `--threads N` and
//! `--progress` size and watch each sweep.
//!
//! `--metrics` collects per-job introspection metrics and H2P tables,
//! written as `<run>.metrics.json` beside each sweep's results;
//! `--events PATH` appends every sweep's span/event journal to one
//! shared `bfbp-events/1` JSONL file.
//!
//! `--trace-cache` / `--no-trace-cache` force the content-addressed
//! trace cache on or off over `BFBP_TRACE_CACHE`; by default the cache
//! is enabled at `target/trace-cache/`, so a second full run performs
//! zero synthetic generation.
//!
//! `--journal` and `--resume` are rejected, since one path cannot serve
//! the campaign's many sweeps.

use bfbp_bench::{cli, experiments};

fn main() {
    let harness = cli::campaign(1.0, cli::CAMPAIGN_FLAGS, &mut []);
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
