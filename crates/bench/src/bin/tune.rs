//! Budget-constrained autotuner CLI: successive-halving search over a
//! predictor's registry parameters, reporting the Pareto frontier of
//! MPKI vs. storage as a deterministic `bfbp-frontier/1` document.
//!
//! ```sh
//! tune --space 'bf-isl-tage:tables=4..10,sc=true|false' \
//!      --budget-kbits 512 [--eta 2] [--rungs 3] \
//!      [--samples N] [--seed S] [--trace NAME]... \
//!      [--state PATH] [--resume] [--frontier-out PATH] [shared flags]
//! ```
//!
//! The space grammar is `name[:key=lo..hi[/step],key=a|b|c,...]`;
//! unknown parameter keys are rejected with the predictor's accepted
//! keys. Candidates whose storage exceeds `--budget-kbits` (kilobits,
//! 1 kbit = 1024 bits; below 2^54, so the bit count fits a `u64`)
//! never cost a simulated record. Each rung runs
//! as one batch on the parallel sweep engine, so `--threads`,
//! `--retries`, `--timeout`, `--checkpoint-every`, `--flight-recorder`
//! and `--events` apply per rung (`bfbp_bench::cli::TUNE_FLAGS` lists
//! every shared flag it takes); trace lengths honor `BFBP_TRACE_SCALE`
//! and the trace cache serves every rung's truncated traces.
//!
//! Crash consistency: `--state PATH` names the rung journals. Rung `r`
//! keeps an ordinary sweep journal at `PATH` with its extension
//! replaced by `rung<r>.journal`; no other state file is written. A
//! killed run restarted with `--resume` restores every finished job
//! from those journals and simulates the rest, and the frontier it
//! writes is byte-identical to an uninterrupted run. A journal of other
//! work (other candidates or trace lengths at some rung) is refused
//! with a matrix mismatch; a run without `--resume` removes the
//! journals of its schedule before it starts.

use std::path::PathBuf;
use std::process::ExitCode;

use bfbp_bench::banner;
use bfbp_bench::cli::{self, Harness};
use bfbp_sim::tune::{tune, SearchSpace, TuneOptions};
use bfbp_trace::synth::suite;

fn main() -> ExitCode {
    let registry = bfbp::default_registry();
    let mut harness = Harness::from_env(1.0);
    let mut space_text: Option<String> = None;
    let mut budget_kbits: Option<u64> = None;
    let mut eta = 2usize;
    let mut rungs = 3usize;
    let mut samples = 0usize;
    let mut seed = 0xB1A5_F7EEu64;
    let mut trace_names: Vec<String> = Vec::new();
    let mut state: Option<PathBuf> = None;
    let mut resume = false;
    let mut frontier_out = PathBuf::from("target/results/frontier.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Tuner flags first: the tuner's `--resume` is a boolean (the
        // rung journals are named by `--state`), unlike the shared
        // sweep flag of the same name which takes a journal path.
        match arg.as_str() {
            "--space" => match args.next() {
                Some(text) => space_text = Some(text),
                None => return usage("--space needs a search-space spec"),
            },
            "--budget-kbits" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 && n.checked_mul(1024).is_some() => budget_kbits = Some(n),
                _ => return usage("--budget-kbits needs a positive kilobit count below 2^54"),
            },
            "--eta" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 2 => eta = n,
                _ => return usage("--eta needs an integer >= 2"),
            },
            "--rungs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => rungs = n,
                _ => return usage("--rungs needs an integer >= 1"),
            },
            "--samples" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => samples = n,
                None => return usage("--samples needs a count (0 = full grid)"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--trace" => match args.next() {
                Some(name) => trace_names.push(name),
                None => return usage("--trace needs a suite trace name"),
            },
            "--state" => match args.next() {
                Some(path) => state = Some(path.into()),
                None => return usage("--state needs a path"),
            },
            "--resume" => resume = true,
            "--frontier-out" => match args.next() {
                Some(path) => frontier_out = path.into(),
                None => return usage("--frontier-out needs a path"),
            },
            other => match harness.parse_flag(cli::TUNE_FLAGS, other, &mut args) {
                Ok(true) => {}
                Ok(false) => return usage(&format!("unknown argument {other:?}")),
                Err(e) => return usage(&e),
            },
        }
    }
    let Some(space_text) = space_text else {
        return usage("--space is required");
    };
    let Some(budget_kbits) = budget_kbits else {
        return usage("--budget-kbits is required");
    };
    if let Err(e) = harness.finish_flags() {
        return usage(&e);
    }
    if resume && state.is_none() {
        return usage("--resume needs --state");
    }

    let space = match SearchSpace::parse(&space_text) {
        Ok(s) => s,
        Err(e) => return usage(&e.to_string()),
    };
    let traces = if trace_names.is_empty() {
        suite::suite()
    } else {
        let mut specs = Vec::with_capacity(trace_names.len());
        for name in &trace_names {
            match suite::find(name) {
                Some(spec) => specs.push(spec),
                None => return usage(&format!("unknown suite trace {name:?}")),
            }
        }
        specs
    };

    let budget_bits = budget_kbits * 1024;
    let options = TuneOptions {
        eta,
        rungs,
        samples,
        seed,
        scale: harness.scale,
        state,
        resume,
        sweep: harness.sweep,
        cache: harness.cache,
    };

    banner(
        "tune",
        &format!(
            "{} at {budget_kbits} kbits over {} trace(s), eta {eta}, {rungs} rung(s)",
            space.render(),
            traces.len()
        ),
    );
    let report = match tune(&registry, &space, budget_bits, &traces, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{} declared, {} feasible ({} over budget, {} rejected); {} evaluations",
        report.declared(),
        report.candidates().len(),
        report.over_budget(),
        report.declared() - report.candidates().len() - report.over_budget(),
        report.configs_evaluated()
    );
    for outcome in report.outcomes() {
        println!(
            "  rung {} (1/{} records): {} candidate(s){}",
            outcome.rung,
            outcome.divisor,
            outcome.scores.len(),
            if outcome.restored { " [restored]" } else { "" }
        );
    }
    println!("\nPareto frontier (MPKI vs. storage, budget {budget_bits} bits):");
    for point in report.frontier() {
        println!(
            "  c{:<4} {:>9.1} KB  {:>7.3} MPKI  {}",
            point.candidate,
            point.total_bits as f64 / 8192.0,
            point.mean_mpki,
            point.params.summary()
        );
    }
    if report.frontier().is_empty() {
        println!("  (empty — no candidate finished cleanly)");
    }

    if let Err(e) = report.write_frontier(&frontier_out) {
        eprintln!("cannot write frontier: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nfrontier: {}", frontier_out.display());
    let wall = report.wall().as_secs_f64();
    let configs_per_sec = report.configs_evaluated() as f64 / wall.max(1e-9);
    println!(
        "wall {:.0} ms, {:.2} configs/s, {:.0} records/s",
        wall * 1e3,
        configs_per_sec,
        report.simulated_records() as f64 / wall.max(1e-9)
    );
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: tune --space SPACE --budget-kbits N [--eta N] [--rungs N]\n\
                     [--samples N] [--seed S] [--trace NAME]...\n\
                     [--state PATH] [--resume] [--frontier-out PATH]\n\
                     [shared flags]\n\
         space: name[:key=lo..hi[/step],key=a|b|c,key=value,...]\n\
         {}\n\
         this binary takes: {}",
        cli::FLAG_HELP,
        cli::TUNE_FLAGS.join(" ")
    );
    ExitCode::from(2)
}
