//! Integration tests for the budget-constrained autotuner: frontier
//! determinism across thread counts, kill-and-`--resume` equivalence
//! against an uninterrupted run (at a rung boundary and mid-rung),
//! budget compliance of every frontier point, and the rung journals'
//! matrix guard.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bfbp::sim::engine::SweepError;
use bfbp::sim::fault::FaultPlan;
use bfbp::sim::journal::JournalError;
use bfbp::sim::tune::{rung_journal, tune, SearchSpace, TuneError, TuneOptions, MAX_CANDIDATES};
use bfbp::trace::synth::suite::{self, TraceSpec};

/// The committed tiny search space the acceptance criteria run on:
/// 8 BF-ISL-TAGE configurations (4 table counts x SC on/off).
const TINY_SPACE: &str = "bf-isl-tage:tables=4..7,sc=true|false";

/// Generous budget admitting every configuration in [`TINY_SPACE`].
const OPEN_BUDGET_BITS: u64 = 1024 * 1024 * 8;

fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bfbp-tune-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

fn tiny_traces() -> Vec<TraceSpec> {
    ["SPEC03", "MM1"]
        .iter()
        .map(|n| suite::find(n).expect("suite trace"))
        .collect()
}

fn tiny_options() -> TuneOptions {
    TuneOptions {
        eta: 2,
        rungs: 2,
        scale: 0.02,
        ..TuneOptions::default()
    }
}

#[test]
fn frontier_is_byte_identical_across_thread_counts() {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse(TINY_SPACE).expect("tiny space parses");
    let traces = tiny_traces();

    let mut single = tiny_options();
    single.sweep.threads = 1;
    let one = tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &single).expect("1-thread tune");

    let mut quad = tiny_options();
    quad.sweep.threads = 4;
    let four = tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &quad).expect("4-thread tune");

    assert!(!one.frontier().is_empty(), "tiny space yields a frontier");
    assert_eq!(
        one.frontier_json(),
        four.frontier_json(),
        "frontier depends on thread count"
    );

    // And the files the CLI would write are byte-identical too.
    let p1 = scratch("frontier-1t.json");
    let p4 = scratch("frontier-4t.json");
    one.write_frontier(&p1).expect("write 1-thread frontier");
    four.write_frontier(&p4).expect("write 4-thread frontier");
    assert_eq!(
        fs::read(&p1).expect("read"),
        fs::read(&p4).expect("read"),
        "written frontier files differ"
    );
}

/// A journaled tune of [`TINY_SPACE`] and the frontier of the same run
/// uninterrupted and unjournaled, to compare resumes against.
fn journaled_run(name: &str) -> (TuneOptions, String) {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse(TINY_SPACE).expect("tiny space parses");
    let traces = tiny_traces();
    let reference = tune(
        &registry,
        &space,
        OPEN_BUDGET_BITS,
        &traces,
        &tiny_options(),
    )
    .expect("reference tune");

    let mut journaled = tiny_options();
    journaled.state = Some(scratch(name));
    let full =
        tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &journaled).expect("journaled tune");
    assert_eq!(
        reference.frontier_json(),
        full.frontier_json(),
        "journaling perturbed the frontier"
    );
    (journaled, reference.frontier_json())
}

/// Resumes `options`' run and returns which rungs were restored whole,
/// after checking its frontier against `reference`.
fn resume(options: &TuneOptions, reference: &str) -> Vec<bool> {
    let mut resumed = options.clone();
    resumed.resume = true;
    let report = tune(
        &bfbp::default_registry(),
        &SearchSpace::parse(TINY_SPACE).expect("tiny space parses"),
        OPEN_BUDGET_BITS,
        &tiny_traces(),
        &resumed,
    )
    .expect("resumed tune");
    assert_eq!(
        report.frontier_json(),
        reference,
        "resumed frontier differs from uninterrupted run"
    );
    report.outcomes().iter().map(|o| o.restored).collect()
}

#[test]
fn resume_at_rung_boundary_reproduces_uninterrupted_frontier() {
    let (options, reference) = journaled_run("boundary.state");
    let state = options.state.clone().expect("state path");

    // Kill at the rung-0/rung-1 boundary: rung 1's journal was never
    // written. Resume must restore rung 0 from its journal, re-run
    // rung 1, and land on the same bytes.
    fs::remove_file(rung_journal(&state, 1)).expect("rung 1 journal kept");
    assert_eq!(resume(&options, &reference), [true, false]);

    // Resuming the finished run restores every rung.
    assert_eq!(resume(&options, &reference), [true, true]);
}

#[test]
fn resume_mid_rung_reproduces_uninterrupted_frontier() {
    let (options, reference) = journaled_run("mid-rung.state");
    let state = options.state.clone().expect("state path");

    // Kill in the middle of rung 1: its journal holds the header and
    // one finished job. Resume restores rung 0 whole and that one job,
    // simulates the rest of rung 1, and lands on the same bytes.
    let journal = rung_journal(&state, 1);
    let text = fs::read_to_string(&journal).expect("rung 1 journal kept");
    let kept: Vec<&str> = text.lines().take(2).collect();
    assert!(kept[1].contains("\"cond\": "), "{text}");
    fs::write(&journal, kept.join("\n") + "\n").expect("truncate rung 1 journal");
    assert_eq!(resume(&options, &reference), [true, false]);
}

#[test]
fn every_frontier_point_fits_the_budget() {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse(TINY_SPACE).expect("tiny space parses");
    let traces = tiny_traces();
    // Tight enough that part of the space is infeasible (the probed
    // space spans roughly 456..560 kbits).
    let budget_bits = 480 * 1024;

    let report =
        tune(&registry, &space, budget_bits, &traces, &tiny_options()).expect("tight-budget tune");
    assert!(report.over_budget() > 0, "budget did not bite");
    for candidate in report.candidates() {
        assert!(
            candidate.total_bits() <= budget_bits,
            "candidate c{} admitted at {} bits over budget {budget_bits}",
            candidate.index,
            candidate.total_bits()
        );
    }
    assert!(!report.frontier().is_empty(), "no frontier under budget");
    for point in report.frontier() {
        assert!(
            point.total_bits <= budget_bits,
            "frontier point c{} at {} bits exceeds budget {budget_bits}",
            point.candidate,
            point.total_bits
        );
        assert!(point.mean_mpki.is_finite() && point.mean_mpki >= 0.0);
    }
}

#[test]
fn state_from_a_different_run_is_rejected_on_resume() {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse(TINY_SPACE).expect("tiny space parses");
    let traces = tiny_traces();

    let mut writer = tiny_options();
    writer.state = Some(scratch("mismatch.state"));
    tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &writer).expect("seeding tune");

    // Same rung journals, another trace scale: every rung's trace
    // lengths differ, so resuming must fail loudly instead of silently
    // mixing two runs' scores.
    let mut other = writer.clone();
    other.resume = true;
    other.scale *= 1.5;
    match tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &other) {
        Err(TuneError::Sweep(SweepError::Journal(JournalError::MatrixMismatch { .. }))) => {}
        Ok(_) => panic!("a journal of another scale was resumed"),
        Err(e) => panic!("expected a journal matrix mismatch, got {e}"),
    }
}

#[test]
fn a_fresh_run_removes_older_rung_journals() {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse(TINY_SPACE).expect("tiny space parses");
    let traces = tiny_traces();

    let mut options = tiny_options();
    let state = scratch("fresh.state");
    options.state = Some(state.clone());
    tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &options).expect("first tune");
    assert!(rung_journal(&state, 1).exists(), "rung journals are kept");

    // A fresh run whose every rung-0 job panics stops after rung 0: no
    // candidate survives it. The first run's rung-1 journal must not
    // outlive the start of this run, or a resume of this run would
    // pick it up.
    let jobs = space.cardinality() as usize * traces.len();
    let plan = (0..jobs).fold(FaultPlan::new(), FaultPlan::panic_at);
    options.sweep = options.sweep.with_fault_plan(plan);
    let report = tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &options).expect("fresh tune");
    assert_eq!(report.outcomes().len(), 1, "the run stops after rung 0");
    assert!(rung_journal(&state, 0).exists(), "rung 0 journaled afresh");
    assert!(
        !rung_journal(&state, 1).exists(),
        "an older run's rung-1 journal survived a fresh start"
    );
}

#[test]
fn ranges_wider_than_an_i64_are_rejected() {
    match SearchSpace::parse("bf-tage:tables=-9223372036854775808..9223372036854775807") {
        Err(TuneError::Space { .. }) => {}
        other => panic!("expected a space error, got {other:?}"),
    }
    // The widest range that fits still counts its points without overflow.
    let widest = SearchSpace::parse("bf-tage:tables=0..9223372036854775807").expect("fits an i64");
    assert_eq!(widest.cardinality(), 1 << 63);
    let built = SearchSpace::new("bf-tage").range("tables", i64::MIN, i64::MAX);
    assert_eq!(built.cardinality(), u64::MAX);
}

#[test]
fn oversized_grids_are_rejected_before_any_candidate_is_built() {
    let registry = bfbp::default_registry();
    let at_limit = SearchSpace::parse(&format!("bf-tage:tables=1..{MAX_CANDIDATES}")).unwrap();
    at_limit.validate(&registry).expect("a grid at the limit");

    let over = [
        format!("bf-tage:tables=1..{}", MAX_CANDIDATES + 1),
        "bf-tage:tables=1..100000000".to_owned(),
        "gshare:log-size=1..300,hist=1..300".to_owned(),
        "bf-tage:tables=0..9223372036854775807".to_owned(),
    ];
    for text in &over {
        let space = SearchSpace::parse(text).expect("well-formed space");
        assert!(space.cardinality() > MAX_CANDIDATES, "{text}");
        match tune(
            &registry,
            &space,
            OPEN_BUDGET_BITS,
            &tiny_traces(),
            &tiny_options(),
        ) {
            Err(TuneError::Space { .. }) => {}
            other => panic!("{text}: expected a space error, got {:?}", other.err()),
        }
    }
}
