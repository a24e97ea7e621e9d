//! Integration tests for the budget-constrained autotuner: frontier
//! determinism across thread counts, kill-at-rung-boundary `--resume`
//! equivalence against an uninterrupted run, budget compliance of every
//! frontier point, and the `bfbp-tune/1` state fingerprint guard.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bfbp::sim::ckpt::{fnv1a, write_atomic, StateReader, StateWriter};
use bfbp::sim::tune::{tune, SearchSpace, TuneError, TuneOptions, MAX_CANDIDATES, TUNE_MAGIC};
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

/// Rewrites a complete `bfbp-tune/1` state file keeping only its first
/// `keep` rungs — byte-exactly what a process killed at that rung
/// boundary leaves behind (the state is rewritten atomically after
/// every rung).
fn truncate_state_to(path: &PathBuf, keep: usize) {
    let bytes = fs::read(path).expect("read state");
    assert!(bytes.starts_with(TUNE_MAGIC), "state magic");
    let payload = &bytes[TUNE_MAGIC.len()..bytes.len() - 16];
    let mut r = StateReader::new(payload);
    let tune_id = r.u64().expect("tune id");
    let n_rungs = r.usize().expect("rung count");
    assert!(keep <= n_rungs, "cannot keep {keep} of {n_rungs} rungs");

    let mut w = StateWriter::new();
    w.u64(tune_id);
    w.usize(keep);
    for _ in 0..keep {
        let rung = r.usize().expect("rung");
        let divisor = r.u64().expect("divisor");
        let n_scores = r.usize().expect("score count");
        w.usize(rung);
        w.u64(divisor);
        w.usize(n_scores);
        for _ in 0..n_scores {
            w.usize(r.usize().expect("index"));
            w.u64(r.u64().expect("mpki bits"));
        }
    }
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(TUNE_MAGIC.len() + payload.len() + 16);
    out.extend_from_slice(TUNE_MAGIC);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    write_atomic(path, &out).expect("rewrite truncated state");
}

#[test]
fn resume_at_rung_boundary_reproduces_uninterrupted_frontier() {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse(TINY_SPACE).expect("tiny space parses");
    let traces = tiny_traces();

    // Reference: uninterrupted, no state journaling at all.
    let reference = tune(
        &registry,
        &space,
        OPEN_BUDGET_BITS,
        &traces,
        &tiny_options(),
    )
    .expect("reference tune");

    // Journaled run: state must not perturb the search.
    let state = scratch("tune.state");
    let mut journaled = tiny_options();
    journaled.state = Some(state.clone());
    let full =
        tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &journaled).expect("journaled tune");
    assert_eq!(
        reference.frontier_json(),
        full.frontier_json(),
        "state journaling perturbed the frontier"
    );

    // Kill at the rung-0/rung-1 boundary: the state file then carries
    // exactly one completed rung. Resume must restore rung 0 without
    // re-simulating it, re-run rung 1, and land on the same bytes.
    truncate_state_to(&state, 1);
    let mut resumed_options = journaled.clone();
    resumed_options.resume = true;
    let resumed = tune(
        &registry,
        &space,
        OPEN_BUDGET_BITS,
        &traces,
        &resumed_options,
    )
    .expect("resumed tune");
    assert!(resumed.outcomes()[0].restored, "rung 0 not restored");
    assert!(!resumed.outcomes()[1].restored, "rung 1 must re-run");
    assert_eq!(
        reference.frontier_json(),
        resumed.frontier_json(),
        "resumed frontier differs from uninterrupted run"
    );
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

    let state = scratch("mismatch.state");
    let mut writer = tiny_options();
    writer.state = Some(state.clone());
    tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &writer).expect("seeding tune");

    // Same state file, different search seed: the fingerprint no longer
    // matches, so resuming must fail loudly instead of silently mixing
    // two runs' scores.
    let mut other = writer.clone();
    other.resume = true;
    other.seed ^= 0xDEAD_BEEF;
    match tune(&registry, &space, OPEN_BUDGET_BITS, &traces, &other) {
        Err(TuneError::State { .. }) => {}
        Ok(_) => panic!("mismatched state accepted"),
        Err(e) => panic!("expected a state error, got {e}"),
    }
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
