//! Integration tests for the streaming trace pipeline: the chunked
//! [`Simulation`] hot loop must give the same results over a BFBT
//! byte stream ([`FileSource`]) as over the materialized trace for
//! every registered predictor, sweeps must produce byte-identical
//! `bfbp-sweep/2` and `bfbp-metrics/1` documents across thread counts,
//! and the content-addressed trace cache must be invisible to results
//! while eliminating all synthetic generation on a warm run (asserted
//! via the events journal).

use std::fs;

use bfbp::sim::engine::{sweep_inputs, SweepOptions, TraceInput};
use bfbp::sim::obs::EventJournal;
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::runner::{scaled_len, SuiteRunner};
use bfbp::sim::simulate::Simulation;
use bfbp::trace::cache::TraceCache;
use bfbp::trace::format::write_trace;
use bfbp::trace::source::FileSource;
use bfbp::trace::synth::suite;
use bfbp::trace::synth::suite::TraceSpec;

mod common;
use common::Scratch;

/// The suite traces the equivalence battery runs on: one from each of
/// three workload families, kept short enough that every registered
/// predictor finishes the full cross-product quickly.
const EQUIV_TRACES: [&str; 3] = ["SPEC03", "MM2", "SERV1"];
const EQUIV_RECORDS: usize = 2000;

fn equiv_specs() -> Vec<TraceSpec> {
    EQUIV_TRACES
        .iter()
        .map(|n| suite::find(n).expect("trace in suite"))
        .collect()
}

/// Every registered predictor, on every equivalence trace, must produce
/// the same `SimResult` and the same interval series whether the trace
/// is materialized up front or decoded chunk-by-chunk from its BFBT
/// bytes.
#[test]
fn streamed_and_materialized_paths_agree_for_every_predictor() {
    let registry = bfbp::default_registry();
    for trace_spec in equiv_specs() {
        let trace = trace_spec.generate_len(EQUIV_RECORDS);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("encode to memory");
        for name in registry.names() {
            let spec = PredictorSpec::new(name);
            let mut materialized = registry.build_spec(&spec).expect("builds from defaults");
            let reference = Simulation::new(materialized.as_mut())
                .intervals(2500)
                .run_trace(&trace)
                .expect("never cancelled");

            let mut streamed = registry.build_spec(&spec).expect("builds from defaults");
            let mut source = FileSource::from_reader(&bytes[..]).expect("valid header");
            let got = Simulation::new(streamed.as_mut())
                .intervals(2500)
                .run(&mut source)
                .expect("never cancelled");

            assert_eq!(
                reference,
                got,
                "{name} on {} diverges between materialized and streamed input",
                trace.name()
            );
        }
    }
}

/// The sweep documents — `bfbp-sweep/2` and `bfbp-metrics/1` alike —
/// must not depend on the worker count: one worker and two run the
/// same jobs on the same pool.
#[test]
fn sweeps_are_byte_identical_across_threads() {
    let registry = bfbp::default_registry();
    let specs = vec![
        PredictorSpec::new("gshare").labeled("g"),
        PredictorSpec::new("bf-tage").labeled("bf"),
    ];
    let ready: Vec<TraceInput> = equiv_specs()
        .iter()
        .map(|s| TraceInput::ready(s.generate_len(EQUIV_RECORDS)))
        .collect();

    let mut docs = Vec::new();
    for threads in [1, 2] {
        let report = sweep_inputs(
            &registry,
            &specs,
            &ready,
            &SweepOptions::default().with_threads(threads).with_metrics(),
        )
        .expect("sweep");
        assert!(report.is_fully_ok());
        docs.push((
            report.results_json(),
            report.metrics_json().expect("metrics collected"),
        ));
    }
    assert_eq!(
        docs[1].0, docs[0].0,
        "bfbp-sweep/2 document depends on thread count"
    );
    assert_eq!(
        docs[1].1, docs[0].1,
        "bfbp-metrics/1 document depends on thread count"
    );
}

/// Cold-then-warm cache rounds must hand the sweep identical traces
/// (hence byte-identical documents), and a corrupted entry must be
/// silently regenerated rather than served.
#[test]
fn cache_round_trip_is_invisible_to_sweep_documents() {
    let scratch = Scratch::new();
    let registry = bfbp::default_registry();
    let specs = vec![PredictorSpec::new("bimodal").labeled("b")];
    let trace_specs = equiv_specs();
    let scale = 0.02;
    let cache_dir = scratch.join("roundtrip-cache");
    let cache = TraceCache::at(&cache_dir);

    let reference = {
        let runner = SuiteRunner::from_specs(trace_specs.clone(), scale);
        sweep_inputs(
            &registry,
            &specs,
            &ready_inputs(&runner),
            &SweepOptions::default().with_metrics(),
        )
        .expect("uncached sweep")
    };

    for round in ["cold", "warm"] {
        let runner = SuiteRunner::from_specs_cached(trace_specs.clone(), scale, &cache, None);
        let report = sweep_inputs(
            &registry,
            &specs,
            &ready_inputs(&runner),
            &SweepOptions::default().with_metrics(),
        )
        .expect("cached sweep");
        assert_eq!(
            report.results_json(),
            reference.results_json(),
            "{round} cache round changed the results document"
        );
        assert_eq!(
            report.metrics_json(),
            reference.metrics_json(),
            "{round} cache round changed the metrics document"
        );
    }

    // Corrupt one entry in place: the next cached run must regenerate it
    // and still match the reference byte for byte.
    let victim = &trace_specs[0];
    let entry = cache
        .entry_path(victim, scaled_len(victim, scale))
        .expect("cache enabled");
    let bytes = fs::read(&entry).expect("entry exists after the cold round");
    fs::write(&entry, &bytes[..bytes.len() / 2]).expect("truncate entry");
    let runner = SuiteRunner::from_specs_cached(trace_specs.clone(), scale, &cache, None);
    let report = sweep_inputs(
        &registry,
        &specs,
        &ready_inputs(&runner),
        &SweepOptions::default().with_metrics(),
    )
    .expect("sweep after corruption");
    assert_eq!(report.results_json(), reference.results_json());
}

/// A warm cache performs *zero* synthetic generation: every fetch in the
/// second round journals as a `hit`, none as `generated`.
#[test]
fn warm_cache_does_zero_generation_per_events_journal() {
    let scratch = Scratch::new();
    let trace_specs = equiv_specs();
    let scale = 0.02;
    let cache_dir = scratch.join("warm-cache");
    let cache = TraceCache::at(&cache_dir);

    let journal_for = |tag: &str| {
        let path = scratch.join(&format!("{tag}.events.jsonl"));
        (EventJournal::create(&path).expect("create journal"), path)
    };

    let (cold_journal, cold_path) = journal_for("cold");
    SuiteRunner::from_specs_cached(trace_specs.clone(), scale, &cache, Some(&cold_journal));
    drop(cold_journal);
    let cold = fs::read_to_string(&cold_path).expect("cold journal");
    assert_eq!(
        count_status(&cold, "generated"),
        trace_specs.len(),
        "cold round must generate every trace: {cold}"
    );

    let (warm_journal, warm_path) = journal_for("warm");
    SuiteRunner::from_specs_cached(trace_specs.clone(), scale, &cache, Some(&warm_journal));
    drop(warm_journal);
    let warm = fs::read_to_string(&warm_path).expect("warm journal");
    assert_eq!(
        count_status(&warm, "hit"),
        trace_specs.len(),
        "warm round must hit on every trace: {warm}"
    );
    assert_eq!(
        count_status(&warm, "generated"),
        0,
        "warm round must perform zero synthetic generation: {warm}"
    );
}

fn ready_inputs(runner: &SuiteRunner) -> Vec<TraceInput> {
    runner
        .traces()
        .iter()
        .map(|t| TraceInput::Ready(t.clone()))
        .collect()
}

/// Counts `trace_cache` events carrying the given status keyword.
fn count_status(journal: &str, status: &str) -> usize {
    journal
        .lines()
        .filter(|l| {
            l.contains("\"ev\": \"trace_cache\"")
                && l.contains(&format!("\"status\": \"{status}\""))
        })
        .count()
}
