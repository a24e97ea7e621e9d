//! Batched ≡ per-record equivalence: the chunked [`Simulation`] hot
//! loop — including every hand-written `predict_batch`/`update_batch`
//! kernel — must reproduce the record-at-a-time `predict`/`update`
//! contract exactly, for every registered predictor, on every trace,
//! at any chunk size.
//!
//! The reference below is a deliberately naive per-record loop over the
//! materialized trace, with interval windows closed on exact record
//! boundaries; the batched path must match its misprediction counts,
//! instruction totals, and full interval series (hence every windowed
//! MPKI) bit for bit.
//!
//! The reference run is itself pinned by [`GOLDEN`]: for every
//! (predictor, trace) pair, the misprediction count and the FNV-1a hash
//! of the predictor's `bfbp-ckpt/1` state payload after the run. The
//! suite rows were recorded before the history kernels were rewritten
//! to work on whole words, so a kernel change that passes here keeps
//! both the simulated results and the checkpoint bytes of every
//! predictor.
//!
//! The suite traces hold conditional branches only, so they never
//! exercise `track_other`, `update_batch` or a boundary between a
//! conditional and a non-conditional run. The [`MIXED`] trace splices
//! calls, returns and jumps into a suite prefix to cover those, and a
//! second test checks the flight recorder's entries on it against a
//! naive recording loop.

use bfbp::sim::ckpt::{fnv1a, StateWriter};
use bfbp::sim::obs::{FlightEntry, FlightRecorder};
use bfbp::sim::predictor::ConditionalPredictor;
use bfbp::sim::simulate::{IntervalPoint, Simulation};
use bfbp::trace::record::{BranchKind, BranchRecord, Trace};
use bfbp::trace::synth::suite;

const INTERVAL_INSTS: u64 = 2_500;
const TRACES: [&str; 3] = ["SPEC03", "MM2", "SERV1"];
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];
const RECORDS: usize = 6_000;
/// Name of the spliced trace built by [`mixed_trace`].
const MIXED: &str = "SERV1+other";

/// `(predictor, trace, mispredictions, fnv1a(save_state payload))` after
/// the reference run of `RECORDS` records with default parameters. Only
/// the TAGE family folds non-conditionals into its path history, so the
/// other predictors repeat their SERV1 rows on [`MIXED`].
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("bf-isl-tage", "SPEC03", 55, 0xa60b29ddd101e35d),
    ("bf-neural", "SPEC03", 66, 0xf9abad171cd8791f),
    ("bf-neural-32kb", "SPEC03", 66, 0xd5c74cef68822ab8),
    ("bf-neural-ideal", "SPEC03", 77, 0x1a48f3ccaabeb16d),
    ("bf-tage", "SPEC03", 55, 0x19fb53053b17d487),
    ("bimodal", "SPEC03", 63, 0x9e39c3a75dedd45b),
    ("gshare", "SPEC03", 130, 0x829bf35028ba1551),
    ("isl-tage", "SPEC03", 53, 0x4933e8d16160992a),
    ("oh-snap", "SPEC03", 83, 0xf81ce7c9e1b20f6b),
    ("perceptron", "SPEC03", 66, 0xbf857b0ea3564ddf),
    ("piecewise", "SPEC03", 65, 0x5db910d6a519b72d),
    ("static-not-taken", "SPEC03", 4274, 0xaf63bd4c8601b7df),
    ("static-taken", "SPEC03", 1726, 0xaf63bc4c8601b62c),
    ("tage", "SPEC03", 57, 0x3bce125ff4966592),
    ("bf-isl-tage", "MM2", 51, 0x230ea0c8f99e5a20),
    ("bf-neural", "MM2", 29, 0x47c0618b35798961),
    ("bf-neural-32kb", "MM2", 31, 0xf3bdd951065b1018),
    ("bf-neural-ideal", "MM2", 51, 0x913fdf93625cb0e4),
    ("bf-tage", "MM2", 51, 0x7d0a5b244fe43f44),
    ("bimodal", "MM2", 50, 0x4c60cce763c286eb),
    ("gshare", "MM2", 73, 0x603d3671816eb1ad),
    ("isl-tage", "MM2", 35, 0xeefb9b1ac65192c3),
    ("oh-snap", "MM2", 58, 0x9d4df674571c1366),
    ("perceptron", "MM2", 57, 0xa5934c2581774365),
    ("piecewise", "MM2", 61, 0x3ec603f90d4151ec),
    ("static-not-taken", "MM2", 4334, 0xaf63bd4c8601b7df),
    ("static-taken", "MM2", 1666, 0xaf63bc4c8601b62c),
    ("tage", "MM2", 40, 0xce0ceba965e41fbb),
    ("bf-isl-tage", "SERV1", 284, 0x378d2d1d36f75e6e),
    ("bf-neural", "SERV1", 278, 0x1c64602661d71e3e),
    ("bf-neural-32kb", "SERV1", 277, 0x6af5d1c9b6f1525d),
    ("bf-neural-ideal", "SERV1", 278, 0x1f48c4098ae8a915),
    ("bf-tage", "SERV1", 284, 0x3c7acb933e4c5dbb),
    ("bimodal", "SERV1", 282, 0x430ff751d35bc0ca),
    ("gshare", "SERV1", 435, 0x329bff19739c50d8),
    ("isl-tage", "SERV1", 285, 0xb4cf75031ff1bcba),
    ("oh-snap", "SERV1", 321, 0xc3bbe93629aa355e),
    ("perceptron", "SERV1", 314, 0xca8ec6145642524f),
    ("piecewise", "SERV1", 323, 0x67bf037db7801522),
    ("static-not-taken", "SERV1", 3143, 0xaf63bd4c8601b7df),
    ("static-taken", "SERV1", 2857, 0xaf63bc4c8601b62c),
    ("tage", "SERV1", 280, 0x5eba06ee258e97bf),
    ("bf-isl-tage", "SERV1+other", 282, 0x85e03e26bcdf4a1b),
    ("bf-neural", "SERV1+other", 278, 0x1c64602661d71e3e),
    ("bf-neural-32kb", "SERV1+other", 277, 0x6af5d1c9b6f1525d),
    ("bf-neural-ideal", "SERV1+other", 278, 0x1f48c4098ae8a915),
    ("bf-tage", "SERV1+other", 282, 0x09d2800d6cacccd1),
    ("bimodal", "SERV1+other", 282, 0x430ff751d35bc0ca),
    ("gshare", "SERV1+other", 435, 0x329bff19739c50d8),
    ("isl-tage", "SERV1+other", 284, 0xb1ba80a9f2a892c2),
    ("oh-snap", "SERV1+other", 321, 0xc3bbe93629aa355e),
    ("perceptron", "SERV1+other", 314, 0xca8ec6145642524f),
    ("piecewise", "SERV1+other", 323, 0x67bf037db7801522),
    ("static-not-taken", "SERV1+other", 3143, 0xaf63bd4c8601b7df),
    ("static-taken", "SERV1+other", 2857, 0xaf63bc4c8601b62c),
    ("tage", "SERV1+other", 278, 0x7652894ee833d071),
];

/// SERV1's first `RECORDS` records with a run of one to three
/// non-conditional records spliced in after each record whose index is
/// 2 mod 7 or 5 mod 11, cycling through the five non-conditional kinds.
/// Conditional runs between the splices are one to seven records long.
fn mixed_trace() -> Trace {
    let base = suite::find("SERV1")
        .expect("SERV1 in suite")
        .generate_len(RECORDS);
    let others = &BranchKind::ALL[1..];
    let mut records = Vec::with_capacity(RECORDS + RECORDS / 2);
    let mut spliced = 0usize;
    for (i, record) in base.records().iter().enumerate() {
        records.push(*record);
        if i % 7 == 2 || i % 11 == 5 {
            for k in 0..1 + i % 3 {
                let kind = others[spliced % others.len()];
                let pc = record.pc.wrapping_add(0x40 + 4 * k as u64);
                let target = 0x7000_0000 + 0x100 * (spliced % 37) as u64;
                records.push(BranchRecord::uncond(pc, target, kind, (spliced % 5) as u32));
                spliced += 1;
            }
        }
    }
    Trace::new(MIXED, records)
}

/// The three suite traces, then [`mixed_trace`].
fn traces() -> Vec<Trace> {
    let mut traces: Vec<Trace> = TRACES
        .iter()
        .map(|name| {
            suite::find(name)
                .unwrap_or_else(|| panic!("{name} in suite"))
                .generate_len(RECORDS)
        })
        .collect();
    traces.push(mixed_trace());
    traces
}

struct Reference {
    conditional_branches: u64,
    mispredictions: u64,
    instructions: u64,
    intervals: Vec<IntervalPoint>,
}

/// The per-record contract, spelled out: predict then update each
/// conditional in commit order, `track_other` for the rest, close an
/// interval window on the first record boundary at or past
/// `INTERVAL_INSTS`, and flush the final partial window.
fn reference_run(predictor: &mut dyn ConditionalPredictor, trace: &Trace) -> Reference {
    let mut reference = Reference {
        conditional_branches: 0,
        mispredictions: 0,
        instructions: 0,
        intervals: Vec::new(),
    };
    let mut window = IntervalPoint {
        instructions: 0,
        conditional_branches: 0,
        mispredictions: 0,
    };
    for record in trace.records() {
        let insts = record.instructions();
        reference.instructions += insts;
        window.instructions += insts;
        if record.kind.is_conditional() {
            reference.conditional_branches += 1;
            window.conditional_branches += 1;
            let guess = predictor.predict(record.pc);
            if guess != record.taken {
                reference.mispredictions += 1;
                window.mispredictions += 1;
            }
            predictor.update(record.pc, record.taken, record.target);
        } else {
            predictor.track_other(record);
        }
        if window.instructions >= INTERVAL_INSTS {
            reference.intervals.push(window);
            window = IntervalPoint {
                instructions: 0,
                conditional_branches: 0,
                mispredictions: 0,
            };
        }
    }
    if window.instructions > 0 {
        reference.intervals.push(window);
    }
    reference
}

/// FNV-1a of the predictor's checkpoint payload.
fn state_hash(predictor: &mut dyn ConditionalPredictor) -> u64 {
    let mut w = StateWriter::new();
    predictor
        .checkpointing()
        .expect("every registry predictor checkpoints")
        .save_state(&mut w);
    fnv1a(&w.into_bytes())
}

#[test]
fn every_registry_predictor_batches_identically() {
    let registry = bfbp::default_registry();
    let names = registry.names();
    assert!(names.len() >= 8, "registry unexpectedly small: {names:?}");
    let mut measured = Vec::new();
    let traces = traces();
    for trace in &traces {
        let trace_name = trace.name();
        for name in &names {
            let mut reference_predictor = registry
                .build(name, &Default::default())
                .unwrap_or_else(|e| panic!("build {name}: {e}"));
            let reference = reference_run(reference_predictor.as_mut(), trace);
            let reference_state = state_hash(reference_predictor.as_mut());
            measured.push((*name, trace_name, reference.mispredictions, reference_state));
            for chunk in CHUNK_SIZES {
                let mut predictor = registry
                    .build(name, &Default::default())
                    .unwrap_or_else(|e| panic!("build {name}: {e}"));
                let (result, intervals) = Simulation::new(predictor.as_mut())
                    .intervals(INTERVAL_INSTS)
                    .chunk_records(chunk)
                    .run_trace(trace)
                    .expect("replay cannot abort");
                let ctx = format!("{name} on {trace_name}, chunk={chunk}");
                assert_eq!(
                    result.mispredictions(),
                    reference.mispredictions,
                    "misprediction count diverged: {ctx}"
                );
                assert_eq!(
                    result.conditional_branches(),
                    reference.conditional_branches,
                    "conditional count diverged: {ctx}"
                );
                assert_eq!(
                    result.instructions(),
                    reference.instructions,
                    "instruction count diverged: {ctx}"
                );
                assert_eq!(
                    intervals, reference.intervals,
                    "interval series (windowed MPKI) diverged: {ctx}"
                );
                let interval_miss: u64 = intervals.iter().map(|w| w.mispredictions).sum();
                assert_eq!(
                    interval_miss,
                    result.mispredictions(),
                    "interval windows must sum to the total: {ctx}"
                );
                assert_eq!(
                    state_hash(predictor.as_mut()),
                    reference_state,
                    "checkpoint payload diverged: {ctx}"
                );
            }
        }
    }
    let table: String = measured
        .iter()
        .map(|(name, trace, miss, hash)| {
            format!("    ({name:?}, {trace:?}, {miss}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(
        measured.len(),
        GOLDEN.len(),
        "golden table must cover every (predictor, trace) pair; measured:\n{table}"
    );
    for (row, golden) in measured.iter().zip(GOLDEN) {
        assert_eq!(
            row, golden,
            "results or checkpoint payload changed; measured:\n{table}"
        );
    }
}

/// The recording contract, spelled out: each conditional is predicted,
/// recorded with the provenance sampled before its update, then
/// updated; each other record is recorded with its committed direction
/// and no provenance, then passed to `track_other`.
fn naive_recording(predictor: &mut dyn ConditionalPredictor, trace: &Trace) -> FlightRecorder {
    let mut recorder = FlightRecorder::new(trace.len());
    for (index, record) in trace.records().iter().enumerate() {
        let conditional = record.kind.is_conditional();
        let predicted = if conditional {
            predictor.predict(record.pc)
        } else {
            record.taken
        };
        recorder.record(FlightEntry {
            index: index as u64,
            pc: record.pc,
            kind: record.kind,
            predicted,
            outcome: record.taken,
            provenance: if conditional {
                predictor.last_provenance()
            } else {
                None
            },
        });
        if conditional {
            predictor.update(record.pc, record.taken, record.target);
        } else {
            predictor.track_other(record);
        }
    }
    recorder
}

#[test]
fn every_registry_predictor_records_like_the_naive_loop() {
    let registry = bfbp::default_registry();
    let trace = mixed_trace();
    for name in registry.names() {
        let build = || {
            registry
                .build(name, &Default::default())
                .unwrap_or_else(|e| panic!("build {name}: {e}"))
        };
        let expected = naive_recording(build().as_mut(), &trace);
        assert_eq!(expected.total_recorded(), trace.len() as u64);
        for chunk in CHUNK_SIZES {
            let mut predictor = build();
            let mut recorder = FlightRecorder::new(trace.len());
            Simulation::new(predictor.as_mut())
                .intervals(INTERVAL_INSTS)
                .chunk_records(chunk)
                .recorder(&mut recorder)
                .run_trace(&trace)
                .expect("replay cannot abort");
            assert_eq!(
                recorder.total_recorded(),
                expected.total_recorded(),
                "{name}, chunk={chunk}"
            );
            assert!(
                recorder.entries() == expected.entries(),
                "flight recorder entries diverged: {name}, chunk={chunk}"
            );
        }
    }
}
