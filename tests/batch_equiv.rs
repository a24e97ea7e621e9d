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
//! table was recorded before the history kernels were rewritten to work
//! on whole words, so a kernel change that passes here keeps both the
//! simulated results and the checkpoint bytes of every predictor.

use bfbp::sim::ckpt::{fnv1a, StateWriter};
use bfbp::sim::predictor::ConditionalPredictor;
use bfbp::sim::simulate::{IntervalPoint, Simulation};
use bfbp::trace::record::Trace;
use bfbp::trace::synth::suite;

const INTERVAL_INSTS: u64 = 2_500;
const TRACES: [&str; 3] = ["SPEC03", "MM2", "SERV1"];
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];
const RECORDS: usize = 6_000;

/// `(predictor, trace, mispredictions, fnv1a(save_state payload))` after
/// the reference run of `RECORDS` records with default parameters.
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
];

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
    for trace_name in TRACES {
        let trace = suite::find(trace_name)
            .unwrap_or_else(|| panic!("{trace_name} in suite"))
            .generate_len(RECORDS);
        for name in &names {
            let mut reference_predictor = registry
                .build(name, &Default::default())
                .unwrap_or_else(|e| panic!("build {name}: {e}"));
            let reference = reference_run(reference_predictor.as_mut(), &trace);
            let reference_state = state_hash(reference_predictor.as_mut());
            measured.push((*name, trace_name, reference.mispredictions, reference_state));
            for chunk in CHUNK_SIZES {
                let mut predictor = registry
                    .build(name, &Default::default())
                    .unwrap_or_else(|e| panic!("build {name}: {e}"));
                let (result, intervals) = Simulation::new(predictor.as_mut())
                    .intervals(INTERVAL_INSTS)
                    .chunk_records(chunk)
                    .run_trace(&trace)
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
