//! Integration tests for crash-consistent mid-job checkpointing: the
//! snapshot/restore round-trip property for every registry predictor,
//! kill-resume byte-identity of the `bfbp-sweep/2` and `bfbp-metrics/1`
//! documents, torn/stale checkpoint quarantine, the `bfbp-journal/3`
//! checkpoint-reference interplay, and cancellation-aware retry backoff.

use std::fs;
use std::time::{Duration, Instant};

use bfbp::sim::ckpt::{SimCheckpoint, StateReader};
use bfbp::sim::engine::{sweep_inputs, JobStatus, SweepOptions, TraceInput};
use bfbp::sim::fault::FaultPlan;
use bfbp::sim::journal::{self, Journal};
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::simulate::Simulation;
use bfbp::sim::RetryPolicy;
use bfbp::trace::record::Trace;
use bfbp::trace::synth::suite;

mod common;
use common::Scratch;

fn int1(n_records: usize) -> Trace {
    suite::find("INT1")
        .expect("INT1 in suite")
        .generate_len(n_records)
}

/// Deterministic pseudo-random index in `0..len`, keyed on `name` and
/// `salt` — snapshot boundaries vary per predictor without flaky tests.
fn pick(name: &str, salt: u64, len: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // One LCG step to decorrelate FNV's low bits before reducing.
    h = h
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((h >> 33) as usize) % len
}

/// Satellite (c): for EVERY registry predictor, a snapshot taken at a
/// mid-run record boundary, restored into a freshly built predictor,
/// must finish the trace with results and intervals identical to an
/// uninterrupted reference run — and taking the snapshots must not
/// perturb the run that produced them.
#[test]
fn snapshot_restore_roundtrip_matches_uninterrupted_run_for_every_predictor() {
    let registry = bfbp::default_registry();
    let trace = int1(4_000);
    for name in registry.names() {
        let spec = PredictorSpec::new(name);

        let mut reference_predictor = registry.build_spec(&spec).expect("build");
        let reference = Simulation::new(reference_predictor.as_mut())
            .intervals(1_000)
            .chunk_records(256)
            .run_trace(&trace)
            .expect("reference run");

        let mut snaps: Vec<SimCheckpoint> = Vec::new();
        {
            let mut predictor = registry.build_spec(&spec).expect("build");
            let mut sink = |c: SimCheckpoint| snaps.push(c);
            let checkpointed = Simulation::new(predictor.as_mut())
                .intervals(1_000)
                .chunk_records(256)
                .checkpoint_every(500, &mut sink)
                .run_trace(&trace)
                .expect("checkpointed run");
            assert_eq!(
                checkpointed, reference,
                "{name}: taking checkpoints must not alter results"
            );
        }
        assert!(
            !snaps.is_empty(),
            "{name}: every registry predictor must expose the checkpointing capability"
        );

        // A handful of pseudo-randomized boundaries per predictor: the
        // earliest snapshot, the latest, and two salted picks between.
        let mut indices = vec![0, snaps.len() - 1];
        indices.push(pick(name, 1, snaps.len()));
        indices.push(pick(name, 2, snaps.len()));
        indices.sort_unstable();
        indices.dedup();
        for i in indices {
            let snap = snaps[i].clone();
            let mut fresh = registry.build_spec(&spec).expect("build");
            let restorable = fresh
                .checkpointing()
                .expect("checkpointing capability present");
            let mut r = StateReader::new(&snap.predictor);
            restorable
                .load_state(&mut r)
                .unwrap_or_else(|e| panic!("{name}: load_state: {e}"));
            r.finish()
                .unwrap_or_else(|e| panic!("{name}: trailing state bytes: {e}"));
            let resumed = Simulation::new(fresh.as_mut())
                .intervals(1_000)
                .chunk_records(256)
                .resume_from(snap)
                .run_trace(&trace)
                .expect("resumed run");
            assert_eq!(
                resumed, reference,
                "{name}: resume from the snapshot at record boundary #{i} diverged"
            );
        }
    }
}

/// The tentpole invariant: kill a sweep job mid-trace, resume from the
/// on-disk checkpoint, and both the `bfbp-sweep/2` results document and
/// the `bfbp-metrics/1` metrics document must be byte-identical to an
/// uninterrupted run — for every registry predictor.
#[test]
fn kill_and_resume_is_byte_identical_for_every_predictor() {
    let scratch = Scratch::new();
    let registry = bfbp::default_registry();
    let trace = int1(10_000);
    for name in registry.names() {
        let specs = vec![PredictorSpec::new(name)];
        let inputs = [TraceInput::ready(trace.clone())];
        let clean = sweep_inputs(
            &registry,
            &specs,
            &inputs,
            &SweepOptions::serial().with_metrics(),
        )
        .expect("clean sweep");
        assert!(clean.is_fully_ok(), "{name}: clean run");

        let dir = scratch.join(&format!("ckpt-{name}"));
        fs::create_dir_all(&dir).expect("create checkpoint dir");
        // Chunk boundaries land every 4096 records, so the kill at 9000
        // fires at 10000 (end of trace) with checkpoints already written
        // at 4096 and 8192 — a genuine mid-trace snapshot.
        let killed = sweep_inputs(
            &registry,
            &specs,
            &inputs,
            &SweepOptions::serial()
                .with_metrics()
                .with_checkpoints(4_096, &dir)
                .with_fault_plan(FaultPlan::new().kill_at(0, 9_000)),
        )
        .expect("killed sweep");
        assert_eq!(killed.jobs()[0].status, JobStatus::Killed, "{name}");
        assert_eq!(killed.summary().killed, 1, "{name}");
        assert!(
            killed.results_json().contains("\"status\": \"killed\""),
            "{name}"
        );
        let ckpt_file = dir.join("job-0.ckpt");
        assert!(
            ckpt_file.exists(),
            "{name}: the killed job must leave its checkpoint on disk"
        );

        let events = scratch.join(&format!("resume-{name}.events.jsonl"));
        let resumed = sweep_inputs(
            &registry,
            &specs,
            &inputs,
            &SweepOptions::serial()
                .with_metrics()
                .with_checkpoints(4_096, &dir)
                .with_events(&events),
        )
        .expect("resumed sweep");
        assert!(resumed.is_fully_ok(), "{name}: resumed run");
        assert_eq!(
            resumed.results_json(),
            clean.results_json(),
            "{name}: bfbp-sweep/2 must be byte-identical after kill-resume"
        );
        assert_eq!(
            resumed.metrics_json(),
            clean.metrics_json(),
            "{name}: bfbp-metrics/1 must be byte-identical after kill-resume"
        );
        let journal = fs::read_to_string(&events).expect("event journal written");
        assert!(
            journal.contains("\"ev\": \"ckpt_restore\""),
            "{name}: the resume must restore from the checkpoint, not rerun from zero:\n{journal}"
        );
        assert!(
            !ckpt_file.exists(),
            "{name}: a completed job must remove its checkpoint"
        );
    }
}

/// A torn or corrupted checkpoint must never poison the run: the file
/// is quarantined, the job reruns from zero, and the results are still
/// byte-identical to an uninterrupted run.
#[test]
fn corrupt_checkpoint_is_quarantined_and_the_job_reruns_from_zero() {
    let scratch = Scratch::new();
    let registry = bfbp::default_registry();
    let trace = int1(10_000);
    let specs = vec![PredictorSpec::new("gshare")];
    let inputs = [TraceInput::ready(trace.clone())];
    let clean =
        sweep_inputs(&registry, &specs, &inputs, &SweepOptions::serial()).expect("clean sweep");

    let dir = scratch.join("corrupt-ckpt");
    fs::create_dir_all(&dir).expect("create checkpoint dir");
    sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .with_checkpoints(4_096, &dir)
            .with_fault_plan(FaultPlan::new().kill_at(0, 9_000)),
    )
    .expect("killed sweep");
    let ckpt_file = dir.join("job-0.ckpt");

    // Flip one payload byte: the trailer checksum must reject the file.
    let mut bytes = fs::read(&ckpt_file).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&ckpt_file, &bytes).expect("write corrupted checkpoint");

    let events = scratch.join("corrupt-ckpt.events.jsonl");
    let resumed = sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .with_checkpoints(4_096, &dir)
            .with_events(&events),
    )
    .expect("resumed sweep");
    assert!(resumed.is_fully_ok());
    assert_eq!(
        resumed.results_json(),
        clean.results_json(),
        "a corrupt checkpoint must degrade to a from-zero run, never wrong results"
    );
    let journal = fs::read_to_string(&events).expect("event journal written");
    assert!(
        journal.contains("\"ev\": \"ckpt_quarantined\""),
        "{journal}"
    );
    let quarantined = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".quarantined"));
    assert!(quarantined, "the torn file must be kept for post-mortem");
    assert!(!ckpt_file.exists(), "the torn file must not be retried");
}

/// A checkpoint recorded for one sweep matrix must never restore into
/// another: the stale file is quarantined and the job runs from zero.
#[test]
fn stale_checkpoint_from_a_different_matrix_is_quarantined() {
    let scratch = Scratch::new();
    let registry = bfbp::default_registry();
    let trace = int1(10_000);
    let dir = scratch.join("stale-ckpt");
    fs::create_dir_all(&dir).expect("create checkpoint dir");

    let gshare = vec![PredictorSpec::new("gshare")];
    let inputs = [TraceInput::ready(trace.clone())];
    sweep_inputs(
        &registry,
        &gshare,
        &inputs,
        &SweepOptions::serial()
            .with_checkpoints(4_096, &dir)
            .with_fault_plan(FaultPlan::new().kill_at(0, 9_000)),
    )
    .expect("killed sweep");
    assert!(dir.join("job-0.ckpt").exists());

    // A different matrix (bimodal, not gshare) over the same directory:
    // job 0 finds the stale file, rejects it, and runs from zero.
    let bimodal = vec![PredictorSpec::new("bimodal")];
    let clean =
        sweep_inputs(&registry, &bimodal, &inputs, &SweepOptions::serial()).expect("clean sweep");
    let crossed = sweep_inputs(
        &registry,
        &bimodal,
        &inputs,
        &SweepOptions::serial().with_checkpoints(4_096, &dir),
    )
    .expect("crossed sweep");
    assert!(crossed.is_fully_ok());
    assert_eq!(crossed.results_json(), clean.results_json());
    let quarantined = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".quarantined"));
    assert!(
        quarantined,
        "the stale file must be quarantined, not deleted"
    );
}

/// Journal interplay: a killed job leaves no journal line (it is not
/// `ok`; like a SIGKILLed process it is still in flight), its checkpoint
/// stays on disk, and a journal resume plus checkpoint restore
/// reproduces the uninterrupted document.
#[test]
fn killed_jobs_stay_out_of_the_journal_and_resume_from_their_checkpoints() {
    let scratch = Scratch::new();
    let registry = bfbp::default_registry();
    let traces = [int1(10_000), {
        suite::find("MM2")
            .expect("MM2 in suite")
            .generate_len(10_000)
    }];
    let inputs = [
        TraceInput::ready(traces[0].clone()),
        TraceInput::ready(traces[1].clone()),
    ];
    let specs = vec![
        PredictorSpec::new("gshare").labeled("g"),
        PredictorSpec::new("bimodal").labeled("b"),
    ];
    let clean =
        sweep_inputs(&registry, &specs, &inputs, &SweepOptions::serial()).expect("clean sweep");

    let dir = scratch.join("journal-ckpt");
    fs::create_dir_all(&dir).expect("create checkpoint dir");
    let journal = scratch.join("killed.journal");
    // Kill job 2 (bimodal on INT1) after the 4096-record checkpoint.
    let killed = sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .with_journal(&journal)
            .with_checkpoints(4_096, &dir)
            .with_fault_plan(FaultPlan::new().kill_at(2, 5_000)),
    )
    .expect("killed sweep");
    assert_eq!(killed.jobs()[2].status, JobStatus::Killed);
    assert_eq!(killed.summary().ok, 3);

    let matrix = journal::matrix_id(
        killed.series(),
        &inputs,
        SweepOptions::serial().interval_insts,
    );
    let loaded = Journal::load(&journal, matrix).expect("journal loads");
    assert_eq!(
        loaded.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 3],
        "the killed job must not be journaled"
    );
    assert!(
        dir.join("job-2.ckpt").exists(),
        "the killed job's checkpoint must stay on disk"
    );

    // Resume: jobs 0, 1, 3 restore from the journal; job 2 restores
    // mid-trace from its checkpoint and finishes.
    let resumed = sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .resuming(&journal)
            .with_checkpoints(4_096, &dir),
    )
    .expect("resumed sweep");
    assert!(resumed.is_fully_ok());
    assert_eq!(resumed.summary().resumed, 3);
    assert_eq!(
        resumed.results_json(),
        clean.results_json(),
        "journal restore + mid-trace checkpoint restore must reproduce the clean document"
    );
}

/// Satellite (a): the retry backoff sleep must be cancellation-aware.
/// A job with a large backoff and a small wall-clock budget must report
/// `timed_out` as soon as the watchdog fires — not after the backoff.
#[test]
fn retry_backoff_is_interrupted_by_the_watchdog() {
    let registry = bfbp::default_registry();
    let specs = vec![PredictorSpec::new("gshare")];
    let inputs = [TraceInput::ready(int1(2_000))];
    let options = SweepOptions::serial()
        .with_retry(RetryPolicy::retries(3, Duration::from_secs(60)))
        .with_timeout(Duration::from_millis(200))
        .with_fault_plan(FaultPlan::new().panic_at(0));
    let start = Instant::now();
    let report = sweep_inputs(&registry, &specs, &inputs, &options).expect("sweep");
    let elapsed = start.elapsed();
    assert_eq!(report.jobs()[0].status, JobStatus::TimedOut);
    assert_eq!(
        report.jobs()[0].attempts,
        1,
        "the watchdog fires inside the first backoff, before attempt 2"
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "a 60 s backoff must not outlive a 200 ms budget (took {elapsed:?})"
    );
}
