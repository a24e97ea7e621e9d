//! Integration tests for the fault-tolerance layer: per-job isolation
//! (panic / timeout / trace corruption), the `bfbp-sweep/2` status
//! schema, checkpoint/resume through the journal, and determinism of
//! the degraded paths.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bfbp::sim::engine::{sweep, sweep_inputs, JobStatus, SweepError, SweepOptions, TraceInput};
use bfbp::sim::fault::FaultPlan;
use bfbp::sim::journal::JournalError;
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::runner::SuiteRunner;
use bfbp::trace::format::{corrupt, write_trace};
use bfbp::trace::synth::suite;

fn small_runner() -> SuiteRunner {
    let specs: Vec<_> = ["INT1", "MM2"]
        .iter()
        .map(|n| suite::find(n).expect("trace in suite"))
        .collect();
    SuiteRunner::from_specs(specs, 0.02)
}

fn small_specs() -> Vec<PredictorSpec> {
    vec![
        PredictorSpec::new("gshare").labeled("g"),
        PredictorSpec::new("bimodal").labeled("b"),
    ]
}

/// A unique scratch path under the target temp dir.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bfbp-fault-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// The acceptance scenario from the fault-tolerance issue: a four-job
/// sweep where one job panics, one times out, and one hits a corrupt
/// trace. The sweep must complete the remaining job, record accurate
/// per-job statuses, and a `--resume` of the journal must re-execute
/// only the three unhealthy jobs — producing a results document
/// byte-identical to an all-healthy run.
#[test]
fn acceptance_panic_timeout_corruption_then_resume() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let journal = scratch("acceptance.journal");

    // Round 1: jobs 0 (panic), 1 (delayed into the timeout), and
    // 2 (corrupt trace load) all degrade; job 3 completes.
    let plan = FaultPlan::new()
        .panic_at(0)
        .delay_at(1, 60_000)
        .trace_error_at(2, corrupt::CorruptKind::ChecksumMismatch);
    let options = SweepOptions::default()
        .with_threads(2)
        .with_timeout(Duration::from_millis(250))
        .with_fault_plan(plan)
        .with_journal(&journal);
    let report = sweep(&registry, &specs, &runner, &options).expect("sweep starts");

    let summary = report.summary();
    assert_eq!(summary.jobs, 4);
    assert_eq!(summary.ok, 1, "the healthy job must complete");
    assert_eq!(summary.failed, 2, "panic + corrupt trace");
    assert_eq!(summary.timed_out, 1, "delayed job hits the watchdog");
    assert!(matches!(report.jobs()[0].status, JobStatus::Failed { .. }));
    assert_eq!(report.jobs()[1].status, JobStatus::TimedOut);
    assert!(matches!(report.jobs()[2].status, JobStatus::Failed { .. }));
    assert!(report.jobs()[3].is_ok());

    let json = report.results_json();
    assert!(json.contains("\"schema\": \"bfbp-sweep/2\""));
    assert!(json.contains("\"status\": \"failed\""));
    assert!(json.contains("\"status\": \"timed_out\""));
    assert!(json.contains("\"status\": \"ok\""));
    assert!(json.contains(
        "\"summary\": {\"jobs\": 4, \"ok\": 1, \"failed\": 2, \"timed_out\": 1, \"skipped\": 0, \
         \"killed\": 0}"
    ));

    // The journal holds the schema header plus one line per ok job.
    let round1 = fs::read_to_string(&journal).expect("journal written");
    assert_eq!(round1.lines().count(), 1 + 1, "{round1}");
    assert!(
        round1.starts_with("{\"schema\": \"bfbp-journal/4\", "),
        "{round1}"
    );

    // Round 2: resume with the faults gone. Only the three unhealthy
    // jobs may re-run; the completed one is restored from the journal.
    let resumed_options = SweepOptions::default().with_threads(2).resuming(&journal);
    let resumed = sweep(&registry, &specs, &runner, &resumed_options).expect("resume");
    assert!(resumed.is_fully_ok());
    assert_eq!(
        resumed.summary().resumed,
        1,
        "one job restored, three re-run"
    );
    let round2 = fs::read_to_string(&journal).expect("journal rewritten");
    assert_eq!(
        round2.lines().count(),
        1 + 4,
        "the resumed journal must hold every job once:\n{round2}"
    );

    // The merged document is byte-identical to a run that never failed.
    let healthy =
        sweep(&registry, &specs, &runner, &SweepOptions::default()).expect("healthy sweep");
    assert_eq!(resumed.results_json(), healthy.results_json());
}

/// A kill in the middle of a journal append leaves a torn final line.
/// A resume drops it when it starts the journal, so a second resume
/// still reads every finished job.
#[test]
fn a_torn_journal_line_survives_two_resumes() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let journal = scratch("torn.journal");
    let run = |options: SweepOptions| {
        sweep(&registry, &specs, &runner, &options.with_threads(2)).expect("sweep")
    };

    let first = run(SweepOptions::default()
        .with_journal(&journal)
        .with_fault_plan(FaultPlan::new().panic_at(1).panic_at(2)));
    assert_eq!(first.summary().ok, 2);
    let mut torn = fs::read(&journal).expect("journal written");
    torn.extend_from_slice(b"{\"job\": 7, \"attem");
    fs::write(&journal, torn).expect("tear the journal");

    let second = run(SweepOptions::default()
        .resuming(&journal)
        .with_fault_plan(FaultPlan::new().panic_at(2)));
    assert_eq!(second.summary().resumed, 2);
    assert_eq!(second.summary().ok, 3);

    let third = run(SweepOptions::default().resuming(&journal));
    assert_eq!(third.summary().resumed, 3);
    assert!(third.is_fully_ok());
    let clean = run(SweepOptions::default());
    assert_eq!(third.results_json(), clean.results_json());
}

/// A resume that journals to another file carries every finished job
/// into it, so a resume from that file restores the whole matrix.
#[test]
fn a_resume_into_another_journal_carries_every_finished_job() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let (p, q) = (scratch("p.journal"), scratch("q.journal"));
    let run = |options: &SweepOptions| sweep(&registry, &specs, &runner, options).expect("sweep");

    run(&SweepOptions::default()
        .with_journal(&p)
        .with_fault_plan(FaultPlan::new().panic_at(1)));
    let into_q = run(&SweepOptions::default().resuming(&p).with_journal(&q));
    assert_eq!(into_q.summary().resumed, 3);
    assert!(into_q.is_fully_ok());

    let from_q = run(&SweepOptions::default().resuming(&q));
    assert_eq!(from_q.summary().resumed, 4, "every job restores from Q");
    assert_eq!(from_q.results_json(), into_q.results_json());
}

/// Every `TraceFormatError` variant, injected into one job, must fail
/// exactly that job and leave the rest of the matrix intact.
#[test]
fn every_trace_format_error_fails_exactly_one_job() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = vec![PredictorSpec::new("gshare").labeled("g")];
    for kind in corrupt::CorruptKind::ALL {
        let options = SweepOptions::default()
            .with_threads(1)
            .with_fault_plan(FaultPlan::new().trace_error_at(1, kind));
        let report = sweep(&registry, &specs, &runner, &options).expect("sweep starts");
        let summary = report.summary();
        assert_eq!(
            (summary.ok, summary.failed),
            (1, 1),
            "kind {} must fail job 1 only",
            kind.name()
        );
        match &report.jobs()[1].status {
            JobStatus::Failed { error } => assert!(
                error.starts_with("trace load failed: "),
                "kind {}: {error}",
                kind.name()
            ),
            other => panic!("kind {}: expected Failed, got {other:?}", kind.name()),
        }
        assert!(report.jobs()[0].is_ok(), "kind {}", kind.name());
    }
}

/// The degraded document must be as deterministic as the healthy one:
/// same faults, different thread counts, byte-identical results JSON.
#[test]
fn faulted_results_json_is_thread_count_independent() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let plan = FaultPlan::new()
        .panic_at(1)
        .skip_at(2)
        .trace_error_at(0, corrupt::CorruptKind::BadMagic);
    let serial = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::serial().with_fault_plan(plan.clone()),
    )
    .expect("serial");
    for threads in [2, 4] {
        let parallel = sweep(
            &registry,
            &specs,
            &runner,
            &SweepOptions::default()
                .with_threads(threads)
                .with_fault_plan(plan.clone()),
        )
        .expect("parallel");
        assert_eq!(
            serial.results_json(),
            parallel.results_json(),
            "{threads} threads"
        );
    }
}

/// On-disk traces: a corrupt file quarantines its column (with a real
/// parse error in the status) while healthy files sweep normally.
#[test]
fn corrupt_trace_file_quarantines_its_column() {
    let registry = bfbp::default_registry();
    let healthy_trace = suite::find("INT1").expect("INT1").generate_len(2_000);

    let healthy_path = scratch("healthy.bfbt");
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &healthy_trace).expect("serialize");
    fs::write(&healthy_path, &bytes).expect("write healthy");

    // corrupt::corrupted needs a small trace (single-byte varint
    // offsets); corruption severity does not depend on length.
    let small_trace = suite::find("INT1").expect("INT1").generate_len(100);
    let corrupt_path = scratch("corrupt.bfbt");
    fs::write(
        &corrupt_path,
        corrupt::corrupted(&small_trace, corrupt::CorruptKind::ChecksumMismatch),
    )
    .expect("write corrupt");

    let inputs = [
        TraceInput::from_file(&healthy_path),
        TraceInput::from_file(&corrupt_path),
    ];
    assert!(matches!(inputs[0], TraceInput::Ready(_)));
    assert!(matches!(inputs[1], TraceInput::Unavailable { .. }));

    let specs = small_specs();
    let report =
        sweep_inputs(&registry, &specs, &inputs, &SweepOptions::default()).expect("sweep starts");
    let summary = report.summary();
    assert_eq!((summary.ok, summary.failed), (2, 2));
    for s in 0..2 {
        assert!(report.job(s, 0).expect("cell").is_ok());
        let broken = report.job(s, 1).expect("cell");
        assert_eq!(broken.attempts, 0, "unavailable traces are never attempted");
        match &broken.status {
            JobStatus::Failed { error } => {
                assert!(error.contains("checksum"), "{error}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}

/// A header claiming a 16 GiB name must quarantine its column like any
/// other corrupt file, with no allocation of the claimed length.
#[test]
fn huge_name_length_file_is_unavailable_not_an_abort() {
    let path = scratch("huge-name.bfbt");
    fs::write(&path, b"BFBT\x01\x00\xff\xff\xff\xff\x3fx").expect("write header");
    match TraceInput::from_file(&path) {
        TraceInput::Unavailable { name, error } => {
            assert!(name.ends_with("huge-name"), "{name}");
            assert!(error.contains("unexpected end of trace stream"), "{error}");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
}

/// A watchdog firing used to be invisible: the job's terminal status
/// said `timed_out` but nothing recorded *when* the budget ran out.
/// With an event journal attached, the timeout must appear as a
/// timestamped `timeout` event and the job's span must close with the
/// `timed_out` status.
#[test]
fn watchdog_timeout_is_visible_in_the_event_journal() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = vec![PredictorSpec::new("gshare").labeled("g")];
    let events = scratch("timeout.events.jsonl");

    let options = SweepOptions::default()
        .with_threads(1)
        .with_timeout(Duration::from_millis(100))
        .with_fault_plan(FaultPlan::new().delay_at(1, 60_000))
        .with_events(&events);
    let report = sweep(&registry, &specs, &runner, &options).expect("sweep");
    assert_eq!(report.jobs()[1].status, JobStatus::TimedOut);

    let journal = fs::read_to_string(&events).expect("event journal written");
    let timeout_line = journal
        .lines()
        .find(|l| l.contains("\"ev\": \"timeout\""))
        .unwrap_or_else(|| panic!("no timeout event in journal:\n{journal}"));
    assert!(timeout_line.contains("\"t_us\": "), "{timeout_line}");
    assert!(timeout_line.contains("\"job\": 1"), "{timeout_line}");
    assert!(timeout_line.contains("\"wall_ms\": "), "{timeout_line}");
    assert!(
        journal.lines().any(|l| {
            l.contains("\"ev\": \"job_close\"")
                && l.contains("\"job\": 1")
                && l.contains("\"status\": \"timed_out\"")
        }),
        "job 1's span must close with the timed_out status:\n{journal}"
    );
}

/// A journal recorded for one matrix must refuse to resume another:
/// other specs, or the same specs over the same traces at another
/// trace scale.
#[test]
fn resume_rejects_a_journal_from_a_different_matrix() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let journal = scratch("mismatch.journal");

    let specs_a = small_specs();
    sweep(
        &registry,
        &specs_a,
        &runner,
        &SweepOptions::default().with_journal(&journal),
    )
    .expect("first sweep");

    let specs_b = vec![PredictorSpec::new("gshare").labeled("other-label")];
    let longer = SuiteRunner::from_specs(runner.specs().to_vec(), 0.05);
    for (specs, runner) in [(&specs_b, &runner), (&specs_a, &longer)] {
        let err = sweep(
            &registry,
            specs,
            runner,
            &SweepOptions::default().resuming(&journal),
        )
        .expect_err("mismatched matrix must be rejected");
        assert!(
            matches!(
                err,
                SweepError::Journal(JournalError::MatrixMismatch { .. })
            ),
            "{err}"
        );
    }
    // The same matrix still resumes, every job restored.
    let report = sweep(
        &registry,
        &specs_a,
        &runner,
        &SweepOptions::default().resuming(&journal),
    )
    .expect("same-matrix resume");
    assert_eq!(report.summary().resumed, report.jobs().len());
}

/// A transient fault plus a retry budget must converge to a fully-ok
/// run, with the extra attempts visible in the per-job accounting.
#[test]
fn transient_faults_recover_within_the_retry_budget() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let options = SweepOptions::default()
        .with_threads(2)
        .with_retry(bfbp::sim::RetryPolicy::retries(2, Duration::from_millis(1)))
        .with_fault_plan(FaultPlan::new().flaky_panic_at(0, 2).flaky_panic_at(3, 1));
    let report = sweep(&registry, &specs, &runner, &options).expect("sweep");
    assert!(report.is_fully_ok());
    assert_eq!(report.jobs()[0].attempts, 3);
    assert_eq!(report.jobs()[1].attempts, 1);
    assert_eq!(report.jobs()[3].attempts, 2);
    // Attempt counts are timing metadata, not results: the document is
    // still byte-identical to a first-try-clean run.
    let clean = sweep(&registry, &specs, &runner, &SweepOptions::default()).expect("clean sweep");
    assert_eq!(report.results_json(), clean.results_json());
}
