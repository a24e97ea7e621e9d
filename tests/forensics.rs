//! Integration tests for the misprediction forensics layer: provenance
//! attribution across the whole predictor registry, flight-recorder
//! transparency (recorder on vs off must not change a byte of the
//! results or metrics documents), postmortem dumps for killed jobs,
//! events-journal round-tripping, and Chrome Trace export validity.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bfbp::sim::engine::{sweep, JobStatus, RetryPolicy, SweepOptions};
use bfbp::sim::fault::FaultPlan;
use bfbp::sim::forensics::{chrome_trace, parse_events, read_events};
use bfbp::sim::json::{parse_json, JsonValue};
use bfbp::sim::obs::{Event, EventJournal};
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::runner::SuiteRunner;
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

/// A unique scratch path under the temp dir.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bfbp-forensics-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// Every registered predictor must attribute every prediction: after
/// `predict`, `last_provenance()` must be `Some` and its `prediction`
/// field must equal the direction the predictor just returned — the
/// recorder stores whatever the hook says, so a predictor that lies
/// here poisons every postmortem it appears in.
#[test]
fn registry_wide_provenance_matches_reported_prediction() {
    let registry = bfbp::default_registry();
    let trace = suite::find("INT2")
        .expect("INT2 in suite")
        .generate_len(4_000);

    for name in registry.names() {
        let mut p = registry
            .build_spec(&PredictorSpec::new(name))
            .expect("registered spec builds");
        let mut attributed = 0u64;
        for record in trace.records() {
            if record.kind.is_conditional() {
                let guess = p.predict(record.pc);
                let prov = p
                    .last_provenance()
                    .unwrap_or_else(|| panic!("{name}: no provenance after predict"));
                assert_eq!(
                    prov.prediction, guess,
                    "{name}: provenance direction disagrees with the returned prediction \
                     (component {:?})",
                    prov.component
                );
                assert!(
                    !prov.component.is_empty(),
                    "{name}: empty provenance component"
                );
                p.update(record.pc, record.taken, record.target);
                attributed += 1;
            } else {
                p.track_other(record);
            }
        }
        assert!(attributed > 0, "{name}: trace had no conditionals");
    }
}

/// Turning the flight recorder on must not change a byte of either the
/// `bfbp-sweep/2` results document or the `bfbp-metrics/1` document,
/// at any thread count: the ring samples strictly between predict and
/// update and never feeds back into the simulation.
#[test]
fn flight_recorder_never_perturbs_results() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();

    let plain = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::serial().with_metrics(),
    )
    .expect("plain sweep");

    for threads in [1usize, 4] {
        let dir = scratch(&format!("ring-{threads}"));
        let recorded = sweep(
            &registry,
            &specs,
            &runner,
            &SweepOptions::default()
                .with_threads(threads)
                .with_metrics()
                .with_flight_recorder(128, &dir),
        )
        .expect("recorded sweep");
        assert_eq!(
            plain.results_json(),
            recorded.results_json(),
            "flight recorder changed the results document at {threads} threads"
        );
        assert_eq!(
            plain.metrics_json(),
            recorded.metrics_json(),
            "flight recorder changed the metrics document at {threads} threads"
        );
        // All jobs healthy: the ring must leave no dumps behind.
        let dumps = fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
        assert_eq!(dumps, 0, "healthy sweep must not write postmortems");
    }
}

/// The acceptance scenario: a fault-plan kill must leave a valid
/// `bfbp-postmortem/1` dump whose final ring entry is the last decision
/// made before the kill, and the events journal must reference the dump
/// through a `postmortem` event.
#[test]
fn killed_job_leaves_valid_postmortem_dump() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let dir = scratch("killed-pm");
    let events = scratch("killed.events.jsonl");

    let report = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default()
            .with_fault_plan(FaultPlan::new().kill_at(1, 500))
            .with_flight_recorder(64, &dir)
            .with_events(&events),
    )
    .expect("sweep");
    assert_eq!(report.jobs()[1].status, JobStatus::Killed);
    assert_eq!(report.summary().killed, 1);

    let dump_path = dir.join("job-1.postmortem.json");
    let text = fs::read_to_string(&dump_path).expect("postmortem written");
    let doc = parse_json(&text).expect("postmortem is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("bfbp-postmortem/1")
    );
    assert_eq!(doc.get("job").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some("killed")
    );
    let detail = doc
        .get("detail")
        .and_then(JsonValue::as_str)
        .expect("detail string");
    assert!(detail.contains("killed after"), "{detail}");

    // The ring saw every record up to the kill: its last entry must be
    // the decision immediately before death.
    let recorded = doc
        .get("recorded")
        .and_then(JsonValue::as_u64)
        .expect("recorded count");
    assert!(recorded >= 500, "kill fired before its record: {recorded}");
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_arr)
        .expect("entries array");
    assert_eq!(entries.len(), 64, "ring must be full at the kill point");
    let last = entries.last().expect("non-empty ring");
    assert_eq!(
        last.get("i").and_then(JsonValue::as_u64),
        Some(recorded - 1),
        "last ring entry must be the final pre-kill decision"
    );
    // Entry indices are consecutive — the ring holds the *last* 64.
    let first = entries.first().expect("non-empty ring");
    assert_eq!(
        first.get("i").and_then(JsonValue::as_u64),
        Some(recorded - 64)
    );
    for entry in entries {
        let pc = entry.get("pc").and_then(JsonValue::as_str).expect("pc");
        assert!(pc.starts_with("0x"), "pc rendered as hex string: {pc}");
    }

    // The journal must point at the dump.
    let parsed = read_events(&events).expect("journal parses");
    let pm = parsed
        .iter()
        .find(|e| e.ev == "postmortem")
        .expect("postmortem event journaled");
    assert_eq!(pm.job(), Some(1));
    assert_eq!(
        pm.get("file").and_then(JsonValue::as_str),
        dump_path.to_str(),
        "postmortem event must carry the dump path"
    );
    assert_eq!(pm.get("entries").and_then(JsonValue::as_u64), Some(64));
}

/// Round-trip every event type a faulty sweep produces through the
/// shared parser: timestamps must be monotonic, the expected vocabulary
/// must be present, and a torn final line must be tolerated while a
/// torn *earlier* line must be a hard error.
#[test]
fn events_journal_round_trips_through_shared_parser() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let events = scratch("roundtrip.events.jsonl");
    let dir = scratch("roundtrip-pm");

    let report = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default()
            .with_retry(RetryPolicy::retries(1, std::time::Duration::from_millis(1)))
            .with_fault_plan(FaultPlan::new().flaky_panic_at(0, 1).kill_at(1, 500))
            .with_flight_recorder(32, &dir)
            .with_events(&events),
    )
    .expect("sweep");
    assert!(report.jobs()[0].is_ok(), "flaky job recovers on retry");
    assert_eq!(report.jobs()[1].status, JobStatus::Killed);

    let text = fs::read_to_string(&events).expect("journal written");
    let parsed = parse_events(&text).expect("journal parses");
    assert_eq!(
        parsed.len(),
        text.lines().count(),
        "every journal line parses"
    );

    let mut last_t = 0u64;
    for event in &parsed {
        assert!(event.t_us >= last_t, "t_us regressed at {:?}", event.ev);
        last_t = event.t_us;
    }
    for expected in [
        "journal_open",
        "sweep_open",
        "job_open",
        "retry",
        "killed",
        "postmortem",
        "job_close",
        "sweep_close",
    ] {
        assert!(
            parsed.iter().any(|e| e.ev == expected),
            "missing event type {expected:?}"
        );
    }

    // Torn tail (a crash mid-write) is dropped silently...
    let torn = format!("{text}{{\"ev\": \"job_open\", \"t_us\": 1");
    let tolerated = parse_events(&torn).expect("torn tail tolerated");
    assert_eq!(tolerated.len(), parsed.len());
    // ...but a torn line in the *middle* is corruption, not a crash.
    let lines: Vec<&str> = text.lines().collect();
    let corrupted = format!("{}\n{{\"ev\": \"bro\n{}\n", lines[0], lines[1..].join("\n"));
    assert!(parse_events(&corrupted).is_err(), "mid-file tear must fail");
}

/// Reopening an events journal whose final line a crash tore cuts the
/// fragment off, so the next event starts a line of its own and every
/// line parses; a file holding only a torn line starts over with its
/// header.
#[test]
fn reopening_an_events_journal_cuts_a_torn_final_line() {
    let path = scratch("torn.events.jsonl");
    let journal = EventJournal::create(&path).expect("create journal");
    journal.emit(Event::new("job_open").num("job", 0));
    drop(journal);
    let mut text = fs::read(&path).expect("journal written");
    text.extend_from_slice(b"{\"ev\": \"job_open\", \"t_us\": 12");
    fs::write(&path, &text).expect("tear the journal");

    let journal = EventJournal::open(&path).expect("reopen journal");
    journal.emit(Event::new("sweep_open"));
    journal.emit(Event::new("sweep_close"));
    drop(journal);
    let names = |path: &PathBuf| -> Vec<String> {
        let events = read_events(path).expect("journal parses");
        events.into_iter().map(|e| e.ev).collect()
    };
    assert_eq!(
        names(&path),
        ["journal_open", "job_open", "sweep_open", "sweep_close"]
    );

    fs::write(&path, b"{\"ev\": \"jour").expect("tear the header");
    drop(EventJournal::open(&path).expect("reopen journal"));
    assert_eq!(names(&path), ["journal_open"]);
}

/// `chrome_trace` over a real faulty sweep journal must emit valid
/// Chrome Trace JSON: a `traceEvents` array of complete (`ph: "X"`)
/// spans and instants (`ph: "i"`), one job span per job on its own
/// thread row, and the fault instants present.
#[test]
fn chrome_trace_export_is_valid_and_complete() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let events = scratch("chrome.events.jsonl");
    let dir = scratch("chrome-pm");

    let report = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default()
            .with_fault_plan(FaultPlan::new().kill_at(2, 500))
            .with_flight_recorder(32, &dir)
            .with_events(&events),
    )
    .expect("sweep");
    let n_jobs = report.jobs().len();

    let parsed = read_events(&events).expect("journal parses");
    let trace_json = chrome_trace(&parsed);
    let doc = parse_json(&trace_json).expect("chrome trace is valid JSON");
    let trace_events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!trace_events.is_empty());

    let mut job_spans = 0usize;
    let mut saw_sweep_span = false;
    let mut saw_kill_instant = false;
    for event in trace_events {
        let ph = event.get("ph").and_then(JsonValue::as_str).expect("ph");
        let name = event.get("name").and_then(JsonValue::as_str).expect("name");
        assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
        assert!(event.get("pid").and_then(JsonValue::as_u64).is_some());
        match ph {
            "X" => {
                let dur = event.get("dur").and_then(JsonValue::as_f64).expect("dur");
                assert!(dur >= 0.0, "negative span duration: {name}");
                let tid = event.get("tid").and_then(JsonValue::as_u64).expect("tid");
                if tid == 0 {
                    saw_sweep_span = true;
                } else if name.contains('/') && !name.contains("interval") {
                    job_spans += 1;
                }
            }
            "i" => {
                assert_eq!(
                    event.get("s").and_then(JsonValue::as_str),
                    Some("t"),
                    "instants must be thread-scoped"
                );
                if name == "killed" {
                    saw_kill_instant = true;
                }
            }
            other => panic!("unexpected phase {other:?} for {name}"),
        }
    }
    assert!(saw_sweep_span, "sweep span missing");
    assert_eq!(job_spans, n_jobs, "one span per job");
    assert!(saw_kill_instant, "kill instant missing");
}
