//! Golden fixtures: the exact bytes of every document and file format
//! the workspace writes, so a refactor of a writer is proven
//! byte-preserving, not just test-passing.
//!
//! The JSON documents live under `tests/golden/` and are compared byte
//! for byte, line layout included; the few fields that measure time are
//! masked first. Binary files are pinned by length and FNV-1a, and wire
//! frames by their exact bytes. A failing comparison writes the bytes it
//! produced to a file in the temp dir, so they can be diffed against the
//! fixture.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bfbp::sim::ckpt::{fnv1a, JobCheckpoint, SimCheckpoint};
use bfbp::sim::engine::{
    sweep_inputs, JobOutcome, JobRecord, JobStatus, SweepOptions, SweepReport, TraceInput,
};
use bfbp::sim::fault::FaultPlan;
use bfbp::sim::forensics::{chrome_trace, parse_events};
use bfbp::sim::journal::Journal;
use bfbp::sim::json::parse_json;
use bfbp::sim::obs::{
    job_obs_json, postmortem_json, Event, EventJournal, FlightEntry, FlightRecorder, JobObs,
};
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::service::{ServeClient, ServeOptions, Server, ServerHandle};
use bfbp::sim::simulate::{IntervalPoint, SimResult};
use bfbp::sim::tune::{tune, SearchSpace, TuneOptions};
use bfbp::sim::wire::{
    CondBatch, ErrorCode, Frame, FrameKind, PredictorInfo, SessionStats, WIRE_PROTOCOL,
};
use bfbp::sim::{PredictorCaps, Provenance};
use bfbp::trace::record::{BranchKind, BranchRecord};
use bfbp::trace::synth::suite;
use bfbp::trace::TraceChunk;

/// A unique scratch path under the temp dir.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bfbp-golden-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// Compares `actual` with `tests/golden/<name>` byte for byte.
fn golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let produced = scratch(name);
        fs::write(&produced, actual).expect("write produced bytes");
        panic!(
            "{name} differs from its fixture {}; the produced bytes are in {}",
            path.display(),
            produced.display()
        );
    }
}

/// The JSON parser bounds nesting, and the bound admits every fixture
/// that is JSON as written (the timing and events fixtures are masked).
/// The results and metrics documents nest deepest, 7 levels.
#[test]
fn fixtures_parse_within_the_nesting_bound() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in [
        "sweep-results.json",
        "sweep-faults.json",
        "metrics.json",
        "frontier.json",
        "postmortem.json",
        "chrome-trace.json",
    ] {
        let text = fs::read_to_string(dir.join(name)).expect("read fixture");
        if let Err(e) = parse_json(&text) {
            panic!("{name}: {e}");
        }
    }
    assert!(parse_json(&"[".repeat(200_000)).is_err());
}

/// Replaces every run of digits and dots in `text` with `#`.
fn mask_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_number = false;
    for c in text.chars() {
        if c.is_ascii_digit() || c == '.' {
            if !in_number {
                out.push('#');
            }
            in_number = true;
        } else {
            out.push(c);
            in_number = false;
        }
    }
    out
}

/// Masks the number after every `"<key>": ` in `text`.
fn mask_key(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\": ");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let (head, tail) = rest.split_at(at + needle.len());
        out.push_str(head);
        out.push('#');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

/// Two short suite traces as ready sweep inputs.
fn two_traces() -> Vec<TraceInput> {
    vec![
        TraceInput::ready(suite::find("INT1").expect("INT1").generate_len(1_500)),
        TraceInput::ready(suite::find("MM2").expect("MM2").generate_len(1_200)),
    ]
}

fn run(specs: &[&str], options: &SweepOptions) -> SweepReport {
    let registry = bfbp::default_registry();
    let specs: Vec<PredictorSpec> = specs
        .iter()
        .map(|s| PredictorSpec::parse(s).expect("spec parses"))
        .collect();
    sweep_inputs(&registry, &specs, &two_traces(), options).expect("sweep starts")
}

/// The `bfbp-sweep/2` results document of a serial sweep with intervals
/// on, over specs whose parameters are strings, bools and ints, plus the
/// full document with its timing numbers masked.
#[test]
fn sweep_results_document() {
    let options = SweepOptions {
        interval_insts: 4_000,
        ..SweepOptions::serial()
    };
    let report = run(
        &[
            "bf-neural:history-mode=bias-filtered",
            "isl=isl-tage:tables=12,sc=false",
            "f=gshare:hist=9",
        ],
        &options,
    );
    assert!(report.is_fully_ok());
    golden("sweep-results.json", &report.results_json());

    // Only the timing line measures time; everything before
    // `"attempts"` on it is masked.
    let full: String = report
        .to_json()
        .split_inclusive('\n')
        .map(|line| match line.split_once("\"attempts\"") {
            Some((timing, attempts)) if line.starts_with("  \"timing\"") => {
                format!("{}\"attempts\"{attempts}", mask_numbers(timing))
            }
            _ => line.to_owned(),
        })
        .collect();
    golden("sweep-timing.json", &full);
}

/// A results document with one failed (panicking), one skipped and one
/// killed job.
#[test]
fn sweep_results_document_with_faults() {
    let plan = FaultPlan::parse("panic@0,skip@1,kill@2=500").expect("plan parses");
    let report = run(
        &["g=gshare", "bimodal"],
        &SweepOptions::serial().with_fault_plan(plan),
    );
    let summary = report.summary();
    assert_eq!(
        (summary.failed, summary.skipped, summary.killed, summary.ok),
        (1, 1, 1, 1)
    );
    golden("sweep-faults.json", &report.results_json());
}

/// The `bfbp-metrics/1` document of a TAGE-family and a table
/// predictor: counters, gauges, histograms and H2P tables.
#[test]
fn metrics_document() {
    let report = run(
        &["bf-tage", "tage:tables=6"],
        &SweepOptions::serial().with_metrics(),
    );
    let metrics = report.metrics_json().expect("metrics were collected");
    for part in [
        "\"counters\": {\"",
        "\"gauges\": {\"",
        "\"histograms\": {\"",
    ] {
        assert!(metrics.contains(part), "no {part} in the metrics document");
    }
    golden("metrics.json", &metrics);
}

/// The `bfbp-frontier/1` document of a two-rung tune over two traces.
#[test]
fn frontier_document() {
    let registry = bfbp::default_registry();
    let space = SearchSpace::parse("gshare:log-size=6..9,hist=4|8").expect("space");
    let traces = vec![
        suite::find("SPEC03").expect("SPEC03"),
        suite::find("MM1").expect("MM1"),
    ];
    let mut options = TuneOptions {
        eta: 2,
        rungs: 2,
        scale: 0.01,
        ..TuneOptions::default()
    };
    options.sweep.threads = 1;
    let report = tune(&registry, &space, 8 << 20, &traces, &options).expect("tune");
    golden("frontier.json", &report.frontier_json());
}

fn entry(index: u64, pc: u64, kind: BranchKind, predicted: bool, outcome: bool) -> FlightEntry {
    FlightEntry {
        index,
        pc,
        kind,
        predicted,
        outcome,
        provenance: None,
    }
}

/// A `bfbp-postmortem/1` document: full, partial and no provenance, and
/// a detail string that needs escaping.
#[test]
fn postmortem_document() {
    let mut recorder = FlightRecorder::new(8);
    recorder.record(FlightEntry {
        provenance: Some(Provenance {
            component: "tage",
            table: Some(3),
            prediction: true,
            alternate: Some(false),
            counter: Some(-2),
            margin: Some(17),
            history_len: Some(27),
        }),
        ..entry(41, 0x4000, BranchKind::CondDirect, true, false)
    });
    recorder.record(FlightEntry {
        provenance: Some(Provenance::of("bimodal", false)),
        ..entry(42, 0x4010, BranchKind::CondDirect, false, false)
    });
    recorder.record(entry(43, 0x4020, BranchKind::Return, true, true));
    let detail = "panic: \"quoted\"\n\tpath C:\\x \u{1}";
    golden(
        "postmortem.json",
        &postmortem_json(&recorder, "bf-tage", "SERV1", 7, "killed", detail),
    );
    golden(
        "postmortem-empty.json",
        &postmortem_json(&FlightRecorder::new(4), "s", "t", 0, "failed", "boom"),
    );
}

/// `job_obs_json` with metrics (one gauge NaN) and without.
#[test]
fn job_obs_documents() {
    let mut obs = JobObs::default();
    obs.metrics.counter("sim.instructions", 12_345);
    obs.metrics.incr("bst.lookups", 7);
    obs.metrics.gauge("bst.fill", 0.25);
    obs.metrics.gauge("weights.saturated", f64::NAN);
    obs.metrics.gauge("whole", 2.0);
    for v in [0.1, 0.5, 0.5, 2.0] {
        obs.metrics.observe("fill", &[0.25, 1.0], v);
    }
    for i in 0..40u64 {
        obs.h2p.record(0x1000 + 4 * (i % 5), i % 3 == 0, i % 4 == 0);
    }
    let lines = format!(
        "{}\n{}\n",
        job_obs_json("bf-neural", "INT1", Some(&obs), 3),
        job_obs_json("gshare", "MM\"2", None, 3)
    );
    golden("job-obs.jsonl", &lines);
}

/// Lines an `EventJournal` writes, with `t_us` masked.
#[test]
fn event_journal_lines() {
    let path = scratch("journal.events");
    let journal = EventJournal::create(&path).expect("create journal");
    journal.emit(
        Event::new("job_close")
            .num("job", 3)
            .str("status", "failed")
            .str("error", "panic: \"boom\"\n\tat C:\\x")
            .float("mpki", 2.5)
            .float("whole", 3.0)
            .float("nan", f64::NAN),
    );
    journal.emit(Event::new("sweep_close"));
    drop(journal);
    let text = fs::read_to_string(&path).expect("read journal");
    golden("events.jsonl", &mask_key(&text, "t_us"));
}

/// The Chrome Trace export of a fixed journal: a sweep span, a job span
/// with interval slices, instants, and a job whose open is never closed.
#[test]
fn chrome_trace_document() {
    let journal = "\
{\"ev\": \"journal_open\", \"t_us\": 0, \"schema\": \"bfbp-events/1\"}
{\"ev\": \"sweep_open\", \"t_us\": 1, \"jobs\": 2, \"pending\": 2, \"series\": 1, \"traces\": 2, \"threads\": 1}
{\"ev\": \"trace_cache\", \"t_us\": 2, \"trace\": \"INT1\", \"status\": \"hit\"}
{\"ev\": \"job_open\", \"t_us\": 3, \"job\": 0, \"series\": \"g\", \"trace\": \"INT1\"}
{\"ev\": \"interval\", \"t_us\": 5, \"job\": 0, \"index\": 0, \"instructions\": 100, \"mispredictions\": 3, \"mpki\": 30.0}
{\"ev\": \"interval\", \"t_us\": 8, \"job\": 0, \"index\": 1, \"instructions\": 300, \"mispredictions\": 1, \"mpki\": 3.3333333333333335}
{\"ev\": \"job_close\", \"t_us\": 11, \"job\": 0, \"series\": \"g\", \"trace\": \"INT1\", \"status\": \"failed\", \"attempts\": 2, \"wall_ms\": 0.5, \"error\": \"panic: \\\"x\\\"\"}
{\"ev\": \"job_open\", \"t_us\": 12, \"job\": 1, \"series\": \"g\", \"trace\": \"MM2\"}
{\"ev\": \"retry\", \"t_us\": 13, \"job\": 1, \"attempt\": 1, \"error\": \"boom\"}
{\"ev\": \"ckpt_write\", \"t_us\": 15, \"job\": 1, \"records\": 4096}
{\"ev\": \"killed\", \"t_us\": 17, \"job\": 1, \"attempt\": 2, \"records\": 8192, \"flag\": true, \"none\": null}
";
    let events = parse_events(journal).expect("journal parses");
    golden("chrome-trace.json", &chrome_trace(&events));
    let empty =
        parse_events("{\"ev\": \"journal_open\", \"t_us\": 0, \"schema\": \"bfbp-events/1\"}\n")
            .expect("journal parses");
    golden("chrome-trace-empty.json", &chrome_trace(&empty));
}

/// `(length, FNV-1a)` of a file's bytes.
fn pin(path: &Path) -> (usize, u64) {
    let bytes = fs::read(path).expect("read pinned file");
    (bytes.len(), fnv1a(&bytes))
}

/// A `bfbp-ckpt/1` job checkpoint file.
#[test]
fn job_checkpoint_file_is_pinned() {
    let interval = |instructions, conditional_branches, mispredictions| IntervalPoint {
        instructions,
        conditional_branches,
        mispredictions,
    };
    let file = JobCheckpoint {
        matrix_id: 0x0123_4567_89ab_cdef,
        job_index: 5,
        predictor: "bf-tage".to_owned(),
        trace: "SPEC03".to_owned(),
        sim: SimCheckpoint {
            records: 4096,
            instructions: 40_000,
            conditional_branches: 4000,
            mispredictions: 77,
            intervals: vec![interval(20_000, 2000, 40), interval(20_000, 2000, 37)],
            window: interval(0, 0, 0),
            predictor: (0..=255u8).collect(),
        },
        observer: vec![1, 2, 3],
    };
    let path = scratch("job.ckpt");
    file.write_to(&path).expect("write checkpoint");
    assert_eq!(pin(&path), (460, 0x8e06_8f51_e6e9_a5c0));
}

/// Stops the server when dropped, during unwind too, so a failing
/// assertion inside the scope cannot leave the serving thread blocked in
/// `accept` and hang the test binary at the scope's join.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A serve session file, written through `ServeClient::checkpoint`.
#[test]
fn serve_session_file_is_pinned() {
    let dir = scratch("sessions");
    let options = ServeOptions {
        checkpoint_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", bfbp::default_registry(), options).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let trace = suite::find("SPEC03").expect("SPEC03").generate_len(600);
    let mut chunk = TraceChunk::new();
    chunk.extend_from_records(trace.records());
    let pinned = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve().expect("serve loop"));
        let stop = StopOnDrop(handle);
        let mut client = ServeClient::connect(addr).expect("connect");
        client.hello("golden").expect("hello");
        client.open(9, "gshare:log-size=10").expect("open");
        for (i, j, conditional) in chunk.kind_runs(0..chunk.len(), 128) {
            assert!(conditional, "suite traces are all conditional");
            client
                .predict_batch(
                    9,
                    &chunk.pcs()[i..j],
                    &chunk.targets()[i..j],
                    &chunk.inst_gaps()[i..j],
                    &chunk.takens()[i..j],
                )
                .expect("predict");
        }
        assert!(client.checkpoint(9).expect("checkpoint"));
        let pinned = pin(&dir.join("session-9.ckpt"));
        drop(stop);
        serving.join().expect("serve thread");
        pinned
    });
    assert_eq!(pinned, (1166, 0x029f_09e1_c238_218f));
}

/// A `bfbp-journal/4` file: the header and one `ok` job. The failed job
/// recorded after it writes no line.
#[test]
fn sweep_journal_file_is_pinned() {
    let path = scratch("sweep.journal");
    let journal =
        Journal::create(&path, 0xfeed_beef_0000_0001, &BTreeMap::new()).expect("create journal");
    let outcome = |status, attempts| JobOutcome {
        status,
        attempts,
        wall: Duration::from_micros(1234),
    };
    let ok = JobStatus::Ok(JobRecord {
        result: SimResult::from_counts("INT 1", "bf-tage", 4000, 77, 40_000),
        intervals: vec![
            IntervalPoint {
                instructions: 20_000,
                conditional_branches: 2000,
                mispredictions: 40,
            },
            IntervalPoint {
                instructions: 20_000,
                conditional_branches: 2000,
                mispredictions: 37,
            },
        ],
        wall: Duration::from_micros(5678),
    });
    journal.record(0, &outcome(ok, 1)).expect("ok line");
    let failed = JobStatus::Failed {
        error: "panic: 100% broken\n\tat x".to_owned(),
    };
    journal.record(1, &outcome(failed, 3)).expect("no line");
    drop(journal);
    assert_eq!(pin(&path), (239, 0xe59d_3efa_a9b8_4477));
}

fn stats(seed: u64) -> SessionStats {
    SessionStats {
        records: seed,
        instructions: seed * 10,
        conditional_branches: seed / 2,
        mispredictions: seed / 7,
    }
}

/// One frame of every kind, in kind order.
fn frames() -> Vec<Frame> {
    let caps = PredictorCaps::from_bits(0b1011).expect("valid caps");
    vec![
        Frame::Hello {
            protocol: WIRE_PROTOCOL.to_owned(),
            client: "golden".to_owned(),
        },
        Frame::HelloAck {
            protocol: WIRE_PROTOCOL.to_owned(),
            server: "srv".to_owned(),
            predictors: vec![
                PredictorInfo {
                    name: "gshare".to_owned(),
                    caps,
                },
                PredictorInfo {
                    name: "bf-tage".to_owned(),
                    caps: PredictorCaps::from_bits(0).expect("valid caps"),
                },
            ],
        },
        Frame::Open {
            session: 7,
            spec: "bf-tage:tables=8".to_owned(),
        },
        Frame::OpenAck {
            session: 7,
            caps,
            resumed: true,
            stats: stats(1000),
        },
        Frame::PredictBatch {
            session: 7,
            batch: CondBatch {
                pcs: vec![0x4000, 0x4010, 0x4020],
                targets: vec![0x4100, 0x4000, 0x3ff0],
                gaps: vec![0, 5, 300],
                takens: vec![true, false, true],
            },
        },
        Frame::PredictReply {
            session: 7,
            miss: vec![false, true, false, false, true, true, false, false, true],
        },
        Frame::OutcomeBatch {
            session: 7,
            records: vec![
                BranchRecord::uncond(0x5000, 0x6000, BranchKind::Call, 4),
                BranchRecord::uncond(0x6040, 0x5004, BranchKind::Return, 12),
            ],
        },
        Frame::OutcomeAck { session: 7 },
        Frame::Stats { session: 7 },
        Frame::StatsReply {
            session: 7,
            stats: stats(4321),
        },
        Frame::Checkpoint { session: 7 },
        Frame::CheckpointAck {
            session: 7,
            persisted: true,
        },
        Frame::Close { session: 7 },
        Frame::CloseAck {
            session: 7,
            stats: stats(99),
        },
        Frame::Shutdown,
        Frame::ShutdownAck { sessions: 2 },
        Frame::Error {
            code: ErrorCode::BadSpec,
            session: 7,
            message: "unknown predictor \"x\"".to_owned(),
        },
    ]
}

/// The bytes of each frame of [`frames`], in hex.
const FRAME_BYTES: [&str; 17] = [
    "1a000000010b000000626662702d776972652f3106000000676f6c64656ec23753971e590d48",
    "32000000020b000000626662702d776972652f310300000073727602000000060000006773686172650b0700000062662d746167650074afbf447291eb0a",
    "1d0000000307000000000000001000000062662d746167653a7461626c65733d3847aedbeaf9e81354",
    "2b0000000407000000000000000b01e8030000000000001027000000000000f4010000000000008e0000000000000071a4c0114b333723",
    "4a0000000507000000000000000300000000400000000000001040000000000000204000000000000000410000000000000040000000000000f03f00000000000000000000050000002c0100000553e46884cbd3ab1c",
    "0f000000060700000000000000090000003201aacb5a1e35c2c3e9",
    "38000000070700000000000000020000000050000000000000406000000000000000600000000000000450000000000000040000000c000000030503a0bf2793a267a093",
    "0900000008070000000000000070d3dc7ce7bb7ba8",
    "09000000090700000000000000239add29c010f2ce",
    "290000000a0700000000000000e110000000000000caa8000000000000700800000000000069020000000000004ef5065012f9fc1d",
    "090000000b0700000000000000cdaed07e9fd7b171",
    "0a0000000c0700000000000000017770d2c237e2d15f",
    "090000000d0700000000000000df12ec2e92f31e79",
    "290000000e07000000000000006300000000000000de0300000000000031000000000000000e00000000000000f9b5ed361e3a138b",
    "010000000f5ec001864cc263af",
    "09000000100200000000000000adf66058014ab4de",
    "230000001103070000000000000015000000756e6b6e6f776e20707265646963746f72202278225fd867b2b374cd2f",
];

#[test]
fn one_frame_of_every_kind_is_pinned() {
    let frames = frames();
    let kinds: Vec<FrameKind> = frames.iter().map(Frame::kind).collect();
    assert_eq!(kinds, FrameKind::ALL, "one frame per kind, in kind order");
    for (frame, expected) in frames.iter().zip(FRAME_BYTES) {
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected, "{:?}", frame.kind());
    }
}
