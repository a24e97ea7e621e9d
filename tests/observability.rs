//! Integration tests for the observability layer: metrics collection
//! must never perturb the `bfbp-sweep/2` results document, the
//! `bfbp-events/1` journal must be valid JSONL with one closed span per
//! job and monotonic timestamps, the metrics document must carry
//! per-predictor introspection counters and H2P attribution, and all of
//! it must be deterministic across thread counts.

use std::fs;

use bfbp::sim::engine::{sweep, SweepOptions};
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::runner::SuiteRunner;
use bfbp::trace::synth::suite;

mod common;
use common::Scratch;

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

/// Collecting metrics must not change a single byte of the results
/// document: the observer hooks sit strictly off the results path.
#[test]
fn metrics_collection_never_perturbs_results() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();

    let plain = sweep(&registry, &specs, &runner, &SweepOptions::default()).expect("plain sweep");
    let observed = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default().with_metrics(),
    )
    .expect("observed sweep");

    assert_eq!(
        plain.results_json(),
        observed.results_json(),
        "metrics collection must leave the bfbp-sweep/2 document byte-identical"
    );
    assert!(
        plain.metrics_json().is_none(),
        "no metrics when not requested"
    );
    let metrics = observed.metrics_json().expect("metrics collected");
    assert!(
        metrics.contains("\"schema\": \"bfbp-metrics/1\""),
        "{metrics}"
    );
}

/// The event journal must be valid JSONL: every line one JSON object,
/// exactly one `job_open` and one `job_close` per job (open before
/// close), `t_us` non-decreasing in file order, and the sweep span
/// bracketing everything.
#[test]
fn events_journal_is_valid_jsonl_with_closed_spans() {
    let scratch = Scratch::new();
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let events = scratch.join("spans.events.jsonl");

    let report = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default().with_threads(2).with_events(&events),
    )
    .expect("sweep");
    assert!(report.is_fully_ok());
    let n_jobs = report.jobs().len();

    let journal = fs::read_to_string(&events).expect("journal written");
    let lines: Vec<&str> = journal.lines().collect();
    assert!(!lines.is_empty());
    assert!(
        lines[0].contains("\"ev\": \"journal_open\"")
            && lines[0].contains("\"schema\": \"bfbp-events/1\""),
        "header line: {}",
        lines[0]
    );

    let mut last_t = 0u64;
    let mut opens = vec![None; n_jobs];
    let mut closes = vec![None; n_jobs];
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with("{\"ev\": \"") && line.ends_with('}'),
            "line {i} is not an event object: {line}"
        );
        let t_us = field_u64(line, "t_us").unwrap_or_else(|| panic!("no t_us: {line}"));
        assert!(t_us >= last_t, "t_us regressed at line {i}: {line}");
        last_t = t_us;
        if let Some(job) = field_u64(line, "job").map(|j| j as usize) {
            if line.contains("\"ev\": \"job_open\"") {
                assert!(opens[job].is_none(), "job {job} opened twice");
                opens[job] = Some(i);
            }
            if line.contains("\"ev\": \"job_close\"") {
                assert!(closes[job].is_none(), "job {job} closed twice");
                closes[job] = Some(i);
            }
        }
    }
    for job in 0..n_jobs {
        let open = opens[job].unwrap_or_else(|| panic!("job {job} never opened"));
        let close = closes[job].unwrap_or_else(|| panic!("job {job} never closed"));
        assert!(open < close, "job {job} closed before opening");
    }
    assert!(journal.contains("\"ev\": \"sweep_open\""));
    assert!(journal.contains("\"ev\": \"sweep_close\""));
    assert!(
        lines
            .last()
            .expect("non-empty")
            .contains("\"ev\": \"sweep_close\""),
        "sweep span must close last"
    );
}

/// The per-predictor introspection counters the issue requires: BF-Neural,
/// BF-TAGE, perceptron, and TAGE must each export their internals, and
/// every job must carry a non-empty top-N hard-to-predict table.
#[test]
fn metrics_document_covers_required_predictors() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = vec![
        PredictorSpec::new("bf-neural").labeled("bf-neural"),
        PredictorSpec::new("bf-tage").labeled("bf-tage"),
        PredictorSpec::new("perceptron").labeled("perceptron"),
        PredictorSpec::new("tage").labeled("tage"),
    ];
    let report = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default().with_metrics(),
    )
    .expect("sweep");
    assert!(report.is_fully_ok());

    let expected: [(&str, &[&str]); 4] = [
        (
            "bf-neural",
            &[
                "bst.occupancy",
                "bst.hit_rate",
                "weights.wm.saturation",
                "theta",
            ],
        ),
        (
            "bf-tage",
            &[
                "tage.table1.allocs*",
                "bst.occupancy",
                "bf_ghr.commits*",
                "bf_ghr.occupancy",
            ],
        ),
        (
            "perceptron",
            &["weights.saturation", "theta", "weights.total*"],
        ),
        (
            "tage",
            &[
                "tage.table1.allocs*",
                "tage.alloc_failures*",
                "tage.table1.occupancy",
            ],
        ),
    ];
    for (s, (label, names)) in expected.iter().enumerate() {
        for t in 0..2 {
            let obs = report
                .job_obs(s, t)
                .unwrap_or_else(|| panic!("{label}: no obs for trace {t}"));
            for name in *names {
                // A trailing '*' marks a counter; plain names are gauges.
                let present = match name.strip_suffix('*') {
                    Some(counter) => obs.metrics.counter_value(counter).is_some(),
                    None => obs.metrics.gauge_value(name).is_some(),
                };
                assert!(present, "{label}: metric {name} missing");
            }
            // Universal simulation counters from the engine itself.
            assert!(obs.metrics.counter_value("sim.mispredictions").is_some());
            // Per-branch attribution: something must have mispredicted.
            assert!(obs.h2p.total_mispredicted() > 0, "{label}: empty H2P");
            assert!(!obs.h2p.top(32).is_empty(), "{label}: no top-N rows");
        }
    }
    let doc = report.metrics_json().expect("metrics document");
    assert!(doc.contains("\"schema\": \"bfbp-metrics/1\""));
    assert!(doc.contains("\"h2p\": ["));
    assert!(doc.contains("tage.table1.allocs"));
}

/// The metrics document is deterministic: serial and parallel runs of
/// the same matrix agree byte for byte (H2P accumulation is per-job,
/// rendering is canonically sorted).
#[test]
fn metrics_document_is_thread_count_independent() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();
    let serial = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::serial().with_metrics(),
    )
    .expect("serial");
    let parallel = sweep(
        &registry,
        &specs,
        &runner,
        &SweepOptions::default().with_threads(4).with_metrics(),
    )
    .expect("parallel");
    assert_eq!(
        serial.metrics_json().expect("serial metrics"),
        parallel.metrics_json().expect("parallel metrics")
    );
    assert_eq!(serial.results_json(), parallel.results_json());
}

/// Pulls an unsigned-integer field out of one rendered event line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}
