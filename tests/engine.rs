//! Integration tests for the parallel sweep engine and the predictor
//! registry: parallel execution must be bit-identical to serial, the
//! engine must agree with the single-threaded `SuiteRunner` path, and
//! every registered predictor must round-trip through its defaults.

use bfbp::sim::engine::{sweep, SweepOptions};
use bfbp::sim::registry::{Params, PredictorSpec};
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

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    // 2 specs x 2 traces: the parallel engine must produce exactly the
    // serial results — same order, same counts, same interval windows —
    // so the machine-readable JSON is byte-identical.
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = small_specs();

    let serial = sweep(&registry, &specs, &runner, &SweepOptions::serial()).expect("serial sweep");
    for threads in [2, 3, 8] {
        let parallel = sweep(
            &registry,
            &specs,
            &runner,
            &SweepOptions::default().with_threads(threads),
        )
        .expect("parallel sweep");
        assert_eq!(
            serial.results_json(),
            parallel.results_json(),
            "results JSON must not depend on thread count ({threads} threads)"
        );
    }
}

#[test]
fn engine_matches_the_single_threaded_runner() {
    // The engine and the serial run_spec path must agree on every
    // per-trace result.
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let spec = PredictorSpec::new("gshare");

    let report = sweep(
        &registry,
        std::slice::from_ref(&spec),
        &runner,
        &SweepOptions::default().with_threads(4),
    )
    .expect("sweep");
    let engine_results = report.try_results("gshare").expect("gshare series exists");

    let runner_results = runner
        .run_spec(&registry, &spec)
        .expect("gshare builds through the registry");

    assert_eq!(engine_results.len(), runner_results.len());
    for (a, b) in engine_results.iter().zip(&runner_results) {
        assert_eq!(a.trace_name(), b.trace_name());
        assert_eq!(a.mispredictions(), b.mispredictions());
        assert_eq!(a.conditional_branches(), b.conditional_branches());
        assert_eq!(a.instructions(), b.instructions());
    }
}

#[test]
fn every_registered_predictor_builds_from_defaults() {
    // Registry round-trip: every name must build with its registered
    // defaults, report a plausible name, and claim storage — except the
    // trivial static predictors, which are explicitly storage-free.
    let registry = bfbp::default_registry();
    let names = registry.names();
    assert!(
        names.len() >= 12,
        "expected the full workspace registry, got {names:?}"
    );
    for name in names {
        let p = registry
            .build(name, &Params::new())
            .unwrap_or_else(|e| panic!("default build of {name} failed: {e}"));
        assert!(!p.name().is_empty(), "{name} reports an empty display name");
        let bits = p.storage().total_bits();
        if name.starts_with("static-") {
            assert_eq!(bits, 0, "{name} should be storage-free");
        } else {
            assert!(bits > 0, "{name} reports no storage");
        }
    }
}

#[test]
fn sweep_report_carries_timing_and_interval_data() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let options = SweepOptions {
        interval_insts: 1_000,
        ..SweepOptions::default()
    };
    let report = sweep(&registry, &small_specs(), &runner, &options).expect("sweep");

    assert_eq!(report.jobs().len(), 4);
    assert!(report.wall().as_nanos() > 0);
    // cpu() sums the per-job simulation walls; it excludes spec
    // validation and thread setup, so it only has to be non-zero and
    // consistent with the recorded jobs.
    let job_sum: std::time::Duration = report.jobs().iter().map(|j| j.wall).sum();
    assert_eq!(report.cpu(), job_sum);
    assert!(report.cpu().as_nanos() > 0);
    assert!(report.speedup() > 0.0);
    assert!(report.is_fully_ok());
    for job in report.jobs() {
        let record = job.record().expect("healthy sweep job");
        assert!(!record.intervals.is_empty(), "interval windows requested");
        let misses: u64 = record.intervals.iter().map(|w| w.mispredictions).sum();
        assert_eq!(misses, record.result.mispredictions());
    }

    let json = report.to_json();
    for key in [
        "\"schema\"",
        "\"timing\"",
        "\"threads\"",
        "\"wall_ms\"",
        "\"series\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
}

#[test]
fn unknown_specs_fail_before_any_simulation() {
    let registry = bfbp::default_registry();
    let runner = small_runner();
    let specs = [
        PredictorSpec::new("gshare"),
        PredictorSpec::new("no-such-predictor"),
    ];
    let err = sweep(&registry, &specs, &runner, &SweepOptions::default());
    assert!(err.is_err(), "unknown predictor must be rejected");
}
