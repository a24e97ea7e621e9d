//! Cross-crate integration tests: the full pipeline from workload
//! synthesis through the on-disk format to simulation, exercising every
//! crate boundary the way a downstream user would.

use std::io::Cursor;

use bfbp::core::bf_neural::BfNeural;
use bfbp::core::bf_tage::bf_isl_tage;
use bfbp::predictors::piecewise::PiecewiseLinear;
use bfbp::sim::predictor::ConditionalPredictor;
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::runner::SuiteRunner;
use bfbp::sim::simulate::{simulate, Simulation};
use bfbp::tage::isl::isl_tage;
use bfbp::trace::format::{read_trace, write_trace};
use bfbp::trace::source::FileSource;
use bfbp::trace::synth::suite;

#[test]
fn generate_write_read_simulate_roundtrip() {
    let spec = suite::find("INT1").expect("INT1 in suite");
    let trace = spec.generate_len(8_000);

    // Through the binary format.
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).expect("write");
    let back = read_trace(Cursor::new(&buf)).expect("read");
    assert_eq!(back, trace);

    // Simulating the in-memory trace and the decoded stream must give
    // identical results.
    let mut p1 = BfNeural::budget_64kb();
    let mut p2 = BfNeural::budget_64kb();
    let r1 = simulate(&mut p1, &trace);
    let mut source = FileSource::from_reader(Cursor::new(&buf)).expect("header");
    let (r2, _) = Simulation::new(&mut p2).run(&mut source).expect("decode");
    assert_eq!(r1, r2);
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let spec = suite::find("MM2").expect("MM2 in suite");
    let trace = spec.generate_len(10_000);
    let runs: Vec<u64> = (0..3)
        .map(|_| {
            let mut p = bf_isl_tage(7);
            simulate(&mut p, &trace).mispredictions()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn every_suite_trace_runs_through_every_headline_predictor() {
    let registry = bfbp::default_registry();
    let runner = SuiteRunner::from_specs(suite::suite(), 0.01);
    let specs = [
        PredictorSpec::new("piecewise"),
        PredictorSpec::new("bf-neural"),
        PredictorSpec::new("isl-tage")
            .with("tables", 10usize)
            .labeled("isl-tage-10"),
        PredictorSpec::new("bf-isl-tage").labeled("bf-isl-tage-10"),
    ];
    for spec in specs {
        let name = spec.label();
        let results = runner.run_spec(&registry, &spec).expect("spec builds");
        assert_eq!(results.len(), 40, "{name} must cover the whole suite");
        for r in &results {
            assert!(
                r.accuracy() > 0.5,
                "{name} on {} below coin-flip: {}",
                r.trace_name(),
                r.accuracy()
            );
            assert!(r.conditional_branches() > 0);
        }
    }
}

#[test]
fn all_64kb_predictors_fit_a_comparable_budget() {
    let predictors: Vec<Box<dyn ConditionalPredictor>> = vec![
        Box::new(PiecewiseLinear::conventional_64kb()),
        Box::new(BfNeural::budget_64kb()),
        Box::new(isl_tage(15)),
        Box::new(bf_isl_tage(10)),
    ];
    for p in predictors {
        let kib = p.storage().total_kib();
        assert!(
            (40.0..72.0).contains(&kib),
            "{} claims {kib:.1} KiB",
            p.name()
        );
    }
}

#[test]
fn suite_traces_are_stable_across_generations() {
    // The experiment harness relies on bit-identical regeneration.
    let a = suite::find("SERV1").unwrap().generate_len(5_000);
    let b = suite::find("SERV1").unwrap().generate_len(5_000);
    assert_eq!(a, b);
    // And a longer generation shares its prefix with a shorter one.
    let long = suite::find("SERV1").unwrap().generate_len(6_000);
    assert_eq!(&long.records()[..5_000], a.records());
}
