//! The benchmark's own checks: seeded inputs, shim faithfulness, the
//! span file, and agreement between `BENCHMARK.json` and the program.

use std::path::PathBuf;

use bfbp_perfbench::inputs::{seeded_suite, DEFAULT_SEED};
use bfbp_perfbench::shim::TimedPredictor;
use bfbp_perfbench::spans::chrome_trace;
use bfbp_perfbench::{per_layer, run, Config, Workload, END_TO_END};
use bfbp_sim::forensics::{parse_json, JsonValue};
use bfbp_sim::predictor::ConditionalPredictor;
use bfbp_sim::simulate::Simulation;
use bfbp_trace::record::{BranchKind, BranchRecord, Trace};
use bfbp_trace::synth::suite;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

#[test]
fn default_seed_reproduces_the_shipped_suite() {
    let shipped = suite::suite();
    let seeded = seeded_suite(DEFAULT_SEED);
    assert_eq!(seeded.len(), shipped.len());
    for (ours, theirs) in seeded.iter().zip(&shipped) {
        let n = theirs.default_len();
        assert_eq!(
            ours.fingerprint(n),
            theirs.fingerprint(n),
            "{}",
            theirs.name()
        );
    }
}

#[test]
fn another_seed_changes_every_trace_but_keeps_its_length() {
    let shipped = suite::suite();
    for (ours, theirs) in seeded_suite(7).iter().zip(&shipped) {
        assert_eq!(
            ours.default_len(),
            theirs.default_len(),
            "{}",
            theirs.name()
        );
        assert_eq!(ours.knobs(), theirs.knobs());
        let n = theirs.default_len();
        assert_ne!(
            ours.fingerprint(n),
            theirs.fingerprint(n),
            "{}",
            theirs.name()
        );
        assert_ne!(
            ours.generate_len(2000).records(),
            theirs.generate_len(2000).records(),
            "{} kept its records",
            theirs.name()
        );
    }
}

/// A suite trace prefix with calls and returns spliced in, so both the
/// conditional and the non-conditional batch paths run.
fn mixed_trace() -> Trace {
    let base = suite::find("SPEC03")
        .expect("SPEC03 is in the suite")
        .generate_len(6000);
    let mut records = Vec::new();
    for (i, record) in base.records().iter().enumerate() {
        records.push(*record);
        if i % 7 == 0 {
            let kind = if i % 14 == 0 {
                BranchKind::Call
            } else {
                BranchKind::Return
            };
            records.push(BranchRecord::uncond(
                record.pc ^ 0x40,
                record.target,
                kind,
                3,
            ));
        }
    }
    Trace::new("mixed", records)
}

#[test]
fn shim_preserves_counts_and_capabilities_for_every_registry_predictor() {
    let registry = bfbp::default_registry();
    let trace = mixed_trace();
    for name in registry.names() {
        let params = Default::default();
        let mut plain = registry.build(name, &params).expect("builds from defaults");
        let mut shim = TimedPredictor::new(registry.build(name, &params).expect("builds"));
        assert_eq!(shim.capabilities(), plain.capabilities(), "{name}");
        let direct = Simulation::new(plain.as_mut())
            .intervals(10_000)
            .run_trace(&trace)
            .expect("runs");
        let shimmed = Simulation::new(&mut shim)
            .intervals(10_000)
            .run_trace(&trace)
            .expect("runs");
        assert_eq!(shimmed, direct, "{name}");
        assert_eq!(shim.stats().records, trace.len() as u64, "{name}");
        assert_eq!(shim.timed(), plain.capabilities().batch_preferred, "{name}");
    }
}

fn number(value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("{key} is a number"))
}

#[test]
fn every_workload_measures_every_metric_and_writes_nested_spans() {
    let rows = per_layer();
    for workload in Workload::ALL {
        let config = Config {
            workload,
            seed: 3,
            seconds: 0.05,
            scale: 0.01,
            setup_reps: 2,
            work_dir: work_dir(workload.name()),
        };
        let untraced = run(&config, false).expect("untraced run");
        assert!(untraced.correct(), "{:?}", untraced.mismatches);
        assert!(untraced.attempted > 0);
        for (name, _) in END_TO_END {
            // The process-wide metrics are added by the command line.
            if name == "peak_rss_mb" || name == "ok_frac" {
                continue;
            }
            let value = untraced.value(name).unwrap_or(f64::NAN);
            assert!(
                value.is_finite() && value > 0.0,
                "{workload:?} {name} = {value}"
            );
        }
        assert!(untraced.spans.is_empty());

        let traced = run(&config, true).expect("traced run");
        assert!(traced.correct(), "{:?}", traced.mismatches);
        for (name, _) in &rows {
            let value = traced.value(name).unwrap_or(f64::NAN);
            assert!(value.is_finite(), "{workload:?} {name} = {value}");
        }

        let path = config.work_dir.join("spans.json");
        std::fs::write(
            &path,
            chrome_trace(&traced.spans, &[("workload", workload.name().into())]),
        )
        .expect("span file written");
        let text = std::fs::read_to_string(&path).expect("span file read");
        let doc = parse_json(&text).expect("span file is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), traced.spans.len());
        let bounds: Vec<(f64, f64, f64)> = events
            .iter()
            .map(|e| {
                let args = e.get("args").expect("args");
                let start = number(e, "ts");
                (number(args, "span"), start, start + number(e, "dur"))
            })
            .collect();
        for event in events {
            let args = event.get("args").expect("args");
            let parent = number(args, "parent");
            if parent == 0.0 {
                continue;
            }
            let (_, p_start, p_end) = *bounds
                .iter()
                .find(|b| b.0 == parent)
                .unwrap_or_else(|| panic!("parent {parent} of {event:?} is in the file"));
            let start = number(event, "ts");
            let end = start + number(event, "dur");
            assert!(
                start >= p_start - 1e-3 && end <= p_end + 1e-3,
                "{event:?} lies outside its parent [{p_start}, {p_end}]"
            );
        }
        let _ = std::fs::remove_dir_all(&config.work_dir);
    }
}

#[test]
fn benchmark_json_matches_the_program() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::GATED
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, ours);
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(names("end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}
