//! Shape tests for the paper's headline claims, run at a reduced trace
//! scale. These assert *orderings and directions* — who wins, roughly
//! where — not absolute MPKI values (see EXPERIMENTS.md for the
//! full-scale numbers).
//!
//! Predictors are built by name through [`bfbp::default_registry`] and
//! executed by the parallel sweep engine, the same path the figure
//! binaries use.

use bfbp::sim::engine::{sweep, SweepOptions, SweepReport};
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::runner::SuiteRunner;
use bfbp_bench::cli::Harness;
use bfbp_bench::experiments;

/// A scale that keeps the whole file under ~2 minutes on one core while
/// still letting predictors warm up.
const SCALE: f64 = 0.2;

/// The settings a figure binary runs with when no variable is set, at
/// `scale` (results land in the ignored `target/results`).
fn harness(scale: f64) -> Harness {
    Harness::from_lookup(scale, |_| None)
}

fn run(runner: &SuiteRunner, specs: &[PredictorSpec]) -> SweepReport {
    let registry = bfbp::default_registry();
    sweep(&registry, specs, runner, &SweepOptions::default()).expect("specs build")
}

#[test]
fn bf_neural_beats_the_neural_baselines() {
    // Figure 8's neural story: BF-Neural < OH-SNAP; both < nothing. The
    // conventional piecewise-linear (Figure 9 bar 1) is worst.
    let runner = harness(SCALE).suite_runner();
    let report = run(
        &runner,
        &[
            PredictorSpec::new("piecewise"),
            PredictorSpec::new("oh-snap"),
            PredictorSpec::new("bf-neural"),
        ],
    );
    let (pwl, snap, bf) = (
        report.mean_mpki("piecewise"),
        report.mean_mpki("oh-snap"),
        report.mean_mpki("bf-neural"),
    );
    assert!(
        bf < snap,
        "BF-Neural ({bf:.3}) must beat OH-SNAP ({snap:.3})"
    );
    assert!(
        bf < pwl,
        "BF-Neural ({bf:.3}) must beat the conventional perceptron ({pwl:.3})"
    );
}

#[test]
fn bf_neural_is_comparable_to_tage() {
    // Figure 8: "provides accuracies comparable to that of TAGE"
    // (within ±15% at reduced scale).
    let runner = harness(SCALE).suite_runner();
    let report = run(
        &runner,
        &[
            PredictorSpec::new("isl-tage")
                .with("tables", 15usize)
                .labeled("tage"),
            PredictorSpec::new("bf-neural"),
        ],
    );
    let (tage, bf) = (report.mean_mpki("tage"), report.mean_mpki("bf-neural"));
    let ratio = bf / tage;
    assert!(
        (0.7..1.15).contains(&ratio),
        "BF-Neural {bf:.3} vs TAGE {tage:.3} (ratio {ratio:.3})"
    );
}

#[test]
fn ablation_bias_filtering_helps() {
    // Figure 9's first two steps: BST gating + fhist improves on the
    // conventional perceptron, and bias-free history improves again.
    let runner = harness(SCALE).suite_runner();
    let report = run(
        &runner,
        &[
            PredictorSpec::new("piecewise"),
            PredictorSpec::new("bf-neural")
                .with("history-mode", "unfiltered")
                .labeled("fhist"),
            PredictorSpec::new("bf-neural")
                .with("history-mode", "bias-filtered")
                .labeled("bias-free"),
        ],
    );
    let conv = report.mean_mpki("piecewise");
    let fhist = report.mean_mpki("fhist");
    let bias_free = report.mean_mpki("bias-free");
    assert!(
        fhist < conv,
        "fhist bar ({fhist:.3}) must improve on conventional ({conv:.3})"
    );
    assert!(
        bias_free < conv,
        "bias-free bar ({bias_free:.3}) must improve on conventional ({conv:.3})"
    );
}

#[test]
fn recency_stack_wins_on_its_target_traces() {
    // Figure 9's rightmost step, checked where the paper locates it:
    // "Traces such as SPEC03 [SPEC14, SPEC18] ... RS assists those".
    let specs: Vec<_> = ["SPEC03", "SPEC14", "SPEC18"]
        .iter()
        .map(|n| bfbp::trace::synth::suite::find(n).expect("trace"))
        .collect();
    let runner = SuiteRunner::from_specs(specs, 0.5);
    let report = run(
        &runner,
        &[
            PredictorSpec::new("bf-neural")
                .with("history-mode", "bias-filtered")
                .labeled("without-rs"),
            PredictorSpec::new("bf-neural").labeled("with-rs"),
        ],
    );
    let without_rs = report.mean_mpki("without-rs");
    let with_rs = report.mean_mpki("with-rs");
    assert!(
        with_rs < without_rs,
        "RS ({with_rs:.3}) must beat bias-filtered-only ({without_rs:.3}) on SPEC03/14/18"
    );
}

#[test]
fn fifteen_tables_beat_ten_on_long_history_traces() {
    // §VI-D: the long-history-sensitive traces gain from tables 10→15.
    let specs: Vec<_> = ["SPEC00", "SPEC03", "SPEC10", "SPEC15", "SPEC17"]
        .iter()
        .map(|n| bfbp::trace::synth::suite::find(n).expect("trace"))
        .collect();
    let runner = SuiteRunner::from_specs(specs, 0.5);
    let report = run(
        &runner,
        &[
            PredictorSpec::new("isl-tage")
                .with("tables", 10usize)
                .labeled("t10"),
            PredictorSpec::new("isl-tage")
                .with("tables", 15usize)
                .labeled("t15"),
        ],
    );
    let (t10, t15) = (report.mean_mpki("t10"), report.mean_mpki("t15"));
    assert!(
        t15 < t10,
        "TAGE-15 ({t15:.3}) must beat TAGE-10 ({t10:.3}) on long-history traces"
    );
}

#[test]
fn figure12_hits_shift_toward_shorter_tables() {
    // Figure 12: BF-TAGE's provider distribution sits at shorter tables
    // than conventional TAGE's on the long-history traces.
    let shifts = experiments::fig12_hits(&harness(0.1));
    let shifted = shifts
        .iter()
        .filter(|(_, tage15, bf10)| bf10 < tage15)
        .count();
    assert!(
        shifted >= 5,
        "expected most Fig-12 traces to shift shorter; got {shifted}/7: {shifts:?}"
    );
}

#[test]
fn bf_tage_matches_conventional_at_four_tables() {
    // Figure 10's left edge: at small table counts the bias-free history
    // must at least match conventional TAGE at the same storage.
    let curve = experiments::fig10_tables(&harness(0.1));
    let (n, conv, bf) = curve[0];
    assert_eq!(n, 4);
    assert!(
        bf <= conv * 1.05,
        "BF-ISL-TAGE-4 ({bf:.3}) should be within 5% of ISL-TAGE-4 ({conv:.3})"
    );
}
