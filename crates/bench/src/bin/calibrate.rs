//! Quick calibration: per-trace MPKI for the main predictor set at a
//! reduced scale. Development aid, not a paper figure. Its sweep takes
//! the campaign's shared flags (`bfbp_bench::cli::CAMPAIGN_FLAGS`).

use bfbp_bench::{banner, cli, print_mpki_table};
use bfbp_sim::engine::sweep;
use bfbp_sim::registry::PredictorSpec;

fn main() {
    let harness = cli::campaign(0.2, cli::CAMPAIGN_FLAGS, &mut []);
    banner("calibration", &format!("suite scale {}", harness.scale));
    let registry = bfbp::default_registry();
    let runner = harness.suite_runner();
    let labels = [
        "pwl",
        "snap",
        "tage15",
        "tage10",
        "bf-n(full)",
        "bf-n(fh)",
        "bf-n(bf)",
        "bf-tage10",
    ];
    let specs = [
        PredictorSpec::new("piecewise").labeled(labels[0]),
        PredictorSpec::new("oh-snap").labeled(labels[1]),
        PredictorSpec::new("isl-tage")
            .with("tables", 15usize)
            .labeled(labels[2]),
        PredictorSpec::new("isl-tage")
            .with("tables", 10usize)
            .labeled(labels[3]),
        PredictorSpec::new("bf-neural").labeled(labels[4]),
        PredictorSpec::new("bf-neural")
            .with("history-mode", "unfiltered")
            .labeled(labels[5]),
        PredictorSpec::new("bf-neural")
            .with("history-mode", "bias-filtered")
            .labeled(labels[6]),
        PredictorSpec::new("bf-isl-tage").labeled(labels[7]),
    ];
    let t0 = std::time::Instant::now();
    let report = sweep(&registry, &specs, &runner, &harness.sweep)
        .expect("calibration specs are registered");
    eprintln!(
        "{} jobs on {} threads in {:?} (speedup {:.2}x)",
        report.jobs().len(),
        report.threads(),
        t0.elapsed(),
        report.speedup()
    );
    let series: Vec<Vec<_>> = labels
        .iter()
        .map(|l| report.try_results(l).expect("label from our own spec list"))
        .collect();
    print_mpki_table(&labels, &series);
    if let Ok(path) = report.write_json(&harness.results_dir, "calibrate") {
        eprintln!("results: {}", path.display());
    }
    if let Ok(Some(path)) = report.write_metrics_json(&harness.results_dir, "calibrate") {
        eprintln!("metrics: {}", path.display());
    }
}
