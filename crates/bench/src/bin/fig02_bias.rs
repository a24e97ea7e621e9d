//! Regenerates Figure 2 (biased-branch percentages per trace).
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, &["--events", "--trace-cache"], &mut []);
    bfbp_bench::experiments::fig02_bias(&harness);
}
