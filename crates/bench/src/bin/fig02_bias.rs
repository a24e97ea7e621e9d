//! Regenerates Figure 2 (biased-branch percentages per trace).
fn main() {
    bfbp_bench::experiments::fig02_bias(&bfbp_bench::cli::Harness::from_env(1.0));
}
