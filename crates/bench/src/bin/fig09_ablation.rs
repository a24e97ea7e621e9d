//! Regenerates Figure 9 (contribution of individual optimizations).
fn main() {
    bfbp_bench::experiments::fig09_ablation(&bfbp_bench::cli::Harness::from_env(1.0));
}
