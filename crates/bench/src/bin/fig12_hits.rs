//! Regenerates Figure 12 (branch-hit distribution over tagged tables).
fn main() {
    bfbp_bench::experiments::fig12_hits(&bfbp_bench::cli::Harness::from_env(1.0));
}
