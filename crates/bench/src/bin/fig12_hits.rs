//! Regenerates Figure 12 (branch-hit distribution over tagged tables).
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, &["--trace-cache"], &mut []);
    bfbp_bench::experiments::fig12_hits(&harness);
}
