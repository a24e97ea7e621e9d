//! Regenerates Figure 9 (contribution of individual optimizations).
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, bfbp_bench::cli::CAMPAIGN_FLAGS, &mut []);
    bfbp_bench::experiments::fig09_ablation(&harness);
}
