//! Regenerates Figure 11 (relative improvement over 10-table TAGE).
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, bfbp_bench::cli::CAMPAIGN_FLAGS, &mut []);
    bfbp_bench::experiments::fig11_relative(&harness);
}
