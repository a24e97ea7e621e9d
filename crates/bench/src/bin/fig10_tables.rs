//! Regenerates Figure 10 (mean MPKI vs number of tagged tables).
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, bfbp_bench::cli::CAMPAIGN_FLAGS, &mut []);
    bfbp_bench::experiments::fig10_tables(&harness);
}
