//! Regenerates Figure 8 (OH-SNAP vs TAGE vs BF-Neural MPKI) and the
//! §VI-B 32 KB data point (pass `--budget32`).
fn main() {
    let mut budget32 = false;
    let switches = &mut [("--budget32", &mut budget32)];
    let harness = bfbp_bench::cli::campaign(1.0, bfbp_bench::cli::CAMPAIGN_FLAGS, switches);
    bfbp_bench::experiments::fig08_mpki(&harness);
    if budget32 {
        bfbp_bench::experiments::fig08_32kb(&harness);
    }
}
