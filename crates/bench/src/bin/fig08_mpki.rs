//! Regenerates Figure 8 (OH-SNAP vs TAGE vs BF-Neural MPKI) and the
//! §VI-B 32 KB data point (pass `--budget32`).
fn main() {
    let harness = bfbp_bench::cli::Harness::from_env(1.0);
    bfbp_bench::experiments::fig08_mpki(&harness);
    if std::env::args().any(|a| a == "--budget32") {
        bfbp_bench::experiments::fig08_32kb(&harness);
    }
}
