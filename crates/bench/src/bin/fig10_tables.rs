//! Regenerates Figure 10 (mean MPKI vs number of tagged tables).
fn main() {
    bfbp_bench::experiments::fig10_tables(&bfbp_bench::cli::Harness::from_env(1.0));
}
