//! Regenerates Figure 11 (relative improvement over 10-table TAGE).
fn main() {
    bfbp_bench::experiments::fig11_relative(&bfbp_bench::cli::Harness::from_env(1.0));
}
