//! Regenerates Table I (BF-TAGE 10-table storage budget) with measured
//! MPKI context on cache-served suite traces.
fn main() {
    bfbp_bench::experiments::table1_storage(&bfbp_bench::cli::Harness::from_env(1.0));
}
