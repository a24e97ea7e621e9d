//! Regenerates Table I (BF-TAGE 10-table storage budget) with measured
//! MPKI context on cache-served suite traces.
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, &["--trace-cache"], &mut []);
    bfbp_bench::experiments::table1_storage(&harness);
}
