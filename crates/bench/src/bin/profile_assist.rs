//! Regenerates the §VI-D static-profile-assisted classification study.
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, &["--trace-cache"], &mut []);
    bfbp_bench::experiments::profile_assist(&harness);
}
