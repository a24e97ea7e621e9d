//! Regenerates the §VI-D static-profile-assisted classification study.
fn main() {
    bfbp_bench::experiments::profile_assist(&bfbp_bench::cli::Harness::from_env(1.0));
}
