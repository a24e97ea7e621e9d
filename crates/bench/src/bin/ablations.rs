//! Runs the design-choice ablation study (beyond the paper's Figure 9):
//! positional history, folded history, loop predictor, probabilistic
//! BST, stack depth, and the recent unfiltered component.
fn main() {
    bfbp_bench::experiments::design_ablations(&bfbp_bench::cli::Harness::from_env(1.0));
}
