//! Runs the design-choice ablation study (beyond the paper's Figure 9):
//! positional history, folded history, loop predictor, probabilistic
//! BST, stack depth, and the recent unfiltered component.
fn main() {
    let harness = bfbp_bench::cli::campaign(1.0, bfbp_bench::cli::CAMPAIGN_FLAGS, &mut []);
    bfbp_bench::experiments::design_ablations(&harness);
}
