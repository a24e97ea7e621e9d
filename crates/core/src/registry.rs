//! Registry hooks: registers the paper's bias-free predictors with a
//! [`PredictorRegistry`].
//!
//! `bf-neural` and `bf-neural-32kb` share one builder; they differ only
//! in their registered defaults (the 64 KB and 32 KB budgets of
//! Table I / §VI-B). Every Figure 9 design-ablation knob is an ordinary
//! parameter, so ablations are specs, not bespoke constructors.

use bfbp_predictors::registry::{usize_in, MAX_HISTORY};
use bfbp_sim::registry::{BuildError, Params, PredictorRegistry};
use bfbp_tage::config::TageConfig;
use bfbp_tage::isl::Isl;

use crate::bf_neural::{BfNeural, BfNeuralConfig, HistoryMode, IdealBfNeural};
use crate::bf_tage::BfTage;
use crate::bst::{Bst, Classifier};

fn bias_free_config(params: &Params) -> Result<TageConfig, BuildError> {
    let tables = params.usize("tables")?;
    TageConfig::bias_free(tables).map_err(|e| BuildError::invalid("tables", e.to_string()))
}

fn history_mode(text: &str) -> Result<HistoryMode, BuildError> {
    match text {
        "unfiltered" => Ok(HistoryMode::Unfiltered),
        "bias-filtered" => Ok(HistoryMode::BiasFiltered),
        "recency-stack" => Ok(HistoryMode::RecencyStack),
        other => Err(BuildError::invalid(
            "history-mode",
            format!(
                "unknown mode {other:?} (expected unfiltered, bias-filtered, or recency-stack)"
            ),
        )),
    }
}

fn neural_defaults(config: &BfNeuralConfig) -> Params {
    let mode = match config.history_mode {
        HistoryMode::Unfiltered => "unfiltered",
        HistoryMode::BiasFiltered => "bias-filtered",
        HistoryMode::RecencyStack => "recency-stack",
    };
    Params::new()
        .set("log-bst", config.log_bst)
        .set("probabilistic-bst", config.probabilistic_bst)
        .set("log-wm-rows", config.log_wm_rows)
        .set("recent-unfiltered", config.recent_unfiltered)
        .set("log-wrs", config.log_wrs)
        .set("deep-depth", config.deep_depth)
        .set("history-mode", mode)
        .set("folded-hist", config.folded_hist)
        .set("positional", config.positional)
        .set("loop-predictor", config.loop_predictor)
}

fn neural_config(params: &Params) -> Result<BfNeuralConfig, BuildError> {
    let log2 = |key: &str| -> Result<u32, BuildError> {
        let v = params.u32(key)?;
        if !(1..=30).contains(&v) {
            return Err(BuildError::invalid(key, "must be 1..=30"));
        }
        Ok(v)
    };
    let config = BfNeuralConfig {
        log_bst: log2("log-bst")?,
        probabilistic_bst: params.bool("probabilistic-bst")?,
        log_wm_rows: log2("log-wm-rows")?,
        recent_unfiltered: usize_in(params, "recent-unfiltered", MAX_HISTORY)?,
        log_wrs: log2("log-wrs")?,
        deep_depth: usize_in(params, "deep-depth", MAX_HISTORY)?,
        history_mode: history_mode(params.str("history-mode")?)?,
        folded_hist: params.bool("folded-hist")?,
        positional: params.bool("positional")?,
        loop_predictor: params.bool("loop-predictor")?,
    };
    Ok(config)
}

/// Registers `bf-neural`, `bf-neural-32kb`, `bf-neural-ideal`,
/// `bf-tage`, and `bf-isl-tage`.
///
/// # Panics
///
/// Panics if any of those names is already registered.
pub fn register(registry: &mut PredictorRegistry) {
    registry.register(
        "bf-neural",
        "the practical BF-Neural predictor, 64 KB budget (Algorithms 2-3)",
        neural_defaults(&BfNeuralConfig::budget_64kb()),
        |p| Ok(Box::new(BfNeural::new(neural_config(p)?))),
    );
    registry.register(
        "bf-neural-32kb",
        "BF-Neural at the 32 KB budget of sect. VI-B",
        neural_defaults(&BfNeuralConfig::budget_32kb()),
        |p| Ok(Box::new(BfNeural::new(neural_config(p)?))),
    );
    registry.register(
        "bf-neural-ideal",
        "the idealized unconstrained-storage BF predictor (Algorithm 1)",
        Params::new().set("log-rows", 20u32).set("depth", 128usize),
        |p| {
            let log_rows = p.u32("log-rows")?;
            if !(1..=26).contains(&log_rows) {
                return Err(BuildError::invalid("log-rows", "must be 1..=26"));
            }
            let depth = usize_in(p, "depth", MAX_HISTORY)?;
            Ok(Box::new(IdealBfNeural::new(
                log_rows,
                depth,
                Classifier::TwoBit(Bst::new(13)),
            )))
        },
    );
    registry.register(
        "bf-tage",
        "BF-TAGE: TAGE over the compressed bias-free history register",
        Params::new().set("tables", 10usize),
        |p| Ok(Box::new(BfTage::new(&bias_free_config(p)?))),
    );
    registry.register(
        "bf-isl-tage",
        "BF-ISL-TAGE: BF-TAGE + loop predictor + statistical corrector (sc=false drops the SC)",
        Params::new().set("tables", 10usize).set("sc", true),
        |p| {
            let tage = BfTage::new(&bias_free_config(p)?);
            Ok(Box::new(if p.bool("sc")? {
                Isl::new(tage)
            } else {
                Isl::without_sc(tage)
            }))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> PredictorRegistry {
        let mut r = PredictorRegistry::new();
        register(&mut r);
        r
    }

    #[test]
    fn defaults_build_every_entry() {
        let r = registry();
        for name in r.names() {
            let p = r
                .build(name, &Params::new())
                .unwrap_or_else(|e| panic!("default build of {name} failed: {e}"));
            assert!(p.storage().total_bits() > 0, "{name} reports no storage");
        }
    }

    #[test]
    fn ablation_knobs_are_plain_params() {
        let r = registry();
        let bar2 = r
            .build(
                "bf-neural",
                &Params::new().set("history-mode", "unfiltered"),
            )
            .unwrap();
        assert_eq!(bar2.name(), "bf-neural(fhist)");
        let full = r.build("bf-neural", &Params::new()).unwrap();
        assert_eq!(full.name(), "bf-neural(ghist-bf+rs+fhist)");
    }

    #[test]
    fn thirty_two_kb_budget_is_smaller() {
        let r = registry();
        let big = r.build("bf-neural", &Params::new()).unwrap();
        let small = r.build("bf-neural-32kb", &Params::new()).unwrap();
        assert!(small.storage().total_bits() < big.storage().total_bits());
    }

    #[test]
    fn bad_history_mode_is_rejected() {
        let r = registry();
        assert!(r
            .build("bf-neural", &Params::new().set("history-mode", "zigzag"))
            .is_err());
    }

    #[test]
    fn lengths_the_kernels_cannot_run_are_rejected() {
        let r = registry();
        for (name, key) in [
            ("bf-neural", "recent-unfiltered"),
            ("bf-neural", "deep-depth"),
            ("bf-neural-32kb", "recent-unfiltered"),
            ("bf-neural-32kb", "deep-depth"),
            ("bf-neural-ideal", "depth"),
        ] {
            for bad in [0, MAX_HISTORY + 1, 100_000_000_000] {
                let err = r
                    .build(name, &Params::new().set(key, bad))
                    .err()
                    .unwrap_or_else(|| panic!("{name}:{key}={bad} must be rejected"));
                assert_eq!(
                    err,
                    BuildError::invalid(key, format!("must be 1..={MAX_HISTORY}")),
                    "{name}:{key}={bad}"
                );
            }
        }
        let mut p = r
            .build(
                "bf-neural",
                &Params::new()
                    .set("recent-unfiltered", MAX_HISTORY)
                    .set("deep-depth", MAX_HISTORY),
            )
            .unwrap();
        p.predict(0x40);
        p.update(0x40, true, 0);
    }

    #[test]
    fn bf_isl_tage_composes() {
        let r = registry();
        let p = r.build("bf-isl-tage", &Params::new()).unwrap();
        assert_eq!(p.name(), "isl-bf-tage-10t");
    }
}
