//! Registry hooks: registers this crate's baseline predictors with a
//! [`PredictorRegistry`], one entry per predictor family, with the
//! paper's matched-budget configurations as defaults.

use bfbp_sim::registry::{BuildError, Params, PredictorRegistry};

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::perceptron::Perceptron;
use crate::piecewise::{PiecewiseConfig, PiecewiseLinear};
use crate::snap::{ScaledNeural, ScaledNeuralConfig};

fn log2_in(params: &Params, key: &str, max: u32) -> Result<u32, BuildError> {
    let v = params.u32(key)?;
    if !(1..=max).contains(&v) {
        return Err(BuildError::invalid(key, format!("must be 1..={max}")));
    }
    Ok(v)
}

/// Longest history any neural predictor accepts: its per-prediction
/// walk and its history buffers grow with this length, so the bound
/// keeps a spec from asking for more than the kernels can run.
pub const MAX_HISTORY: usize = 1024;

/// Reads a `usize` parameter that must lie in `1..=max`.
pub fn usize_in(params: &Params, key: &str, max: usize) -> Result<usize, BuildError> {
    let v = params.usize(key)?;
    if !(1..=max).contains(&v) {
        return Err(BuildError::invalid(key, format!("must be 1..={max}")));
    }
    Ok(v)
}

/// Registers `bimodal`, `gshare`, `perceptron`, `piecewise`, and
/// `oh-snap`.
///
/// # Panics
///
/// Panics if any of those names is already registered.
pub fn register(registry: &mut PredictorRegistry) {
    registry.register(
        "bimodal",
        "PC-indexed table of saturating counters (simplest dynamic baseline)",
        Params::new().set("log-size", 14u32).set("bits", 2u32),
        |p| {
            let log_size = log2_in(p, "log-size", 30)?;
            let bits = p.u32("bits")?;
            if !(1..=8).contains(&bits) {
                return Err(BuildError::invalid("bits", "must be 1..=8"));
            }
            Ok(Box::new(Bimodal::new(log_size, bits)))
        },
    );
    registry.register(
        "gshare",
        "2-bit counters indexed by PC xor global history (64 KiB default)",
        Params::new().set("log-size", 18u32).set("hist", 16usize),
        |p| {
            let log_size = log2_in(p, "log-size", 30)?;
            let hist = p.usize("hist")?;
            if !(1..=64).contains(&hist) {
                return Err(BuildError::invalid("hist", "must be 1..=64"));
            }
            Ok(Box::new(Gshare::new(log_size, hist)))
        },
    );
    registry.register(
        "perceptron",
        "Jiménez–Lin global perceptron (64 KiB default: 2048 rows, 28-bit history)",
        Params::new().set("rows", 2048usize).set("hist", 28usize),
        |p| {
            let rows = p.usize("rows")?;
            if rows == 0 {
                return Err(BuildError::invalid("rows", "must be non-zero"));
            }
            let hist = usize_in(p, "hist", MAX_HISTORY)?;
            Ok(Box::new(Perceptron::new(rows, hist)))
        },
    );
    registry.register(
        "piecewise",
        "hashed piecewise-linear neural predictor (Figure 9 conventional baseline)",
        {
            let c = PiecewiseConfig::conventional_64kb();
            Params::new()
                .set("hist", c.history_len)
                .set("log-table", c.log_table)
                .set("log-bias", c.log_bias)
                .set("folded-hist", c.folded_hist)
        },
        |p| {
            let config = PiecewiseConfig {
                history_len: usize_in(p, "hist", MAX_HISTORY)?,
                log_table: log2_in(p, "log-table", 30)?,
                log_bias: log2_in(p, "log-bias", 30)?,
                folded_hist: p.bool("folded-hist")?,
            };
            Ok(Box::new(PiecewiseLinear::new(config)))
        },
    );
    registry.register(
        "oh-snap",
        "OH-SNAP-style scaled neural predictor (strongest neural baseline, Figure 8)",
        {
            let c = ScaledNeuralConfig::budget_64kb();
            Params::new()
                .set("hist", c.history_len)
                .set("log-table", c.log_table)
                .set("log-bias", c.log_bias)
                .set("local-bits", c.local_bits)
                .set("log-local-hist", c.log_local_hist)
                .set("log-local-weights", c.log_local_weights)
        },
        |p| {
            let config = ScaledNeuralConfig {
                history_len: usize_in(p, "hist", MAX_HISTORY)?,
                log_table: log2_in(p, "log-table", 30)?,
                log_bias: log2_in(p, "log-bias", 30)?,
                // Local histories are `u32` shift registers.
                local_bits: usize_in(p, "local-bits", 31)?,
                log_local_hist: log2_in(p, "log-local-hist", 30)?,
                log_local_weights: log2_in(p, "log-local-weights", 30)?,
            };
            Ok(Box::new(ScaledNeural::new(config)))
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
    fn every_entry_builds_with_defaults() {
        let r = registry();
        for name in r.names() {
            let p = r
                .build(name, &Params::new())
                .unwrap_or_else(|e| panic!("default build of {name} failed: {e}"));
            assert!(p.storage().total_bits() > 0, "{name} reports no storage");
        }
    }

    #[test]
    fn overrides_change_the_configuration() {
        let r = registry();
        let small = r
            .build("gshare", &Params::new().set("log-size", 10u32))
            .unwrap();
        let big = r.build("gshare", &Params::new()).unwrap();
        assert!(small.storage().total_bits() < big.storage().total_bits());
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let r = registry();
        assert!(r
            .build("gshare", &Params::new().set("hist", 65usize))
            .is_err());
        assert!(r
            .build("bimodal", &Params::new().set("bits", 9u32))
            .is_err());
    }

    #[test]
    fn lengths_the_kernels_cannot_run_are_rejected() {
        let r = registry();
        let huge = 100_000_000_000usize;
        for (name, key, bad, max) in [
            ("piecewise", "hist", huge, MAX_HISTORY),
            ("piecewise", "hist", 0, MAX_HISTORY),
            ("oh-snap", "hist", huge, MAX_HISTORY),
            ("oh-snap", "hist", 0, MAX_HISTORY),
            ("perceptron", "hist", MAX_HISTORY + 1, MAX_HISTORY),
            ("oh-snap", "local-bits", 32, 31),
            ("oh-snap", "local-bits", 40, 31),
            ("oh-snap", "local-bits", 0, 31),
        ] {
            let err = r
                .build(name, &Params::new().set(key, bad))
                .err()
                .unwrap_or_else(|| panic!("{name}:{key}={bad} must be rejected"));
            assert_eq!(
                err,
                BuildError::invalid(key, format!("must be 1..={max}")),
                "{name}:{key}={bad}"
            );
            // The largest accepted value builds and runs.
            let mut p = r.build(name, &Params::new().set(key, max)).unwrap();
            p.predict(0x40);
            p.update(0x40, true, 0);
        }
    }
}
