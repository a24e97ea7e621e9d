//! Hashed piecewise-linear neural predictor (Jiménez, ISCA 2005 — as
//! approximated under a fixed storage budget).
//!
//! This is the "Conventional Perceptron" baseline of the paper's
//! Figure 9: for every one of the last `h` branches, a weight selected by
//! hashing (current PC, that branch's PC, its depth) contributes ±w to
//! the sum. Optionally the hash is augmented with folded global history
//! ("fhist", §IV-A), which reduces aliasing between different paths.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;

use crate::history::{mix64, RecentPath};

const WEIGHT_MIN: i32 = -63;
const WEIGHT_MAX: i32 = 63;

/// Configuration for [`PiecewiseLinear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiecewiseConfig {
    /// Global history length (number of correlating weight terms).
    pub history_len: usize,
    /// log2 of the correlating weight table size.
    pub log_table: u32,
    /// log2 of the bias weight table size.
    pub log_bias: u32,
    /// Whether weight indices are augmented with folded history (§IV-A).
    pub folded_hist: bool,
}

impl PiecewiseConfig {
    /// The paper's Figure 9 baseline: history length 72 in a ~64 KiB
    /// budget, plain (non-folded) indexing.
    pub fn conventional_64kb() -> Self {
        Self {
            history_len: 72,
            log_table: 16,
            log_bias: 10,
            folded_hist: false,
        }
    }
}

impl Default for PiecewiseConfig {
    fn default() -> Self {
        Self::conventional_64kb()
    }
}

/// The hashed piecewise-linear predictor.
#[derive(Debug, Clone)]
pub struct PiecewiseLinear {
    config: PiecewiseConfig,
    weights: Vec<i8>,
    bias: Vec<i8>,
    path: RecentPath,
    theta: i32,
    last_sum: i32,
    last_indices: Vec<usize>,
    name: String,
}

impl PiecewiseLinear {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the history length is zero or a table log2 exceeds 30.
    pub fn new(config: PiecewiseConfig) -> Self {
        assert!(config.history_len > 0, "history length must be non-zero");
        assert!(config.log_table <= 30 && config.log_bias <= 30);
        Self {
            config,
            weights: vec![0; 1 << config.log_table],
            bias: vec![0; 1 << config.log_bias],
            path: RecentPath::new(config.history_len),
            theta: (2.14 * (config.history_len as f64 + 1.0) + 20.58) as i32,
            last_sum: 0,
            last_indices: vec![0; config.history_len],
            name: if config.folded_hist {
                format!("piecewise-{}h+fhist", config.history_len)
            } else {
                format!("piecewise-{}h", config.history_len)
            },
        }
    }

    /// The Figure 9 "Conventional Perceptron" baseline.
    pub fn conventional_64kb() -> Self {
        Self::new(PiecewiseConfig::conventional_64kb())
    }

    fn compute(&mut self, pc: u64) -> i32 {
        let mut sum =
            i32::from(self.bias[((pc >> 2) & ((1 << self.config.log_bias) - 1)) as usize]);
        let pc_key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let table_mask = (1u64 << self.config.log_table) - 1;
        let folded = self.config.folded_hist;
        let (weights, indices) = (&self.weights, &mut self.last_indices);
        self.path.walk(|step| {
            let mut key = pc_key
                ^ (step.address >> 2).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ (step.age as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
            if folded {
                key ^= step.fold << 17;
            }
            let idx = (mix64(key) & table_mask) as usize;
            indices[step.age] = idx;
            let w = i32::from(weights[idx]);
            sum += if step.taken { w } else { -w };
        });
        sum
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }
}

fn clamp_weight(w: &mut i8, delta: i32) {
    *w = (i32::from(*w) + delta).clamp(WEIGHT_MIN, WEIGHT_MAX) as i8;
}

impl ConditionalPredictor for PiecewiseLinear {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.last_sum = self.compute(pc);
        self.last_sum >= 0
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        let predicted = self.last_sum >= 0;
        if predicted != taken || self.last_sum.abs() <= self.theta {
            let dir = if taken { 1 } else { -1 };
            let bidx = ((pc >> 2) & ((1 << self.config.log_bias) - 1)) as usize;
            clamp_weight(&mut self.bias[bidx], dir);
            let outcomes = self.path.history().newest(self.config.history_len);
            for (&idx, bit) in self.last_indices.iter().zip(outcomes) {
                let x = if bit { 1 } else { -1 };
                clamp_weight(&mut self.weights[idx], dir * x);
            }
        }
        self.path.push(pc, taken);
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        // Weights are clamped to ±63: 7 bits each.
        s.push(
            format!("correlating weights ({} entries)", self.weights.len()),
            self.weights.len() as u64 * 7,
        );
        s.push(
            format!("bias weights ({} entries)", self.bias.len()),
            self.bias.len() as u64 * 8,
        );
        s.push(
            "history + address ring",
            (self.config.history_len + self.path.depth() * 14) as u64,
        );
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(Provenance {
            component: "piecewise",
            prediction: self.last_sum >= 0,
            margin: Some(i64::from(self.last_sum)),
            history_len: Some(self.config.history_len as u32),
            ..Default::default()
        })
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for PiecewiseLinear {
    fn save_state(&self, w: &mut StateWriter) {
        // `theta` is fixed; `last_sum`/`last_indices` are per-prediction
        // scratch rewritten by the next `predict` before any use.
        w.i8_slice(&self.weights);
        w.i8_slice(&self.bias);
        self.path.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        r.i8_into(&mut self.weights)?;
        r.i8_into(&mut self.bias)?;
        self.path.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_trace::rng::Xoshiro256;

    fn small(folded: bool) -> PiecewiseLinear {
        PiecewiseLinear::new(PiecewiseConfig {
            history_len: 16,
            log_table: 12,
            log_bias: 8,
            folded_hist: folded,
        })
    }

    #[test]
    fn learns_direct_correlation() {
        let mut p = small(false);
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..10_000 {
            let a = rng.chance(0.5);
            p.predict(0x100);
            p.update(0x100, a, 0);
            let guess = p.predict(0x200);
            p.update(0x200, a, 0);
            if i > 5000 {
                total += 1;
                if guess == a {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.95);
    }

    #[test]
    fn learns_correlation_at_depth() {
        // Consumer correlates with a branch 6 deep in the history.
        let mut p = small(false);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut pending: Vec<bool> = vec![false; 8];
        let mut correct = 0;
        let mut total = 0;
        for i in 0..8000 {
            let a = rng.chance(0.5);
            p.predict(0x100);
            p.update(0x100, a, 0);
            for k in 0..5u64 {
                p.predict(0x300 + k * 8);
                p.update(0x300 + k * 8, true, 0);
            }
            let guess = p.predict(0x200);
            p.update(0x200, a, 0);
            pending.clear();
            if i > 4000 {
                total += 1;
                if guess == a {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.93);
    }

    #[test]
    fn biased_branch_is_learned_via_bias_weight() {
        let mut p = small(false);
        for _ in 0..200 {
            p.predict(0x40);
            p.update(0x40, false, 0);
        }
        assert!(!p.predict(0x40));
    }

    #[test]
    fn folded_variant_differs_and_still_learns() {
        let mut plain = small(false);
        let mut folded = small(true);
        assert_ne!(plain.name(), folded.name());
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut fc = 0;
        let mut total = 0;
        for i in 0..10_000 {
            let a = rng.chance(0.5);
            for p in [&mut plain, &mut folded] {
                p.predict(0x100);
                p.update(0x100, a, 0);
            }
            let gf = folded.predict(0x200);
            folded.update(0x200, a, 0);
            plain.predict(0x200);
            plain.update(0x200, a, 0);
            if i > 5000 {
                total += 1;
                if gf == a {
                    fc += 1;
                }
            }
        }
        assert!(fc as f64 / total as f64 > 0.9);
    }

    #[test]
    fn conventional_budget_is_64kb_class() {
        let p = PiecewiseLinear::conventional_64kb();
        let kib = p.storage().total_kib();
        assert!((50.0..68.0).contains(&kib), "{kib} KiB");
    }

    #[test]
    fn theta_positive_and_scales_with_history() {
        assert!(small(false).theta() > 0);
        assert!(PiecewiseLinear::conventional_64kb().theta() > small(false).theta());
    }
}
