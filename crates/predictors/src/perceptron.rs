//! The classic global perceptron predictor (Jiménez & Lin, HPCA 2001).
//!
//! Each static branch (modulo table size) owns a row of signed weights,
//! one per global-history bit plus a bias weight. The prediction is the
//! sign of the dot product of the weights with the ±1-encoded history.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::obs::{saturation_fraction, Metrics, PredictorIntrospect};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;

use crate::history::GlobalHistory;

const WEIGHT_MIN: i32 = -128;
const WEIGHT_MAX: i32 = 127;

/// A global perceptron predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perceptron {
    // rows × (h + 1) weights; weight 0 of each row is the bias.
    weights: Vec<i8>,
    rows: usize,
    history_len: usize,
    history: GlobalHistory,
    theta: i32,
    last_sum: i32,
    name: String,
}

impl Perceptron {
    /// Creates a perceptron with `rows` weight rows (rounded up to a power
    /// of two) and `history_len` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `history_len` is zero.
    pub fn new(rows: usize, history_len: usize) -> Self {
        assert!(rows > 0, "rows must be non-zero");
        assert!(history_len > 0, "history length must be non-zero");
        let rows = rows.next_power_of_two();
        Self {
            weights: vec![0; rows * (history_len + 1)],
            rows,
            history_len,
            history: GlobalHistory::new(history_len),
            // Optimal threshold from the perceptron paper.
            theta: (1.93 * history_len as f64 + 14.0) as i32,
            last_sum: 0,
            name: format!("perceptron-{history_len}h"),
        }
    }

    /// The ~64 KiB configuration: 2048 rows × 29 weights × 8 bits.
    pub fn budget_64kb() -> Self {
        Self::new(2048, 28)
    }

    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.rows - 1)
    }

    fn dot(&self, pc: u64) -> i32 {
        let base = self.row(pc) * (self.history_len + 1);
        let weights = &self.weights[base + 1..base + 1 + self.history_len];
        let mut sum = i32::from(self.weights[base]);
        for (&w, bit) in weights.iter().zip(self.history.newest(self.history_len)) {
            let w = i32::from(w);
            sum += if bit { w } else { -w };
        }
        sum
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Total storage in bits (weights plus history register).
    pub fn storage_bits(&self) -> u64 {
        self.weights.len() as u64 * 8 + self.history_len as u64
    }
}

fn clamp_weight(w: &mut i8, delta: i32) {
    let v = (i32::from(*w) + delta).clamp(WEIGHT_MIN, WEIGHT_MAX);
    *w = v as i8;
}

impl ConditionalPredictor for Perceptron {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.last_sum = self.dot(pc);
        self.last_sum >= 0
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        let predicted = self.last_sum >= 0;
        if predicted != taken || self.last_sum.abs() <= self.theta {
            let base = self.row(pc) * (self.history_len + 1);
            let dir = if taken { 1 } else { -1 };
            clamp_weight(&mut self.weights[base], dir);
            let weights = &mut self.weights[base + 1..base + 1 + self.history_len];
            for (w, bit) in weights
                .iter_mut()
                .zip(self.history.newest(self.history_len))
            {
                clamp_weight(w, if bit { dir } else { -dir });
            }
        }
        self.history.push(taken);
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push(
            format!(
                "perceptron weights ({} rows x {})",
                self.rows,
                self.history_len + 1
            ),
            self.weights.len() as u64 * 8,
        );
        s.push("global history register", self.history_len as u64);
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(Provenance {
            component: "perceptron",
            prediction: self.last_sum >= 0,
            margin: Some(i64::from(self.last_sum)),
            history_len: Some(self.history_len as u32),
            ..Default::default()
        })
    }

    fn introspection(&self) -> Option<&dyn PredictorIntrospect> {
        Some(self)
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for Perceptron {
    fn save_state(&self, w: &mut StateWriter) {
        // `theta` is a construction-time constant and `last_sum` is
        // per-prediction scratch overwritten by the next `predict`.
        w.i8_slice(&self.weights);
        self.history.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        r.i8_into(&mut self.weights)?;
        self.history.load_state(r)
    }
}

impl PredictorIntrospect for Perceptron {
    fn introspect(&self, metrics: &mut Metrics) {
        metrics.counter("weights.total", self.weights.len() as u64);
        metrics.gauge(
            "weights.saturation",
            saturation_fraction(&self.weights, WEIGHT_MAX),
        );
        metrics.gauge("theta", f64::from(self.theta));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_trace::rng::Xoshiro256;

    #[test]
    fn learns_single_source_correlation() {
        // b(t) = a(t): linearly separable, one history bit suffices.
        let mut p = Perceptron::new(256, 16);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut correct = 0usize;
        let mut total = 0usize;
        for i in 0..10_000 {
            let a = rng.chance(0.5);
            p.predict(0x10);
            p.update(0x10, a, 0);
            let guess = p.predict(0x20);
            p.update(0x20, a, 0);
            if i >= 5_000 {
                total += 1;
                if guess == a {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn cannot_learn_xor() {
        // c = a ^ b is not linearly separable in the history bits.
        let mut p = Perceptron::new(256, 16);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..30_000 {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            p.predict(0x10);
            p.update(0x10, a, 0);
            p.predict(0x20);
            p.update(0x20, b, 0);
            let guess = p.predict(0x30);
            p.update(0x30, a ^ b, 0);
            if i > 15_000 {
                total += 1;
                if guess == (a ^ b) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc < 0.65, "xor should stay near chance, got {acc}");
    }

    #[test]
    fn learns_biased_branches_fast() {
        let mut p = Perceptron::new(64, 8);
        for _ in 0..50 {
            p.predict(0x40);
            p.update(0x40, true, 0);
        }
        assert!(p.predict(0x40));
    }

    #[test]
    fn weights_saturate() {
        let mut p = Perceptron::new(64, 4);
        // Train far beyond the weight range; must not wrap.
        for _ in 0..10_000 {
            p.predict(0x40);
            p.update(0x40, true, 0);
        }
        assert!(p.predict(0x40));
        let base = p.row(0x40) * 5;
        assert!(i32::from(p.weights[base]) <= WEIGHT_MAX);
    }

    #[test]
    fn theta_follows_formula() {
        let p = Perceptron::new(64, 28);
        assert_eq!(p.theta(), (1.93 * 28.0 + 14.0) as i32);
    }

    #[test]
    fn budget_configuration_size() {
        let p = Perceptron::budget_64kb();
        // 2048 rows × 29 weights × 8 bits ≈ 58 KiB.
        let kib = p.storage().total_kib();
        assert!((55.0..66.0).contains(&kib), "{kib} KiB");
    }
}
