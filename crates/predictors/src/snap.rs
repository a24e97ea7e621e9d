//! OH-SNAP-style scaled neural predictor (Jiménez, ICCD 2011).
//!
//! The paper's strongest neural baseline. On top of the hashed
//! piecewise-linear scheme it adds the three SNAP mechanisms:
//!
//! 1. **Per-depth scaling coefficients** — each history depth's weight is
//!    multiplied by a coefficient proportional to how predictive that
//!    depth has historically been, damping noise from uncorrelated
//!    deep history;
//! 2. **Dynamic coefficient adaptation** — the coefficients are re-fit
//!    periodically from per-depth agreement counters ("OH" = on-line);
//! 3. **Adaptive training threshold** — Seznec-style threshold training
//!    keeps the update rate matched to the scaled sum magnitudes.
//!
//! A local-history perceptron component (part of the SNAP family design)
//! is fused into the sum, covering self-history-periodic branches.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::obs::{saturation_fraction, Metrics, PredictorIntrospect};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;

use crate::history::{mix64, RecentPath};

const WEIGHT_MIN: i32 = -63;
const WEIGHT_MAX: i32 = 63;
/// Fixed-point unit for scaling coefficients (8.8 format).
const COEFF_ONE: i32 = 256;
const COEFF_MIN: i32 = 32;
const COEFF_MAX: i32 = 512;
/// Coefficients are re-fit every this many trained branches.
const REFIT_PERIOD: u64 = 4096;

/// Configuration for [`ScaledNeural`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaledNeuralConfig {
    /// Global history length.
    pub history_len: usize,
    /// log2 of the global correlating weight table.
    pub log_table: u32,
    /// log2 of the bias weight table.
    pub log_bias: u32,
    /// Local history bits per branch.
    pub local_bits: usize,
    /// log2 of the local history table (per-branch histories).
    pub log_local_hist: u32,
    /// log2 of the local weight table.
    pub log_local_weights: u32,
}

impl ScaledNeuralConfig {
    /// The ~64 KiB configuration used for the paper's Figure 8 baseline.
    pub fn budget_64kb() -> Self {
        Self {
            history_len: 64,
            log_table: 15,
            log_bias: 11,
            local_bits: 11,
            log_local_hist: 12,
            log_local_weights: 14,
        }
    }
}

impl Default for ScaledNeuralConfig {
    fn default() -> Self {
        Self::budget_64kb()
    }
}

/// The scaled neural predictor.
#[derive(Debug, Clone)]
pub struct ScaledNeural {
    config: ScaledNeuralConfig,
    weights: Vec<i8>,
    bias: Vec<i8>,
    coeff: Vec<i32>,
    agree: Vec<u32>,
    sampled: u64,
    path: RecentPath,
    local_hist: Vec<u32>,
    local_weights: Vec<i8>,
    theta: i32,
    threshold_ctr: i32,
    last_sum: i32,
    last_indices: Vec<usize>,
    /// The global outcomes `predict` read, packed a word per 64 ages;
    /// `update` samples agreement and trains against this snapshot.
    last_outcomes: Vec<u64>,
    last_local_indices: Vec<usize>,
    name: String,
}

impl ScaledNeural {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the history length or local bits are zero.
    pub fn new(config: ScaledNeuralConfig) -> Self {
        assert!(config.history_len > 0, "history length must be non-zero");
        assert!(config.local_bits > 0, "local bits must be non-zero");
        Self {
            config,
            weights: vec![0; 1 << config.log_table],
            bias: vec![0; 1 << config.log_bias],
            coeff: vec![COEFF_ONE; config.history_len],
            agree: vec![0; config.history_len],
            sampled: 0,
            path: RecentPath::new(config.history_len),
            local_hist: vec![0; 1 << config.log_local_hist],
            local_weights: vec![0; 1 << config.log_local_weights],
            theta: (2.14 * (config.history_len as f64 + 1.0) + 20.58) as i32,
            threshold_ctr: 0,
            last_sum: 0,
            last_indices: vec![0; config.history_len],
            last_outcomes: vec![0; config.history_len.div_ceil(64)],
            last_local_indices: vec![0; config.local_bits],
            name: format!("oh-snap-{}h", config.history_len),
        }
    }

    /// The ~64 KiB configuration.
    pub fn budget_64kb() -> Self {
        Self::new(ScaledNeuralConfig::budget_64kb())
    }

    fn local_hist_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.config.log_local_hist) - 1)) as usize
    }

    fn local_weight_index(&self, pc: u64, bit: usize) -> usize {
        let key = (pc >> 2).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (bit as u64) << 40;
        (mix64(key) & ((1 << self.config.log_local_weights) - 1)) as usize
    }

    fn compute(&mut self, pc: u64) -> i32 {
        let mut sum =
            i32::from(self.bias[((pc >> 2) & ((1 << self.config.log_bias) - 1)) as usize])
                * COEFF_ONE;
        let pc_key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let table_mask = (1u64 << self.config.log_table) - 1;
        // Hash every age first, then sum over the snapshot: two short
        // loops with independent iterations.
        let indices = &mut self.last_indices;
        self.path.walk(|step| {
            let key = pc_key
                ^ (step.address >> 2).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ (step.age as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ (step.fold << 17);
            indices[step.age] = (mix64(key) & table_mask) as usize;
        });
        for (k, word) in self.last_outcomes.iter_mut().enumerate() {
            *word = self.path.history().packed(64 * k);
        }
        let ages = self.last_indices.chunks(64).zip(self.coeff.chunks(64));
        for ((indices, coeff), &word) in ages.zip(&self.last_outcomes) {
            for (j, (&idx, &c)) in indices.iter().zip(coeff).enumerate() {
                let w = i32::from(self.weights[idx]);
                let signed = if (word >> j) & 1 == 1 { w } else { -w };
                sum += signed * c;
            }
        }
        let lh = self.local_hist[self.local_hist_index(pc)];
        for bit in 0..self.config.local_bits {
            let idx = self.local_weight_index(pc, bit);
            self.last_local_indices[bit] = idx;
            let w = i32::from(self.local_weights[idx]);
            sum += if (lh >> bit) & 1 == 1 { w } else { -w } * COEFF_ONE;
        }
        sum / COEFF_ONE
    }

    /// Current adaptive threshold.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Current scaling coefficient for a history depth (fixed-point 8.8).
    pub fn coefficient(&self, depth: usize) -> i32 {
        self.coeff[depth]
    }

    fn refit_coefficients(&mut self) {
        let n = self.sampled.max(1) as f64;
        for (c, &a) in self.coeff.iter_mut().zip(&self.agree) {
            // Correlation strength in [0,1]: 0.5 agreement = no signal.
            let corr = (2.0 * f64::from(a) / n - 1.0).abs();
            let fit = (COEFF_ONE as f64 * (0.125 + 1.75 * corr)) as i32;
            *c = fit.clamp(COEFF_MIN, COEFF_MAX);
        }
        self.agree.iter_mut().for_each(|a| *a = 0);
        self.sampled = 0;
    }

    fn push_history(&mut self, pc: u64, taken: bool) {
        self.path.push(pc, taken);
        let lidx = self.local_hist_index(pc);
        let mask = (1u32 << self.config.local_bits) - 1;
        self.local_hist[lidx] = ((self.local_hist[lidx] << 1) | u32::from(taken)) & mask;
    }

    fn adapt_threshold(&mut self, mispredicted: bool, below: bool) {
        // Seznec-style threshold training.
        if mispredicted {
            self.threshold_ctr += 1;
            if self.threshold_ctr >= 32 {
                self.theta += 1;
                self.threshold_ctr = 0;
            }
        } else if below {
            self.threshold_ctr -= 1;
            if self.threshold_ctr <= -32 {
                self.theta = (self.theta - 1).max(8);
                self.threshold_ctr = 0;
            }
        }
    }
}

fn clamp_weight(w: &mut i8, delta: i32) {
    *w = (i32::from(*w) + delta).clamp(WEIGHT_MIN, WEIGHT_MAX) as i8;
}

impl ConditionalPredictor for ScaledNeural {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.last_sum = self.compute(pc);
        self.last_sum >= 0
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        let predicted = self.last_sum >= 0;
        let mispredicted = predicted != taken;
        let below = self.last_sum.abs() <= self.theta;
        // Sample per-depth agreement for coefficient adaptation: bit `j`
        // of `same` is set where depth `64k + j` agreed with `taken`.
        for (agree, &word) in self.agree.chunks_mut(64).zip(&self.last_outcomes) {
            let same = if taken { word } else { !word };
            for (j, a) in agree.iter_mut().enumerate() {
                *a += ((same >> j) & 1) as u32;
            }
        }
        self.sampled += 1;
        if self.sampled >= REFIT_PERIOD {
            self.refit_coefficients();
        }
        if mispredicted || below {
            let dir = if taken { 1 } else { -1 };
            let bidx = ((pc >> 2) & ((1 << self.config.log_bias) - 1)) as usize;
            clamp_weight(&mut self.bias[bidx], dir);
            for (indices, &word) in self.last_indices.chunks(64).zip(&self.last_outcomes) {
                for (j, &idx) in indices.iter().enumerate() {
                    let x = if (word >> j) & 1 == 1 { 1 } else { -1 };
                    clamp_weight(&mut self.weights[idx], dir * x);
                }
            }
            let lh = self.local_hist[self.local_hist_index(pc)];
            for bit in 0..self.config.local_bits {
                let x = if (lh >> bit) & 1 == 1 { 1 } else { -1 };
                clamp_weight(
                    &mut self.local_weights[self.last_local_indices[bit]],
                    dir * x,
                );
            }
        }
        self.adapt_threshold(mispredicted, below);
        self.push_history(pc, taken);
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push(
            format!("global weights ({} entries)", self.weights.len()),
            self.weights.len() as u64 * 7,
        );
        s.push(
            format!("bias weights ({} entries)", self.bias.len()),
            self.bias.len() as u64 * 8,
        );
        s.push(
            format!("local weights ({} entries)", self.local_weights.len()),
            self.local_weights.len() as u64 * 7,
        );
        s.push(
            format!("local histories ({} entries)", self.local_hist.len()),
            (self.local_hist.len() * self.config.local_bits) as u64,
        );
        s.push(
            "coefficients + counters",
            (self.coeff.len() * 10 + self.agree.len() * 12) as u64,
        );
        s.push(
            "history + address ring",
            (self.config.history_len + self.path.depth() * 14) as u64,
        );
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(Provenance {
            component: "snap",
            prediction: self.last_sum >= 0,
            margin: Some(i64::from(self.last_sum)),
            history_len: Some(self.config.history_len as u32),
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

impl Restorable for ScaledNeural {
    fn save_state(&self, w: &mut StateWriter) {
        // Everything that outlives one prediction: weight tables, the
        // coefficient-adaptation accumulators (agree/sampled), the
        // adaptive threshold pair, and all history structures.
        // `last_sum`/`last_indices`/`last_outcomes`/`last_local_indices`
        // are rewritten by the next `predict` before use.
        w.i8_slice(&self.weights);
        w.i8_slice(&self.bias);
        w.i32_slice(&self.coeff);
        w.u32_slice(&self.agree);
        w.u64(self.sampled);
        self.path.save_state(w);
        w.u32_slice(&self.local_hist);
        w.i8_slice(&self.local_weights);
        w.i32(self.theta);
        w.i32(self.threshold_ctr);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        r.i8_into(&mut self.weights)?;
        r.i8_into(&mut self.bias)?;
        let coeff = r.i32_vec()?;
        let agree = r.u32_vec()?;
        if coeff.len() != self.coeff.len() || agree.len() != self.agree.len() {
            return Err(CodecError::Malformed("coefficient table size mismatch"));
        }
        self.coeff = coeff;
        self.agree = agree;
        self.sampled = r.u64()?;
        self.path.load_state(r)?;
        let local_hist = r.u32_vec()?;
        if local_hist.len() != self.local_hist.len() {
            return Err(CodecError::Malformed("local history size mismatch"));
        }
        self.local_hist = local_hist;
        r.i8_into(&mut self.local_weights)?;
        self.theta = r.i32()?;
        self.threshold_ctr = r.i32()?;
        Ok(())
    }
}

impl PredictorIntrospect for ScaledNeural {
    fn introspect(&self, metrics: &mut Metrics) {
        metrics.gauge(
            "weights.saturation",
            saturation_fraction(&self.weights, WEIGHT_MAX),
        );
        metrics.gauge(
            "weights.bias.saturation",
            saturation_fraction(&self.bias, WEIGHT_MAX),
        );
        metrics.gauge(
            "weights.local.saturation",
            saturation_fraction(&self.local_weights, WEIGHT_MAX),
        );
        metrics.gauge("theta", f64::from(self.theta));
        // Distribution of the per-depth scaling coefficients in 8.8
        // fixed point: how sharply SNAP has down-weighted deep history.
        const COEFF_BOUNDS: &[f64] = &[64.0, 128.0, 192.0, 256.0, 384.0];
        for &c in &self.coeff {
            metrics.observe("coeff.value", COEFF_BOUNDS, f64::from(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_trace::rng::Xoshiro256;

    fn small() -> ScaledNeural {
        ScaledNeural::new(ScaledNeuralConfig {
            history_len: 16,
            log_table: 12,
            log_bias: 8,
            local_bits: 8,
            log_local_hist: 8,
            log_local_weights: 10,
        })
    }

    #[test]
    fn learns_direct_correlation() {
        let mut p = small();
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
    fn local_component_learns_periodic_branch() {
        // Period-5 pattern on a single branch: invisible to a short global
        // history polluted by noise branches, visible to local history.
        let mut p = small();
        let pattern = [true, false, true, true, false];
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..20_000usize {
            // Noise branches drown the global history.
            for k in 0..20u64 {
                let n = rng.chance(0.5);
                p.predict(0x1000 + k * 8);
                p.update(0x1000 + k * 8, n, 0);
            }
            let t = pattern[i % 5];
            let guess = p.predict(0x40);
            p.update(0x40, t, 0);
            if i > 10_000 {
                total += 1;
                if guess == t {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "local pattern accuracy {acc}");
    }

    #[test]
    fn coefficients_decay_for_uncorrelated_depths() {
        let mut p = small();
        let mut rng = Xoshiro256::seed_from_u64(77);
        // Pure-noise stream: all depths uncorrelated → all coefficients
        // should fall to the floor after a refit.
        for _ in 0..3 * REFIT_PERIOD {
            let t = rng.chance(0.5);
            p.predict(0x40);
            p.update(0x40, t, 0);
        }
        let avg: f64 = p.coeff.iter().map(|&c| f64::from(c)).sum::<f64>() / p.coeff.len() as f64;
        assert!(avg < f64::from(COEFF_ONE) / 2.0, "avg coeff {avg}");
    }

    #[test]
    fn threshold_adapts_upward_under_mispredictions() {
        let mut p = small();
        let before = p.theta();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..20_000 {
            let t = rng.chance(0.5);
            p.predict(0x40);
            p.update(0x40, t, 0);
        }
        assert!(p.theta() >= before, "theta {} -> {}", before, p.theta());
    }

    #[test]
    fn budget_is_64kb_class() {
        let p = ScaledNeural::budget_64kb();
        let kib = p.storage().total_kib();
        assert!((48.0..70.0).contains(&kib), "{kib} KiB");
    }

    #[test]
    fn coefficient_accessor_in_range() {
        let p = small();
        for d in 0..16 {
            let c = p.coefficient(d);
            assert!((COEFF_MIN..=COEFF_MAX).contains(&c));
        }
    }
}
