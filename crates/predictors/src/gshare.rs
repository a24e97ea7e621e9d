//! Gshare predictor: 2-bit counters indexed by PC XOR global history.
//!
//! A classic pattern-based baseline; unlike the perceptron family it can
//! learn non-linearly-separable correlations (e.g. XOR), at the cost of
//! exponential pattern capacity.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;

use crate::counter::CounterTable;
use crate::history::GlobalHistory;

/// A gshare predictor with `2^log_size` 2-bit counters and `hist_len`
/// bits of global history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gshare {
    table: CounterTable,
    history: GlobalHistory,
    hist_len: usize,
    mask: u64,
    name: String,
    /// Counter value read by the most recent prediction — provenance
    /// scratch, not architectural state (never checkpointed).
    last_ctr: i32,
}

impl Gshare {
    /// Creates a gshare predictor.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is 0 or greater than 30, or `hist_len` is 0
    /// or greater than 64.
    pub fn new(log_size: u32, hist_len: usize) -> Self {
        assert!((1..=30).contains(&log_size), "log_size must be 1..=30");
        assert!((1..=64).contains(&hist_len), "hist_len must be 1..=64");
        Self {
            table: CounterTable::new(1 << log_size, 2),
            history: GlobalHistory::new(hist_len.max(1)),
            hist_len,
            mask: (1u64 << log_size) - 1,
            name: format!("gshare-{hist_len}h"),
            last_ctr: 0,
        }
    }

    /// A 64 KiB-budget configuration (2^18 counters, 16-bit history).
    pub fn budget_64kb() -> Self {
        Self::new(18, 16)
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history.low_bits(self.hist_len)) & self.mask) as usize
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.table.storage_bits() + self.hist_len as u64
    }
}

impl ConditionalPredictor for Gshare {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.last_ctr = self.table.get(self.index(pc));
        self.last_ctr >= 0
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        let idx = self.index(pc);
        self.table.train(idx, taken);
        self.history.push(taken);
    }

    fn predict_batch(&mut self, pcs: &[u64], _targets: &[u64], takens: &[bool], miss: &mut [bool]) {
        // Carry the packed history register across the run instead of
        // re-reading it from the ring buffer per branch. `low_bits` puts
        // age `i` at bit `i`, so committing an outcome is a shift-in at
        // bit 0.
        let hmask = u64::MAX >> (64 - self.hist_len as u32);
        let mut h = self.history.low_bits(self.hist_len);
        for i in 0..pcs.len() {
            let taken = takens[i];
            let idx = (((pcs[i] >> 2) ^ h) & self.mask) as usize;
            let ctr = self.table.get(idx);
            self.last_ctr = ctr;
            miss[i] = (ctr >= 0) != taken;
            self.table.train(idx, taken);
            self.history.push(taken);
            h = ((h << 1) | u64::from(taken)) & hmask;
        }
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push("pattern history table", self.table.storage_bits());
        s.push("global history register", self.hist_len as u64);
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(Provenance {
            component: "pht",
            prediction: self.last_ctr >= 0,
            counter: Some(self.last_ctr),
            history_len: Some(self.hist_len as u32),
            ..Default::default()
        })
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for Gshare {
    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w);
        self.history.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.table.load_state(r)?;
        self.history.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_sim::simulate::simulate;
    use bfbp_trace::record::{BranchRecord, Trace};
    use bfbp_trace::rng::Xoshiro256;

    #[test]
    fn learns_alternating_pattern() {
        // A branch that strictly alternates is perfectly predictable from
        // one bit of history.
        let mut g = Gshare::new(12, 8);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            let p = g.predict(0x40);
            g.update(0x40, taken, 0);
            if i > 100 {
                total += 1;
                if p == taken {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.98);
    }

    #[test]
    fn learns_xor_correlation() {
        // c = a XOR b: not linearly separable, but pattern-indexable.
        let mut g = Gshare::new(14, 8);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..20_000 {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            g.predict(0x10);
            g.update(0x10, a, 0);
            g.predict(0x20);
            g.update(0x20, b, 0);
            let p = g.predict(0x30);
            g.update(0x30, a ^ b, 0);
            if i > 2000 {
                total += 1;
                if p == (a ^ b) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "xor accuracy {acc}");
    }

    #[test]
    fn reasonable_on_biased_trace() {
        let records: Vec<BranchRecord> = (0..2000)
            .map(|i| BranchRecord::cond(0x40 + (i % 7) * 4, 0x100, i % 7 != 3, 3))
            .collect();
        let trace = Trace::new("b", records);
        let mut g = Gshare::budget_64kb();
        let r = simulate(&mut g, &trace);
        assert!(r.accuracy() > 0.95, "accuracy {}", r.accuracy());
    }

    #[test]
    fn storage_accounts_table_and_history() {
        let g = Gshare::new(18, 16);
        assert_eq!(g.storage_bits(), (1 << 18) * 2 + 16);
        assert_eq!(g.storage().items().len(), 2);
    }
}
