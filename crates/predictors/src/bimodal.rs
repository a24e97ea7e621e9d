//! Bimodal predictor: a PC-indexed table of 2-bit counters.
//!
//! The simplest dynamic predictor, used standalone as a baseline and as
//! the tagless base component `T0` of TAGE (Figure 6 of the paper).

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;

use crate::counter::CounterTable;

/// A bimodal predictor with `2^log_size` counters of `bits` width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bimodal {
    table: CounterTable,
    mask: u64,
    name: String,
    /// Counter value read by the most recent prediction — provenance
    /// scratch, not architectural state (never checkpointed).
    last_ctr: i32,
}

impl Bimodal {
    /// Creates a bimodal table of `2^log_size` `bits`-wide counters.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is 0 or greater than 30, or `bits` invalid
    /// per [`CounterTable::new`].
    pub fn new(log_size: u32, bits: u32) -> Self {
        assert!((1..=30).contains(&log_size), "log_size must be 1..=30");
        Self {
            table: CounterTable::new(1 << log_size, bits),
            mask: (1u64 << log_size) - 1,
            name: format!("bimodal-{}e", 1u64 << log_size),
            last_ctr: 0,
        }
    }

    /// The default CBP-style configuration: 16K entries of 2 bits (4 KiB).
    pub fn default_64kb_base() -> Self {
        Self::new(14, 2)
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Direction guess for `pc` without updating (used by TAGE as the
    /// base prediction).
    pub fn lookup(&self, pc: u64) -> bool {
        self.table.is_taken(self.index(pc))
    }

    /// Trains the entry for `pc` toward `taken`.
    pub fn train(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.table.train(idx, taken);
    }

    /// Whether the entry for `pc` is weakly biased (|counter| small):
    /// TAGE's "newly allocated" heuristics consult this.
    pub fn is_weak(&self, pc: u64) -> bool {
        let v = self.table.get(self.index(pc));
        v == 0 || v == -1
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.table.storage_bits()
    }
}

impl ConditionalPredictor for Bimodal {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.last_ctr = self.table.get(self.index(pc));
        self.last_ctr >= 0
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        self.train(pc, taken);
    }

    fn predict_batch(&mut self, pcs: &[u64], _targets: &[u64], takens: &[bool], miss: &mut [bool]) {
        // One index computation per record serves both halves of the
        // fused lookup + train (the counter is read before training).
        for i in 0..pcs.len() {
            let idx = ((pcs[i] >> 2) & self.mask) as usize;
            let ctr = self.table.get(idx);
            self.last_ctr = ctr;
            miss[i] = (ctr >= 0) != takens[i];
            self.table.train(idx, takens[i]);
        }
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push("bimodal table", self.storage_bits());
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(Provenance {
            component: "bimodal",
            prediction: self.last_ctr >= 0,
            counter: Some(self.last_ctr),
            ..Default::default()
        })
    }

    fn prefers_batch(&self) -> bool {
        // The per-record work is one table read and one train; the
        // chunk segmentation + miss-buffer machinery of the batched
        // drive costs more than it saves (115M rec/s batched vs 238M
        // per-record; CHANGES.md, PR 8 entry).
        false
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for Bimodal {
    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.table.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_sim::simulate::simulate;
    use bfbp_trace::record::{BranchRecord, Trace};

    #[test]
    fn learns_a_biased_branch() {
        let mut b = Bimodal::new(10, 2);
        for _ in 0..4 {
            let _ = b.predict(0x40);
            b.update(0x40, true, 0x80);
        }
        assert!(b.predict(0x40));
        for _ in 0..4 {
            b.update(0x40, false, 0x80);
        }
        assert!(!b.predict(0x40));
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut b = Bimodal::new(10, 2);
        for _ in 0..4 {
            b.update(0x40, true, 0);
            b.update(0x44, false, 0);
        }
        assert!(b.lookup(0x40));
        assert!(!b.lookup(0x44));
    }

    #[test]
    fn aliased_pcs_share_entries() {
        let mut b = Bimodal::new(4, 2); // 16 entries, index = (pc>>2)&15
        for _ in 0..4 {
            b.update(0x0, true, 0);
        }
        // 0x100 >> 2 = 0x40, & 15 = 0 → same entry as 0x0.
        assert!(b.lookup(0x100));
    }

    #[test]
    fn high_accuracy_on_biased_trace() {
        let records: Vec<BranchRecord> = (0..1000)
            .map(|i| BranchRecord::cond(0x40 + (i % 10) * 8, 0x100, true, 3))
            .collect();
        let trace = Trace::new("biased", records);
        let mut b = Bimodal::default_64kb_base();
        let result = simulate(&mut b, &trace);
        assert!(result.accuracy() > 0.98, "accuracy {}", result.accuracy());
    }

    #[test]
    fn storage_matches_configuration() {
        let b = Bimodal::new(14, 2);
        assert_eq!(b.storage_bits(), (1 << 14) * 2);
        assert_eq!(b.storage().total_bytes(), 4096);
    }

    #[test]
    fn weak_entry_detection() {
        let mut b = Bimodal::new(10, 2);
        assert!(b.is_weak(0x40));
        for _ in 0..3 {
            b.train(0x40, true);
        }
        assert!(!b.is_weak(0x40));
    }
}
