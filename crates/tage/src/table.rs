//! Partially tagged predictor tables — the `Ti` components of TAGE
//! (Figure 6 of the paper).
//!
//! Each entry holds a 3-bit signed prediction counter, a partial tag and
//! a 2-bit usefulness counter. Index and tag values are computed by the
//! surrounding predictor (conventional TAGE folds its global history;
//! BF-TAGE folds the bias-free history), keeping this module reusable by
//! both.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};

/// One tagged entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaggedEntry {
    /// 3-bit signed prediction counter in `[-4, 3]`; sign = direction.
    pub ctr: i8,
    /// Partial tag.
    pub tag: u16,
    /// 2-bit usefulness counter.
    pub useful: u8,
}

impl TaggedEntry {
    /// Direction predicted by the counter.
    pub fn prediction(&self) -> bool {
        self.ctr >= 0
    }

    /// Whether the counter is in a weak (newly allocated) state.
    pub fn is_weak(&self) -> bool {
        self.ctr == 0 || self.ctr == -1
    }
}

/// A tagged table with `2^log_size` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedTable {
    entries: Vec<TaggedEntry>,
    log_size: u32,
    tag_bits: u32,
    history_len: usize,
}

impl TaggedTable {
    /// Creates a table.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is 0 or greater than 24, or `tag_bits` is 0 or
    /// greater than 16.
    pub fn new(log_size: u32, tag_bits: u32, history_len: usize) -> Self {
        assert!((1..=24).contains(&log_size), "log_size must be 1..=24");
        assert!((1..=16).contains(&tag_bits), "tag_bits must be 1..=16");
        Self {
            entries: vec![TaggedEntry::default(); 1 << log_size],
            log_size,
            tag_bits,
            history_len,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false` (tables are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// log2 of the entry count.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }

    /// Partial tag width in bits.
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// The (raw or compressed) history length this table is indexed with.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Masks an index into range.
    pub fn mask_index(&self, raw: u64) -> usize {
        (raw & ((1u64 << self.log_size) - 1)) as usize
    }

    /// Masks a tag to this table's width.
    pub fn mask_tag(&self, raw: u64) -> u16 {
        (raw & ((1u64 << self.tag_bits) - 1)) as u16
    }

    /// Returns the entry at `index` if its tag matches.
    pub fn lookup(&self, index: usize, tag: u16) -> Option<&TaggedEntry> {
        let e = &self.entries[index];
        (e.tag == tag).then_some(e)
    }

    /// Immutable entry access.
    pub fn entry(&self, index: usize) -> &TaggedEntry {
        &self.entries[index]
    }

    /// Trains the prediction counter at `index` toward `taken` (3-bit
    /// saturating). Branchless: the ±1 step plus clamp compiles to
    /// straight-line min/max, which the mispredict-heavy update path
    /// rewards.
    pub fn train(&mut self, index: usize, taken: bool) {
        let e = &mut self.entries[index];
        let delta = (taken as i8) * 2 - 1;
        e.ctr = (e.ctr + delta).clamp(-4, 3);
    }

    /// Adjusts the usefulness counter at `index` (2-bit saturating,
    /// branchless like [`TaggedTable::train`]).
    pub fn touch_useful(&mut self, index: usize, up: bool) {
        let e = &mut self.entries[index];
        let delta = (up as i8) * 2 - 1;
        e.useful = (e.useful as i8 + delta).clamp(0, 3) as u8;
    }

    /// Allocates the entry at `index` for `tag`, weakly biased toward
    /// `taken`, with zero usefulness.
    pub fn allocate(&mut self, index: usize, tag: u16, taken: bool) {
        self.entries[index] = TaggedEntry {
            ctr: if taken { 0 } else { -1 },
            tag,
            useful: 0,
        };
    }

    /// Ages usefulness counters: clears the given bit (0 = LSB, 1 = MSB)
    /// of every `useful` counter, as TAGE's periodic reset does.
    pub fn reset_useful_bit(&mut self, bit: u32) {
        let mask = !(1u8 << bit);
        for e in &mut self.entries {
            e.useful &= mask;
        }
    }

    /// Storage in bits: (3 + tag + 2) per entry.
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (3 + u64::from(self.tag_bits) + 2)
    }
}

impl Restorable for TaggedTable {
    fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.entries.len());
        for e in &self.entries {
            w.i8(e.ctr);
            w.u16(e.tag);
            w.u8(e.useful);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        if r.usize()? != self.entries.len() {
            return Err(CodecError::Malformed("tagged table size mismatch"));
        }
        for e in &mut self.entries {
            *e = TaggedEntry {
                ctr: r.i8()?,
                tag: r.u16()?,
                useful: r.u8()?,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_requires_tag_match() {
        let mut t = TaggedTable::new(4, 8, 10);
        assert!(t.lookup(3, 0).is_some(), "zeroed entries match tag 0");
        t.allocate(3, 0xAB, true);
        assert!(t.lookup(3, 0xAB).is_some());
        assert!(t.lookup(3, 0xAC).is_none());
    }

    #[test]
    fn allocate_sets_weak_counter() {
        let mut t = TaggedTable::new(4, 8, 10);
        t.allocate(0, 1, true);
        assert_eq!(t.entry(0).ctr, 0);
        assert!(t.entry(0).prediction());
        assert!(t.entry(0).is_weak());
        t.allocate(0, 1, false);
        assert_eq!(t.entry(0).ctr, -1);
        assert!(!t.entry(0).prediction());
        assert!(t.entry(0).is_weak());
    }

    #[test]
    fn counter_saturates_three_bit() {
        let mut t = TaggedTable::new(4, 8, 10);
        for _ in 0..10 {
            t.train(0, true);
        }
        assert_eq!(t.entry(0).ctr, 3);
        for _ in 0..20 {
            t.train(0, false);
        }
        assert_eq!(t.entry(0).ctr, -4);
        assert!(!t.entry(0).is_weak());
    }

    #[test]
    fn useful_saturates_two_bit() {
        let mut t = TaggedTable::new(4, 8, 10);
        for _ in 0..10 {
            t.touch_useful(0, true);
        }
        assert_eq!(t.entry(0).useful, 3);
        for _ in 0..10 {
            t.touch_useful(0, false);
        }
        assert_eq!(t.entry(0).useful, 0);
    }

    #[test]
    fn reset_useful_clears_requested_bit() {
        let mut t = TaggedTable::new(2, 8, 10);
        for i in 0..4 {
            t.entries[i].useful = 3;
        }
        t.reset_useful_bit(0);
        assert!(t.entries.iter().all(|e| e.useful == 2));
        t.reset_useful_bit(1);
        assert!(t.entries.iter().all(|e| e.useful == 0));
    }

    #[test]
    fn masks_fit_table_geometry() {
        let t = TaggedTable::new(10, 9, 33);
        assert_eq!(t.mask_index(u64::MAX), (1 << 10) - 1);
        assert_eq!(t.mask_tag(u64::MAX), (1 << 9) - 1);
        assert_eq!(t.len(), 1024);
        assert_eq!(t.history_len(), 33);
    }

    #[test]
    fn storage_formula() {
        let t = TaggedTable::new(10, 9, 33);
        assert_eq!(t.storage_bits(), 1024 * (3 + 9 + 2));
    }
}
