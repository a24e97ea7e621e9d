//! BF-TAGE: a TAGE predictor indexed with the bias-free history
//! register (§V of the paper), and its ISL composition BF-ISL-TAGE.
//!
//! The tagged-table machinery (provider selection, usefulness,
//! allocation) is the shared [`TageCore`]; what changes is the history:
//! indices and tags are hashes over the *compressed* BF-GHR — 16 recent
//! unfiltered entries plus the segmented recency stacks — together with
//! the branch address and a 16-bit path history, using the compressed
//! history lengths {3, 8, 14, 26, 40, 54, 70, 94, 118, 142}.

use bfbp_predictors::history::{mix64, PathHistory};
use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::obs::{Metrics, PredictorIntrospect};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;
use bfbp_tage::config::TageConfig;
use bfbp_tage::isl::{Isl, TageEngine};
use bfbp_tage::tage::{ProviderStats, TageCore};
use bfbp_trace::record::BranchRecord;

use crate::bf_ghr::BfGhr;
use crate::bst::{BranchStatus, Bst, Classifier};

/// The BF-TAGE predictor.
#[derive(Debug, Clone)]
pub struct BfTage {
    core: TageCore,
    ghr: BfGhr,
    path: PathHistory,
    classifier: Classifier,
    /// Per-table compressed history lengths, ascending (mirrors
    /// `core.tables()`), precomputed for `BfGhr::fold_mixed`.
    history_lens: Vec<usize>,
    idx_scratch: Vec<usize>,
    tag_scratch: Vec<u16>,
    hidx_scratch: Vec<u64>,
    name: String,
}

impl BfTage {
    /// Creates a BF-TAGE from a bias-free configuration (see
    /// [`TageConfig::bias_free`]), with the paper's 8192-entry 2-bit BST
    /// (Table I).
    pub fn new(config: &TageConfig) -> Self {
        Self::with_classifier(config, Classifier::TwoBit(Bst::new(13)))
    }

    /// Creates a BF-TAGE with an explicit bias classifier (used by the
    /// §VI-D static-profile experiments).
    pub fn with_classifier(config: &TageConfig, classifier: Classifier) -> Self {
        Self {
            core: TageCore::new(config),
            ghr: BfGhr::new(),
            path: PathHistory::new(config.path_bits),
            classifier,
            history_lens: config.tables.iter().map(|t| t.history_len).collect(),
            idx_scratch: Vec::with_capacity(config.tables.len()),
            tag_scratch: Vec::with_capacity(config.tables.len()),
            hidx_scratch: Vec::with_capacity(config.tables.len()),
            name: format!("bf-tage-{}t", config.tables.len()),
        }
    }

    /// Convenience: BF-TAGE with `n` tagged tables (4..=10).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside 4..=10.
    pub fn with_tables(n: usize) -> Self {
        Self::new(&TageConfig::bias_free(n).expect("4..=10 tables"))
    }

    /// Provider statistics (Figure 12).
    pub fn provider_stats(&self) -> &ProviderStats {
        self.core.provider_stats()
    }

    /// Clears provider statistics.
    pub fn reset_provider_stats(&mut self) {
        self.core.reset_provider_stats();
    }

    /// Counter value of the most recent prediction's provider entry.
    pub fn last_provider_ctr(&self) -> i8 {
        self.core.last_provider_ctr()
    }

    /// The compressed history register (exposed for inspection and
    /// tests).
    pub fn bf_ghr(&self) -> &BfGhr {
        &self.ghr
    }

    /// Fills `idx_scratch`/`tag_scratch` for `pc` — reused buffers, so
    /// the steady-state prediction path performs no heap allocation.
    fn compute_indices_tags(&mut self, pc: u64) {
        let pch = pc >> 2;
        let path16 = self.path.value() & 0xFFFF;
        // Order-insensitive set hash over the compressed entry stream,
        // snapshotted at each table's compressed history length via the
        // BF-GHR's cached segment prefix-XORs (see `BfGhr::fold_mixed`)
        // — the hot path never walks the full word stream.
        self.ghr
            .fold_mixed(&self.history_lens, &mut self.hidx_scratch);
        self.idx_scratch.clear();
        self.tag_scratch.clear();
        let tables = self.core.tables();
        // A second, independent finalization of the same set hash makes
        // the partial tag; consecutive tables whose lengths both exceed
        // the live compressed history see the same set hash, so the
        // finalization is recomputed only when the snapshot changed.
        let mut h_tag = 0u64;
        let mut prev_h_idx = 0u64;
        for (table, t) in tables.iter().enumerate() {
            let h_idx = self.hidx_scratch[table];
            let path_mix = mix64(path16.wrapping_mul(0xC2B2_AE3D + table as u64));
            let raw_idx = pch ^ (pch >> (t.log_size() + 1)) ^ h_idx ^ (path_mix >> 3);
            self.idx_scratch.push(t.mask_index(raw_idx));
            if table == 0 || h_idx != prev_h_idx {
                h_tag = mix64(h_idx ^ 0xA5A5_5A5A_DEAD_BEEF);
            }
            prev_h_idx = h_idx;
            self.tag_scratch
                .push(t.mask_tag(pch ^ h_tag ^ (h_tag >> 13)));
        }
    }

    fn key_of(pc: u64) -> u16 {
        (mix64(pc >> 2) & 0x3FFF) as u16
    }
}

impl ConditionalPredictor for BfTage {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.compute_indices_tags(pc);
        self.core.predict(pc, &self.idx_scratch, &self.tag_scratch)
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        self.core.update(pc, taken);
        // Classify, then record the branch with its bias status into the
        // raw history (§V-B4: "it is inserted into the GHR_unfiltered
        // along with its bias status and the hashed address").
        let status = self.classifier.commit(pc, taken);
        self.ghr
            .commit(Self::key_of(pc), taken, status == BranchStatus::NonBiased);
        self.path.push(pc);
    }

    fn track_other(&mut self, record: &BranchRecord) {
        self.path.push(record.pc);
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = self.core.storage();
        s.push("BST (8192 entries x 2b)", self.classifier.storage_bits());
        s.push(
            "BF-GHR (unfiltered history + segment stacks)",
            self.ghr.storage_bits(),
        );
        s.push("path history", u64::from(self.path.len()));
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(self.core.last_provenance())
    }

    fn introspection(&self) -> Option<&dyn PredictorIntrospect> {
        Some(self)
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for BfTage {
    fn save_state(&self, w: &mut StateWriter) {
        // `history_lens` and the `*_scratch` buffers are configuration
        // and per-prediction scratch respectively.
        self.core.save_state(w);
        self.ghr.save_state(w);
        self.path.save_state(w);
        self.classifier.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.core.load_state(r)?;
        self.ghr.load_state(r)?;
        self.path.load_state(r)?;
        self.classifier.load_state(r)
    }
}

impl PredictorIntrospect for BfTage {
    fn introspect(&self, metrics: &mut Metrics) {
        self.core.introspect_into(metrics);
        self.classifier.introspect_into(metrics);
        metrics.counter("bf_ghr.commits", self.ghr.commits());
        metrics.counter("bf_ghr.non_biased_commits", self.ghr.non_biased_commits());
        let capacity = self.ghr.compressed_capacity();
        if capacity > 0 {
            metrics.gauge(
                "bf_ghr.occupancy",
                self.ghr.compressed_len() as f64 / capacity as f64,
            );
        }
        // Per-segment recency-stack fill: how much of each depth band's
        // compressed window is live.
        const FILL_BOUNDS: &[f64] = &[0.25, 0.5, 0.75, 1.0];
        for (live, cap) in self.ghr.segment_fill() {
            if cap > 0 {
                metrics.observe("bf_ghr.segment_fill", FILL_BOUNDS, live as f64 / cap as f64);
            }
        }
    }
}

impl TageEngine for BfTage {
    fn last_provider_ctr(&self) -> i8 {
        BfTage::last_provider_ctr(self)
    }

    fn provider_stats(&self) -> &ProviderStats {
        BfTage::provider_stats(self)
    }

    fn reset_provider_stats(&mut self) {
        BfTage::reset_provider_stats(self)
    }
}

/// BF-ISL-TAGE: BF-TAGE with the loop predictor and statistical
/// corrector inherited from ISL-TAGE (§VI-C).
pub type BfIslTage = Isl<BfTage>;

/// Creates a BF-ISL-TAGE with `n` tagged tables (4..=10).
///
/// # Panics
///
/// Panics if `n` is outside 4..=10.
pub fn bf_isl_tage(n_tables: usize) -> BfIslTage {
    Isl::new(BfTage::with_tables(n_tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_sim::simulate::simulate;
    use bfbp_tage::tage::Tage;
    use bfbp_trace::synth::builder::{Filler, ProgramBuilder};

    #[test]
    fn learns_biased_branches() {
        let mut p = BfTage::with_tables(5);
        for _ in 0..50 {
            p.predict(0x40);
            p.update(0x40, true, 0);
        }
        assert!(p.predict(0x40));
        p.update(0x40, true, 0);
    }

    #[test]
    fn learns_alternating_pattern_via_recent_bits() {
        let mut p = BfTage::with_tables(5);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let guess = p.predict(0x40);
            p.update(0x40, taken, 0);
            if i > 1500 {
                total += 1;
                if guess == taken {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "accuracy {}",
            correct as f64 / total as f64
        );
    }

    #[test]
    fn reaches_deep_correlation_beyond_conventional_ten_table_reach() {
        // Correlation at raw distance ~420 behind biased filler: beyond
        // conventional 10-table reach (195), within BF-TAGE's compressed
        // reach at the same table count.
        let mut b = ProgramBuilder::new(11);
        b.add_deep_block(420, Filler::DistinctBiased, 8, 0.0, 200, 210, 1);
        let trace = b.build().emit("deep", 120_000, 5);

        let mut conventional = Tage::with_tables(10);
        let mut bias_free = BfTage::with_tables(10);
        let rc = simulate(&mut conventional, &trace);
        let rb = simulate(&mut bias_free, &trace);
        assert!(
            rb.mpki() < rc.mpki() * 0.9,
            "bf {:.3} vs conventional {:.3} MPKI",
            rb.mpki(),
            rc.mpki()
        );
    }

    #[test]
    fn provider_stats_shift_toward_shorter_tables() {
        // With deep correlations compressed into few BF-GHR entries,
        // BF-TAGE should satisfy branches out of shorter tables than a
        // conventional TAGE needs (Figure 12's story).
        let mut b = ProgramBuilder::new(13);
        b.add_deep_block(420, Filler::DistinctBiased, 8, 0.0, 200, 210, 1);
        let trace = b.build().emit("deep", 80_000, 5);

        let mut bf = BfTage::with_tables(10);
        simulate(&mut bf, &trace);
        let stats = bf.provider_stats();
        // Hits among tagged tables must concentrate in the shorter half.
        let short: f64 = (0..5).map(|i| stats.table_percent(i)).sum();
        let long: f64 = (5..10).map(|i| stats.table_percent(i)).sum();
        assert!(
            short > long,
            "short-table hits {short:.1}% vs long {long:.1}%"
        );
    }

    #[test]
    fn storage_close_to_table_one() {
        let p = BfTage::with_tables(10);
        let kib = p.storage().total_kib();
        // Table I reports 51,100 bytes ≈ 49.9 KiB; ours includes the full
        // 2048-deep unfiltered history.
        assert!((45.0..60.0).contains(&kib), "{kib:.1} KiB");
    }

    #[test]
    fn isl_wrapper_composes() {
        let mut p = bf_isl_tage(7);
        assert!(p.name().contains("bf-tage-7t"));
        for i in 0..200u64 {
            let pc = 0x40 + (i % 5) * 4;
            p.predict(pc);
            p.update(pc, i % 2 == 0, 0);
        }
        assert_eq!(p.provider_stats().total(), 200);
    }

    #[test]
    fn track_other_feeds_path_history() {
        let mut p = BfTage::with_tables(4);
        let r = BranchRecord::uncond(0x500, 0x900, bfbp_trace::record::BranchKind::Call, 0);
        // Just exercises the path-history update; must not panic.
        p.track_other(&r);
        p.predict(0x40);
        p.update(0x40, true, 0);
    }
}
