//! The TAGE engine: provider/alternate selection, usefulness management,
//! allocation — plus the conventional (raw global history) TAGE
//! predictor built on it.
//!
//! The engine ([`TageCore`]) is deliberately agnostic about *how* table
//! indices and tags are computed: conventional TAGE folds its raw global
//! history incrementally, while BF-TAGE (in `bfbp-core`) hashes its
//! compressed bias-free history. Both share the provider logic below,
//! mirroring the paper's "the remaining mechanism of the prediction
//! computation stays the same as in \[4\]" (§V-B3).

use bfbp_predictors::bimodal::Bimodal;
use bfbp_predictors::history::{mix64, ManagedHistory, PathHistory};
use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::obs::{Metrics, PredictorIntrospect};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;
use bfbp_trace::record::BranchRecord;

use crate::config::TageConfig;
use crate::table::TaggedTable;

/// Which component provided a prediction: `None` = base predictor,
/// `Some(i)` = tagged table `i` (0-based, shortest history first).
pub type Provider = Option<usize>;

/// Per-component provider statistics (Figure 12 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProviderStats {
    counts: Vec<u64>,
}

impl ProviderStats {
    fn new(n_tables: usize) -> Self {
        Self {
            counts: vec![0; n_tables + 1],
        }
    }

    fn record(&mut self, provider: Provider) {
        match provider {
            None => self.counts[0] += 1,
            Some(i) => self.counts[i + 1] += 1,
        }
    }

    /// Predictions provided by the base predictor.
    pub fn base_count(&self) -> u64 {
        self.counts[0]
    }

    /// Predictions provided by tagged table `i` (0-based).
    pub fn table_count(&self, i: usize) -> u64 {
        self.counts[i + 1]
    }

    /// Total recorded predictions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentage of predictions provided by tagged table `i` — the
    /// quantity plotted in Figure 12 ("% of Branch-Hits").
    pub fn table_percent(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.table_count(i) as f64 / total as f64
    }

    /// Number of tagged tables covered.
    pub fn n_tables(&self) -> usize {
        self.counts.len() - 1
    }
}

/// Scratch state carried from a prediction to its update.
///
/// The `indices`/`tags` buffers are owned here and recycled across
/// predictions (cleared and refilled by [`TageCore::predict`], handed
/// back after [`TageCore::update`]), so the steady-state loop performs
/// no heap allocation.
#[derive(Debug, Clone, Default)]
struct PredContext {
    indices: Vec<usize>,
    tags: Vec<u16>,
    provider: Provider,
    alt: Provider,
    provider_pred: bool,
    alt_pred: bool,
    final_pred: bool,
    provider_weak: bool,
}

/// The shared TAGE engine over externally computed indices and tags.
#[derive(Debug, Clone)]
pub struct TageCore {
    base: Bimodal,
    tables: Vec<TaggedTable>,
    use_alt_on_na: i32,
    tick: u64,
    u_reset_period: u64,
    reset_msb_next: bool,
    rng_state: u64,
    stats: ProviderStats,
    ctx: PredContext,
    last_provider_ctr: i8,
    /// Successful allocations per tagged table (observability only).
    allocs: Vec<u64>,
    /// Mispredictions where every candidate entry was useful, so the
    /// all-useful decrement path ran instead of an allocation.
    alloc_failures: u64,
    /// Periodic useful-bit aging sweeps performed.
    useful_resets: u64,
}

impl TageCore {
    /// Creates an engine from a configuration.
    pub fn new(config: &TageConfig) -> Self {
        let tables = config
            .tables
            .iter()
            .map(|g| TaggedTable::new(g.log_size, g.tag_bits, g.history_len))
            .collect::<Vec<_>>();
        let n = tables.len();
        Self {
            base: Bimodal::new(config.base_log_size, 2),
            tables,
            use_alt_on_na: 0,
            tick: 0,
            u_reset_period: config.u_reset_period,
            reset_msb_next: true,
            rng_state: 0xDEAD_BEEF_CAFE_1234,
            stats: ProviderStats::new(n),
            ctx: PredContext::default(),
            last_provider_ctr: 0,
            allocs: vec![0; n],
            alloc_failures: 0,
            useful_resets: 0,
        }
    }

    /// Counter value of the most recent prediction's provider entry
    /// (0 when the base predictor provided).
    pub fn last_provider_ctr(&self) -> i8 {
        self.last_provider_ctr
    }

    /// The tagged tables (shortest history first).
    pub fn tables(&self) -> &[TaggedTable] {
        &self.tables
    }

    /// Provenance of the most recent prediction: which component
    /// provided it (`"base"` or tagged table `1..=n` as `"tage"`), the
    /// alternate prediction, and the provider counter. Shared by every
    /// predictor wrapping a [`TageCore`].
    pub fn last_provenance(&self) -> Provenance {
        Provenance {
            component: if self.ctx.provider.is_some() {
                "tage"
            } else {
                "base"
            },
            table: self.ctx.provider.map(|i| i as u32 + 1),
            prediction: self.ctx.final_pred,
            alternate: Some(self.ctx.alt_pred),
            counter: Some(i32::from(self.last_provider_ctr)),
            margin: None,
            history_len: self
                .ctx
                .provider
                .map(|i| self.tables[i].history_len() as u32),
        }
    }

    /// Provider statistics accumulated so far.
    pub fn provider_stats(&self) -> &ProviderStats {
        &self.stats
    }

    /// Clears accumulated provider statistics (e.g. after warm-up).
    pub fn reset_provider_stats(&mut self) {
        self.stats = ProviderStats::new(self.tables.len());
    }

    /// Mispredictions where allocation failed (every candidate useful).
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Periodic useful-bit aging sweeps performed so far.
    pub fn useful_resets(&self) -> u64 {
        self.useful_resets
    }

    /// Exports the engine's counters into `metrics` under the `tage.`
    /// prefix — per-table allocations, provider hits, occupancy — shared
    /// by every predictor wrapping a [`TageCore`] (TAGE, ISL-TAGE,
    /// BF-TAGE).
    pub fn introspect_into(&self, metrics: &mut Metrics) {
        metrics.counter("tage.base.provider_hits", self.stats.base_count());
        metrics.counter("tage.alloc_failures", self.alloc_failures);
        metrics.counter("tage.useful_resets", self.useful_resets);
        for (i, table) in self.tables.iter().enumerate() {
            let label = i + 1; // T1..Tn, matching the storage breakdown
            metrics.counter(&format!("tage.table{label}.allocs"), self.allocs[i]);
            metrics.counter(
                &format!("tage.table{label}.provider_hits"),
                self.stats.table_count(i),
            );
            let occupied = (0..table.len())
                .filter(|&j| {
                    let e = table.entry(j);
                    e.ctr != 0 || e.tag != 0 || e.useful != 0
                })
                .count();
            metrics.gauge(
                &format!("tage.table{label}.occupancy"),
                occupied as f64 / table.len() as f64,
            );
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64.
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// Computes the prediction for `pc` given per-table `indices` and
    /// `tags` (already masked to each table's geometry). The slices are
    /// copied into the engine's reusable prediction context, so callers
    /// can keep them in their own scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `indices` or `tags` length differs from the table count.
    pub fn predict(&mut self, pc: u64, indices: &[usize], tags: &[u16]) -> bool {
        assert_eq!(indices.len(), self.tables.len());
        assert_eq!(tags.len(), self.tables.len());
        let mut provider = None;
        let mut alt = None;
        for i in (0..self.tables.len()).rev() {
            if self.tables[i].lookup(indices[i], tags[i]).is_some() {
                if provider.is_none() {
                    provider = Some(i);
                } else {
                    alt = Some(i);
                    break;
                }
            }
        }
        let base_pred = self.base.lookup(pc);
        let (provider_pred, provider_weak) = match provider {
            Some(i) => {
                let e = self.tables[i].entry(indices[i]);
                (e.prediction(), e.is_weak() && e.useful == 0)
            }
            None => (base_pred, false),
        };
        let alt_pred = match alt {
            Some(i) => self.tables[i].entry(indices[i]).prediction(),
            None => base_pred,
        };
        // "Use alt on newly allocated" heuristic: a weak, useless provider
        // entry is probably a fresh allocation; trust the alternate
        // prediction while the global counter says so.
        let final_pred = if provider.is_some() && provider_weak && self.use_alt_on_na >= 0 {
            alt_pred
        } else {
            provider_pred
        };
        self.stats.record(provider);
        self.last_provider_ctr = match provider {
            Some(i) => self.tables[i].entry(indices[i]).ctr,
            None => 0,
        };
        self.ctx.indices.clear();
        self.ctx.indices.extend_from_slice(indices);
        self.ctx.tags.clear();
        self.ctx.tags.extend_from_slice(tags);
        self.ctx.provider = provider;
        self.ctx.alt = alt;
        self.ctx.provider_pred = provider_pred;
        self.ctx.alt_pred = alt_pred;
        self.ctx.final_pred = final_pred;
        self.ctx.provider_weak = provider_weak;
        final_pred
    }

    /// Trains the engine with the resolved direction of the branch last
    /// passed to [`TageCore::predict`].
    pub fn update(&mut self, pc: u64, taken: bool) {
        // Take the context out to release the borrow on `self`, then hand
        // it back at the end so its buffers are recycled by the next
        // prediction.
        let ctx = std::mem::take(&mut self.ctx);
        let mispredicted = ctx.final_pred != taken;

        // Track the use-alt-on-newly-allocated preference.
        if ctx.provider.is_some() && ctx.provider_weak && ctx.provider_pred != ctx.alt_pred {
            let delta = if ctx.alt_pred == taken { 1 } else { -1 };
            self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
        }

        // Allocation on misprediction, into a longer table with a useless
        // entry (probabilistically skipping to spread allocations).
        let n = self.tables.len();
        let can_allocate = ctx.provider.map_or(0, |p| p + 1) < n;
        if mispredicted && can_allocate {
            let start = ctx.provider.map_or(0, |p| p + 1);
            let last_free = (start..n)
                .rev()
                .find(|&j| self.tables[j].entry(ctx.indices[j]).useful == 0);
            match last_free {
                None => {
                    for j in start..n {
                        self.tables[j].touch_useful(ctx.indices[j], false);
                    }
                    self.alloc_failures += 1;
                }
                Some(last) => {
                    // Prefer shorter tables, skipping each candidate with
                    // probability 1/2 (Seznec's anti-ping-pong
                    // randomization); fall back to the longest free table
                    // when every coin flip says skip.
                    let mut chosen = last;
                    for j in start..n {
                        if self.tables[j].entry(ctx.indices[j]).useful != 0 {
                            continue;
                        }
                        if self.next_rand() & 1 == 0 {
                            chosen = j;
                            break;
                        }
                    }
                    self.tables[chosen].allocate(ctx.indices[chosen], ctx.tags[chosen], taken);
                    self.allocs[chosen] += 1;
                }
            }
        }

        // Usefulness: when provider and alternate disagreed, the provider
        // was useful iff it was right.
        if let Some(p) = ctx.provider {
            if ctx.provider_pred != ctx.alt_pred {
                self.tables[p].touch_useful(ctx.indices[p], ctx.provider_pred == taken);
            }
            // Train the provider counter.
            self.tables[p].train(ctx.indices[p], taken);
            // A useless provider lets the alternate keep learning.
            if self.tables[p].entry(ctx.indices[p]).useful == 0 {
                match ctx.alt {
                    Some(a) => self.tables[a].train(ctx.indices[a], taken),
                    None => self.base.train(pc, taken),
                }
            }
        } else {
            self.base.train(pc, taken);
        }

        // Periodic graceful aging of usefulness counters.
        self.tick += 1;
        if self.tick.is_multiple_of(self.u_reset_period) {
            let bit = if self.reset_msb_next { 1 } else { 0 };
            self.reset_msb_next = !self.reset_msb_next;
            for t in &mut self.tables {
                t.reset_useful_bit(bit);
            }
            self.useful_resets += 1;
        }

        // Recycle the context buffers for the next prediction.
        self.ctx = ctx;
    }

    /// Storage of the base + tagged tables.
    pub fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push("base bimodal table", self.base.storage_bits());
        for (i, t) in self.tables.iter().enumerate() {
            s.push(
                format!(
                    "tagged table T{} ({} entries, {}b tag, L={})",
                    i + 1,
                    t.len(),
                    t.tag_bits(),
                    t.history_len()
                ),
                t.storage_bits(),
            );
        }
        s
    }
}

impl Restorable for TageCore {
    fn save_state(&self, w: &mut StateWriter) {
        // Everything that survives across predictions: tables, the
        // use-alt preference, the aging clock, the allocation RNG (so a
        // resumed run draws the same coin flips), and every
        // observability counter the metrics document exports. The
        // `ctx`/`last_provider_ctr` scratch is rewritten by the next
        // `predict` before any use.
        self.base.save_state(w);
        w.usize(self.tables.len());
        for t in &self.tables {
            t.save_state(w);
        }
        w.i32(self.use_alt_on_na);
        w.u64(self.tick);
        w.bool(self.reset_msb_next);
        w.u64(self.rng_state);
        w.u64_slice(&self.stats.counts);
        w.u64_slice(&self.allocs);
        w.u64(self.alloc_failures);
        w.u64(self.useful_resets);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.base.load_state(r)?;
        if r.usize()? != self.tables.len() {
            return Err(CodecError::Malformed("tage table count mismatch"));
        }
        for t in &mut self.tables {
            t.load_state(r)?;
        }
        self.use_alt_on_na = r.i32()?;
        self.tick = r.u64()?;
        self.reset_msb_next = r.bool()?;
        self.rng_state = r.u64()?;
        let counts = r.u64_vec()?;
        if counts.len() != self.stats.counts.len() {
            return Err(CodecError::Malformed("provider stats size mismatch"));
        }
        self.stats.counts = counts;
        let allocs = r.u64_vec()?;
        if allocs.len() != self.allocs.len() {
            return Err(CodecError::Malformed("alloc counts size mismatch"));
        }
        self.allocs = allocs;
        self.alloc_failures = r.u64()?;
        self.useful_resets = r.u64()?;
        Ok(())
    }
}

/// Conventional TAGE over raw global branch history.
#[derive(Debug, Clone)]
pub struct Tage {
    core: TageCore,
    history: ManagedHistory,
    path: PathHistory,
    name: String,
    // Per-prediction index/tag scratch, recycled so the hot path never
    // allocates.
    idx_scratch: Vec<usize>,
    tag_scratch: Vec<u16>,
}

impl Tage {
    /// The `(window, width)` fold specs of a configuration: per table,
    /// its index fold and two tag folds, listed together so the three
    /// share one evicted-bit read per push.
    pub fn fold_specs(config: &TageConfig) -> Vec<(usize, usize)> {
        let mut fold_specs = Vec::new();
        for g in &config.tables {
            fold_specs.push((g.history_len, g.log_size as usize)); // index fold
            fold_specs.push((g.history_len, g.tag_bits as usize)); // tag fold A
            fold_specs.push((
                g.history_len,
                (g.tag_bits as usize).saturating_sub(1).max(1),
            ));
            // tag fold B
        }
        fold_specs
    }

    /// Creates a conventional TAGE from a configuration.
    pub fn new(config: &TageConfig) -> Self {
        let capacity = config.max_history().max(64);
        Self {
            core: TageCore::new(config),
            history: ManagedHistory::new(capacity, &Self::fold_specs(config)),
            path: PathHistory::new(config.path_bits),
            name: format!("tage-{}t", config.tables.len()),
            idx_scratch: Vec::with_capacity(config.tables.len()),
            tag_scratch: Vec::with_capacity(config.tables.len()),
        }
    }

    /// Convenience: conventional TAGE with `n` tagged tables.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside 4..=15.
    pub fn with_tables(n: usize) -> Self {
        Self::new(&TageConfig::conventional(n).expect("4..=15 tables"))
    }

    /// Provider statistics (Figure 12).
    pub fn provider_stats(&self) -> &ProviderStats {
        self.core.provider_stats()
    }

    /// Counter value of the most recent prediction's provider entry.
    pub fn last_provider_ctr(&self) -> i8 {
        self.core.last_provider_ctr()
    }

    /// Clears provider statistics.
    pub fn reset_provider_stats(&mut self) {
        self.core.reset_provider_stats();
    }

    /// Recomputes the per-table indices and tags for `pc` into the
    /// reusable scratch buffers. The folds themselves are maintained
    /// incrementally by [`ManagedHistory::push`], so this is O(tables)
    /// regardless of history depth.
    fn compute_indices_tags(&mut self, pc: u64) {
        let pch = pc >> 2;
        self.idx_scratch.clear();
        self.tag_scratch.clear();
        for (i, t) in self.core.tables().iter().enumerate() {
            let f_idx = self.history.fold(3 * i);
            let f_tag_a = self.history.fold(3 * i + 1);
            let f_tag_b = self.history.fold(3 * i + 2);
            let path_window = t.history_len().min(16) as u32;
            let path_bits = self.path.value() & ((1u64 << path_window) - 1);
            let path_mix = mix64(path_bits.wrapping_mul(0x9E37_79B9u64 + i as u64));
            let raw_idx = pch ^ (pch >> (t.log_size() + 1)) ^ f_idx ^ (path_mix >> 3);
            self.idx_scratch.push(t.mask_index(raw_idx));
            self.tag_scratch
                .push(t.mask_tag(pch ^ f_tag_a ^ (f_tag_b << 1)));
        }
    }
}

impl ConditionalPredictor for Tage {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.compute_indices_tags(pc);
        self.core.predict(pc, &self.idx_scratch, &self.tag_scratch)
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        self.core.update(pc, taken);
        self.history.push(taken);
        self.path.push(pc);
    }

    fn track_other(&mut self, record: &BranchRecord) {
        self.path.push(record.pc);
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = self.core.storage();
        s.push(
            "global history register",
            self.history.history().capacity() as u64,
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

impl Restorable for Tage {
    fn save_state(&self, w: &mut StateWriter) {
        self.core.save_state(w);
        self.history.save_state(w);
        self.path.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.core.load_state(r)?;
        self.history.load_state(r)?;
        self.path.load_state(r)
    }
}

impl PredictorIntrospect for Tage {
    fn introspect(&self, metrics: &mut Metrics) {
        self.core.introspect_into(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_sim::simulate::simulate;
    use bfbp_trace::rng::Xoshiro256;
    use bfbp_trace::synth::builder::{Filler, ProgramBuilder};

    #[test]
    fn learns_biased_branches_immediately() {
        let mut t = Tage::with_tables(5);
        for _ in 0..50 {
            t.predict(0x40);
            t.update(0x40, true, 0);
        }
        assert!(t.predict(0x40));
        t.update(0x40, true, 0);
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut t = Tage::with_tables(5);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let guess = t.predict(0x40);
            t.update(0x40, taken, 0);
            if i > 1000 {
                total += 1;
                if guess == taken {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.97);
    }

    #[test]
    fn learns_xor_unlike_perceptrons() {
        let mut t = Tage::with_tables(7);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..30_000 {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            t.predict(0x10);
            t.update(0x10, a, 0);
            t.predict(0x20);
            t.update(0x20, b, 0);
            let guess = t.predict(0x30);
            t.update(0x30, a ^ b, 0);
            if i > 10_000 {
                total += 1;
                if guess == (a ^ b) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "xor accuracy {acc}");
    }

    #[test]
    fn fifteen_tables_capture_deeper_correlation_than_ten() {
        // A correlation at raw distance ~420 is reachable by the 15-table
        // series (517) but not the 10-table one (195).
        let mut b = ProgramBuilder::new(42);
        b.add_deep_block(420, Filler::DistinctBiased, 6, 0.0, 200, 210, 1);
        let trace = b.build().emit("deep", 120_000, 9);

        let mut t10 = Tage::with_tables(10);
        let mut t15 = Tage::with_tables(15);
        let r10 = simulate(&mut t10, &trace);
        let r15 = simulate(&mut t15, &trace);
        assert!(
            r15.mpki() < r10.mpki() * 0.8,
            "15-table {:.3} vs 10-table {:.3} MPKI",
            r15.mpki(),
            r10.mpki()
        );
    }

    #[test]
    fn provider_stats_accumulate() {
        let mut t = Tage::with_tables(5);
        for i in 0..500u64 {
            t.predict(0x40 + (i % 7) * 4);
            t.update(0x40 + (i % 7) * 4, i % 3 == 0, 0);
        }
        let stats = t.provider_stats();
        assert_eq!(stats.total(), 500);
        assert_eq!(stats.n_tables(), 5);
        // Percentages sum to <= 100 (base takes the rest).
        let sum: f64 = (0..5).map(|i| stats.table_percent(i)).sum();
        assert!(sum <= 100.0 + 1e-9);
        t.reset_provider_stats();
        assert_eq!(t.provider_stats().total(), 0);
    }

    #[test]
    fn storage_is_near_budget() {
        for n in [4, 7, 10, 15] {
            let t = Tage::with_tables(n);
            let kib = t.storage().total_kib();
            assert!((44.0..68.0).contains(&kib), "{n} tables: {kib:.1} KiB");
        }
    }

    #[test]
    fn empty_stats_percentages_are_zero() {
        let t = Tage::with_tables(4);
        assert_eq!(t.provider_stats().table_percent(0), 0.0);
        assert_eq!(t.provider_stats().base_count(), 0);
    }
}
