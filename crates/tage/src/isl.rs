//! ISL-TAGE composition: TAGE plus the loop predictor and statistical
//! corrector side components (Seznec, CBP-3).
//!
//! The wrapper is generic over any [`TageEngine`], so the same loop/SC
//! components serve both the conventional baseline (`Isl<Tage>`) and the
//! paper's BF-ISL-TAGE ("BF-ISL-TAGE inherits the SC and the IUM
//! components from the ISL-TAGE", §VI-C).
//!
//! **Immediate Update Mimicker (IUM).** The IUM of ISL-TAGE replays
//! not-yet-committed in-flight predictions so the predictor behaves as if
//! it were updated immediately. Our trace-driven simulation *is* updated
//! immediately — every prediction is followed by its commit before the
//! next prediction — so the IUM is exactly the identity and is not
//! materialized. This substitution is recorded in `DESIGN.md` §1.

use bfbp_predictors::counter::CounterTable;
use bfbp_predictors::history::mix64;
use bfbp_predictors::loop_pred::LoopPredictor;
use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;
use bfbp_trace::record::BranchRecord;

use crate::tage::{ProviderStats, Tage};

/// Interface a TAGE-style predictor exposes so ISL side components can
/// wrap it.
///
/// [`Restorable`] is a supertrait so the `Isl<T>` wrapper can serialize
/// the engine it wraps as part of its own checkpoint.
pub trait TageEngine: ConditionalPredictor + Restorable {
    /// Counter value of the provider entry of the most recent prediction
    /// (0 when the base predictor provided).
    fn last_provider_ctr(&self) -> i8;

    /// Provider statistics accumulated so far.
    fn provider_stats(&self) -> &ProviderStats;

    /// Clears provider statistics.
    fn reset_provider_stats(&mut self);
}

/// The statistical corrector: learns contexts in which the TAGE
/// prediction is statistically wrong and inverts it there.
///
/// A compact rendition of ISL-TAGE's SC: a table of 6-bit signed
/// agreement counters indexed by (PC, predicted direction, provider
/// counter value). A strongly negative counter means "in this context
/// TAGE is usually wrong" and flips the prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatisticalCorrector {
    table: CounterTable,
    mask: u64,
    invert_threshold: i32,
}

impl StatisticalCorrector {
    /// Creates an SC with `2^log_size` 6-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is 0 or greater than 24.
    pub fn new(log_size: u32) -> Self {
        assert!((1..=24).contains(&log_size));
        Self {
            table: CounterTable::new(1 << log_size, 6),
            mask: (1u64 << log_size) - 1,
            invert_threshold: -8,
        }
    }

    fn index(&self, pc: u64, tage_pred: bool, provider_ctr: i8) -> usize {
        let key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(tage_pred) << 61)
            ^ ((provider_ctr as u64 & 0xF) << 52);
        (mix64(key) & self.mask) as usize
    }

    /// Possibly inverts `tage_pred` for this context.
    pub fn correct(&self, pc: u64, tage_pred: bool, provider_ctr: i8) -> bool {
        let idx = self.index(pc, tage_pred, provider_ctr);
        if self.table.get(idx) <= self.invert_threshold {
            !tage_pred
        } else {
            tage_pred
        }
    }

    /// Trains the context counter: did TAGE's (uncorrected) prediction
    /// agree with the outcome?
    pub fn train(&mut self, pc: u64, tage_pred: bool, provider_ctr: i8, taken: bool) {
        let idx = self.index(pc, tage_pred, provider_ctr);
        self.table.train(idx, tage_pred == taken);
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.table.storage_bits()
    }
}

impl Restorable for StatisticalCorrector {
    fn save_state(&self, w: &mut StateWriter) {
        self.table.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.table.load_state(r)
    }
}

impl TageEngine for Tage {
    fn last_provider_ctr(&self) -> i8 {
        Tage::last_provider_ctr(self)
    }

    fn provider_stats(&self) -> &ProviderStats {
        Tage::provider_stats(self)
    }

    fn reset_provider_stats(&mut self) {
        Tage::reset_provider_stats(self)
    }
}

/// ISL composition: a TAGE engine plus loop predictor and statistical
/// corrector.
#[derive(Debug, Clone)]
pub struct Isl<T> {
    tage: T,
    name: String,
    loop_pred: LoopPredictor,
    sc: StatisticalCorrector,
    sc_enabled: bool,
    last_tage_pred: bool,
    last_provider_ctr: i8,
    last_final_pred: bool,
    last_loop_used: bool,
}

impl<T: TageEngine> Isl<T> {
    /// Wraps a TAGE engine with the paper's side components: a 64-entry
    /// loop predictor and a statistical corrector.
    pub fn new(tage: T) -> Self {
        Self {
            name: format!("isl-{}", tage.name()),
            tage,
            loop_pred: LoopPredictor::paper_64_entry(),
            sc: StatisticalCorrector::new(12),
            sc_enabled: true,
            last_tage_pred: false,
            last_provider_ctr: 0,
            last_final_pred: false,
            last_loop_used: false,
        }
    }

    /// Wraps a TAGE engine with the loop predictor only — the paper's
    /// Figure 8 baseline is "TAGE ... does not include the statistical
    /// corrector (SC) and the immediate update mimicker (IUM)" but keeps
    /// a same-sized loop predictor.
    pub fn without_sc(tage: T) -> Self {
        Self {
            sc_enabled: false,
            ..Self::new(tage)
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &T {
        &self.tage
    }
}

impl<T: TageEngine> ConditionalPredictor for Isl<T> {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        let tage_pred = self.tage.predict(pc);
        self.last_tage_pred = tage_pred;
        self.last_provider_ctr = self.tage.last_provider_ctr();
        let corrected = if self.sc_enabled {
            self.sc.correct(pc, tage_pred, self.last_provider_ctr)
        } else {
            tage_pred
        };
        let (final_pred, loop_used) = match self.loop_pred.predict(pc) {
            Some(lp) if lp.confident => (lp.taken, true),
            _ => (corrected, false),
        };
        self.last_final_pred = final_pred;
        self.last_loop_used = loop_used;
        final_pred
    }

    fn update(&mut self, pc: u64, taken: bool, target: u64) {
        let mispredicted = self.last_final_pred != taken;
        self.loop_pred.update(pc, taken, mispredicted);
        self.sc
            .train(pc, self.last_tage_pred, self.last_provider_ctr, taken);
        self.tage.update(pc, taken, target);
    }

    fn track_other(&mut self, record: &BranchRecord) {
        self.tage.track_other(record);
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = self.tage.storage();
        s.push_nested("loop", &self.loop_pred.storage());
        if self.sc_enabled {
            s.push("statistical corrector", self.sc.storage_bits());
        }
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        if self.last_loop_used {
            // A confident loop prediction overrode the TAGE side; the
            // TAGE (post-SC) prediction is the alternate.
            return Some(Provenance {
                component: "loop",
                prediction: self.last_final_pred,
                alternate: Some(self.last_tage_pred),
                ..Default::default()
            });
        }
        if self.last_final_pred != self.last_tage_pred {
            // The statistical corrector inverted TAGE's prediction.
            return Some(Provenance {
                component: "sc",
                prediction: self.last_final_pred,
                alternate: Some(self.last_tage_pred),
                counter: Some(i32::from(self.last_provider_ctr)),
                ..Default::default()
            });
        }
        self.tage
            .last_provenance()
            .or(Some(Provenance::of("tage", self.last_final_pred)))
    }

    fn introspection(&self) -> Option<&dyn bfbp_sim::obs::PredictorIntrospect> {
        // Delegate to the wrapped engine: the TAGE-side counters are
        // where the insight is; the loop/SC components are stateless by
        // comparison.
        self.tage.introspection()
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl<T: TageEngine> Restorable for Isl<T> {
    fn save_state(&self, w: &mut StateWriter) {
        // The `last_*` fields are per-prediction scratch (rewritten by
        // the next `predict` before `update` reads them); the engine,
        // loop table, and SC counters are the durable state.
        self.tage.save_state(w);
        self.loop_pred.save_state(w);
        self.sc.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.tage.load_state(r)?;
        self.loop_pred.load_state(r)?;
        self.sc.load_state(r)
    }
}

impl<T: TageEngine> TageEngine for Isl<T> {
    fn last_provider_ctr(&self) -> i8 {
        self.last_provider_ctr
    }

    fn provider_stats(&self) -> &ProviderStats {
        self.tage.provider_stats()
    }

    fn reset_provider_stats(&mut self) {
        self.tage.reset_provider_stats();
    }
}

/// Conventional ISL-TAGE: `Isl<Tage>` with `n` tagged tables.
pub type IslTage = Isl<Tage>;

/// Creates a conventional ISL-TAGE with `n` tagged tables.
///
/// # Panics
///
/// Panics if `n` is outside 4..=15.
pub fn isl_tage(n_tables: usize) -> IslTage {
    Isl::new(Tage::with_tables(n_tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_sim::simulate::simulate;
    use bfbp_trace::synth::builder::ProgramBuilder;

    #[test]
    fn loop_component_fixes_constant_trip_loops() {
        // A constant-trip loop: TAGE alone mispredicts some exits during
        // warm-up and whenever history aliasing hits; the loop predictor
        // nails the exit after a few observations.
        let mut b = ProgramBuilder::new(5);
        b.add_loop_kernel(37, 2, 1); // long trip strains plain history
        b.add_noise_run(12, (0.4, 0.6), 1); // noise disturbs global history
        let trace = b.build().emit("loops", 60_000, 3);

        let mut plain = Tage::with_tables(5);
        let mut isl = isl_tage(5);
        let rp = simulate(&mut plain, &trace);
        let ri = simulate(&mut isl, &trace);
        assert!(
            ri.mpki() <= rp.mpki() * 1.02,
            "isl {:.3} vs plain {:.3}",
            ri.mpki(),
            rp.mpki()
        );
    }

    #[test]
    fn sc_inverts_consistently_wrong_contexts() {
        let mut sc = StatisticalCorrector::new(8);
        // TAGE always predicts taken, branch always not taken.
        for _ in 0..40 {
            sc.train(0x40, true, 3, false);
        }
        assert!(!sc.correct(0x40, true, 3));
        // Different context untouched.
        assert!(sc.correct(0x44, true, 3));
    }

    #[test]
    fn sc_does_not_invert_agreeing_contexts() {
        let mut sc = StatisticalCorrector::new(8);
        for _ in 0..40 {
            sc.train(0x40, true, 3, true);
        }
        assert!(sc.correct(0x40, true, 3));
    }

    #[test]
    fn name_and_storage_include_components() {
        let isl = isl_tage(7);
        assert!(isl.name().contains("isl"));
        let storage = isl.storage();
        let labels: Vec<&str> = storage.items().iter().map(|i| i.label()).collect();
        assert!(labels.iter().any(|l| l.contains("loop")));
        assert!(labels.iter().any(|l| l.contains("statistical")));
    }

    #[test]
    fn engine_accessors_expose_stats() {
        let mut isl = isl_tage(4);
        for i in 0..100u64 {
            isl.predict(0x40 + (i % 3) * 4);
            isl.update(0x40 + (i % 3) * 4, i % 2 == 0, 0);
        }
        assert_eq!(isl.provider_stats().total(), 100);
        isl.reset_provider_stats();
        assert_eq!(isl.engine().provider_stats().total(), 0);
    }
}
