//! The predictor interface, mirroring the CBP-4 simulation contract.
//!
//! A conditional-branch predictor sees three events, in commit order:
//!
//! 1. [`ConditionalPredictor::predict`] — asked for a direction guess for
//!    a conditional branch about to be counted;
//! 2. [`ConditionalPredictor::update`] — told the resolved direction of
//!    that same branch immediately afterwards (trace-driven simulation
//!    commits in order, so there is no in-flight window);
//! 3. [`ConditionalPredictor::track_other`] — notified of non-conditional
//!    control transfers (calls, returns, jumps) so it can fold them into
//!    path history, exactly as CBP's `TrackOtherInst` does.

use std::borrow::Cow;

use bfbp_trace::record::BranchRecord;
use bfbp_trace::source::TraceChunk;

use crate::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use crate::obs::PredictorIntrospect;
use crate::storage::StorageBreakdown;

/// Where a prediction came from: the forensic record a predictor can
/// expose for its most recent [`ConditionalPredictor::predict`] call.
///
/// Every field beyond `component` and `prediction` is optional because
/// the vocabulary differs per predictor family: TAGE variants report the
/// providing table, its counter, and the history length it indexes;
/// neural predictors report the perceptron margin; table predictors
/// report the counter alone. Absent fields render as `null` in
/// postmortem dumps rather than fabricated zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// The component that provided the final direction (`"tage"`,
    /// `"base"`, `"loop"`, `"sc"`, `"perceptron"`, `"bst"`, `"pht"`,
    /// `"bimodal"`, `"static"`, …).
    pub component: &'static str,
    /// The providing tagged table, 1-based, when the component is a
    /// multi-table predictor (`None` for the base predictor).
    pub table: Option<u32>,
    /// The direction the predictor returned.
    pub prediction: bool,
    /// The alternate prediction that lost (TAGE altpred, the raw TAGE
    /// direction under an SC/loop override).
    pub alternate: Option<bool>,
    /// The provider's saturating counter value, when counter-based.
    pub counter: Option<i32>,
    /// The perceptron dot-product margin, when margin-based.
    pub margin: Option<i64>,
    /// The history length (in branches) the provider indexed with.
    pub history_len: Option<u32>,
}

impl Provenance {
    /// A minimal provenance: a component and its direction, everything
    /// else absent.
    pub fn of(component: &'static str, prediction: bool) -> Self {
        Self {
            component,
            prediction,
            ..Self::default()
        }
    }
}

/// The consolidated capability descriptor for a predictor: one value
/// answering every "does this predictor support X?" question the rest
/// of the system asks.
///
/// PRs 3–8 accreted four optional surfaces onto [`ConditionalPredictor`]
/// (`introspection`, `checkpointing`, `last_provenance`, `prefers_batch`),
/// and call sites probed them ad hoc (`prefers_batch()`,
/// `checkpointing().is_some()`, …). `PredictorCaps` replaces those
/// probes: the checkpoint engine, the registry listing, and the serve
/// HELLO handshake all consult [`ConditionalPredictor::capabilities`]
/// instead, and the individual hooks remain only as the *access paths*
/// for each capability.
///
/// The descriptor is plain data so it can cross the wire: [`bits`] packs
/// it into one byte for the `bfbp-wire/1` HELLO/OPEN_ACK frames and
/// [`from_bits`] rejects unknown bits, keeping the encoding forward-safe.
///
/// [`bits`]: PredictorCaps::bits
/// [`from_bits`]: PredictorCaps::from_bits
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictorCaps {
    /// [`ConditionalPredictor::prefers_batch`]. Every registry predictor
    /// sets it, and nothing picks a drive from it: the simulation and
    /// serving loops drive every predictor through the batch calls. The
    /// bit stays because the `bfbp-wire/1` caps byte carries it.
    pub batch_preferred: bool,
    /// [`ConditionalPredictor::checkpointing`] returns a live
    /// [`Restorable`]: mid-job snapshots and serve session persistence
    /// are available.
    pub checkpointable: bool,
    /// [`ConditionalPredictor::introspection`] exports internal
    /// counters.
    pub introspectable: bool,
    /// [`ConditionalPredictor::last_provenance`] attributes decisions,
    /// so flight-recorder entries carry non-null provenance.
    pub provenance: bool,
}

impl PredictorCaps {
    /// Bit assigned to `batch_preferred` in the wire encoding.
    pub const BATCH_PREFERRED: u8 = 1 << 0;
    /// Bit assigned to `checkpointable` in the wire encoding.
    pub const CHECKPOINTABLE: u8 = 1 << 1;
    /// Bit assigned to `introspectable` in the wire encoding.
    pub const INTROSPECTABLE: u8 = 1 << 2;
    /// Bit assigned to `provenance` in the wire encoding.
    pub const PROVENANCE: u8 = 1 << 3;

    /// Packs the descriptor into one byte (for `bfbp-wire/1` frames).
    pub fn bits(self) -> u8 {
        let mut bits = 0;
        if self.batch_preferred {
            bits |= Self::BATCH_PREFERRED;
        }
        if self.checkpointable {
            bits |= Self::CHECKPOINTABLE;
        }
        if self.introspectable {
            bits |= Self::INTROSPECTABLE;
        }
        if self.provenance {
            bits |= Self::PROVENANCE;
        }
        bits
    }

    /// Unpacks a wire byte; `None` when unknown bits are set (a peer
    /// speaking a newer protocol revision than we understand).
    pub fn from_bits(bits: u8) -> Option<Self> {
        const KNOWN: u8 = PredictorCaps::BATCH_PREFERRED
            | PredictorCaps::CHECKPOINTABLE
            | PredictorCaps::INTROSPECTABLE
            | PredictorCaps::PROVENANCE;
        if bits & !KNOWN != 0 {
            return None;
        }
        Some(Self {
            batch_preferred: bits & Self::BATCH_PREFERRED != 0,
            checkpointable: bits & Self::CHECKPOINTABLE != 0,
            introspectable: bits & Self::INTROSPECTABLE != 0,
            provenance: bits & Self::PROVENANCE != 0,
        })
    }

    /// Four-character flag string for table listings: `BCIP` with `-`
    /// for each absent capability (`B`atch, `C`heckpoint, `I`ntrospect,
    /// `P`rovenance), e.g. `BCIP` for bimodal.
    pub fn flags(self) -> String {
        let mut s = String::with_capacity(4);
        s.push(if self.batch_preferred { 'B' } else { '-' });
        s.push(if self.checkpointable { 'C' } else { '-' });
        s.push(if self.introspectable { 'I' } else { '-' });
        s.push(if self.provenance { 'P' } else { '-' });
        s
    }
}

/// A direction predictor for conditional branches.
///
/// The simulator guarantees that every `predict(pc)` is immediately
/// followed by `update(pc, taken, target)` for the same dynamic branch.
/// Implementations may therefore carry per-prediction scratch state
/// between the two calls.
///
/// `Send` is a supertrait: the serving layer hands live predictors
/// between connection-handler threads (each session is a
/// mutex-guarded predictor), and every implementation is plain owned
/// data, so the bound costs nothing.
pub trait ConditionalPredictor: Send {
    /// A short, stable, human-readable name (used in result tables).
    ///
    /// Returning `Cow` lets static configurations hand back a `&'static
    /// str` and parameterized ones a reference to a name cached at
    /// construction, so the hot simulation path never allocates here.
    fn name(&self) -> Cow<'_, str>;

    /// Predicts the direction of the conditional branch at `pc`:
    /// `true` = taken.
    fn predict(&mut self, pc: u64) -> bool;

    /// Informs the predictor of the resolved direction (and taken target)
    /// of the conditional branch at `pc`, immediately after `predict`.
    fn update(&mut self, pc: u64, taken: bool, target: u64);

    /// Notifies the predictor of a committed non-conditional control
    /// transfer. Default: ignored.
    fn track_other(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// Predicts *and trains on* a run of consecutive conditional
    /// branches, writing the per-record misprediction flag into `miss`.
    ///
    /// Prediction `i + 1` observes the committed outcome of prediction
    /// `i` (trace-driven simulation updates immediately), so a batch
    /// entry point cannot separate the predict pass from the update
    /// pass: this method is the *fused* kernel. It must behave exactly
    /// as the default implementation — `predict(pc)` followed by
    /// `update(pc, taken, target)` per record, in order — and exists so
    /// implementations can amortize virtual dispatch and reuse scratch
    /// state across the run. The simulation hot loop calls this once per
    /// run of conditional records inside a [`TraceChunk`].
    ///
    /// All four slices cover the same records; `miss[i]` must be set to
    /// `predicted != takens[i]` for every `i`.
    ///
    /// # Panics
    ///
    /// May panic if the slice lengths differ.
    fn predict_batch(&mut self, pcs: &[u64], targets: &[u64], takens: &[bool], miss: &mut [bool]) {
        for i in 0..pcs.len() {
            let guess = self.predict(pcs[i]);
            miss[i] = guess != takens[i];
            self.update(pcs[i], takens[i], targets[i]);
        }
    }

    /// Notifies the predictor of a run `start..end` of consecutive
    /// non-conditional records inside `chunk` — the batched counterpart
    /// of [`ConditionalPredictor::track_other`]. Must behave exactly as
    /// the default implementation: one `track_other` per record, in
    /// order.
    fn update_batch(&mut self, chunk: &TraceChunk, start: usize, end: usize) {
        for i in start..end {
            self.track_other(&chunk.record(i));
        }
    }

    /// Reports the hardware storage this configuration requires.
    fn storage(&self) -> StorageBreakdown;

    /// The predictor's introspection surface, if it exports one.
    ///
    /// Default: `None` — predictors without internal counters opt out
    /// and cost nothing. Implementations typically implement
    /// [`PredictorIntrospect`] and return `Some(self)`.
    fn introspection(&self) -> Option<&dyn PredictorIntrospect> {
        None
    }

    /// Forensic attribution for the *most recent* [`predict`] call:
    /// which component provided the direction, at what confidence, and
    /// over what history.
    ///
    /// Only valid between a `predict` and the matching `update`; the
    /// flight recorder samples it exactly there. Default: `None` —
    /// predictors without attribution opt out and recorded entries carry
    /// a `null` provenance.
    ///
    /// [`predict`]: ConditionalPredictor::predict
    fn last_provenance(&self) -> Option<Provenance> {
        None
    }

    /// Whether this predictor prefers the batch calls
    /// ([`predict_batch`], [`update_batch`]) to per-record ones.
    ///
    /// Default: `true`, and no registry predictor overrides it. The
    /// simulation and serving loops drive every predictor through the
    /// batch calls and never ask; the hook survives as the source of
    /// [`PredictorCaps::batch_preferred`], which the wire carries.
    ///
    /// [`predict_batch`]: ConditionalPredictor::predict_batch
    /// [`update_batch`]: ConditionalPredictor::update_batch
    fn prefers_batch(&self) -> bool {
        true
    }

    /// The predictor's snapshot/restore surface, if it supports
    /// mid-job checkpointing.
    ///
    /// Default: `None` — a predictor without the capability simply
    /// cannot be checkpointed, and jobs running it fall back to
    /// whole-job granularity. Implementations typically implement
    /// [`Restorable`] and return `Some(self)`; the single `&mut`
    /// accessor serves both saving (which only reads) and restoring.
    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        None
    }

    /// The consolidated capability descriptor: every optional surface
    /// of this predictor, answered in one probe.
    ///
    /// The default derives each flag from the corresponding hook —
    /// [`prefers_batch`], [`checkpointing`], [`introspection`],
    /// [`last_provenance`] — so implementations opt into capabilities
    /// exactly where they implement them and never answer the question
    /// twice. (Provenance implementations report their scratch state
    /// unconditionally, including before the first `predict`, so
    /// probing at construction is sound.)
    ///
    /// All capability *checks* outside this module go through this
    /// method; the individual hooks remain only as the access paths for
    /// capabilities the descriptor says are present.
    ///
    /// Takes `&mut self` because [`checkpointing`] — the single
    /// save/restore accessor — does.
    ///
    /// [`prefers_batch`]: ConditionalPredictor::prefers_batch
    /// [`checkpointing`]: ConditionalPredictor::checkpointing
    /// [`introspection`]: ConditionalPredictor::introspection
    /// [`last_provenance`]: ConditionalPredictor::last_provenance
    fn capabilities(&mut self) -> PredictorCaps {
        PredictorCaps {
            batch_preferred: self.prefers_batch(),
            checkpointable: self.checkpointing().is_some(),
            introspectable: self.introspection().is_some(),
            provenance: self.last_provenance().is_some(),
        }
    }
}

/// A trivially simple predictor: always predicts the same direction.
/// Useful as a baseline floor and in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPredictor {
    taken: bool,
}

impl StaticPredictor {
    /// Creates a predictor that always predicts `taken`.
    pub fn new(taken: bool) -> Self {
        Self { taken }
    }

    /// Always-taken predictor.
    pub fn always_taken() -> Self {
        Self::new(true)
    }

    /// Always-not-taken predictor.
    pub fn always_not_taken() -> Self {
        Self::new(false)
    }
}

impl ConditionalPredictor for StaticPredictor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(if self.taken {
            "static-taken"
        } else {
            "static-not-taken"
        })
    }

    fn predict(&mut self, _pc: u64) -> bool {
        self.taken
    }

    fn update(&mut self, _pc: u64, _taken: bool, _target: u64) {}

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown::new()
    }

    fn last_provenance(&self) -> Option<Provenance> {
        Some(Provenance::of("static", self.taken))
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for StaticPredictor {
    fn save_state(&self, w: &mut StateWriter) {
        // The direction is configuration, not mutable state, but writing
        // it lets `load_state` verify the checkpoint matches the build.
        w.bool(self.taken);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        if r.bool()? != self.taken {
            return Err(CodecError::Malformed("static direction mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_predictor_is_constant() {
        let mut p = StaticPredictor::always_taken();
        assert!(p.predict(0x10));
        p.update(0x10, false, 0x20);
        assert!(p.predict(0x10));
        assert_eq!(p.name(), "static-taken");

        let mut n = StaticPredictor::always_not_taken();
        assert!(!n.predict(0x10));
        assert_eq!(n.name(), "static-not-taken");
    }

    #[test]
    fn static_predictor_has_no_storage() {
        assert_eq!(StaticPredictor::always_taken().storage().total_bits(), 0);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn ConditionalPredictor> = Box::new(StaticPredictor::always_taken());
        assert!(boxed.predict(0));
        assert_eq!(
            boxed.last_provenance(),
            Some(Provenance::of("static", true))
        );
        assert!(boxed.prefers_batch());
    }

    #[test]
    fn capabilities_derive_from_hooks() {
        let mut s = StaticPredictor::always_taken();
        let caps = s.capabilities();
        assert!(caps.batch_preferred);
        assert!(caps.checkpointable);
        assert!(!caps.introspectable);
        assert!(caps.provenance);
        assert_eq!(caps.flags(), "BC-P");
    }

    #[test]
    fn caps_bits_round_trip() {
        for bits in 0..16u8 {
            let caps = PredictorCaps::from_bits(bits).expect("known bits");
            assert_eq!(caps.bits(), bits);
        }
        assert_eq!(PredictorCaps::from_bits(0x10), None);
        assert_eq!(PredictorCaps::from_bits(0xff), None);
        assert_eq!(PredictorCaps::default().flags(), "----");
        let all = PredictorCaps::from_bits(0x0f).unwrap();
        assert_eq!(all.flags(), "BCIP");
    }

    #[test]
    fn provenance_defaults_are_absent() {
        let p = Provenance::of("unit", true);
        assert_eq!(p.component, "unit");
        assert!(p.prediction);
        assert_eq!(p.table, None);
        assert_eq!(p.alternate, None);
        assert_eq!(p.counter, None);
        assert_eq!(p.margin, None);
        assert_eq!(p.history_len, None);
    }
}
