//! The Bias-Free Neural predictor (BF-Neural), §IV of the paper.
//!
//! [`BfNeural`] is the *practical implementation* of Algorithms 2 and 3:
//!
//! * a [`Classifier`] (Branch Status Table) detects non-biased branches
//!   on the fly; branches still classified as biased are predicted with
//!   their recorded direction and excluded from perceptron prediction,
//!   training, and (configurably) history;
//! * a small **conventional perceptron component** — the two-dimensional
//!   weight table `Wm` over the `ht` most recent *unfiltered* history
//!   bits — handles strongly-biased-but-detected-non-biased branches
//!   during training (§IV-B3);
//! * a **one-dimensional weight table** `Wrs` holds correlations with
//!   the non-biased branches tracked by the recency stack, indexed by a
//!   hash of (current PC, tracked branch address, its positional history,
//!   folded global history) — the §IV-B2 design that avoids re-learning
//!   when newly detected non-biased branches shift stack depths;
//! * an optional loop-count predictor covers constant-trip loops.
//!
//! The `history_mode` knob reproduces the paper's Figure 9 ablation:
//! unfiltered deep history → bias-filtered deep history → recency-stack
//! management.
//!
//! [`IdealBfNeural`] is the *idealized* Algorithm 1 formulation (a
//! two-dimensional weight table indexed by stack depth), kept for study
//! and tests.

use std::collections::VecDeque;

use bfbp_predictors::history::{mix64, RecentPath};
use bfbp_predictors::loop_pred::LoopPredictor;
use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::obs::{saturation_fraction, Metrics, PredictorIntrospect};
use bfbp_sim::predictor::{ConditionalPredictor, Provenance};
use bfbp_sim::storage::StorageBreakdown;

use crate::bst::{BranchStatus, Bst, Classifier, ProbabilisticBst};
use crate::recency::{RecencyStack, RsEntry};

const WB_CLAMP: i32 = 127; // 8-bit bias weights
const WM_CLAMP: i32 = 63; // 7-bit 2-D weights
const WRS_CLAMP: i32 = 15; // 5-bit 1-D weights

/// How the deep history component is managed (the Figure 9 ablation
/// axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Every conditional branch enters the deep history (biased branches
    /// included) — Figure 9's "BF-Neural (fhist)" bar.
    Unfiltered,
    /// Only non-biased branches enter, every occurrence — Figure 9's
    /// "ghist bias-free + fhist" bar (§III-A).
    BiasFiltered,
    /// Only non-biased branches, latest occurrence only, recency-stack
    /// managed — the full design (§III-B).
    RecencyStack,
}

/// Configuration of a [`BfNeural`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfNeuralConfig {
    /// log2 of BST entries.
    pub log_bst: u32,
    /// Use the probabilistic 3-bit BST instead of the plain 2-bit one.
    pub probabilistic_bst: bool,
    /// log2 of rows in the 2-D weight table `Wm`.
    pub log_wm_rows: u32,
    /// Number of recent unfiltered history bits (`ht`, the columns of
    /// `Wm`).
    pub recent_unfiltered: usize,
    /// log2 of entries in the 1-D weight table `Wrs`.
    pub log_wrs: u32,
    /// Deep-history entries tracked (`h - ht`; the RS depth).
    pub deep_depth: usize,
    /// Deep-history management mode.
    pub history_mode: HistoryMode,
    /// Augment weight indices with folded global history (§IV-A).
    pub folded_hist: bool,
    /// Include positional history in the `Wrs` index (§III-C).
    pub positional: bool,
    /// Attach the 64-entry loop-count predictor.
    pub loop_predictor: bool,
}

impl BfNeuralConfig {
    /// The paper's 64 KB configuration (§VI-B): BST 16384 entries, `Wm`
    /// 1024 × 16, `Wrs` 65536 entries, RS depth 48, loop predictor.
    pub fn budget_64kb() -> Self {
        Self {
            log_bst: 14,
            probabilistic_bst: false,
            log_wm_rows: 10,
            recent_unfiltered: 16,
            log_wrs: 16,
            deep_depth: 48,
            history_mode: HistoryMode::RecencyStack,
            folded_hist: true,
            positional: true,
            loop_predictor: true,
        }
    }

    /// The 32 KB configuration (§VI-B reports 2.73 MPKI).
    pub fn budget_32kb() -> Self {
        Self {
            log_bst: 13,
            log_wm_rows: 9,
            log_wrs: 15,
            deep_depth: 40,
            ..Self::budget_64kb()
        }
    }

    /// Figure 9 bar 2: BST gating + folded history, deep history left
    /// unfiltered.
    pub fn ablation_fhist() -> Self {
        Self {
            history_mode: HistoryMode::Unfiltered,
            ..Self::budget_64kb()
        }
    }

    /// Figure 9 bar 3: additionally, only non-biased branches enter the
    /// deep history.
    pub fn ablation_bias_free_ghist() -> Self {
        Self {
            history_mode: HistoryMode::BiasFiltered,
            ..Self::budget_64kb()
        }
    }

    /// Figure 9 bar 4 (the full design): recency-stack management on top.
    pub fn ablation_recency_stack() -> Self {
        Self::budget_64kb()
    }
}

impl Default for BfNeuralConfig {
    fn default() -> Self {
        Self::budget_64kb()
    }
}

/// Deep-history container for the three [`HistoryMode`]s.
#[derive(Debug, Clone)]
enum DeepHistory {
    Shift(VecDeque<RsEntry>, usize),
    Stack(RecencyStack),
}

impl DeepHistory {
    fn new(mode: HistoryMode, depth: usize) -> Self {
        match mode {
            HistoryMode::RecencyStack => DeepHistory::Stack(RecencyStack::new(depth)),
            _ => DeepHistory::Shift(VecDeque::with_capacity(depth + 1), depth),
        }
    }

    fn insert(&mut self, key: u64, outcome: bool, now: u64) {
        match self {
            DeepHistory::Shift(q, cap) => {
                q.push_front(RsEntry {
                    key,
                    outcome,
                    birth: now,
                });
                if q.len() > *cap {
                    q.pop_back();
                }
            }
            DeepHistory::Stack(rs) => {
                rs.record(key, outcome, now);
            }
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = &RsEntry> + '_> {
        match self {
            DeepHistory::Shift(q, _) => Box::new(q.iter()),
            DeepHistory::Stack(rs) => Box::new(rs.iter()),
        }
    }
}

impl Restorable for DeepHistory {
    fn save_state(&self, w: &mut StateWriter) {
        match self {
            DeepHistory::Shift(q, _) => {
                w.u8(0);
                w.usize(q.len());
                for e in q {
                    w.u64(e.key);
                    w.bool(e.outcome);
                    w.u64(e.birth);
                }
            }
            DeepHistory::Stack(rs) => {
                w.u8(1);
                rs.save_state(w);
            }
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, DeepHistory::Shift(q, cap)) => {
                let count = r.usize()?;
                if count > *cap {
                    return Err(CodecError::Malformed("deep history over capacity"));
                }
                q.clear();
                for _ in 0..count {
                    q.push_back(RsEntry {
                        key: r.u64()?,
                        outcome: r.bool()?,
                        birth: r.u64()?,
                    });
                }
                Ok(())
            }
            (1, DeepHistory::Stack(rs)) => rs.load_state(r),
            _ => Err(CodecError::Malformed("deep history mode mismatch")),
        }
    }
}

/// Per-prediction scratch carried into the update.
#[derive(Debug, Clone, Default)]
struct Scratch {
    sum: i32,
    used_perceptron: bool,
    wm_indices: Vec<usize>,
    wrs_terms: Vec<(usize, bool)>,
    /// Prediction before any loop-predictor override.
    base_pred: bool,
    final_pred: bool,
    /// Whether a confident loop prediction overrode `base_pred`.
    loop_used: bool,
}

/// The practical BF-Neural predictor (Algorithms 2 and 3).
#[derive(Debug, Clone)]
pub struct BfNeural {
    config: BfNeuralConfig,
    classifier: Classifier,
    wb: Vec<i8>,
    wm: Vec<i8>,
    wrs: Vec<i8>,
    /// The `ht` most recent unfiltered branches (outcomes, addresses,
    /// bucketed folds).
    recent: RecentPath,
    deep: DeepHistory,
    now: u64,
    theta: i32,
    threshold_ctr: i32,
    loop_pred: Option<LoopPredictor>,
    scratch: Scratch,
    name: String,
}

impl BfNeural {
    /// Creates a predictor from a configuration, with the configured
    /// dynamic BST.
    ///
    /// # Panics
    ///
    /// Panics if `recent_unfiltered` or `deep_depth` is zero.
    pub fn new(config: BfNeuralConfig) -> Self {
        let classifier = if config.probabilistic_bst {
            Classifier::Probabilistic(ProbabilisticBst::new(config.log_bst, 256))
        } else {
            Classifier::TwoBit(Bst::new(config.log_bst))
        };
        Self::with_classifier(config, classifier)
    }

    /// Creates a predictor with an explicit classifier (used by the
    /// §VI-D static-profile experiments).
    ///
    /// # Panics
    ///
    /// Panics if `recent_unfiltered` or `deep_depth` is zero.
    pub fn with_classifier(config: BfNeuralConfig, classifier: Classifier) -> Self {
        assert!(config.recent_unfiltered > 0, "ht must be non-zero");
        assert!(config.deep_depth > 0, "deep depth must be non-zero");
        let wb_len = 1usize << 10;
        Self {
            config,
            classifier,
            wb: vec![0; wb_len],
            wm: vec![0; (1 << config.log_wm_rows) * config.recent_unfiltered],
            wrs: vec![0; 1 << config.log_wrs],
            recent: RecentPath::new(config.recent_unfiltered),
            deep: DeepHistory::new(config.history_mode, config.deep_depth),
            now: 0,
            theta: 40,
            threshold_ctr: 0,
            name: {
                let mode = match config.history_mode {
                    HistoryMode::Unfiltered => "fhist",
                    HistoryMode::BiasFiltered => "ghist-bf+fhist",
                    HistoryMode::RecencyStack => "ghist-bf+rs+fhist",
                };
                format!("bf-neural({mode})")
            },
            loop_pred: config.loop_predictor.then(LoopPredictor::paper_64_entry),
            scratch: Scratch::default(),
        }
    }

    /// The 64 KB configuration.
    pub fn budget_64kb() -> Self {
        Self::new(BfNeuralConfig::budget_64kb())
    }

    /// The configuration in use.
    pub fn config(&self) -> &BfNeuralConfig {
        &self.config
    }

    /// Current adaptive training threshold.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    fn key_of(pc: u64) -> u64 {
        mix64(pc >> 2) & 0x3FFF
    }

    /// Quantizes a positional distance with geometrically coarsening
    /// granularity: exact below 64, then 8-branch buckets to 256,
    /// 32-branch buckets to 1024, 128-branch buckets beyond. Close
    /// correlations (loop iterations, Figure 4) keep full positional
    /// resolution while distant ones tolerate the few-branch length
    /// jitter of data-dependent loops — the same engineering trade-off
    /// geometric history lengths make.
    fn quantize_pos(pos: u64) -> u64 {
        match pos {
            0..=63 => pos,
            64..=255 => pos & !7,
            256..=1023 => pos & !31,
            _ => pos & !127,
        }
    }

    fn wrs_index(&self, pc: u64, entry: &RsEntry) -> usize {
        let mut key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ entry.key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        if self.config.positional {
            key ^= Self::quantize_pos(entry.position(self.now)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        if self.config.folded_hist {
            // Fold the recent path leading up to the current branch
            // (§IV-A), capped at 16 bits: enough to separate paths while
            // keeping the index stable against unrelated distant noise.
            let window = (entry.position(self.now) as usize).min(16);
            key ^= self.recent.folds().fold_for(window) << 20;
        }
        (mix64(key) & ((1 << self.config.log_wrs) - 1)) as usize
    }

    /// Computes the perceptron sum for `pc`, filling the caller-provided
    /// index buffers (cleared first). Writing into reused buffers — and
    /// matching on the deep-history variant instead of boxing an
    /// iterator — keeps the per-prediction path allocation-free.
    fn compute(
        &self,
        pc: u64,
        wm_indices: &mut Vec<usize>,
        wrs_terms: &mut Vec<(usize, bool)>,
    ) -> i32 {
        wm_indices.clear();
        wrs_terms.clear();
        let mut sum = i32::from(self.wb[((pc >> 2) & 0x3FF) as usize]);
        let ht = self.config.recent_unfiltered;
        let pc_key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let row_mask = (1u64 << self.config.log_wm_rows) - 1;
        let folded = self.config.folded_hist;
        self.recent.walk(|step| {
            let mut key = pc_key
                ^ (step.address >> 2).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ (step.age as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
            if folded {
                key ^= step.fold << 20;
            }
            let idx = (mix64(key) & row_mask) as usize * ht + step.age;
            wm_indices.push(idx);
            let w = i32::from(self.wm[idx]);
            sum += if step.taken { w } else { -w };
        });
        let add = |entry: &RsEntry, sum: &mut i32, terms: &mut Vec<(usize, bool)>| {
            let idx = self.wrs_index(pc, entry);
            let w = i32::from(self.wrs[idx]);
            // Wrs weights are narrow (5-bit); scale them up so a strong
            // deep correlation can outvote the recent component.
            *sum += if entry.outcome { w } else { -w } * 3;
            terms.push((idx, entry.outcome));
        };
        match &self.deep {
            DeepHistory::Shift(q, _) => {
                for entry in q.iter().take(self.config.deep_depth) {
                    add(entry, &mut sum, wrs_terms);
                }
            }
            DeepHistory::Stack(rs) => {
                for entry in rs.iter().take(self.config.deep_depth) {
                    add(entry, &mut sum, wrs_terms);
                }
            }
        }
        sum
    }

    fn train_weights(
        &mut self,
        pc: u64,
        taken: bool,
        wm_indices: &[usize],
        wrs_terms: &[(usize, bool)],
    ) {
        let dir = if taken { 1 } else { -1 };
        let bidx = ((pc >> 2) & 0x3FF) as usize;
        self.wb[bidx] = (i32::from(self.wb[bidx]) + dir).clamp(-WB_CLAMP, WB_CLAMP) as i8;
        let outcomes = self.recent.history().newest(wm_indices.len());
        for (&idx, bit) in wm_indices.iter().zip(outcomes) {
            let x = if bit { 1 } else { -1 };
            self.wm[idx] = (i32::from(self.wm[idx]) + dir * x).clamp(-WM_CLAMP, WM_CLAMP) as i8;
        }
        for &(idx, outcome) in wrs_terms {
            let x = if outcome { 1 } else { -1 };
            self.wrs[idx] = (i32::from(self.wrs[idx]) + dir * x).clamp(-WRS_CLAMP, WRS_CLAMP) as i8;
        }
    }

    fn adapt_threshold(&mut self, mispredicted: bool, below: bool) {
        if mispredicted {
            self.threshold_ctr += 1;
            if self.threshold_ctr >= 32 {
                self.theta += 1;
                self.threshold_ctr = 0;
            }
        } else if below {
            self.threshold_ctr -= 1;
            if self.threshold_ctr <= -32 {
                self.theta = (self.theta - 1).max(6);
                self.threshold_ctr = 0;
            }
        }
    }
}

impl ConditionalPredictor for BfNeural {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.name)
    }

    fn predict(&mut self, pc: u64) -> bool {
        let status = self.classifier.status(pc);
        // Take the scratch buffers out (a pointer move, not an
        // allocation), refill them, and put them back — their capacity is
        // recycled across the whole run.
        let mut wm_indices = std::mem::take(&mut self.scratch.wm_indices);
        let mut wrs_terms = std::mem::take(&mut self.scratch.wrs_terms);
        wm_indices.clear();
        wrs_terms.clear();
        let mut sum = 0;
        let mut used_perceptron = false;
        let pred = match status {
            BranchStatus::NotFound | BranchStatus::NotTaken => false,
            BranchStatus::Taken => true,
            BranchStatus::NonBiased => {
                sum = self.compute(pc, &mut wm_indices, &mut wrs_terms);
                used_perceptron = true;
                sum >= 0
            }
        };
        // The loop predictor overrides when confident (§IV-B2: "The loop
        // count (LC) predictor is used to predict these loops").
        let (final_pred, loop_used) = match self.loop_pred.as_ref().and_then(|lp| lp.predict(pc)) {
            Some(lp) if lp.confident => (lp.taken, true),
            _ => (pred, false),
        };
        self.scratch = Scratch {
            sum,
            used_perceptron,
            wm_indices,
            wrs_terms,
            base_pred: pred,
            final_pred,
            loop_used,
        };
        final_pred
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        let sum = self.scratch.sum;
        let used_perceptron = self.scratch.used_perceptron;
        let final_pred = self.scratch.final_pred;
        let mut wm_indices = std::mem::take(&mut self.scratch.wm_indices);
        let mut wrs_terms = std::mem::take(&mut self.scratch.wrs_terms);
        let status_before = self.classifier.status(pc);
        let status_after = self.classifier.commit(pc, taken);
        let final_mispredict = final_pred != taken;

        match status_before {
            BranchStatus::NotFound => {}
            BranchStatus::Taken | BranchStatus::NotTaken => {
                // Algorithm 3: a biased branch breaking its bias
                // transitions to NonBiased and trains the weights.
                if status_after == BranchStatus::NonBiased {
                    self.compute(pc, &mut wm_indices, &mut wrs_terms);
                    self.train_weights(pc, taken, &wm_indices, &wrs_terms);
                }
            }
            BranchStatus::NonBiased => {
                if used_perceptron {
                    let perceptron_mispredict = (sum >= 0) != taken;
                    let below = sum.abs() <= self.theta;
                    if perceptron_mispredict || below {
                        self.train_weights(pc, taken, &wm_indices, &wrs_terms);
                    }
                    self.adapt_threshold(perceptron_mispredict, below);
                }
            }
        }
        // Return the buffers for the next prediction.
        self.scratch.wm_indices = wm_indices;
        self.scratch.wrs_terms = wrs_terms;

        // Deep-history insertion per mode (Algorithm 3: "if BST ==
        // Non_biased then Update RS").
        let key = Self::key_of(pc);
        match self.config.history_mode {
            HistoryMode::Unfiltered => self.deep.insert(key, taken, self.now),
            HistoryMode::BiasFiltered | HistoryMode::RecencyStack => {
                if status_after == BranchStatus::NonBiased {
                    self.deep.insert(key, taken, self.now);
                }
            }
        }

        // Unfiltered recent component (Algorithm 3: "Update
        // GHR_unfiltered").
        self.recent.push(pc, taken);
        self.now += 1;

        if let Some(lp) = self.loop_pred.as_mut() {
            lp.update(pc, taken, final_mispredict);
        }
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push(
            format!("BST ({} entries)", 1u64 << self.config.log_bst),
            self.classifier.storage_bits(),
        );
        s.push(
            format!(
                "Wm 2-D weights ({} rows x {} cols, 7b)",
                1u64 << self.config.log_wm_rows,
                self.config.recent_unfiltered
            ),
            self.wm.len() as u64 * 7,
        );
        s.push(
            format!("Wrs 1-D weights ({} entries, 5b)", self.wrs.len()),
            self.wrs.len() as u64 * 5,
        );
        s.push(
            "Wb bias weights (1024 entries, 8b)",
            self.wb.len() as u64 * 8,
        );
        s.push(
            format!("recency stack ({} entries)", self.config.deep_depth),
            self.config.deep_depth as u64 * 16,
        );
        s.push(
            "recent unfiltered history + addresses",
            (self.config.recent_unfiltered * 15) as u64,
        );
        if let Some(lp) = &self.loop_pred {
            s.push_nested("loop", &lp.storage());
        }
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        if self.scratch.loop_used {
            return Some(Provenance {
                component: "loop",
                prediction: self.scratch.final_pred,
                alternate: Some(self.scratch.base_pred),
                ..Default::default()
            });
        }
        if self.scratch.used_perceptron {
            return Some(Provenance {
                component: "perceptron",
                prediction: self.scratch.final_pred,
                margin: Some(i64::from(self.scratch.sum)),
                history_len: Some((self.config.recent_unfiltered + self.config.deep_depth) as u32),
                ..Default::default()
            });
        }
        // Branch still classified as biased: the BST supplied its
        // recorded direction.
        Some(Provenance::of("bst", self.scratch.final_pred))
    }

    fn introspection(&self) -> Option<&dyn PredictorIntrospect> {
        Some(self)
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for BfNeural {
    fn save_state(&self, w: &mut StateWriter) {
        // `scratch` is per-prediction state fully rewritten by the next
        // `predict` before `update` reads it, so it is not serialized.
        // The loop predictor's presence is fixed by the configuration.
        self.classifier.save_state(w);
        w.i8_slice(&self.wb);
        w.i8_slice(&self.wm);
        w.i8_slice(&self.wrs);
        self.recent.save_state(w);
        self.deep.save_state(w);
        w.u64(self.now);
        w.i32(self.theta);
        w.i32(self.threshold_ctr);
        if let Some(lp) = &self.loop_pred {
            lp.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.classifier.load_state(r)?;
        r.i8_into(&mut self.wb)?;
        r.i8_into(&mut self.wm)?;
        r.i8_into(&mut self.wrs)?;
        self.recent.load_state(r)?;
        self.deep.load_state(r)?;
        self.now = r.u64()?;
        self.theta = r.i32()?;
        self.threshold_ctr = r.i32()?;
        if let Some(lp) = self.loop_pred.as_mut() {
            lp.load_state(r)?;
        }
        Ok(())
    }
}

impl PredictorIntrospect for BfNeural {
    fn introspect(&self, metrics: &mut Metrics) {
        self.classifier.introspect_into(metrics);
        metrics.gauge("theta", f64::from(self.theta));
        metrics.gauge(
            "weights.bias.saturation",
            saturation_fraction(&self.wb, WB_CLAMP),
        );
        metrics.gauge(
            "weights.wm.saturation",
            saturation_fraction(&self.wm, WM_CLAMP),
        );
        metrics.gauge(
            "weights.wrs.saturation",
            saturation_fraction(&self.wrs, WRS_CLAMP),
        );
        // Depth distribution of the deep-history entries: how far back the
        // tracked non-biased branches sit in raw-history terms.
        const DEPTH_BOUNDS: &[f64] = &[8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0];
        let mut live = 0u64;
        for entry in self.deep.iter().take(self.config.deep_depth) {
            live += 1;
            metrics.observe(
                "recency.depth",
                DEPTH_BOUNDS,
                entry.position(self.now) as f64,
            );
        }
        metrics.gauge("recency.fill", live as f64 / self.config.deep_depth as f64);
    }
}

/// The idealized BF-Neural of Algorithm 1: a two-dimensional weight
/// table whose columns are recency-stack depths, with oracle-style bias
/// classification supplied by any [`Classifier`].
///
/// Kept faithful to the paper's conceptual design: useful for studying
/// the re-learning perturbation that motivates the practical
/// one-dimensional `Wrs` (§IV-B1/2).
#[derive(Debug, Clone)]
pub struct IdealBfNeural {
    classifier: Classifier,
    wb: Vec<i8>,
    wm: Vec<i8>, // rows x depth columns
    rows_log: u32,
    depth: usize,
    stack: RecencyStack,
    now: u64,
    theta: i32,
    scratch_sum: i32,
    scratch_indices: Vec<usize>,
    scratch_used: bool,
    scratch_pred: bool,
}

impl IdealBfNeural {
    /// Creates an idealized predictor with `2^rows_log` rows, `depth`
    /// recency-stack columns, and the given classifier.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(rows_log: u32, depth: usize, classifier: Classifier) -> Self {
        assert!(depth > 0, "depth must be non-zero");
        Self {
            classifier,
            wb: vec![0; 1 << 10],
            wm: vec![0; (1usize << rows_log) * depth],
            rows_log,
            depth,
            stack: RecencyStack::new(depth),
            now: 0,
            theta: (1.93 * depth as f64 + 14.0) as i32,
            scratch_sum: 0,
            scratch_indices: Vec::new(),
            scratch_used: false,
            scratch_pred: false,
        }
    }

    fn row_index(&self, pc: u64, entry: &RsEntry) -> usize {
        let key = (pc >> 2)
            ^ entry.key.wrapping_mul(0x9E37_79B9)
            ^ entry.position(self.now).wrapping_mul(0xC2B2_AE3D);
        (mix64(key) & ((1 << self.rows_log) - 1)) as usize
    }
}

impl ConditionalPredictor for IdealBfNeural {
    fn name(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed("bf-neural-ideal")
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.scratch_pred = match self.classifier.status(pc) {
            BranchStatus::NotFound | BranchStatus::NotTaken => {
                self.scratch_used = false;
                false
            }
            BranchStatus::Taken => {
                self.scratch_used = false;
                true
            }
            BranchStatus::NonBiased => {
                let mut sum = i32::from(self.wb[((pc >> 2) & 0x3FF) as usize]);
                let mut indices = Vec::with_capacity(self.depth);
                for (col, entry) in self.stack.iter().take(self.depth).enumerate() {
                    let idx = self.row_index(pc, entry) * self.depth + col;
                    indices.push(idx);
                    let w = i32::from(self.wm[idx]);
                    sum += if entry.outcome { w } else { -w };
                }
                self.scratch_sum = sum;
                self.scratch_indices = indices;
                self.scratch_used = true;
                sum >= 0
            }
        };
        self.scratch_pred
    }

    fn update(&mut self, pc: u64, taken: bool, _target: u64) {
        let status_after = self.classifier.commit(pc, taken);
        if self.scratch_used {
            let mispredicted = (self.scratch_sum >= 0) != taken;
            if mispredicted || self.scratch_sum.abs() <= self.theta {
                let dir = if taken { 1 } else { -1 };
                let bidx = ((pc >> 2) & 0x3FF) as usize;
                self.wb[bidx] = (i32::from(self.wb[bidx]) + dir).clamp(-WB_CLAMP, WB_CLAMP) as i8;
                let outcomes: Vec<bool> = self
                    .stack
                    .iter()
                    .take(self.depth)
                    .map(|e| e.outcome)
                    .collect();
                for (idx, outcome) in self.scratch_indices.clone().into_iter().zip(outcomes) {
                    let x = if outcome { 1 } else { -1 };
                    self.wm[idx] =
                        (i32::from(self.wm[idx]) + dir * x).clamp(-WM_CLAMP, WM_CLAMP) as i8;
                }
            }
        }
        if status_after == BranchStatus::NonBiased {
            self.stack.record(BfNeural::key_of(pc), taken, self.now);
        }
        self.now += 1;
        self.scratch_used = false;
    }

    fn storage(&self) -> StorageBreakdown {
        let mut s = StorageBreakdown::new();
        s.push("BST", self.classifier.storage_bits());
        s.push("Wm 2-D weights", self.wm.len() as u64 * 7);
        s.push("Wb bias weights", self.wb.len() as u64 * 8);
        s.push("recency stack", self.stack.storage_bits());
        s
    }

    fn last_provenance(&self) -> Option<Provenance> {
        if self.scratch_used {
            return Some(Provenance {
                component: "perceptron",
                prediction: self.scratch_pred,
                margin: Some(i64::from(self.scratch_sum)),
                history_len: Some(self.depth as u32),
                ..Default::default()
            });
        }
        Some(Provenance::of("bst", self.scratch_pred))
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        Some(self)
    }
}

impl Restorable for IdealBfNeural {
    fn save_state(&self, w: &mut StateWriter) {
        // `theta` is fixed at construction (no adaptive threshold here);
        // the `scratch_*` fields are per-prediction state.
        self.classifier.save_state(w);
        w.i8_slice(&self.wb);
        w.i8_slice(&self.wm);
        self.stack.save_state(w);
        w.u64(self.now);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.classifier.load_state(r)?;
        r.i8_into(&mut self.wb)?;
        r.i8_into(&mut self.wm)?;
        self.stack.load_state(r)?;
        self.now = r.u64()?;
        // A restore drops any in-flight prediction scratch.
        self.scratch_used = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_sim::simulate::simulate;
    use bfbp_trace::rng::Xoshiro256;
    use bfbp_trace::synth::builder::{Filler, ProgramBuilder};

    fn small(mode: HistoryMode) -> BfNeural {
        BfNeural::new(BfNeuralConfig {
            log_bst: 12,
            probabilistic_bst: false,
            log_wm_rows: 9,
            recent_unfiltered: 8,
            log_wrs: 13,
            deep_depth: 16,
            history_mode: mode,
            folded_hist: true,
            positional: true,
            loop_predictor: false,
        })
    }

    #[test]
    fn biased_branches_predicted_by_bst() {
        let mut p = small(HistoryMode::RecencyStack);
        // First sight mispredicts (NotFound), after that the BST nails it.
        let mut misses = 0;
        for i in 0..100 {
            let guess = p.predict(0x40);
            if !guess {
                misses += 1;
            }
            p.update(0x40, true, 0);
            let _ = i;
        }
        assert_eq!(misses, 1, "only the first NotFound encounter misses");
    }

    #[test]
    fn deep_correlation_reachable_only_with_filtering() {
        // Source at dynamic distance ~120 behind distinct biased filler;
        // deep component holds 16 entries. Bias filtering erases the
        // filler, so the source stays within reach; unfiltered mode
        // cannot see it.
        let mut b = ProgramBuilder::new(7);
        b.add_deep_block(120, Filler::DistinctBiased, 6, 0.0, 0, 40, 1);
        let trace = b.build().emit("deep", 40_000, 3);

        let mut unf = small(HistoryMode::Unfiltered);
        let mut filt = small(HistoryMode::BiasFiltered);
        let r_unf = simulate(&mut unf, &trace);
        let r_filt = simulate(&mut filt, &trace);
        assert!(
            r_filt.mpki() < r_unf.mpki() * 0.75,
            "filtered {:.3} vs unfiltered {:.3}",
            r_filt.mpki(),
            r_unf.mpki()
        );
    }

    #[test]
    fn recency_stack_reaches_through_loop_filler() {
        // Loop filler floods a plain bias-filtered history with non-biased
        // instances; only the recency stack collapses them (§III-B).
        let mut b = ProgramBuilder::new(9);
        b.add_deep_block(300, Filler::DeterministicLoop, 6, 0.0, 0, 80, 1);
        let trace = b.build().emit("deep-loop", 60_000, 3);

        let mut filt = small(HistoryMode::BiasFiltered);
        let mut rs = small(HistoryMode::RecencyStack);
        let r_filt = simulate(&mut filt, &trace);
        let r_rs = simulate(&mut rs, &trace);
        assert!(
            r_rs.mpki() < r_filt.mpki() * 0.8,
            "rs {:.3} vs filtered {:.3}",
            r_rs.mpki(),
            r_filt.mpki()
        );
    }

    #[test]
    fn positional_history_separates_loop_iterations() {
        // Figure 4's pattern: the probe is taken only at one hot
        // iteration and only when the guard was taken. Without positional
        // history every iteration sees the same filtered history.
        let mut b = ProgramBuilder::new(3);
        b.add_positional_loop(10, 1);
        let trace = b.build().emit("positional", 60_000, 5);

        let mut with_pos = small(HistoryMode::RecencyStack);
        let mut without = BfNeural::new(BfNeuralConfig {
            positional: false,
            ..*small(HistoryMode::RecencyStack).config()
        });
        let r_with = simulate(&mut with_pos, &trace);
        let r_without = simulate(&mut without, &trace);
        assert!(
            r_with.mpki() < r_without.mpki() * 0.85,
            "with pos {:.3} vs without {:.3}",
            r_with.mpki(),
            r_without.mpki()
        );
    }

    #[test]
    fn near_correlations_learned_via_unfiltered_component() {
        let mut p = small(HistoryMode::RecencyStack);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..20_000 {
            let a = rng.chance(0.5);
            p.predict(0x100);
            p.update(0x100, a, 0);
            let guess = p.predict(0x200);
            p.update(0x200, a, 0);
            if i > 10_000 {
                total += 1;
                if guess == a {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.93, "near correlation accuracy {acc}");
    }

    #[test]
    fn loop_predictor_component_activates() {
        let mut b = ProgramBuilder::new(5);
        b.add_loop_kernel(33, 2, 1);
        b.add_noise_run(10, (0.45, 0.55), 1);
        let trace = b.build().emit("loops", 50_000, 3);
        let mut with_loop = BfNeural::new(BfNeuralConfig {
            loop_predictor: true,
            ..*small(HistoryMode::RecencyStack).config()
        });
        let mut without = small(HistoryMode::RecencyStack);
        let r_with = simulate(&mut with_loop, &trace);
        let r_without = simulate(&mut without, &trace);
        assert!(
            r_with.mpki() <= r_without.mpki() * 1.02,
            "loop {:.3} vs none {:.3}",
            r_with.mpki(),
            r_without.mpki()
        );
    }

    #[test]
    fn storage_64kb_budget() {
        let p = BfNeural::budget_64kb();
        let kib = p.storage().total_kib();
        assert!((55.0..68.0).contains(&kib), "{kib} KiB");
        let p32 = BfNeural::new(BfNeuralConfig::budget_32kb());
        let kib32 = p32.storage().total_kib();
        assert!((25.0..36.0).contains(&kib32), "{kib32} KiB");
    }

    #[test]
    fn ablation_configs_differ_only_in_mode() {
        let a = BfNeuralConfig::ablation_fhist();
        let b = BfNeuralConfig::ablation_bias_free_ghist();
        let c = BfNeuralConfig::ablation_recency_stack();
        assert_eq!(a.history_mode, HistoryMode::Unfiltered);
        assert_eq!(b.history_mode, HistoryMode::BiasFiltered);
        assert_eq!(c.history_mode, HistoryMode::RecencyStack);
        assert_eq!(a.log_wrs, c.log_wrs);
        assert_eq!(b.deep_depth, c.deep_depth);
    }

    #[test]
    fn names_match_figure_9_labels() {
        assert_eq!(
            BfNeural::new(BfNeuralConfig::ablation_fhist()).name(),
            "bf-neural(fhist)"
        );
        assert_eq!(
            BfNeural::new(BfNeuralConfig::ablation_bias_free_ghist()).name(),
            "bf-neural(ghist-bf+fhist)"
        );
        assert_eq!(
            BfNeural::budget_64kb().name(),
            "bf-neural(ghist-bf+rs+fhist)"
        );
    }

    #[test]
    fn ideal_predictor_learns_basic_correlation() {
        let mut p = IdealBfNeural::new(10, 16, Classifier::TwoBit(Bst::new(12)));
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..20_000 {
            let a = rng.chance(0.5);
            p.predict(0x100);
            p.update(0x100, a, 0);
            let guess = p.predict(0x200);
            p.update(0x200, a, 0);
            if i > 10_000 {
                total += 1;
                if guess == a {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "ideal accuracy {acc}");
    }

    #[test]
    fn theta_adapts() {
        let mut p = small(HistoryMode::RecencyStack);
        let before = p.theta();
        let mut rng = Xoshiro256::seed_from_u64(3);
        // Noise forces mispredictions → theta drifts upward.
        for k in 0..4000u64 {
            let t = rng.chance(0.5);
            let pc = 0x40 + (k % 4) * 8;
            p.predict(pc);
            p.update(pc, t, 0);
        }
        assert!(p.theta() >= before);
    }
}
