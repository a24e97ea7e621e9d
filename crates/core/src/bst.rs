//! Branch Status Table (BST): runtime detection of non-biased branches.
//!
//! §IV-B1 of the paper: a direct-mapped table of small counters drives
//! the four-state FSM of Figure 5 — `NotFound → Taken/NotTaken →
//! NonBiased` — identifying, on the fly, the branches whose history is
//! worth learning from. Two implementations are provided:
//!
//! * [`Bst`] — the paper's feasibility-study design: plain 2-bit state
//!   per entry, `NonBiased` absorbing;
//! * [`ProbabilisticBst`] — the 3-bit probabilistic-counter variant the
//!   paper advocates for production (after Riley & Zilles), which can
//!   *revert* from `NonBiased` back to a biased state as the application
//!   changes phase.
//!
//! Both are direct-mapped and therefore subject to aliasing — the very
//! effect that hurts the paper's SERVER traces (§VI-D), reproduced here
//! by construction.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use bfbp_sim::obs::Metrics;
use bfbp_trace::rng::Xoshiro256;

/// The detection FSM state of one branch (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchStatus {
    /// Never seen.
    NotFound,
    /// Seen, always resolved taken so far.
    Taken,
    /// Seen, always resolved not-taken so far.
    NotTaken,
    /// Observed in both directions: participates in prediction and
    /// history.
    NonBiased,
}

/// The plain 2-bit-per-entry BST of the paper's feasibility study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bst {
    entries: Vec<u8>,
    mask: u64,
    commits: u64,
    known_commits: u64,
}

const S_NOT_FOUND: u8 = 0;
const S_TAKEN: u8 = 1;
const S_NOT_TAKEN: u8 = 2;
const S_NON_BIASED: u8 = 3;

fn decode(state: u8) -> BranchStatus {
    match state {
        S_NOT_FOUND => BranchStatus::NotFound,
        S_TAKEN => BranchStatus::Taken,
        S_NOT_TAKEN => BranchStatus::NotTaken,
        _ => BranchStatus::NonBiased,
    }
}

impl Bst {
    /// Creates a BST with `2^log_size` 2-bit entries.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is 0 or greater than 26.
    pub fn new(log_size: u32) -> Self {
        assert!((1..=26).contains(&log_size), "log_size must be 1..=26");
        Self {
            entries: vec![S_NOT_FOUND; 1 << log_size],
            mask: (1u64 << log_size) - 1,
            commits: 0,
            known_commits: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Current status of the branch at `pc`.
    pub fn status(&self, pc: u64) -> BranchStatus {
        decode(self.entries[self.index(pc)])
    }

    /// Applies the Figure 5 FSM for a committed outcome; returns the new
    /// status.
    pub fn commit(&mut self, pc: u64, taken: bool) -> BranchStatus {
        let idx = self.index(pc);
        self.commits += 1;
        if self.entries[idx] != S_NOT_FOUND {
            self.known_commits += 1;
        }
        let next = match (self.entries[idx], taken) {
            (S_NOT_FOUND, true) => S_TAKEN,
            (S_NOT_FOUND, false) => S_NOT_TAKEN,
            (S_TAKEN, true) => S_TAKEN,
            (S_TAKEN, false) => S_NON_BIASED,
            (S_NOT_TAKEN, false) => S_NOT_TAKEN,
            (S_NOT_TAKEN, true) => S_NON_BIASED,
            _ => S_NON_BIASED,
        };
        self.entries[idx] = next;
        decode(next)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false` (non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Storage in bits (2 per entry).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 2
    }

    /// Total outcomes committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Commits whose entry was already populated (prior state not
    /// `NotFound`) — the BST "hit" count.
    pub fn known_commits(&self) -> u64 {
        self.known_commits
    }

    /// Entry counts by state: `[NotFound, Taken, NotTaken, NonBiased]`.
    pub fn state_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for &e in &self.entries {
            counts[e.min(S_NON_BIASED) as usize] += 1;
        }
        counts
    }
}

impl Restorable for Bst {
    fn save_state(&self, w: &mut StateWriter) {
        w.bytes(&self.entries);
        w.u64(self.commits);
        w.u64(self.known_commits);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let entries = r.bytes()?;
        if entries.len() != self.entries.len() {
            return Err(CodecError::Malformed("bst size mismatch"));
        }
        self.entries.copy_from_slice(entries);
        self.commits = r.u64()?;
        self.known_commits = r.u64()?;
        Ok(())
    }
}

/// The 3-bit probabilistic BST variant (§IV-B1, "Probabilistic
/// Counters").
///
/// States: `NotFound`; `Taken`/`NotTaken` with confidence 1–3;
/// `NonBiased`. A contradicting outcome always demotes to `NonBiased`.
/// Confirming outcomes *probabilistically* raise confidence, and while
/// `NonBiased` a small probability per commit reverts the entry to the
/// weakly biased state matching the current outcome — letting the
/// classifier follow phase changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbabilisticBst {
    entries: Vec<u8>,
    mask: u64,
    rng: Xoshiro256,
    revert_inverse: u64,
    commits: u64,
    known_commits: u64,
}

const P_NOT_FOUND: u8 = 0;
// 1..=3: taken with confidence 1..=3; 4..=6: not-taken with confidence
// 1..=3; 7: non-biased.
const P_NON_BIASED: u8 = 7;

impl ProbabilisticBst {
    /// Creates a probabilistic BST with `2^log_size` 3-bit entries and a
    /// 1-in-`revert_inverse` chance per commit of reverting a
    /// `NonBiased` entry to a weak biased state.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is 0 or greater than 26, or `revert_inverse`
    /// is 0.
    pub fn new(log_size: u32, revert_inverse: u64) -> Self {
        assert!((1..=26).contains(&log_size), "log_size must be 1..=26");
        assert!(revert_inverse > 0, "revert_inverse must be non-zero");
        Self {
            entries: vec![P_NOT_FOUND; 1 << log_size],
            mask: (1u64 << log_size) - 1,
            rng: Xoshiro256::seed_from_u64(0xB57_CAFE),
            revert_inverse,
            commits: 0,
            known_commits: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    fn decode(state: u8) -> BranchStatus {
        match state {
            P_NOT_FOUND => BranchStatus::NotFound,
            1..=3 => BranchStatus::Taken,
            4..=6 => BranchStatus::NotTaken,
            _ => BranchStatus::NonBiased,
        }
    }

    /// Current status of the branch at `pc`.
    pub fn status(&self, pc: u64) -> BranchStatus {
        Self::decode(self.entries[self.index(pc)])
    }

    /// Applies the probabilistic FSM; returns the new status.
    pub fn commit(&mut self, pc: u64, taken: bool) -> BranchStatus {
        let idx = self.index(pc);
        let state = self.entries[idx];
        self.commits += 1;
        if state != P_NOT_FOUND {
            self.known_commits += 1;
        }
        let next = match state {
            P_NOT_FOUND => {
                if taken {
                    1
                } else {
                    4
                }
            }
            1..=3 => {
                if taken {
                    // Probabilistic confidence increase: the higher the
                    // confidence, the rarer the increment.
                    let conf = state;
                    if conf < 3 && self.rng.below(1 << conf) == 0 {
                        conf + 1
                    } else {
                        conf
                    }
                } else {
                    P_NON_BIASED
                }
            }
            4..=6 => {
                if !taken {
                    let conf = state - 3;
                    if conf < 3 && self.rng.below(1 << conf) == 0 {
                        state + 1
                    } else {
                        state
                    }
                } else {
                    P_NON_BIASED
                }
            }
            _ => {
                // NonBiased: occasionally revert toward the observed
                // direction to track phase changes.
                if self.rng.below(self.revert_inverse) == 0 {
                    if taken {
                        1
                    } else {
                        4
                    }
                } else {
                    P_NON_BIASED
                }
            }
        };
        self.entries[idx] = next;
        Self::decode(next)
    }

    /// Storage in bits (3 per entry).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 3
    }

    /// Total outcomes committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Commits whose entry was already populated (prior state not
    /// `NotFound`) — the BST "hit" count.
    pub fn known_commits(&self) -> u64 {
        self.known_commits
    }

    /// Entry counts by state: `[NotFound, Taken, NotTaken, NonBiased]`.
    pub fn state_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for &e in &self.entries {
            let bucket = match Self::decode(e) {
                BranchStatus::NotFound => 0,
                BranchStatus::Taken => 1,
                BranchStatus::NotTaken => 2,
                BranchStatus::NonBiased => 3,
            };
            counts[bucket] += 1;
        }
        counts
    }
}

impl Restorable for ProbabilisticBst {
    fn save_state(&self, w: &mut StateWriter) {
        // The RNG stream participates in the FSM (confidence raises and
        // reverts), so it must resume exactly where it left off.
        w.bytes(&self.entries);
        for word in self.rng.state() {
            w.u64(word);
        }
        w.u64(self.commits);
        w.u64(self.known_commits);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let entries = r.bytes()?;
        if entries.len() != self.entries.len() {
            return Err(CodecError::Malformed("probabilistic bst size mismatch"));
        }
        self.entries.copy_from_slice(entries);
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        self.rng.set_state(state);
        self.commits = r.u64()?;
        self.known_commits = r.u64()?;
        Ok(())
    }
}

/// Runtime-selectable bias classifier used by the BF predictors: the
/// plain 2-bit BST, the probabilistic 3-bit BST, or a static profile
/// (§VI-D's "static profile-assisted classification", see
/// [`crate::profile::StaticProfile`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Classifier {
    /// Plain 2-bit BST.
    TwoBit(Bst),
    /// Probabilistic 3-bit BST.
    Probabilistic(ProbabilisticBst),
    /// Profile-assisted static classification.
    Static(crate::profile::StaticProfile),
}

impl Classifier {
    /// Current status of the branch at `pc`.
    pub fn status(&self, pc: u64) -> BranchStatus {
        match self {
            Classifier::TwoBit(b) => b.status(pc),
            Classifier::Probabilistic(b) => b.status(pc),
            Classifier::Static(p) => p.status(pc),
        }
    }

    /// Commits an outcome; returns the new status.
    pub fn commit(&mut self, pc: u64, taken: bool) -> BranchStatus {
        match self {
            Classifier::TwoBit(b) => b.commit(pc, taken),
            Classifier::Probabilistic(b) => b.commit(pc, taken),
            Classifier::Static(p) => p.commit(pc, taken),
        }
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        match self {
            Classifier::TwoBit(b) => b.storage_bits(),
            Classifier::Probabilistic(b) => b.storage_bits(),
            Classifier::Static(p) => p.storage_bits(),
        }
    }

    /// Exports classifier counters into `metrics` under the `bst.*`
    /// prefix: commit/hit counts, per-state entry counts, occupancy, and
    /// the fraction of entries classified non-biased. The static-profile
    /// variant has no dynamic table and exports nothing.
    pub fn introspect_into(&self, metrics: &mut Metrics) {
        let (commits, known, counts) = match self {
            Classifier::TwoBit(b) => (b.commits(), b.known_commits(), b.state_counts()),
            Classifier::Probabilistic(b) => (b.commits(), b.known_commits(), b.state_counts()),
            Classifier::Static(_) => return,
        };
        metrics.counter("bst.commits", commits);
        metrics.counter("bst.known_commits", known);
        metrics.counter("bst.state.not_found", counts[0]);
        metrics.counter("bst.state.taken", counts[1]);
        metrics.counter("bst.state.not_taken", counts[2]);
        metrics.counter("bst.state.non_biased", counts[3]);
        let entries: u64 = counts.iter().sum();
        if entries > 0 {
            metrics.gauge(
                "bst.occupancy",
                (entries - counts[0]) as f64 / entries as f64,
            );
            metrics.gauge("bst.non_biased_fraction", counts[3] as f64 / entries as f64);
        }
        if commits > 0 {
            metrics.gauge("bst.hit_rate", known as f64 / commits as f64);
        }
    }
}

impl Restorable for Classifier {
    fn save_state(&self, w: &mut StateWriter) {
        // The variant is configuration; a one-byte discriminant guards
        // against restoring into a differently configured classifier.
        match self {
            Classifier::TwoBit(b) => {
                w.u8(0);
                b.save_state(w);
            }
            Classifier::Probabilistic(b) => {
                w.u8(1);
                b.save_state(w);
            }
            Classifier::Static(p) => {
                w.u8(2);
                p.save_state(w);
            }
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, Classifier::TwoBit(b)) => b.load_state(r),
            (1, Classifier::Probabilistic(b)) => b.load_state(r),
            (2, Classifier::Static(p)) => p.load_state(r),
            _ => Err(CodecError::Malformed("classifier variant mismatch")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsm_follows_figure_5() {
        let mut bst = Bst::new(10);
        assert_eq!(bst.status(0x40), BranchStatus::NotFound);
        // First commit: taken → Taken.
        assert_eq!(bst.commit(0x40, true), BranchStatus::Taken);
        // Confirming outcomes stay put.
        assert_eq!(bst.commit(0x40, true), BranchStatus::Taken);
        // A contradiction moves to NonBiased…
        assert_eq!(bst.commit(0x40, false), BranchStatus::NonBiased);
        // …which is absorbing for the 2-bit design.
        assert_eq!(bst.commit(0x40, true), BranchStatus::NonBiased);
        assert_eq!(bst.commit(0x40, false), BranchStatus::NonBiased);
    }

    #[test]
    fn not_taken_first_path() {
        let mut bst = Bst::new(10);
        assert_eq!(bst.commit(0x80, false), BranchStatus::NotTaken);
        assert_eq!(bst.commit(0x80, false), BranchStatus::NotTaken);
        assert_eq!(bst.commit(0x80, true), BranchStatus::NonBiased);
    }

    #[test]
    fn direct_mapping_aliases() {
        let mut bst = Bst::new(4); // 16 entries
        bst.commit(0x0, true);
        // pc 0x100 >> 2 = 0x40 ≡ 0 (mod 16): aliases with 0x0.
        assert_eq!(bst.status(0x100), BranchStatus::Taken);
        // The alias's contradicting outcome corrupts the shared entry —
        // the §VI-D SERVER effect.
        bst.commit(0x100, false);
        assert_eq!(bst.status(0x0), BranchStatus::NonBiased);
    }

    #[test]
    fn storage_sizes() {
        assert_eq!(Bst::new(14).storage_bits(), 16384 * 2);
        assert_eq!(ProbabilisticBst::new(13, 128).storage_bits(), 8192 * 3);
        assert_eq!(Bst::new(14).len(), 16384);
    }

    #[test]
    fn probabilistic_follows_same_coarse_fsm() {
        let mut bst = ProbabilisticBst::new(10, 1 << 30); // revert ~never
        assert_eq!(bst.status(0x40), BranchStatus::NotFound);
        assert_eq!(bst.commit(0x40, true), BranchStatus::Taken);
        for _ in 0..50 {
            assert_eq!(bst.commit(0x40, true), BranchStatus::Taken);
        }
        assert_eq!(bst.commit(0x40, false), BranchStatus::NonBiased);
    }

    #[test]
    fn probabilistic_reverts_on_phase_change() {
        // With an aggressive revert probability, a branch that becomes
        // stable again is eventually reclassified as biased.
        let mut bst = ProbabilisticBst::new(10, 4);
        bst.commit(0x40, true);
        bst.commit(0x40, false); // → NonBiased
        let mut reverted = false;
        for _ in 0..200 {
            if bst.commit(0x40, false) != BranchStatus::NonBiased {
                reverted = true;
                break;
            }
        }
        assert!(
            reverted,
            "expected a probabilistic revert within 200 commits"
        );
    }

    #[test]
    fn plain_bst_never_reverts() {
        let mut bst = Bst::new(10);
        bst.commit(0x40, true);
        bst.commit(0x40, false);
        for _ in 0..1000 {
            assert_eq!(bst.commit(0x40, false), BranchStatus::NonBiased);
        }
    }

    #[test]
    fn classifier_dispatch() {
        let mut c = Classifier::TwoBit(Bst::new(8));
        assert_eq!(c.status(0x40), BranchStatus::NotFound);
        c.commit(0x40, true);
        assert_eq!(c.status(0x40), BranchStatus::Taken);
        assert_eq!(c.storage_bits(), 256 * 2);

        let mut p = Classifier::Probabilistic(ProbabilisticBst::new(8, 128));
        p.commit(0x40, false);
        assert_eq!(p.status(0x40), BranchStatus::NotTaken);
    }
}
