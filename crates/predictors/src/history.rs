//! Global-history machinery shared by all history-based predictors:
//! a bounded bit history, incremental folded ("cyclic shift register")
//! histories as used by O-GEHL/TAGE, path history, the bucketed folds
//! that the neural predictors hash into their weight indices (§IV-A of
//! the paper), and the recent-path walker those predictors share.
//!
//! Every per-branch operation here works on whole words: ring positions
//! are masked (capacities are powers of two), outcomes are read 64 at a
//! time with [`GlobalHistory::packed`], and folds over one window share
//! a single evicted-bit read.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};

/// A bounded global history of branch outcomes, newest first.
///
/// Backed by a ring of 64-bit words whose bit capacity is a power of
/// two, so every position is `head - 1 - age` masked by `capacity - 1`;
/// `bit(0)` is the most recently pushed outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHistory {
    words: Vec<u64>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl GlobalHistory {
    /// Creates a history able to hold at least `capacity` outcomes
    /// (rounded up to a power of two, and to at least 64).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be non-zero");
        let words = capacity.div_ceil(64).next_power_of_two();
        Self {
            words: vec![0; words],
            head: 0,
            len: 0,
            capacity: words * 64,
        }
    }

    /// Maximum number of outcomes retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of outcomes currently held (saturates at capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no outcome has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a new outcome, evicting the oldest once full.
    pub fn push(&mut self, taken: bool) {
        let shift = self.head & 63;
        let word = &mut self.words[self.head >> 6];
        *word = (*word & !(1 << shift)) | (u64::from(taken) << shift);
        self.head = (self.head + 1) & (self.capacity - 1);
        if self.len < self.capacity {
            self.len += 1;
        }
    }

    /// Outcome `age` pushes ago (`0` = newest). Ages beyond what has been
    /// pushed (or beyond capacity) read as `false`, matching hardware
    /// registers that power up cleared.
    pub fn bit(&self, age: usize) -> bool {
        if age >= self.len {
            return false;
        }
        let pos = self.head.wrapping_sub(age + 1) & (self.capacity - 1);
        (self.words[pos >> 6] >> (pos & 63)) & 1 == 1
    }

    /// The 64 outcomes from `age` on, packed with age `age + j` at bit
    /// `j`: bit `j` equals `bit(age + j)`, so ages never pushed read as
    /// zero. One unaligned two-word read from the ring, then a bit
    /// reversal (the ring stores the oldest outcome lowest).
    pub fn packed(&self, age: usize) -> u64 {
        if age >= self.len {
            return 0;
        }
        // Ring position of age `age + 63`, the lowest bit of the window.
        let start = self.head.wrapping_sub(age + 64) & (self.capacity - 1);
        let (word, shift) = (start >> 6, start & 63);
        let mut raw = self.words[word] >> shift;
        if shift != 0 {
            let next = self.words[(word + 1) & (self.words.len() - 1)];
            raw |= next << (64 - shift);
        }
        let valid = self.len - age;
        let packed = raw.reverse_bits();
        if valid < 64 {
            packed & ((1 << valid) - 1)
        } else {
            packed
        }
    }

    /// The newest `n` outcomes as an iterator, newest first, read a
    /// packed word at a time.
    pub fn newest(&self, n: usize) -> Outcomes<'_> {
        Outcomes {
            history: self,
            age: 0,
            end: n,
            word: 0,
        }
    }

    /// Packs the newest `n` outcomes into an integer, bit `i` = age `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn low_bits(&self, n: usize) -> u64 {
        assert!(n <= 64, "low_bits supports at most 64 bits");
        if n == 0 {
            return 0;
        }
        self.packed(0) & (u64::MAX >> (64 - n))
    }
}

/// Iterator over the newest outcomes of a [`GlobalHistory`], built by
/// [`GlobalHistory::newest`].
#[derive(Debug, Clone)]
pub struct Outcomes<'a> {
    history: &'a GlobalHistory,
    age: usize,
    end: usize,
    word: u64,
}

impl Iterator for Outcomes<'_> {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        if self.age == self.end {
            return None;
        }
        if self.age.is_multiple_of(64) {
            self.word = self.history.packed(self.age);
        }
        let taken = self.word & 1 == 1;
        self.word >>= 1;
        self.age += 1;
        Some(taken)
    }
}

/// An incrementally maintained fold of the newest `olen` history bits
/// into `clen` bits, as used for TAGE index/tag computation.
///
/// The fold is updated with the inserted bit and the bit that leaves the
/// `olen`-window; the invariant (checked by property tests) is that the
/// register always equals the XOR of the window's `clen`-bit chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryFold {
    comp: u64,
    olen: usize,
    clen: usize,
    outpoint: usize,
}

impl HistoryFold {
    /// Creates a fold of window `olen` into `clen` bits.
    ///
    /// # Panics
    ///
    /// Panics if `clen` is zero or greater than 63.
    pub fn new(olen: usize, clen: usize) -> Self {
        assert!((1..=63).contains(&clen), "fold width must be 1..=63");
        Self {
            comp: 0,
            olen,
            clen,
            outpoint: olen % clen,
        }
    }

    /// The compressed register value.
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// Window length in original bits.
    pub fn original_len(&self) -> usize {
        self.olen
    }

    /// Compressed length in bits.
    pub fn compressed_len(&self) -> usize {
        self.clen
    }

    /// Updates the fold for a new history push. `inserted` is the new
    /// outcome; `evicted` is the outcome that was at age `olen - 1`
    /// *before* the push (it leaves the window).
    pub fn push(&mut self, inserted: bool, evicted: bool) {
        if self.olen == 0 {
            return;
        }
        self.shift_in(u64::from(inserted), u64::from(evicted));
    }

    /// [`push`](Self::push) for a non-empty window, with both bits as
    /// `0`/`1` words.
    #[inline]
    fn shift_in(&mut self, inserted: u64, evicted: u64) {
        self.comp = (self.comp << 1) | inserted;
        self.comp ^= evicted << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= (1u64 << self.clen) - 1;
    }

    /// Recomputes the fold from scratch over `history` (reference
    /// implementation used by tests).
    pub fn recompute(&self, history: &GlobalHistory) -> u64 {
        let mut comp = 0u64;
        // Oldest-to-newest replay of the incremental update.
        for age in (0..self.olen).rev() {
            comp = (comp << 1) | u64::from(history.bit(age));
            comp ^= comp >> self.clen;
            comp &= (1u64 << self.clen) - 1;
        }
        comp
    }
}

/// A [`GlobalHistory`] plus a set of [`HistoryFold`]s kept in sync by a
/// single `push`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManagedHistory {
    history: GlobalHistory,
    folds: Vec<HistoryFold>,
    /// Runs of adjacent folds over one non-empty window, as
    /// `(age of the evicted bit, first fold, end of run)`. Zero-length
    /// windows belong to no run: their register never changes.
    windows: Vec<(usize, usize, usize)>,
}

impl ManagedHistory {
    /// Creates a managed history with the given capacity and fold specs
    /// `(olen, clen)`. Adjacent specs over the same window share one
    /// evicted-bit read per push, so callers list them together (TAGE
    /// lists each table's index fold and two tag folds in a row).
    ///
    /// # Panics
    ///
    /// Panics if any fold's window exceeds the history capacity.
    pub fn new(capacity: usize, fold_specs: &[(usize, usize)]) -> Self {
        let history = GlobalHistory::new(capacity);
        for &(olen, _) in fold_specs {
            assert!(
                olen <= history.capacity(),
                "fold window {olen} exceeds history capacity {}",
                history.capacity()
            );
        }
        let mut windows: Vec<(usize, usize, usize)> = Vec::new();
        for (i, &(olen, _)) in fold_specs.iter().enumerate() {
            match windows.last_mut() {
                Some((age, _, end)) if *end == i && *age + 1 == olen => *end = i + 1,
                _ if olen > 0 => windows.push((olen - 1, i, i + 1)),
                _ => {}
            }
        }
        Self {
            history,
            folds: fold_specs
                .iter()
                .map(|&(olen, clen)| HistoryFold::new(olen, clen))
                .collect(),
            windows,
        }
    }

    /// The underlying bit history.
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }

    /// The managed folds, in construction order.
    pub fn folds(&self) -> &[HistoryFold] {
        &self.folds
    }

    /// Value of fold `i`.
    pub fn fold(&self, i: usize) -> u64 {
        self.folds[i].value()
    }

    /// Number of evicted-bit reads one [`push`](Self::push) makes: one
    /// per run of adjacent folds over the same non-empty window.
    pub fn window_reads(&self) -> usize {
        self.windows.len()
    }

    /// Pushes an outcome into the history and all folds.
    pub fn push(&mut self, taken: bool) {
        let inserted = u64::from(taken);
        for &(age, start, end) in &self.windows {
            let evicted = u64::from(self.history.bit(age));
            for fold in &mut self.folds[start..end] {
                fold.shift_in(inserted, evicted);
            }
        }
        self.history.push(taken);
    }
}

/// Path history: a shift register of one low address bit per committed
/// branch (all kinds), as used by TAGE's index hash and the paper's
/// BF-TAGE ("a (limited) 16-bit path history consisting of 1 address bit
/// per branch", §V-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHistory {
    bits: u64,
    len: u32,
}

impl PathHistory {
    /// Creates a path history of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than 64.
    pub fn new(len: u32) -> Self {
        assert!(
            (1..=64).contains(&len),
            "path history length must be 1..=64"
        );
        Self { bits: 0, len }
    }

    /// Pushes one branch address.
    pub fn push(&mut self, pc: u64) {
        self.bits = (self.bits << 1) | ((pc >> 2) & 1);
        if self.len < 64 {
            self.bits &= (1u64 << self.len) - 1;
        }
    }

    /// The packed register.
    pub fn value(&self) -> u64 {
        self.bits
    }

    /// Register length in bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the register is zero (mirrors the cleared power-up state;
    /// provided for `len`/`is_empty` API symmetry).
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }
}

/// The bucketed folded-history registers used by the neural predictors'
/// index hashes (§IV-A): folds of the newest 8/16/32/64 outcomes, each
/// compressed to 16 bits. `fold_for(distance)` selects the largest bucket
/// not exceeding the distance, approximating "folded history from the
/// correlated branch up to the current branch" with O(1) state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketedFolds {
    inner: ManagedHistory,
}

/// Bucket window lengths used by [`BucketedFolds`].
pub const FOLD_BUCKETS: [usize; 4] = [8, 16, 32, 64];

/// Index into [`FOLD_BUCKETS`] of the largest window that fits inside
/// `distance` (the 8-bit bucket for anything shorter than 8).
#[inline]
const fn bucket_of(distance: usize) -> usize {
    (distance >= FOLD_BUCKETS[1]) as usize
        + (distance >= FOLD_BUCKETS[2]) as usize
        + (distance >= FOLD_BUCKETS[3]) as usize
}

impl BucketedFolds {
    /// Creates the standard bucket set.
    pub fn new() -> Self {
        let specs: Vec<(usize, usize)> = FOLD_BUCKETS
            .iter()
            .map(|&olen| (olen, olen.min(16)))
            .collect();
        Self {
            inner: ManagedHistory::new(64, &specs),
        }
    }

    /// Pushes an outcome.
    pub fn push(&mut self, taken: bool) {
        self.inner.push(taken);
    }

    /// Fold value for a correlation at `distance` branches: the largest
    /// bucket window that fits inside the distance (the 8-bit bucket for
    /// anything shorter than 8).
    pub fn fold_for(&self, distance: usize) -> u64 {
        self.inner.fold(bucket_of(distance))
    }

    /// All four bucket folds, in [`FOLD_BUCKETS`] order.
    fn values(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.inner.fold(i))
    }

    /// Fold over the largest bucket (64 bits of history).
    pub fn widest(&self) -> u64 {
        self.inner.fold(FOLD_BUCKETS.len() - 1)
    }
}

impl Default for BucketedFolds {
    fn default() -> Self {
        Self::new()
    }
}

/// The recent conditional-branch path that the hashed neural predictors
/// (piecewise-linear, OH-SNAP, BF-Neural's `Wm`) walk on every
/// prediction: the newest `depth` outcomes, the addresses of the
/// branches that produced them, and the [`BucketedFolds`] of the path
/// leading up to each of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecentPath {
    history: GlobalHistory,
    /// The address ring stored twice over (`2 * depth` entries, both
    /// halves equal), so the newest `depth` addresses are always the
    /// contiguous slice `head..head + depth`, oldest first.
    addresses: Vec<u64>,
    head: usize,
    folds: BucketedFolds,
}

/// One age visited by [`RecentPath::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// Distance back in conditional branches (`0` = newest).
    pub age: usize,
    /// Address of the branch at that age.
    pub address: u64,
    /// That branch's outcome.
    pub taken: bool,
    /// `BucketedFolds::fold_for(age + 1)`: the fold of the path from
    /// that branch up to the current one.
    pub fold: u64,
}

impl RecentPath {
    /// Creates an empty path of `depth` branches.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "path depth must be non-zero");
        Self {
            history: GlobalHistory::new(depth),
            addresses: vec![0; 2 * depth],
            head: 0,
            folds: BucketedFolds::new(),
        }
    }

    /// Number of branches walked.
    pub(crate) fn depth(&self) -> usize {
        self.addresses.len() / 2
    }

    /// The outcome history (at least `depth` bits).
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }

    /// The bucketed folds of the newest outcomes.
    pub fn folds(&self) -> &BucketedFolds {
        &self.folds
    }

    /// Commits one conditional branch.
    pub fn push(&mut self, pc: u64, taken: bool) {
        let depth = self.depth();
        self.history.push(taken);
        self.folds.push(taken);
        self.addresses[self.head] = pc;
        self.addresses[self.head + depth] = pc;
        self.head += 1;
        if self.head == depth {
            self.head = 0;
        }
    }

    /// Visits ages `0..depth`, newest first. The four bucket folds are
    /// read once, outcomes one packed word per 64 ages, and addresses
    /// from one contiguous slice.
    #[inline]
    pub fn walk(&self, mut visit: impl FnMut(PathStep)) {
        let folds = self.folds.values();
        let depth = self.depth();
        let addresses = self.addresses[self.head..self.head + depth].iter().rev();
        let outcomes = self.history.newest(depth);
        for ((age, &address), taken) in addresses.enumerate().zip(outcomes) {
            visit(PathStep {
                age,
                address,
                taken,
                fold: folds[bucket_of(age + 1)],
            });
        }
    }
}

impl Restorable for GlobalHistory {
    fn save_state(&self, w: &mut StateWriter) {
        w.u64_slice(&self.words);
        w.usize(self.head);
        w.usize(self.len);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let words = r.u64_vec()?;
        if words.len() != self.words.len() {
            return Err(CodecError::Malformed("history word count mismatch"));
        }
        let head = r.usize()?;
        let len = r.usize()?;
        if head >= self.capacity || len > self.capacity {
            return Err(CodecError::Malformed("history cursor out of range"));
        }
        self.words = words;
        self.head = head;
        self.len = len;
        Ok(())
    }
}

impl Restorable for HistoryFold {
    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.comp);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let comp = r.u64()?;
        if self.clen < 64 && comp >= (1u64 << self.clen) {
            return Err(CodecError::Malformed("fold register out of range"));
        }
        self.comp = comp;
        Ok(())
    }
}

impl Restorable for ManagedHistory {
    fn save_state(&self, w: &mut StateWriter) {
        self.history.save_state(w);
        w.usize(self.folds.len());
        for fold in &self.folds {
            fold.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.history.load_state(r)?;
        if r.usize()? != self.folds.len() {
            return Err(CodecError::Malformed("fold count mismatch"));
        }
        for fold in &mut self.folds {
            fold.load_state(r)?;
        }
        Ok(())
    }
}

impl Restorable for PathHistory {
    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.bits);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let bits = r.u64()?;
        if self.len < 64 && bits >= (1u64 << self.len) {
            return Err(CodecError::Malformed("path history out of range"));
        }
        self.bits = bits;
        Ok(())
    }
}

impl Restorable for BucketedFolds {
    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.inner.load_state(r)
    }
}

impl Restorable for RecentPath {
    fn save_state(&self, w: &mut StateWriter) {
        // The ring once: the second half is a copy.
        self.history.save_state(w);
        w.u64_slice(&self.addresses[..self.depth()]);
        w.usize(self.head);
        self.folds.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.history.load_state(r)?;
        let ring = r.u64_vec()?;
        if ring.len() != self.depth() {
            return Err(CodecError::Malformed("address ring size mismatch"));
        }
        let head = r.usize()?;
        if head >= ring.len() {
            return Err(CodecError::Malformed("address head out of range"));
        }
        let (first, second) = self.addresses.split_at_mut(ring.len());
        first.copy_from_slice(&ring);
        second.copy_from_slice(&ring);
        self.head = head;
        self.folds.load_state(r)
    }
}

/// Mixes a 64-bit value (SplitMix64 finalizer); the hash primitive used
/// throughout the predictor index computations.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_newest_first() {
        let mut h = GlobalHistory::new(8);
        h.push(true);
        h.push(false);
        h.push(true);
        assert!(h.bit(0)); // newest
        assert!(!h.bit(1));
        assert!(h.bit(2));
        assert!(!h.bit(3)); // never pushed
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn history_wraps_capacity() {
        let mut h = GlobalHistory::new(64);
        assert_eq!(h.capacity(), 64);
        for i in 0..200 {
            h.push(i % 3 == 0);
        }
        assert_eq!(h.len(), 64);
        // Newest is i=199: 199 % 3 != 0.
        assert!(!h.bit(0));
        // age k corresponds to i = 199 - k.
        for k in 0..64 {
            assert_eq!(h.bit(k), (199 - k) % 3 == 0, "age {k}");
        }
    }

    #[test]
    fn history_capacity_rounds_up() {
        assert_eq!(GlobalHistory::new(65).capacity(), 128);
        assert_eq!(GlobalHistory::new(1).capacity(), 64);
    }

    #[test]
    fn low_bits_packs_history() {
        let mut h = GlobalHistory::new(64);
        h.push(true); // will be age 2
        h.push(false); // age 1
        h.push(true); // age 0
        assert_eq!(h.low_bits(3), 0b101);
        assert_eq!(h.low_bits(2), 0b01);
    }

    #[test]
    fn fold_matches_recompute() {
        let mut h = GlobalHistory::new(256);
        let mut fold = HistoryFold::new(37, 11);
        let mut x = 123u64;
        for _ in 0..500 {
            x = mix64(x);
            let bit = x & 1 == 1;
            let evicted = h.bit(36);
            fold.push(bit, evicted);
            h.push(bit);
            assert_eq!(fold.value(), fold.recompute(&h));
        }
    }

    #[test]
    fn fold_window_multiple_of_clen() {
        let mut h = GlobalHistory::new(64);
        let mut fold = HistoryFold::new(16, 8);
        let mut x = 7u64;
        for _ in 0..100 {
            x = mix64(x);
            let bit = x & 1 == 1;
            let evicted = h.bit(15);
            fold.push(bit, evicted);
            h.push(bit);
        }
        assert_eq!(fold.value(), fold.recompute(&h));
    }

    #[test]
    fn zero_window_fold_stays_zero() {
        let mut fold = HistoryFold::new(0, 8);
        fold.push(true, false);
        assert_eq!(fold.value(), 0);
    }

    #[test]
    fn managed_history_keeps_folds_synced() {
        let mut m = ManagedHistory::new(128, &[(5, 3), (64, 12), (128, 16)]);
        let mut x = 3u64;
        for _ in 0..300 {
            x = mix64(x);
            m.push(x & 1 == 1);
        }
        for (i, fold) in m.folds().iter().enumerate() {
            assert_eq!(m.fold(i), fold.recompute(m.history()), "fold {i}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds history capacity")]
    fn managed_history_rejects_oversized_fold() {
        ManagedHistory::new(64, &[(100, 8)]);
    }

    #[test]
    fn path_history_shifts_address_bits() {
        let mut p = PathHistory::new(4);
        p.push(0b100); // bit (pc>>2)&1 = 1
        p.push(0b000); // 0
        p.push(0b100); // 1
        assert_eq!(p.value(), 0b101);
        assert_eq!(p.len(), 4);
        // Capped at 4 bits.
        for _ in 0..10 {
            p.push(0b100);
        }
        assert_eq!(p.value(), 0b1111);
    }

    #[test]
    fn bucketed_fold_selection() {
        let folds = BucketedFolds::new();
        // Below the smallest bucket, the 8-bit bucket is still used.
        let mut f = BucketedFolds::new();
        for _ in 0..100 {
            f.push(true);
        }
        assert_eq!(f.fold_for(3), f.inner.fold(0));
        assert_eq!(f.fold_for(8), f.inner.fold(0));
        assert_eq!(f.fold_for(16), f.inner.fold(1));
        assert_eq!(f.fold_for(33), f.inner.fold(2));
        assert_eq!(f.fold_for(5000), f.inner.fold(3));
        assert_eq!(f.widest(), f.inner.fold(3));
        let _ = folds;
    }

    #[test]
    fn bucket_of_picks_the_largest_fitting_window() {
        for distance in 0..200 {
            let expected = FOLD_BUCKETS
                .iter()
                .rposition(|&olen| olen <= distance)
                .unwrap_or(0);
            assert_eq!(bucket_of(distance), expected, "distance {distance}");
        }
    }

    #[test]
    fn managed_history_shares_reads_between_adjacent_windows() {
        let m = ManagedHistory::new(64, &[(9, 4), (9, 3), (0, 5), (9, 2), (20, 7), (20, 8)]);
        // (9,4)+(9,3) share one read, the empty window reads nothing,
        // (9,2) is no longer adjacent to them, (20,7)+(20,8) share one.
        assert_eq!(m.window_reads(), 3);
    }

    #[test]
    fn walk_matches_per_age_reads() {
        for depth in [1, 16, 64, 72, 130] {
            let mut path = RecentPath::new(depth);
            let mut pcs: Vec<u64> = Vec::new();
            let mut x = depth as u64;
            for push in 0..3 * depth + 5 {
                let mut steps = Vec::new();
                path.walk(|step| steps.push(step));
                assert_eq!(steps.len(), depth);
                for (age, step) in steps.into_iter().enumerate() {
                    let address = pcs.len().checked_sub(age + 1).map_or(0, |i| pcs[i]);
                    let expected = PathStep {
                        age,
                        address,
                        taken: path.history().bit(age),
                        fold: path.folds().fold_for(age + 1),
                    };
                    assert_eq!(step, expected, "depth {depth}, push {push}");
                }
                x = mix64(x);
                path.push(x, x & 1 == 1);
                pcs.push(x);
            }
        }
    }

    #[test]
    fn mix64_changes_all_inputs() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }
}
