//! Saturating counters, the workhorse state element of branch predictors.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};

/// A signed saturating counter of configurable width.
///
/// An `n`-bit signed counter covers `[-2^(n-1), 2^(n-1) - 1]`; its sign
/// provides a prediction and its magnitude confidence.
///
/// # Examples
///
/// ```
/// use bfbp_predictors::counter::SatCounter;
///
/// let mut c = SatCounter::new(3); // range [-4, 3]
/// for _ in 0..10 {
///     c.increment();
/// }
/// assert_eq!(c.value(), 3);
/// assert!(c.is_taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: i32,
    min: i32,
    max: i32,
}

impl SatCounter {
    /// Creates a zero-initialized counter of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn new(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "counter width must be 1..=31");
        Self {
            value: 0,
            min: -(1 << (bits - 1)),
            max: (1 << (bits - 1)) - 1,
        }
    }

    /// Current value.
    pub fn value(&self) -> i32 {
        self.value
    }

    /// Lower saturation bound.
    pub fn min(&self) -> i32 {
        self.min
    }

    /// Upper saturation bound.
    pub fn max(&self) -> i32 {
        self.max
    }

    /// Saturating increment.
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    pub fn decrement(&mut self) {
        if self.value > self.min {
            self.value -= 1;
        }
    }

    /// Moves the counter toward `taken` (increment) or away (decrement).
    pub fn train(&mut self, taken: bool) {
        if taken {
            self.increment();
        } else {
            self.decrement();
        }
    }

    /// Prediction: `true` when the value is non-negative.
    pub fn is_taken(&self) -> bool {
        self.value >= 0
    }

    /// Whether the counter sits at either saturation bound.
    pub fn is_saturated(&self) -> bool {
        self.value == self.min || self.value == self.max
    }

    /// Whether the counter is at a "weak" state (value is 0 or −1): a
    /// newly allocated or conflicted entry.
    pub fn is_weak(&self) -> bool {
        self.value == 0 || self.value == -1
    }
}

/// A table of identically sized signed saturating counter *values*,
/// stored compactly as `i8`. Suitable for widths up to 8 bits.
///
/// This avoids the per-element `min`/`max` overhead of [`SatCounter`]
/// when a predictor needs tens of thousands of counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTable {
    values: Vec<i8>,
    min: i8,
    max: i8,
    bits: u32,
}

impl CounterTable {
    /// Creates a zeroed table of `len` counters, each `bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or `len` is 0.
    pub fn new(len: usize, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "table counter width must be 1..=8");
        assert!(len > 0, "table must be non-empty");
        Self {
            values: vec![0; len],
            min: -(1i16 << (bits - 1)) as i8,
            max: ((1i16 << (bits - 1)) - 1) as i8,
            bits,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false` (construction requires a nonzero length).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Counter width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> i32 {
        i32::from(self.values[index])
    }

    /// Trains the counter at `index` toward `taken`. Branchless: the ±1
    /// step in `i16` (an 8-bit counter at +127 would overflow `i8`) plus
    /// clamp compiles to straight-line min/max.
    pub fn train(&mut self, index: usize, taken: bool) {
        let v = &mut self.values[index];
        let delta = i16::from(taken) * 2 - 1;
        *v = (i16::from(*v) + delta).clamp(i16::from(self.min), i16::from(self.max)) as i8;
    }

    /// Adds `delta` to the counter at `index`, saturating.
    pub fn add(&mut self, index: usize, delta: i32) {
        let v = i32::from(self.values[index]) + delta;
        self.values[index] = v.clamp(i32::from(self.min), i32::from(self.max)) as i8;
    }

    /// Prediction at `index`: `true` when non-negative.
    pub fn is_taken(&self, index: usize) -> bool {
        self.values[index] >= 0
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.values.len() as u64 * u64::from(self.bits)
    }
}

impl Restorable for CounterTable {
    fn save_state(&self, w: &mut StateWriter) {
        w.i8_slice(&self.values);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        // `min`/`max`/`bits` are configuration; the length check inside
        // `i8_into` rejects a checkpoint from a differently sized table.
        r.i8_into(&mut self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_bit_counter_bounds() {
        let c = SatCounter::new(3);
        assert_eq!(c.min(), -4);
        assert_eq!(c.max(), 3);
        assert_eq!(c.value(), 0);
        assert!(c.is_taken());
        assert!(c.is_weak());
    }

    #[test]
    fn saturation_both_ends() {
        let mut c = SatCounter::new(2); // [-2, 1]
        for _ in 0..5 {
            c.increment();
        }
        assert_eq!(c.value(), 1);
        assert!(c.is_saturated());
        for _ in 0..10 {
            c.decrement();
        }
        assert_eq!(c.value(), -2);
        assert!(c.is_saturated());
        assert!(!c.is_taken());
    }

    #[test]
    fn train_moves_toward_outcome() {
        let mut c = SatCounter::new(3);
        c.train(true);
        assert_eq!(c.value(), 1);
        assert!(!c.is_weak());
        c.train(false);
        assert_eq!(c.value(), 0);
        assert!(c.is_weak() && c.is_taken());
        c.train(false);
        assert_eq!(c.value(), -1);
        assert!(c.is_weak() && !c.is_taken());
        c.train(false);
        assert!(!c.is_weak());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        SatCounter::new(0);
    }

    #[test]
    fn table_basics() {
        let mut t = CounterTable::new(8, 3);
        assert_eq!(t.len(), 8);
        assert_eq!(t.get(0), 0);
        assert!(t.is_taken(0));
        for _ in 0..10 {
            t.train(3, false);
        }
        assert_eq!(t.get(3), -4);
        assert!(!t.is_taken(3));
        for _ in 0..20 {
            t.train(3, true);
        }
        assert_eq!(t.get(3), 3);
    }

    #[test]
    fn table_add_saturates() {
        let mut t = CounterTable::new(2, 5); // [-16, 15]
        t.add(0, 100);
        assert_eq!(t.get(0), 15);
        t.add(0, -200);
        assert_eq!(t.get(0), -16);
        t.add(1, 7);
        assert_eq!(t.get(1), 7);
    }

    #[test]
    fn table_storage() {
        let t = CounterTable::new(1024, 3);
        assert_eq!(t.storage_bits(), 3072);
        assert_eq!(t.bits(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_table_panics() {
        CounterTable::new(0, 2);
    }

    #[test]
    fn eight_bit_table_range() {
        let mut t = CounterTable::new(1, 8);
        t.add(0, 1000);
        assert_eq!(t.get(0), 127);
        t.add(0, -1000);
        assert_eq!(t.get(0), -128);
    }
}
