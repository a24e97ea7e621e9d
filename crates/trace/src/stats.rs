//! Trace statistics: branch mix, bias profile (Figure 2), distance
//! diagnostics.
//!
//! The paper's Figure 2 reports, per trace, the percentage of *completely
//! biased* static conditional branches — branches that resolve in a single
//! direction for the entire run. [`BiasProfile`] computes exactly that,
//! plus the dynamic (per-execution) share those branches account for,
//! which is what actually determines how much history the bias-free
//! filter reclaims.

use std::collections::HashMap;

use crate::record::{BranchKind, BranchRecord, Trace};

/// Direction tally for one static conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DirTally {
    taken: u64,
    not_taken: u64,
}

impl DirTally {
    fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    fn is_biased(&self) -> bool {
        self.taken == 0 || self.not_taken == 0
    }
}

/// Static/dynamic bias statistics for a trace (Figure 2).
///
/// # Examples
///
/// ```
/// use bfbp_trace::record::{BranchRecord, Trace};
/// use bfbp_trace::stats::BiasProfile;
///
/// let trace = Trace::new(
///     "t",
///     vec![
///         BranchRecord::cond(0x10, 0x20, true, 0),  // always taken
///         BranchRecord::cond(0x10, 0x20, true, 0),
///         BranchRecord::cond(0x30, 0x40, true, 0),  // both directions
///         BranchRecord::cond(0x30, 0x40, false, 0),
///     ],
/// );
/// let profile = BiasProfile::measure(&trace);
/// assert_eq!(profile.static_conditionals(), 2);
/// assert_eq!(profile.static_biased(), 1);
/// assert!((profile.static_biased_percent() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BiasProfile {
    tallies: HashMap<u64, DirTally>,
    dynamic_conditionals: u64,
}

impl BiasProfile {
    /// Measures the bias profile of a whole trace.
    pub fn measure(trace: &Trace) -> Self {
        let mut profile = Self::default();
        for record in trace {
            profile.observe(record);
        }
        profile
    }

    /// Folds a single record into the profile (streaming use).
    pub fn observe(&mut self, record: &BranchRecord) {
        if record.kind != BranchKind::CondDirect {
            return;
        }
        self.dynamic_conditionals += 1;
        let tally = self.tallies.entry(record.pc).or_default();
        if record.taken {
            tally.taken += 1;
        } else {
            tally.not_taken += 1;
        }
    }

    /// Number of distinct static conditional branches observed.
    pub fn static_conditionals(&self) -> u64 {
        self.tallies.len() as u64
    }

    /// Number of static conditionals that resolved in only one direction.
    pub fn static_biased(&self) -> u64 {
        self.tallies.values().filter(|t| t.is_biased()).count() as u64
    }

    /// Figure 2's metric: percent of static conditional branches that are
    /// completely biased. Returns 0 for an empty profile.
    pub fn static_biased_percent(&self) -> f64 {
        if self.tallies.is_empty() {
            return 0.0;
        }
        100.0 * self.static_biased() as f64 / self.static_conditionals() as f64
    }

    /// Number of dynamic conditional branch executions observed.
    pub fn dynamic_conditionals(&self) -> u64 {
        self.dynamic_conditionals
    }

    /// Dynamic executions attributable to completely biased static
    /// branches.
    pub fn dynamic_biased(&self) -> u64 {
        self.tallies
            .values()
            .filter(|t| t.is_biased())
            .map(DirTally::total)
            .sum()
    }

    /// Percent of dynamic conditional executions that come from completely
    /// biased branches — how much of the raw history the bias-free filter
    /// removes. Returns 0 for an empty profile.
    pub fn dynamic_biased_percent(&self) -> f64 {
        if self.dynamic_conditionals == 0 {
            return 0.0;
        }
        100.0 * self.dynamic_biased() as f64 / self.dynamic_conditionals as f64
    }

    /// Returns whether the given static branch was completely biased, or
    /// `None` if it never appeared.
    pub fn is_biased(&self, pc: u64) -> Option<bool> {
        self.tallies.get(&pc).map(DirTally::is_biased)
    }
}

/// Overall composition of a trace: how many records of each kind, how many
/// instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMix {
    counts: [u64; 6],
    instructions: u64,
}

impl TraceMix {
    /// Measures the mix of a whole trace.
    pub fn measure(trace: &Trace) -> Self {
        let mut mix = Self::default();
        for record in trace {
            mix.counts[record.kind as usize] += 1;
            mix.instructions += record.instructions();
        }
        mix
    }

    /// Number of records of the given kind.
    pub fn count(&self, kind: BranchKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total instructions (branches plus non-branch gaps).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Conditional branches per 1000 instructions — a sanity metric; real
    /// workloads sit around 100–200.
    pub fn cond_per_kilo_inst(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        1000.0 * self.count(BranchKind::CondDirect) as f64 / self.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pc: u64, taken: bool) -> BranchRecord {
        BranchRecord::cond(pc, pc + 0x10, taken, 3)
    }

    #[test]
    fn empty_profile_is_zero() {
        let profile = BiasProfile::default();
        assert_eq!(profile.static_conditionals(), 0);
        assert_eq!(profile.static_biased_percent(), 0.0);
        assert_eq!(profile.dynamic_biased_percent(), 0.0);
        assert_eq!(profile.is_biased(0x10), None);
    }

    #[test]
    fn all_biased() {
        let trace = Trace::new(
            "t",
            vec![record(1, true), record(2, false), record(1, true)],
        );
        let p = BiasProfile::measure(&trace);
        assert_eq!(p.static_conditionals(), 2);
        assert_eq!(p.static_biased(), 2);
        assert_eq!(p.static_biased_percent(), 100.0);
        assert_eq!(p.dynamic_biased(), 3);
        assert_eq!(p.is_biased(1), Some(true));
    }

    #[test]
    fn single_flip_makes_non_biased() {
        let trace = Trace::new(
            "t",
            vec![record(1, true), record(1, true), record(1, false)],
        );
        let p = BiasProfile::measure(&trace);
        assert_eq!(p.static_biased(), 0);
        assert_eq!(p.is_biased(1), Some(false));
        assert_eq!(p.dynamic_biased_percent(), 0.0);
    }

    #[test]
    fn non_conditionals_are_ignored() {
        let trace = Trace::new(
            "t",
            vec![
                record(1, true),
                BranchRecord::uncond(2, 3, BranchKind::Call, 0),
                BranchRecord::uncond(4, 5, BranchKind::Return, 0),
            ],
        );
        let p = BiasProfile::measure(&trace);
        assert_eq!(p.static_conditionals(), 1);
        assert_eq!(p.dynamic_conditionals(), 1);
    }

    #[test]
    fn dynamic_vs_static_percent_differ() {
        // One biased branch executed 9 times, one non-biased executed twice:
        // static 50% biased, dynamic 9/11.
        let mut records = vec![record(1, true); 9];
        records.push(record(2, true));
        records.push(record(2, false));
        let p = BiasProfile::measure(&Trace::new("t", records));
        assert!((p.static_biased_percent() - 50.0).abs() < 1e-9);
        assert!((p.dynamic_biased_percent() - 100.0 * 9.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn mix_counts_kinds_and_instructions() {
        let trace = Trace::new(
            "t",
            vec![
                record(1, true),                                   // 4 insts
                BranchRecord::uncond(2, 3, BranchKind::Call, 10),  // 11 insts
                BranchRecord::uncond(4, 5, BranchKind::Return, 0), // 1 inst
            ],
        );
        let mix = TraceMix::measure(&trace);
        assert_eq!(mix.count(BranchKind::CondDirect), 1);
        assert_eq!(mix.count(BranchKind::Call), 1);
        assert_eq!(mix.count(BranchKind::Return), 1);
        assert_eq!(mix.count(BranchKind::Indirect), 0);
        assert_eq!(mix.instructions(), 16);
        assert!((mix.cond_per_kilo_inst() - 1000.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_mix_rates_are_zero() {
        let mix = TraceMix::default();
        assert_eq!(mix.cond_per_kilo_inst(), 0.0);
    }
}
