//! Branch records: the unit of a trace.
//!
//! A trace is a sequence of [`BranchRecord`]s in commit order, mirroring
//! the Championship Branch Prediction (CBP) trace model: every control
//! transfer instruction appears, annotated with the number of ordinary
//! (non-branch) instructions that committed since the previous record so
//! that MPKI (mispredictions per 1000 instructions) can be computed.

use std::fmt;

/// The class of a control-transfer instruction.
///
/// Predictors predict the direction of [`BranchKind::CondDirect`] records
/// only; the remaining kinds are presented to predictors through
/// `track_other` so they can fold them into path history, exactly as the
/// CBP framework does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum BranchKind {
    /// Conditional direct branch — the only kind whose direction is
    /// predicted.
    CondDirect = 0,
    /// Unconditional direct jump.
    UncondDirect = 1,
    /// Unconditional indirect jump.
    Indirect = 2,
    /// Direct function call.
    Call = 3,
    /// Indirect function call.
    IndirectCall = 4,
    /// Function return.
    Return = 5,
}

impl BranchKind {
    /// All kinds, in discriminant order.
    pub const ALL: [BranchKind; 6] = [
        BranchKind::CondDirect,
        BranchKind::UncondDirect,
        BranchKind::Indirect,
        BranchKind::Call,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];

    /// Returns `true` for the conditional kind whose direction predictors
    /// must guess.
    pub fn is_conditional(self) -> bool {
        self == BranchKind::CondDirect
    }

    /// Converts a raw discriminant back into a kind.
    ///
    /// Returns `None` if `value` is not a valid discriminant.
    pub fn from_u8(value: u8) -> Option<Self> {
        Self::ALL.get(value as usize).copied()
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::CondDirect => "cond",
            BranchKind::UncondDirect => "jump",
            BranchKind::Indirect => "ijump",
            BranchKind::Call => "call",
            BranchKind::IndirectCall => "icall",
            BranchKind::Return => "ret",
        };
        f.write_str(s)
    }
}

/// One committed control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub pc: u64,
    /// Address the branch transfers to when taken.
    pub target: u64,
    /// Instruction class.
    pub kind: BranchKind,
    /// Resolved direction. Always `true` for unconditional kinds.
    pub taken: bool,
    /// Number of non-branch instructions committed since the previous
    /// record (the branch itself is not included).
    pub non_branch_insts: u32,
}

impl BranchRecord {
    /// Creates a conditional direct branch record.
    pub fn cond(pc: u64, target: u64, taken: bool, non_branch_insts: u32) -> Self {
        Self {
            pc,
            target,
            kind: BranchKind::CondDirect,
            taken,
            non_branch_insts,
        }
    }

    /// Creates an always-taken record of the given non-conditional kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`BranchKind::CondDirect`]; use
    /// [`BranchRecord::cond`] for conditionals.
    pub fn uncond(pc: u64, target: u64, kind: BranchKind, non_branch_insts: u32) -> Self {
        assert!(
            !kind.is_conditional(),
            "use BranchRecord::cond for conditional branches"
        );
        Self {
            pc,
            target,
            kind,
            taken: true,
            non_branch_insts,
        }
    }

    /// Total instructions this record accounts for: the preceding
    /// non-branch instructions plus the branch itself.
    pub fn instructions(&self) -> u64 {
        u64::from(self.non_branch_insts) + 1
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x} {} -> {:#x} {}",
            self.pc,
            self.kind,
            self.target,
            if self.taken { "T" } else { "N" }
        )
    }
}

/// An in-memory trace: a named sequence of branch records.
///
/// # Examples
///
/// ```
/// use bfbp_trace::record::{BranchRecord, Trace};
///
/// let trace = Trace::new(
///     "tiny",
///     vec![BranchRecord::cond(0x400, 0x500, true, 4)],
/// );
/// assert_eq!(trace.conditional_count(), 1);
/// assert_eq!(trace.instruction_count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    name: String,
    records: Vec<BranchRecord>,
}

impl Trace {
    /// Creates a trace from parts.
    pub fn new(name: impl Into<String>, records: Vec<BranchRecord>) -> Self {
        Self {
            name: name.into(),
            records,
        }
    }

    /// The trace's name (e.g. `"SPEC03"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All records in commit order.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Number of records (branches of all kinds).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of conditional branches.
    pub fn conditional_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind.is_conditional())
            .count() as u64
    }

    /// Total committed instructions represented by the trace.
    pub fn instruction_count(&self) -> u64 {
        self.records.iter().map(BranchRecord::instructions).sum()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// Appends a record.
    pub fn push(&mut self, record: BranchRecord) {
        self.records.push(record);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl Extend<BranchRecord> for Trace {
    fn extend<T: IntoIterator<Item = BranchRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_through_u8() {
        for kind in BranchKind::ALL {
            assert_eq!(BranchKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(BranchKind::from_u8(6), None);
        assert_eq!(BranchKind::from_u8(255), None);
    }

    #[test]
    fn only_cond_direct_is_conditional() {
        for kind in BranchKind::ALL {
            assert_eq!(kind.is_conditional(), kind == BranchKind::CondDirect);
        }
    }

    #[test]
    fn cond_constructor_sets_fields() {
        let r = BranchRecord::cond(0x1000, 0x2000, true, 7);
        assert_eq!(r.pc, 0x1000);
        assert_eq!(r.target, 0x2000);
        assert!(r.taken);
        assert_eq!(r.kind, BranchKind::CondDirect);
        assert_eq!(r.instructions(), 8);
    }

    #[test]
    #[should_panic(expected = "conditional")]
    fn uncond_constructor_rejects_conditional_kind() {
        BranchRecord::uncond(0x1000, 0x2000, BranchKind::CondDirect, 0);
    }

    #[test]
    fn uncond_is_always_taken() {
        let r = BranchRecord::uncond(0x10, 0x20, BranchKind::Call, 3);
        assert!(r.taken);
    }

    #[test]
    fn trace_counts() {
        let mut trace = Trace::new("t", Vec::new());
        assert!(trace.is_empty());
        trace.push(BranchRecord::cond(1, 2, true, 4));
        trace.push(BranchRecord::uncond(3, 4, BranchKind::Return, 2));
        trace.push(BranchRecord::cond(5, 6, false, 0));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.conditional_count(), 2);
        // (4+1) + (2+1) + (0+1)
        assert_eq!(trace.instruction_count(), 9);
    }

    #[test]
    fn trace_iteration_and_extend() {
        let mut trace = Trace::default();
        trace.extend(vec![
            BranchRecord::cond(1, 2, true, 0),
            BranchRecord::cond(3, 4, false, 0),
        ]);
        let pcs: Vec<u64> = trace.iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![1, 3]);
        let pcs2: Vec<u64> = (&trace).into_iter().map(|r| r.pc).collect();
        assert_eq!(pcs2, pcs);
    }

    #[test]
    fn display_formats() {
        let r = BranchRecord::cond(0x10, 0x20, false, 0);
        assert_eq!(format!("{r}"), "0x10 cond -> 0x20 N");
        assert_eq!(format!("{}", BranchKind::Return), "ret");
    }
}
