//! Streaming trace sources: fixed-size structure-of-arrays chunks.
//!
//! A [`TraceSource`] hands out [`TraceChunk`]s of at most a caller-chosen
//! record count, so a consumer's working set is O(chunk) regardless of
//! trace length. Two sources cover every way a trace enters the
//! simulator:
//!
//! * [`FileSource`] — incremental decode on top of
//!   [`TraceReader`], for BFBT files (including trace-cache entries),
//!   which the `simulate_trace` binary streams without holding the
//!   whole trace;
//! * [`ReplaySource`] — replay of an in-memory [`Trace`], which every
//!   sweep job runs.
//!
//! Both produce identical record sequences for identical logical traces,
//! so a chunked consumer is byte-for-byte equivalent to one that
//! iterated a `Vec<BranchRecord>`.

use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::path::Path;

use crate::format::{RecordSink, TraceFormatError, TraceReader};
use crate::record::{BranchKind, BranchRecord, Trace};

/// Default chunk capacity in records. Matches the sweep engine's
/// cancellation-check cadence so a chunk boundary doubles as a
/// cancellation point without changing timeout latency.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// A fixed-capacity structure-of-arrays batch of branch records.
///
/// Each field of [`BranchRecord`] lives in its own parallel array, so
/// the simulation hot loop reads `pc`/`taken` runs contiguously instead
/// of striding over 32-byte records. All five arrays always have the
/// same length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceChunk {
    pc: Vec<u64>,
    target: Vec<u64>,
    kind: Vec<BranchKind>,
    taken: Vec<bool>,
    inst_gap: Vec<u32>,
}

impl TraceChunk {
    /// Creates an empty chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty chunk with room for `n` records per array.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pc: Vec::with_capacity(n),
            target: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            taken: Vec::with_capacity(n),
            inst_gap: Vec::with_capacity(n),
        }
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Removes every record, keeping the allocations.
    pub fn clear(&mut self) {
        self.pc.clear();
        self.target.clear();
        self.kind.clear();
        self.taken.clear();
        self.inst_gap.clear();
    }

    /// Appends one record, splitting it across the arrays.
    pub fn push(&mut self, record: &BranchRecord) {
        self.put(
            record.pc,
            record.target,
            record.kind,
            record.taken,
            record.non_branch_insts,
        );
    }

    /// Appends `records`, filling one array at a time.
    pub fn extend_from_records(&mut self, records: &[BranchRecord]) {
        self.pc.extend(records.iter().map(|r| r.pc));
        self.target.extend(records.iter().map(|r| r.target));
        self.kind.extend(records.iter().map(|r| r.kind));
        self.taken.extend(records.iter().map(|r| r.taken));
        self.inst_gap
            .extend(records.iter().map(|r| r.non_branch_insts));
    }

    /// Branch addresses, one per record.
    pub fn pcs(&self) -> &[u64] {
        &self.pc
    }

    /// Taken targets, parallel to [`TraceChunk::pcs`].
    pub fn targets(&self) -> &[u64] {
        &self.target
    }

    /// Branch kinds, parallel to [`TraceChunk::pcs`].
    pub fn kinds(&self) -> &[BranchKind] {
        &self.kind
    }

    /// Resolved directions, parallel to [`TraceChunk::pcs`].
    pub fn takens(&self) -> &[bool] {
        &self.taken
    }

    /// Non-branch instruction gaps, parallel to [`TraceChunk::pcs`].
    pub fn inst_gaps(&self) -> &[u32] {
        &self.inst_gap
    }

    /// Splits the records in `range` into maximal runs of same-kind
    /// records, all conditional or all not, each cut to at most `max_len`
    /// records. Yields `(start, end, conditional)` in commit order.
    ///
    /// The one segmentation of a chunk: the simulation loop drives each
    /// run through one batch call, and serving clients send each run as
    /// one request.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    pub fn kind_runs(
        &self,
        range: Range<usize>,
        max_len: usize,
    ) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        let kinds = &self.kind[..range.end];
        let max_len = max_len.max(1);
        let mut i = range.start;
        std::iter::from_fn(move || {
            let start = i;
            let conditional = kinds.get(start)?.is_conditional();
            let end = kinds.len().min(start.saturating_add(max_len));
            i += 1;
            while i < end && kinds[i].is_conditional() == conditional {
                i += 1;
            }
            Some((start, i, conditional))
        })
    }

    /// Reassembles record `i` from the arrays.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn record(&self, i: usize) -> BranchRecord {
        BranchRecord {
            pc: self.pc[i],
            target: self.target[i],
            kind: self.kind[i],
            taken: self.taken[i],
            non_branch_insts: self.inst_gap[i],
        }
    }
}

/// The BFBT decoder writes straight into the columns.
impl RecordSink for TraceChunk {
    #[inline]
    fn put(&mut self, pc: u64, target: u64, kind: BranchKind, taken: bool, insts: u32) {
        self.pc.push(pc);
        self.target.push(target);
        self.kind.push(kind);
        self.taken.push(taken);
        self.inst_gap.push(insts);
    }
}

/// A producer of [`TraceChunk`]s: one logical trace, delivered
/// incrementally in commit order.
pub trait TraceSource {
    /// The trace's display name.
    fn name(&self) -> &str;

    /// Clears `chunk`, refills it with up to `max_records` records, and
    /// returns the number delivered. A return of `0` means the source is
    /// exhausted; callers must not call again after observing it.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFormatError`] when the underlying byte stream
    /// fails to decode (only [`FileSource`] can fail).
    fn fill_chunk(
        &mut self,
        chunk: &mut TraceChunk,
        max_records: usize,
    ) -> Result<usize, TraceFormatError>;
}

/// Chunked decode of a BFBT stream via [`TraceReader`].
///
/// The reader validates the footer (record count + FNV checksum) when it
/// reaches the end marker, so a torn or corrupted file surfaces as an
/// error from [`TraceSource::fill_chunk`] rather than silently
/// truncated records.
#[derive(Debug)]
pub struct FileSource<R: Read> {
    reader: Option<TraceReader<R>>,
    name: String,
}

impl FileSource<File> {
    /// Opens a BFBT file for chunked reading.
    ///
    /// [`TraceReader`] maintains its own read-ahead buffer, so the file
    /// is handed over unwrapped — a `BufReader` here would only add a
    /// second copy of every byte.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFormatError`] if the file cannot be opened or
    /// its header is invalid.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFormatError> {
        let file = File::open(path)?;
        Self::from_reader(file)
    }
}

impl<R: Read> FileSource<R> {
    /// Wraps any byte stream carrying a BFBT trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFormatError`] if the header is invalid.
    pub fn from_reader(inner: R) -> Result<Self, TraceFormatError> {
        let reader = TraceReader::new(inner)?;
        let name = reader.name().to_owned();
        Ok(Self {
            reader: Some(reader),
            name,
        })
    }
}

impl<R: Read> TraceSource for FileSource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn fill_chunk(
        &mut self,
        chunk: &mut TraceChunk,
        max_records: usize,
    ) -> Result<usize, TraceFormatError> {
        chunk.clear();
        let Some(reader) = self.reader.as_mut() else {
            return Ok(0);
        };
        match reader.read_into(chunk, max_records) {
            Ok(n) => {
                if n < max_records {
                    // The footer validated: the stream is done.
                    self.reader = None;
                }
                Ok(n)
            }
            Err(e) => {
                // Fuse after a decode error: the stream position is
                // unrecoverable, so later calls report exhaustion.
                self.reader = None;
                Err(e)
            }
        }
    }
}

/// Replay of an already-materialized [`Trace`], chunk by chunk.
#[derive(Debug, Clone)]
pub struct ReplaySource<'t> {
    trace: &'t Trace,
    pos: usize,
}

impl<'t> ReplaySource<'t> {
    /// Wraps a trace for chunked replay from its first record.
    pub fn new(trace: &'t Trace) -> Self {
        Self { trace, pos: 0 }
    }
}

impl TraceSource for ReplaySource<'_> {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn fill_chunk(
        &mut self,
        chunk: &mut TraceChunk,
        max_records: usize,
    ) -> Result<usize, TraceFormatError> {
        chunk.clear();
        let records = self.trace.records();
        let n = max_records.min(records.len() - self.pos);
        chunk.extend_from_records(&records[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drains a source into a materialized [`Trace`] — the inverse of
/// [`ReplaySource`], mostly for tests and tools that need the whole
/// trace after all.
///
/// # Errors
///
/// Propagates the first decode error from the source.
pub fn collect_source<S: TraceSource + ?Sized>(source: &mut S) -> Result<Trace, TraceFormatError> {
    let name = source.name().to_owned();
    let mut records = Vec::new();
    let mut chunk = TraceChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    while source.fill_chunk(&mut chunk, DEFAULT_CHUNK_RECORDS)? > 0 {
        for i in 0..chunk.len() {
            records.push(chunk.record(i));
        }
    }
    Ok(Trace::new(name, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_trace;
    use crate::synth::suite;

    fn small_trace() -> Trace {
        suite::find("FP2").unwrap().generate_len(2500)
    }

    #[test]
    fn replay_source_round_trips() {
        let trace = small_trace();
        let mut source = ReplaySource::new(&trace);
        assert_eq!(source.name(), "FP2");
        let back = collect_source(&mut source).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn replay_chunks_are_bounded_and_exact() {
        let trace = small_trace();
        let mut source = ReplaySource::new(&trace);
        let mut chunk = TraceChunk::new();
        let mut total = 0;
        loop {
            let n = source.fill_chunk(&mut chunk, 512).unwrap();
            assert!(n <= 512);
            assert_eq!(n, chunk.len());
            for i in 0..n {
                assert_eq!(chunk.record(i), trace.records()[total + i]);
            }
            total += n;
            if n == 0 {
                break;
            }
        }
        assert_eq!(total, trace.len());
    }

    #[test]
    fn file_source_matches_replay() {
        let trace = small_trace();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).unwrap();
        let mut source = FileSource::from_reader(&bytes[..]).unwrap();
        assert_eq!(source.name(), "FP2");
        let back = collect_source(&mut source).unwrap();
        assert_eq!(back, trace);
        // Exhausted source keeps reporting 0.
        let mut chunk = TraceChunk::new();
        assert_eq!(source.fill_chunk(&mut chunk, 64).unwrap(), 0);
    }

    #[test]
    fn file_source_surfaces_corruption() {
        let trace = small_trace();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).unwrap();
        bytes.truncate(bytes.len() - 3); // tear the footer off
        let mut source = FileSource::from_reader(&bytes[..]).unwrap();
        let mut chunk = TraceChunk::new();
        let mut failed = false;
        loop {
            match source.fill_chunk(&mut chunk, 512) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "torn footer must surface as a decode error");
        // Fused after the error.
        assert_eq!(source.fill_chunk(&mut chunk, 512).unwrap(), 0);
    }

    #[test]
    fn chunk_accessors_stay_parallel() {
        let mut chunk = TraceChunk::with_capacity(4);
        chunk.push(&BranchRecord::cond(0x10, 0x50, true, 3));
        chunk.push(&BranchRecord::uncond(0x20, 0x90, BranchKind::Call, 7));
        assert_eq!(chunk.len(), 2);
        assert!(!chunk.is_empty());
        assert_eq!(chunk.pcs(), &[0x10, 0x20]);
        assert_eq!(chunk.targets(), &[0x50, 0x90]);
        assert_eq!(chunk.kinds(), &[BranchKind::CondDirect, BranchKind::Call]);
        assert_eq!(chunk.takens(), &[true, true]);
        assert_eq!(chunk.inst_gaps(), &[3, 7]);
        assert_eq!(chunk.record(1).kind, BranchKind::Call);
        chunk.clear();
        assert!(chunk.is_empty());
    }

    #[test]
    fn kind_runs_are_maximal_capped_and_cover_the_range() {
        let mut chunk = TraceChunk::new();
        let call = BranchRecord::uncond(0x20, 0x90, BranchKind::Call, 0);
        let ret = BranchRecord::uncond(0x24, 0x94, BranchKind::Return, 0);
        let cond = BranchRecord::cond(0x10, 0x50, true, 0);
        for r in [cond, cond, cond, call, ret, cond, call] {
            chunk.push(&r);
        }
        let runs = |range, max| chunk.kind_runs(range, max).collect::<Vec<_>>();
        assert_eq!(
            runs(0..7, usize::MAX),
            [(0, 3, true), (3, 5, false), (5, 6, true), (6, 7, false)]
        );
        assert_eq!(
            runs(0..7, 2),
            [
                (0, 2, true),
                (2, 3, true),
                (3, 5, false),
                (5, 6, true),
                (6, 7, false)
            ]
        );
        assert_eq!(runs(1..4, usize::MAX), [(1, 3, true), (3, 4, false)]);
        // A zero cap still makes progress, one record a run.
        assert_eq!(runs(0..2, 0), [(0, 1, true), (1, 2, true)]);
        assert_eq!(runs(4..4, 8), []);
    }
}
