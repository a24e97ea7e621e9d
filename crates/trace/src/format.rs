//! Binary on-disk trace format with a streaming reader and writer.
//!
//! This is the "trace parsing harness" of the reproduction: the CBP
//! evaluation framework distributes branch traces as compressed binary
//! streams, and downstream users of this library will want to run the
//! predictors against their own recorded traces. The format is:
//!
//! ```text
//! magic   b"BFBT"
//! version u16 little-endian (currently 1)
//! name    varint length + UTF-8 bytes
//! records repeated:
//!     tag  u8: bit7 = taken, bits0..6 = kind discriminant (0x7F = end)
//!     pc      varint (delta-zigzag from previous pc)
//!     target  varint (delta-zigzag from pc)
//!     insts   varint
//! footer  end tag 0x7F, record count varint, checksum u64 (FNV-1a over
//!         all record bytes)
//! ```
//!
//! Varints are LEB128. PC/target deltas keep typical records at 4–6 bytes.
//!
//! # Examples
//!
//! ```
//! use bfbp_trace::format::{read_trace, write_trace};
//! use bfbp_trace::record::{BranchRecord, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = Trace::new("t", vec![BranchRecord::cond(0x40, 0x80, true, 3)]);
//! let mut buf = Vec::new();
//! write_trace(&mut buf, &trace)?;
//! let back = read_trace(&buf[..])?;
//! assert_eq!(back, trace);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::record::{BranchKind, BranchRecord, Trace};

/// Magic bytes identifying a trace file.
pub const MAGIC: [u8; 4] = *b"BFBT";
/// Current format version.
pub const VERSION: u16 = 1;

const END_TAG: u8 = 0x7F;

/// Errors produced while reading or writing a trace file.
#[derive(Debug)]
pub enum TraceFormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The stream's version is not supported.
    UnsupportedVersion(u16),
    /// A record carried an invalid branch-kind discriminant.
    BadKind(u8),
    /// A varint ran past its maximum width.
    MalformedVarint,
    /// The trace name was not valid UTF-8.
    BadName,
    /// The footer checksum did not match the records read.
    ChecksumMismatch {
        /// Checksum recorded in the file footer.
        expected: u64,
        /// Checksum computed over the records actually read.
        actual: u64,
    },
    /// The footer record count did not match the records read.
    CountMismatch {
        /// Count recorded in the file footer.
        expected: u64,
        /// Number of records actually read.
        actual: u64,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFormatError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            TraceFormatError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceFormatError::BadKind(k) => write!(f, "invalid branch kind {k}"),
            TraceFormatError::MalformedVarint => write!(f, "malformed varint"),
            TraceFormatError::BadName => write!(f, "trace name is not valid utf-8"),
            TraceFormatError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: footer {expected:#x}, computed {actual:#x}"
            ),
            TraceFormatError::CountMismatch { expected, actual } => {
                write!(f, "record count mismatch: footer {expected}, read {actual}")
            }
        }
    }
}

impl Error for TraceFormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFormatError {
    fn from(e: io::Error) -> Self {
        TraceFormatError::Io(e)
    }
}

fn write_varint<W: Write>(w: &mut W, mut value: u64, hash: &mut Fnv) -> io::Result<()> {
    loop {
        let mut byte = (value & 0x7F) as u8;
        value >>= 7;
        if value != 0 {
            byte |= 0x80;
        }
        hash.update(&[byte]);
        w.write_all(&[byte])?;
        if value == 0 {
            return Ok(());
        }
    }
}

fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Running 64-bit FNV-1a hash: the BFBT stream checksum, and the one
/// FNV-1a of the workspace. Checkpoint containers and wire frames
/// checksum with [`fnv1a`]; the trace-cache key and the sweep journal's
/// matrix id hash length-prefixed [`Fnv::field`]s.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The hash of no bytes (the FNV-1a offset basis).
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Hashes `bytes` in order.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.update1(b);
        }
    }

    #[inline]
    fn update1(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x100_0000_01B3);
    }

    /// Hashes one field of a record: its length as a little-endian
    /// `u64`, then its bytes, so adjacent fields cannot alias under
    /// concatenation (`"ab", "c"` differs from `"a", "bc"`).
    pub fn field(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.update(bytes);
    hash.finish()
}

/// Streaming trace writer.
///
/// Call [`TraceWriter::write`] for each record, then [`TraceWriter::finish`]
/// to emit the footer. Dropping without `finish` produces a truncated file
/// that the reader will reject.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    hash: Fnv,
    count: u64,
    prev_pc: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Returns an error if writing the header fails.
    pub fn new(mut inner: W, name: &str) -> Result<Self, TraceFormatError> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&VERSION.to_le_bytes())?;
        let mut scratch = Fnv::new();
        write_varint(&mut inner, name.len() as u64, &mut scratch)?;
        inner.write_all(name.as_bytes())?;
        Ok(Self {
            inner,
            hash: Fnv::new(),
            count: 0,
            prev_pc: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying writer fails.
    pub fn write(&mut self, record: &BranchRecord) -> Result<(), TraceFormatError> {
        let tag = (record.kind as u8) | if record.taken { 0x80 } else { 0 };
        self.hash.update(&[tag]);
        self.inner.write_all(&[tag])?;
        // Wrapping deltas: bijective for the full u64 range (a plain
        // signed subtraction overflows for pcs more than i64::MAX apart).
        write_varint(
            &mut self.inner,
            zigzag(record.pc.wrapping_sub(self.prev_pc) as i64),
            &mut self.hash,
        )?;
        write_varint(
            &mut self.inner,
            zigzag(record.target.wrapping_sub(record.pc) as i64),
            &mut self.hash,
        )?;
        write_varint(
            &mut self.inner,
            u64::from(record.non_branch_insts),
            &mut self.hash,
        )?;
        self.prev_pc = record.pc;
        self.count += 1;
        Ok(())
    }

    /// Writes the footer and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying writer fails.
    pub fn finish(mut self) -> Result<W, TraceFormatError> {
        self.inner.write_all(&[END_TAG])?;
        let mut scratch = Fnv::new();
        write_varint(&mut self.inner, self.count, &mut scratch)?;
        self.inner.write_all(&self.hash.finish().to_le_bytes())?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Internal read-ahead buffer size for [`TraceReader`]. Records average
/// 4–6 bytes, so one refill serves thousands of records.
const READER_BUF_BYTES: usize = 16 * 1024;

/// Longest LEB128 varint the format allows: ten 7-bit groups cover 64
/// bits.
const MAX_VARINT_BYTES: usize = 10;

/// Longest encoded record: a tag plus three varints of at most
/// [`MAX_VARINT_BYTES`] each. With this many bytes buffered, a record
/// decodes from the buffer slice with no refill or end-of-stream test.
const RECORD_WINDOW: usize = 1 + 3 * MAX_VARINT_BYTES;

/// Where [`TraceReader`]'s decode loop puts records: a `Vec` of records,
/// a chunk's columns, or the one slot the iterator hands out.
pub(crate) trait RecordSink {
    /// Appends one decoded record, field by field.
    fn put(&mut self, pc: u64, target: u64, kind: BranchKind, taken: bool, insts: u32);
}

impl RecordSink for Vec<BranchRecord> {
    #[inline]
    fn put(&mut self, pc: u64, target: u64, kind: BranchKind, taken: bool, insts: u32) {
        self.push(BranchRecord {
            pc,
            target,
            kind,
            taken,
            non_branch_insts: insts,
        });
    }
}

impl RecordSink for Option<BranchRecord> {
    #[inline]
    fn put(&mut self, pc: u64, target: u64, kind: BranchKind, taken: bool, insts: u32) {
        *self = Some(BranchRecord {
            pc,
            target,
            kind,
            taken,
            non_branch_insts: insts,
        });
    }
}

/// The instruction gap: [`TraceWriter`] stores a `u32`, so a wider
/// value marks a corrupt record even under a matching checksum.
#[inline]
fn inst_gap(value: u64) -> Result<u32, TraceFormatError> {
    u32::try_from(value).map_err(|_| TraceFormatError::MalformedVarint)
}

/// The varint at `window[at..]`, with the index just past it; `None`
/// when all [`MAX_VARINT_BYTES`] bytes carry a continuation bit.
#[inline(always)]
fn window_varint(window: &[u8; RECORD_WINDOW], at: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for i in 0..MAX_VARINT_BYTES {
        let byte = window[at + i];
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((value, at + i + 1));
        }
    }
    None
}

/// Streaming trace reader; an [`Iterator`] over records.
///
/// The footer (count + checksum) is validated when the end tag is reached;
/// validation failures surface as the iterator's final `Some(Err(..))`.
///
/// The reader maintains its own read-ahead buffer and decodes records
/// straight from it, so the per-record hot path never issues a read
/// against the underlying source; wrapping the source in a `BufReader`
/// is unnecessary. While a whole 31-byte record window is buffered, a
/// record decodes from the buffer slice in one step; the header, the footer,
/// the last bytes of each buffer and any record the window cannot accept
/// go a byte at a time, and that byte path is the one that reports every
/// record error.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: R,
    buf: Box<[u8]>,
    pos: usize,
    filled: usize,
    name: String,
    hash: Fnv,
    count: u64,
    prev_pc: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader, consuming and validating the header.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, bad magic, unsupported version, or
    /// a malformed name.
    pub fn new(inner: R) -> Result<Self, TraceFormatError> {
        let mut reader = Self {
            inner,
            buf: vec![0u8; READER_BUF_BYTES].into_boxed_slice(),
            pos: 0,
            filled: 0,
            name: String::new(),
            hash: Fnv::new(),
            count: 0,
            prev_pc: 0,
            done: false,
        };
        let mut magic = [0u8; 4];
        reader.fill_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(TraceFormatError::BadMagic(magic));
        }
        let mut ver = [0u8; 2];
        reader.fill_exact(&mut ver)?;
        let version = u16::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceFormatError::UnsupportedVersion(version));
        }
        // The name grows only as the stream delivers its bytes: a
        // corrupt length runs into end-of-stream, not a huge allocation.
        let name_len = reader.varint_unhashed()?;
        let mut name_bytes = Vec::new();
        for _ in 0..name_len {
            name_bytes.push(reader.next_byte()?);
        }
        reader.name = String::from_utf8(name_bytes).map_err(|_| TraceFormatError::BadName)?;
        Ok(reader)
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One byte off the read-ahead buffer, refilling from the source when
    /// the buffer runs dry. EOF mid-stream surfaces as an `UnexpectedEof`
    /// I/O error, matching `Read::read_exact`.
    #[inline]
    fn next_byte(&mut self) -> Result<u8, TraceFormatError> {
        if self.pos == self.filled {
            self.refill()?;
        }
        let byte = self.buf[self.pos];
        self.pos += 1;
        Ok(byte)
    }

    #[cold]
    fn refill(&mut self) -> Result<(), TraceFormatError> {
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => {
                    return Err(TraceFormatError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "unexpected end of trace stream",
                    )))
                }
                Ok(n) => {
                    self.pos = 0;
                    self.filled = n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn fill_exact(&mut self, out: &mut [u8]) -> Result<(), TraceFormatError> {
        for slot in out.iter_mut() {
            *slot = self.next_byte()?;
        }
        Ok(())
    }

    /// A record-body varint; every consumed byte feeds the running
    /// stream checksum.
    #[inline]
    fn varint(&mut self) -> Result<u64, TraceFormatError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.next_byte()?;
            self.hash.update1(byte);
            if shift >= 64 {
                return Err(TraceFormatError::MalformedVarint);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A framing varint (header name length, footer record count): not
    /// part of the checksummed record bytes.
    fn varint_unhashed(&mut self) -> Result<u64, TraceFormatError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.next_byte()?;
            if shift >= 64 {
                return Err(TraceFormatError::MalformedVarint);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Decodes up to `max` records into `sink` and returns how many it
    /// delivered; fewer than `max` means the footer was reached and
    /// validated, and every later call returns `Ok(0)`. After an error
    /// the reader is exhausted too.
    pub(crate) fn read_into<S: RecordSink>(
        &mut self,
        sink: &mut S,
        max: usize,
    ) -> Result<usize, TraceFormatError> {
        let mut n = 0;
        while n < max && !self.done {
            n += self.decode_windows(sink, max - n);
            if n == max {
                break;
            }
            match self.decode_bytewise(sink) {
                Ok(true) => n += 1,
                Ok(false) => self.done = true,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        Ok(n)
    }

    /// Decodes up to `max` records from the buffer while a whole
    /// [`RECORD_WINDOW`] is buffered. Stops early at the end tag, a bad
    /// kind, a varint of more than [`MAX_VARINT_BYTES`] or a gap wider
    /// than `u32`, leaving that record to [`Self::decode_bytewise`],
    /// which validates the footer or reports the error.
    #[inline]
    fn decode_windows<S: RecordSink>(&mut self, sink: &mut S, max: usize) -> usize {
        let buf = &self.buf[..self.filled];
        let mut pos = self.pos;
        let mut hash = self.hash;
        let mut prev_pc = self.prev_pc;
        let mut n = 0;
        while n < max {
            let Some(window) = buf[pos..].first_chunk::<RECORD_WINDOW>() else {
                break;
            };
            let tag = window[0];
            // The end tag's kind bits (0x7F) are not a kind either.
            let Some(kind) = BranchKind::from_u8(tag & 0x7F) else {
                break;
            };
            let Some((pc_delta, at)) = window_varint(window, 1) else {
                break;
            };
            let Some((target_delta, at)) = window_varint(window, at) else {
                break;
            };
            let Some((gap, len)) = window_varint(window, at) else {
                break;
            };
            let Ok(insts) = inst_gap(gap) else {
                break;
            };
            hash.update(&window[..len]);
            let pc = prev_pc.wrapping_add(unzigzag(pc_delta) as u64);
            let target = pc.wrapping_add(unzigzag(target_delta) as u64);
            sink.put(pc, target, kind, tag & 0x80 != 0, insts);
            prev_pc = pc;
            pos += len;
            n += 1;
        }
        self.pos = pos;
        self.hash = hash;
        self.prev_pc = prev_pc;
        self.count += n as u64;
        n
    }

    /// Decodes one record a byte at a time, or validates the footer and
    /// returns `Ok(false)` at the end tag.
    fn decode_bytewise<S: RecordSink>(&mut self, sink: &mut S) -> Result<bool, TraceFormatError> {
        let tag = self.next_byte()?;
        if tag == END_TAG {
            let expected_count = self.varint_unhashed()?;
            let mut sum = [0u8; 8];
            self.fill_exact(&mut sum)?;
            let expected = u64::from_le_bytes(sum);
            let actual = self.hash.finish();
            if expected_count != self.count {
                return Err(TraceFormatError::CountMismatch {
                    expected: expected_count,
                    actual: self.count,
                });
            }
            if expected != actual {
                return Err(TraceFormatError::ChecksumMismatch { expected, actual });
            }
            return Ok(false);
        }
        self.hash.update1(tag);
        let taken = tag & 0x80 != 0;
        let kind = BranchKind::from_u8(tag & 0x7F).ok_or(TraceFormatError::BadKind(tag & 0x7F))?;
        let pc = self.prev_pc.wrapping_add(unzigzag(self.varint()?) as u64);
        let target = pc.wrapping_add(unzigzag(self.varint()?) as u64);
        let insts = inst_gap(self.varint()?)?;
        self.prev_pc = pc;
        self.count += 1;
        sink.put(pc, target, kind, taken, insts);
        Ok(true)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<BranchRecord, TraceFormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut record = None;
        match self.read_into(&mut record, 1) {
            Ok(_) => record.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }
}

/// Writes an entire in-memory trace to `writer`.
///
/// The `writer` can be any [`Write`] implementation; pass `&mut file` to
/// keep ownership of a file.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn write_trace<W: Write>(writer: W, trace: &Trace) -> Result<(), TraceFormatError> {
    let mut tw = TraceWriter::new(writer, trace.name())?;
    for record in trace {
        tw.write(record)?;
    }
    tw.finish()?;
    Ok(())
}

/// Reads an entire trace from `reader` into memory.
///
/// The `reader` can be any [`Read`] implementation; pass `&mut file` to
/// keep ownership of a file.
///
/// # Errors
///
/// Returns an error on I/O failure or any format violation, including
/// checksum or record-count mismatches.
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, TraceFormatError> {
    let mut tr = TraceReader::new(reader)?;
    let mut records = Vec::new();
    tr.read_into(&mut records, usize::MAX)?;
    Ok(Trace::new(std::mem::take(&mut tr.name), records))
}

/// Opens and fully reads (and thereby validates) a trace file.
///
/// Every format check the streaming reader performs — magic, version,
/// varint shape, branch kinds, the footer count and checksum — runs
/// before a single record is handed to a simulation, so a corrupt file
/// surfaces as one structured [`TraceFormatError`] at load time instead
/// of garbage results later.
///
/// # Errors
///
/// Returns an error if the file cannot be opened or fails any format
/// validation.
pub fn read_trace_file(path: impl AsRef<std::path::Path>) -> Result<Trace, TraceFormatError> {
    let file = std::fs::File::open(path)?;
    read_trace(file)
}

pub mod corrupt {
    //! Deterministic trace-stream corruption, for fault injection and
    //! robustness tests.
    //!
    //! Each [`CorruptKind`] names one
    //! [`TraceFormatError`](super::TraceFormatError) variant;
    //! [`corrupted`] serializes a healthy trace and then mutates exactly
    //! the bytes needed so that reading the stream back fails with that
    //! variant. The sweep engine's fault-injection harness uses this to
    //! manufacture *real* trace-parse failures (the error path through
    //! `read_trace` is genuinely exercised, not simulated with a
    //! hand-built error value).

    use super::{write_trace, Trace, END_TAG, MAGIC};

    /// Which [`super::TraceFormatError`] variant a corruption provokes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum CorruptKind {
        /// Overwrites the magic → [`super::TraceFormatError::BadMagic`].
        BadMagic,
        /// Bumps the version → [`super::TraceFormatError::UnsupportedVersion`].
        UnsupportedVersion,
        /// Over-long name-length varint → [`super::TraceFormatError::MalformedVarint`].
        MalformedVarint,
        /// Flips a record's taken bit → [`super::TraceFormatError::ChecksumMismatch`].
        ChecksumMismatch,
        /// Bumps the footer count → [`super::TraceFormatError::CountMismatch`].
        CountMismatch,
        /// Invalid branch-kind discriminant → [`super::TraceFormatError::BadKind`].
        BadKind,
        /// Non-UTF-8 name byte → [`super::TraceFormatError::BadName`].
        BadName,
        /// A name length of 16 GiB, far past the stream's end →
        /// [`super::TraceFormatError::Io`] (`UnexpectedEof`). The reader
        /// allocates only the name bytes the stream delivers.
        HugeName,
    }

    impl CorruptKind {
        /// Every corruption kind, one per recoverable reader error.
        pub const ALL: [CorruptKind; 8] = [
            CorruptKind::BadMagic,
            CorruptKind::UnsupportedVersion,
            CorruptKind::MalformedVarint,
            CorruptKind::ChecksumMismatch,
            CorruptKind::CountMismatch,
            CorruptKind::BadKind,
            CorruptKind::BadName,
            CorruptKind::HugeName,
        ];

        /// Stable kebab-case name (used by `--fault-plan io@JOB=KIND`).
        pub fn name(self) -> &'static str {
            match self {
                CorruptKind::BadMagic => "bad-magic",
                CorruptKind::UnsupportedVersion => "bad-version",
                CorruptKind::MalformedVarint => "bad-varint",
                CorruptKind::ChecksumMismatch => "checksum",
                CorruptKind::CountMismatch => "count",
                CorruptKind::BadKind => "bad-kind",
                CorruptKind::BadName => "bad-name",
                CorruptKind::HugeName => "huge-name",
            }
        }

        /// Parses the [`CorruptKind::name`] form.
        pub fn parse(text: &str) -> Option<Self> {
            Self::ALL.iter().copied().find(|k| k.name() == text)
        }
    }

    /// Serializes `trace` and corrupts the bytes to provoke `kind` on
    /// read-back.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not leave room for surgical corruption:
    /// it needs 1–126 records and a 1–126 byte ASCII name (so the name
    /// and footer-count varints are single bytes at known offsets).
    /// Every in-tree synthetic trace and test fixture satisfies this
    /// after truncation.
    pub fn corrupted(trace: &Trace, kind: CorruptKind) -> Vec<u8> {
        let name_len = trace.name().len();
        assert!(
            (1..127).contains(&name_len) && trace.name().is_ascii(),
            "corrupted() needs a 1-126 byte ASCII trace name"
        );
        assert!(
            (1..127).contains(&trace.len()),
            "corrupted() needs 1-126 records, got {}",
            trace.len()
        );
        let mut buf = Vec::new();
        write_trace(&mut buf, trace).expect("in-memory serialization cannot fail");
        // Layout: magic[0..4] version[4..6] name_len@6 name[7..7+len]
        // records... END_TAG count_varint checksum[8].
        let first_tag = 4 + 2 + 1 + name_len;
        let count_at = buf.len() - 9;
        debug_assert_eq!(buf[0..4], MAGIC);
        debug_assert_eq!(buf[count_at - 1], END_TAG);
        match kind {
            CorruptKind::BadMagic => buf[0] = b'X',
            CorruptKind::UnsupportedVersion => buf[4..6].copy_from_slice(&99u16.to_le_bytes()),
            // 11 continuation bytes push the varint shift past 64 bits.
            CorruptKind::MalformedVarint => {
                buf.splice(6..7, std::iter::repeat_n(0x80, 11));
            }
            CorruptKind::ChecksumMismatch => buf[first_tag] ^= 0x80,
            CorruptKind::CountMismatch => buf[count_at] += 1,
            CorruptKind::BadKind => buf[first_tag] = 0x7E,
            CorruptKind::BadName => buf[7] = 0xFF,
            // 0x3_FFFF_FFFF name bytes.
            CorruptKind::HugeName => {
                buf.splice(6..7, [0xFF, 0xFF, 0xFF, 0xFF, 0x3F]);
            }
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::new(
            "sample",
            vec![
                BranchRecord::cond(0x400_000, 0x400_040, true, 5),
                BranchRecord::cond(0x400_040, 0x400_000, false, 2),
                BranchRecord::uncond(0x400_100, 0x500_000, BranchKind::Call, 9),
                BranchRecord::uncond(0x500_010, 0x400_104, BranchKind::Return, 1),
                BranchRecord::cond(0x400_108, 0x400_000, true, 0),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_records() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn roundtrip_empty_trace() {
        let trace = Trace::new("empty", Vec::new());
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.name(), "empty");
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOPE\x01\x00".to_vec();
        match read_trace(&buf[..]) {
            Err(TraceFormatError::BadMagic(m)) => assert_eq!(&m, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(&buf[..]),
            Err(TraceFormatError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn corrupted_body_fails_checksum() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        // Flip a taken bit inside the body (first record tag after header).
        let header_len = 4 + 2 + 1 + "sample".len();
        buf[header_len] ^= 0x80;
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(
            matches!(err, TraceFormatError::ChecksumMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(matches!(read_trace(&buf[..]), Err(TraceFormatError::Io(_))));
    }

    #[test]
    fn reader_exposes_name_and_streams() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.name(), "sample");
        let n = (&mut reader).inspect(|r| assert!(r.is_ok())).count();
        assert_eq!(n, 5);
        // Exhausted reader keeps returning None.
        assert!(reader.next().is_none());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn every_corrupt_kind_provokes_its_error() {
        use corrupt::{corrupted, CorruptKind};
        let trace = sample_trace();
        for kind in CorruptKind::ALL {
            let buf = corrupted(&trace, kind);
            let err = read_trace(&buf[..]).expect_err("corrupted stream must fail");
            let matches = match kind {
                CorruptKind::BadMagic => matches!(err, TraceFormatError::BadMagic(_)),
                CorruptKind::UnsupportedVersion => {
                    matches!(err, TraceFormatError::UnsupportedVersion(99))
                }
                CorruptKind::MalformedVarint => {
                    matches!(err, TraceFormatError::MalformedVarint)
                }
                CorruptKind::ChecksumMismatch => {
                    matches!(err, TraceFormatError::ChecksumMismatch { .. })
                }
                CorruptKind::CountMismatch => {
                    matches!(err, TraceFormatError::CountMismatch { .. })
                }
                CorruptKind::BadKind => matches!(err, TraceFormatError::BadKind(0x7E)),
                CorruptKind::BadName => matches!(err, TraceFormatError::BadName),
                CorruptKind::HugeName => {
                    matches!(&err, TraceFormatError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
                }
            };
            assert!(matches, "{kind:?} produced {err:?}");
        }
    }

    #[test]
    fn corrupt_kind_names_round_trip() {
        use corrupt::CorruptKind;
        for kind in CorruptKind::ALL {
            assert_eq!(CorruptKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CorruptKind::parse("nope"), None);
    }

    #[test]
    fn read_trace_file_round_trips_and_validates() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("bfbp-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bfbt");
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        std::fs::write(&path, &buf).unwrap();
        assert_eq!(read_trace_file(&path).unwrap(), trace);

        let bad = dir.join("bad.bfbt");
        std::fs::write(
            &bad,
            corrupt::corrupted(&trace, corrupt::CorruptKind::ChecksumMismatch),
        )
        .unwrap();
        assert!(matches!(
            read_trace_file(&bad),
            Err(TraceFormatError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            read_trace_file(dir.join("missing.bfbt")),
            Err(TraceFormatError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_nonempty() {
        let errors: Vec<TraceFormatError> = vec![
            TraceFormatError::BadMagic(*b"ABCD"),
            TraceFormatError::UnsupportedVersion(9),
            TraceFormatError::BadKind(77),
            TraceFormatError::MalformedVarint,
            TraceFormatError::BadName,
            TraceFormatError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            TraceFormatError::CountMismatch {
                expected: 3,
                actual: 4,
            },
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    /// A hand-built stream: `records` are `(tag, pc delta, target delta,
    /// gap)` with the deltas already zigzagged, and the footer carries
    /// their true count and checksum.
    fn hand_built(records: &[(u8, u64, u64, u64)]) -> Vec<u8> {
        let mut body = Vec::new();
        let mut hash = Fnv::new();
        for &(tag, pc, target, gap) in records {
            body.push(tag);
            for value in [pc, target, gap] {
                write_varint(&mut body, value, &mut Fnv::new()).unwrap();
            }
        }
        hash.update(&body);
        let mut buf = b"BFBT\x01\x00\x01h".to_vec();
        buf.extend_from_slice(&body);
        buf.push(END_TAG);
        write_varint(&mut buf, records.len() as u64, &mut Fnv::new()).unwrap();
        buf.extend_from_slice(&hash.finish().to_le_bytes());
        buf
    }

    #[test]
    fn gap_above_u32_is_malformed_under_a_valid_checksum() {
        let plain = (0x00, 2, 4, 1);
        let widest = (0x80, 2, 4, u64::from(u32::MAX));
        let too_wide = (0x80, 2, 4, u64::from(u32::MAX) + 1);
        // First, the window path meets the record (30+ bytes follow it);
        // last, the byte path does.
        for at_end in [false, true] {
            let mut records = vec![plain; 12];
            records.insert(if at_end { 12 } else { 0 }, widest);
            let back = read_trace(&hand_built(&records)[..]).unwrap();
            assert!(back
                .records()
                .iter()
                .any(|r| r.non_branch_insts == u32::MAX));

            let mut records = vec![plain; 12];
            records.insert(if at_end { 12 } else { 0 }, too_wide);
            let err = read_trace(&hand_built(&records)[..]).unwrap_err();
            assert!(
                matches!(err, TraceFormatError::MalformedVarint),
                "at_end {at_end}: {err:?}"
            );
        }
    }

    #[test]
    fn huge_name_length_is_an_error_not_an_allocation() {
        // 0x3_FFFF_FFFF name bytes claimed, one delivered.
        let buf = b"BFBT\x01\x00\xff\xff\xff\xff\x3fx";
        assert_eq!(buf.len(), 12);
        match read_trace(&buf[..]) {
            Err(TraceFormatError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }
}
