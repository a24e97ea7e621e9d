//! Crash-consistent checkpoint codec: the `bfbp-ckpt/1` binary format.
//!
//! Long-horizon jobs (hundreds of millions of records) must survive
//! preemption without restarting from record zero. This module provides
//! the three layers that make that possible:
//!
//! 1. a tiny fixed-width, little-endian, length-prefixed state codec
//!    ([`StateWriter`] / [`StateReader`]) with no external dependencies;
//! 2. the [`Restorable`] capability trait — an object-safe
//!    snapshot/restore surface that every registry predictor implements
//!    (exposed through
//!    [`ConditionalPredictor::checkpointing`](crate::predictor::ConditionalPredictor::checkpointing));
//! 3. the on-disk `bfbp-ckpt/1` container: a magic header, an opaque
//!    payload, and a length + FNV-1a checksum trailer, written
//!    atomically (temp file + rename) so a reader can never observe a
//!    torn file under the final name.
//!
//! The format is deliberately strict on read: any truncation, checksum
//! mismatch, version skew, or structural surprise surfaces as a
//! [`CodecError`], and callers degrade to a from-zero re-run — a bad
//! checkpoint may cost time, never correctness.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::simulate::IntervalPoint;

/// Magic line opening every checkpoint file; doubles as the format
/// version. Any layout change must bump the `/1`.
pub const CKPT_MAGIC: &[u8; 12] = b"bfbp-ckpt/1\n";

/// The container trailer's checksum: the trace format's FNV-1a, so the
/// whole workspace has one hash.
pub use bfbp_trace::format::fnv1a;

/// Why a checkpoint payload could not be decoded.
///
/// Every variant means the same thing to a caller — the checkpoint is
/// unusable, fall back to a from-zero run — but the distinction matters
/// for the quarantine journal event.
#[derive(Debug)]
pub enum CodecError {
    /// The byte stream ended before the value it promised.
    Truncated,
    /// The file does not start with [`CKPT_MAGIC`]: a wrong file, or a
    /// future format version.
    BadMagic,
    /// The payload checksum does not match the trailer (torn or
    /// corrupted write).
    ChecksumMismatch,
    /// A length prefix or discriminant is structurally impossible.
    Malformed(&'static str),
    /// The underlying file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "checkpoint truncated"),
            CodecError::BadMagic => write!(f, "not a bfbp-ckpt/1 file"),
            CodecError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CodecError::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Serializer for predictor and simulation state: fixed-width
/// little-endian scalars, `u64` length prefixes on all variable-size
/// values.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The serialized bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i8` as its two's-complement byte.
    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian two's-complement `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian two's-complement `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the format is 64-bit everywhere).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte (`0` / `1`).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `i8` slice (weight tables).
    pub fn i8_slice(&mut self, v: &[i8]) {
        self.u64(v.len() as u64);
        self.buf.extend(v.iter().map(|&x| x as u8));
    }

    /// Writes a length-prefixed `i32` slice.
    pub fn i32_slice(&mut self, v: &[i32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.i32(x);
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
}

/// Deserializer matching [`StateWriter`], byte for byte.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — structural drift
    /// (e.g. a predictor built with different parameters) must not pass
    /// silently.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i8`.
    pub fn i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.u8()? as i8)
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`); fails if it cannot fit.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Malformed("usize overflow"))
    }

    /// Reads a `bool`; any byte other than `0`/`1` is malformed.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool out of range")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Malformed("invalid utf-8"))
    }

    /// Reads a length-prefixed `i8` slice into `out`, which must already
    /// have the expected length (catches parameter drift).
    pub fn i8_into(&mut self, out: &mut [i8]) -> Result<(), CodecError> {
        let n = self.usize()?;
        if n != out.len() {
            return Err(CodecError::Malformed("i8 slice length mismatch"));
        }
        let src = self.take(n)?;
        for (dst, &b) in out.iter_mut().zip(src) {
            *dst = b as i8;
        }
        Ok(())
    }

    /// Reads a length-prefixed `i32` slice.
    pub fn i32_vec(&mut self) -> Result<Vec<i32>, CodecError> {
        let n = self.usize()?;
        if self.remaining() < n.saturating_mul(4) {
            return Err(CodecError::Truncated);
        }
        (0..n).map(|_| self.i32()).collect()
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.usize()?;
        if self.remaining() < n.saturating_mul(4) {
            return Err(CodecError::Truncated);
        }
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(CodecError::Truncated);
        }
        (0..n).map(|_| self.u64()).collect()
    }
}

/// The snapshot/restore capability: a predictor (or component) that can
/// serialize its complete mutable state and later restore it exactly.
///
/// The contract is *bit-exactness*: after `save_state` → `load_state`
/// into a freshly built instance of the same configuration, every
/// subsequent `predict`/`update`/`introspect` result must be identical
/// to the original instance's — including observability counters, RNG
/// streams, and derived caches. Per-prediction scratch that is fully
/// overwritten by the next `predict` call may be skipped.
pub trait Restorable {
    /// Appends this value's complete mutable state to `w`.
    fn save_state(&self, w: &mut StateWriter);

    /// Restores state previously produced by [`Restorable::save_state`]
    /// on an identically configured instance.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bytes are truncated or
    /// structurally incompatible (e.g. a table length differs); the
    /// value may be left partially modified and must be discarded.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError>;
}

/// Simulation-level accounting captured at a chunk boundary, together
/// with the predictor snapshot taken at the same instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCheckpoint {
    /// Trace records fully processed.
    pub records: u64,
    /// Instructions accounted so far.
    pub instructions: u64,
    /// Conditional branches predicted so far.
    pub conditional_branches: u64,
    /// Mispredictions so far.
    pub mispredictions: u64,
    /// Interval windows already closed.
    pub intervals: Vec<IntervalPoint>,
    /// The open (partial) interval window.
    pub window: IntervalPoint,
    /// The predictor's serialized [`Restorable`] state.
    pub predictor: Vec<u8>,
}

impl SimCheckpoint {
    /// Serializes the checkpoint into `w`.
    pub fn encode_into(&self, w: &mut StateWriter) {
        w.u64(self.records);
        w.u64(self.instructions);
        w.u64(self.conditional_branches);
        w.u64(self.mispredictions);
        w.u64(self.intervals.len() as u64);
        for p in self.intervals.iter().chain(std::iter::once(&self.window)) {
            w.u64(p.instructions);
            w.u64(p.conditional_branches);
            w.u64(p.mispredictions);
        }
        w.bytes(&self.predictor);
    }

    /// Decodes a checkpoint serialized by [`SimCheckpoint::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut StateReader<'_>) -> Result<Self, CodecError> {
        let records = r.u64()?;
        let instructions = r.u64()?;
        let conditional_branches = r.u64()?;
        let mispredictions = r.u64()?;
        let n = r.usize()?;
        if r.remaining() < n.saturating_mul(24) {
            return Err(CodecError::Truncated);
        }
        let mut point = || -> Result<IntervalPoint, CodecError> {
            Ok(IntervalPoint {
                instructions: r.u64()?,
                conditional_branches: r.u64()?,
                mispredictions: r.u64()?,
            })
        };
        let intervals = (0..n).map(|_| point()).collect::<Result<Vec<_>, _>>()?;
        let window = point()?;
        let predictor = r.bytes()?.to_vec();
        Ok(Self {
            records,
            instructions,
            conditional_branches,
            mispredictions,
            intervals,
            window,
            predictor,
        })
    }
}

/// One job's complete on-disk checkpoint: identity (so a stale file for
/// a different matrix or predictor can never restore into the wrong
/// job), the simulation snapshot, and opaque engine-level observer
/// state (H2P attribution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCheckpoint {
    /// The sweep matrix fingerprint this checkpoint belongs to.
    pub matrix_id: u64,
    /// Job index within the matrix.
    pub job_index: u64,
    /// Predictor display name, as a secondary identity check.
    pub predictor: String,
    /// Trace name, as a secondary identity check.
    pub trace: String,
    /// The mid-run simulation snapshot.
    pub sim: SimCheckpoint,
    /// Serialized engine-level observer state (empty when observability
    /// is off).
    pub observer: Vec<u8>,
}

impl JobCheckpoint {
    /// Serializes this checkpoint to the `bfbp-ckpt/1` payload layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.matrix_id);
        w.u64(self.job_index);
        w.str(&self.predictor);
        w.str(&self.trace);
        self.sim.encode_into(&mut w);
        w.bytes(&self.observer);
        w.into_bytes()
    }

    /// Decodes a payload produced by [`JobCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = StateReader::new(bytes);
        let ckpt = Self {
            matrix_id: r.u64()?,
            job_index: r.u64()?,
            predictor: r.str()?.to_owned(),
            trace: r.str()?.to_owned(),
            sim: SimCheckpoint::decode(&mut r)?,
            observer: r.bytes()?.to_vec(),
        };
        r.finish()?;
        Ok(ckpt)
    }

    /// Writes this checkpoint to `path` atomically.
    ///
    /// # Errors
    ///
    /// Returns the underlying io error; callers treat a failed write as
    /// "no checkpoint taken" (the previous file, if any, stays valid).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        write_ckpt_file(path, &self.to_bytes())
    }

    /// Reads and fully validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the file is missing, torn,
    /// corrupted, or not a `bfbp-ckpt/1` document.
    pub fn read_from(path: &Path) -> Result<Self, CodecError> {
        Self::from_bytes(&read_ckpt_file(path)?)
    }
}

/// Frames `payload` as a `bfbp-ckpt/1` container and writes it
/// atomically: [`CKPT_MAGIC`], the payload, its little-endian length and
/// its FNV-1a. A temporary sibling is written, flushed, and renamed over
/// `path`, so a crash mid-write leaves either the old file or no file —
/// never a torn one under the final name.
///
/// # Errors
///
/// Returns the underlying io error (the temporary file is removed).
pub fn write_ckpt_file(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(CKPT_MAGIC.len() + payload.len() + 16);
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    write_atomic(path, &bytes)
}

/// Writes `bytes` to `path` atomically — a temporary sibling is written,
/// synced, and renamed over `path`, so a crash mid-write leaves either
/// the old file or no file under the final name, never a torn one. The
/// crash-consistency idiom shared by checkpoint files and postmortem
/// dumps.
///
/// # Errors
///
/// Returns the underlying io error (the temporary file is removed).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads a container written by [`write_ckpt_file`] and returns its
/// validated payload.
///
/// # Errors
///
/// Returns a [`CodecError`] when the file cannot be read, the magic or
/// trailer is wrong, or the checksum does not match.
pub fn read_ckpt_file(path: &Path) -> Result<Vec<u8>, CodecError> {
    let bytes = fs::read(path)?;
    let body = bytes.strip_prefix(CKPT_MAGIC).ok_or(CodecError::BadMagic)?;
    if body.len() < 16 {
        return Err(CodecError::Truncated);
    }
    let (payload, trailer) = body.split_at(body.len() - 16);
    let stored_len = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    let stored_sum = u64::from_le_bytes(trailer[8..].try_into().unwrap());
    if stored_len != payload.len() as u64 {
        return Err(CodecError::Truncated);
    }
    if stored_sum != fnv1a(payload) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(payload.to_vec())
}

/// Moves an unusable checkpoint aside (same directory,
/// `.quarantined` suffix) so it can be inspected post-mortem without
/// ever being retried. Best-effort: if the rename fails the file is
/// removed instead, and if that fails too the caller still proceeds
/// from zero.
pub fn quarantine_ckpt(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name()?.to_os_string();
    name.push(".quarantined");
    let target = path.with_file_name(name);
    if fs::rename(path, &target).is_ok() {
        Some(target)
    } else {
        let _ = fs::remove_file(path);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i8(-5);
        w.i32(-123_456);
        w.i64(i64::MIN + 1);
        w.usize(99);
        w.bool(true);
        w.bool(false);
        w.str("bfbp");
        w.i8_slice(&[-1, 0, 1, 127, -128]);
        w.u32_slice(&[1, 2, 3]);
        w.u64_slice(&[u64::MAX]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i8().unwrap(), -5);
        assert_eq!(r.i32().unwrap(), -123_456);
        assert_eq!(r.i64().unwrap(), i64::MIN + 1);
        assert_eq!(r.usize().unwrap(), 99);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "bfbp");
        let mut i8s = [0i8; 5];
        r.i8_into(&mut i8s).unwrap();
        assert_eq!(i8s, [-1, 0, 1, 127, -128]);
        assert_eq!(r.u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64_vec().unwrap(), vec![u64::MAX]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let mut w = StateWriter::new();
        w.u64_slice(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            assert!(r.u64_vec().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bogus_length_prefix_does_not_allocate_absurdly() {
        let mut w = StateWriter::new();
        w.u64(u64::MAX); // a length prefix promising 2^64 elements
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).u64_vec().is_err());
        assert!(StateReader::new(&bytes).u32_vec().is_err());
        assert!(StateReader::new(&bytes).bytes().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = StateWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }

    fn sample_job_ckpt() -> JobCheckpoint {
        JobCheckpoint {
            matrix_id: 0xABCD_EF01,
            job_index: 17,
            predictor: "bf-tage".into(),
            trace: "SERV1".into(),
            sim: SimCheckpoint {
                records: 123_456,
                instructions: 900_000,
                conditional_branches: 100_000,
                mispredictions: 4_242,
                intervals: vec![
                    IntervalPoint {
                        instructions: 500_000,
                        conditional_branches: 60_000,
                        mispredictions: 2_000,
                    },
                    IntervalPoint {
                        instructions: 300_000,
                        conditional_branches: 30_000,
                        mispredictions: 1_999,
                    },
                ],
                window: IntervalPoint {
                    instructions: 100_000,
                    conditional_branches: 10_000,
                    mispredictions: 243,
                },
                predictor: vec![9, 8, 7, 6],
            },
            observer: vec![1, 2, 3],
        }
    }

    #[test]
    fn job_checkpoint_round_trips_in_memory() {
        let ckpt = sample_job_ckpt();
        let back = JobCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn file_round_trip_and_every_torn_prefix_rejected() {
        let dir = std::env::temp_dir().join(format!("bfbp-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("job-17.ckpt");
        let ckpt = sample_job_ckpt();
        ckpt.write_to(&path).unwrap();
        assert_eq!(JobCheckpoint::read_from(&path).unwrap(), ckpt);

        // Every strict prefix must fail validation (never a wrong read).
        let full = fs::read(&path).unwrap();
        for cut in [0, 1, CKPT_MAGIC.len(), full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(JobCheckpoint::read_from(&path).is_err(), "prefix {cut}");
        }
        // A single flipped payload byte must fail the checksum.
        let mut flipped = full.clone();
        flipped[CKPT_MAGIC.len() + 3] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            JobCheckpoint::read_from(&path),
            Err(CodecError::ChecksumMismatch)
        ));

        // Quarantine moves the bad file aside.
        let q = quarantine_ckpt(&path).unwrap();
        assert!(!path.exists());
        assert!(q.exists());
        assert!(q.to_string_lossy().ends_with(".quarantined"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// Pins the bytes of one BFBT file, footer checksum included: the
    /// trace format and this hash share one FNV-1a, and a change to
    /// either shows here.
    #[test]
    fn fnv1a_pins_one_bfbt_file() {
        let trace = bfbp_trace::synth::suite::find("SPEC03")
            .unwrap()
            .generate_len(3000);
        let mut bytes = Vec::new();
        bfbp_trace::format::write_trace(&mut bytes, &trace).unwrap();
        assert_eq!(bytes.len(), 14_288);
        assert_eq!(fnv1a(&bytes), 0xa53e_74b2_1f05_8208);
    }
}
