//! `bfbp-wire/1`: the length-prefixed binary protocol the prediction
//! service speaks over TCP.
//!
//! Every frame on the wire is
//!
//! ```text
//! +---------+------+-----------+------------+
//! | len u32 | kind | payload   | check u64  |
//! +---------+------+-----------+------------+
//!   little-   u8     len-1       FNV-1a over
//!   endian           bytes       kind+payload
//! ```
//!
//! `len` counts the body (kind byte plus payload) and is capped at
//! [`MAX_FRAME`]; the trailing checksum is the same FNV-1a the
//! `bfbp-ckpt/1` container uses ([`crate::ckpt::fnv1a`]), so a flipped
//! bit anywhere in the body is detected before the payload is decoded.
//! Reads are torn-frame tolerant: a clean close at a frame boundary is
//! `Ok(None)`, while EOF *inside* a frame is the typed
//! [`WireError::Torn`].
//!
//! Integers are little-endian; strings are `u32` length + UTF-8;
//! boolean arrays are bit-packed LSB-first ([`pack_bits`]). The batched
//! frames (`PREDICT_BATCH`, `OUTCOME_BATCH`, `PREDICT_REPLY`) have
//! dedicated `encode_*`/`decode_*_into` entry points that reuse caller
//! scratch so the serving hot loop stays allocation-free; the owned
//! [`Frame`] enum covers every frame type for control paths and tests,
//! and delegates to the same layout code.

use std::fmt;
use std::io::{self, Read};

use bfbp_trace::record::{BranchKind, BranchRecord};
use bfbp_trace::source::TraceChunk;

use crate::ckpt::fnv1a;
use crate::predictor::PredictorCaps;

/// Protocol identifier exchanged in the HELLO handshake.
pub const WIRE_PROTOCOL: &str = "bfbp-wire/1";

/// Upper bound on the frame body (kind + payload) in bytes. Large
/// enough for ~50k-record batches, small enough that a corrupted
/// length prefix cannot make a reader allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Frame discriminants, one per message the protocol defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: protocol + client identification.
    Hello = 1,
    /// Server → client: protocol + server identification + the
    /// predictor catalogue with capability bits.
    HelloAck = 2,
    /// Client → server: open (or re-attach to) a session.
    Open = 3,
    /// Server → client: session is live; carries capability bits,
    /// whether existing state was resumed, and the current counters.
    OpenAck = 4,
    /// Client → server: a run of conditional branches to predict and
    /// train on.
    PredictBatch = 5,
    /// Server → client: per-record misprediction flags for the batch.
    PredictReply = 6,
    /// Client → server: a run of non-conditional control transfers.
    OutcomeBatch = 7,
    /// Server → client: outcome batch applied.
    OutcomeAck = 8,
    /// Client → server: report session counters.
    Stats = 9,
    /// Server → client: the session counters.
    StatsReply = 10,
    /// Client → server: persist the session now.
    Checkpoint = 11,
    /// Server → client: checkpoint result (`persisted` is false when
    /// the server has no checkpoint directory or the predictor is not
    /// checkpointable).
    CheckpointAck = 12,
    /// Client → server: close the session and discard its checkpoint.
    Close = 13,
    /// Server → client: final counters for the closed session.
    CloseAck = 14,
    /// Client → server: persist all sessions and stop serving.
    Shutdown = 15,
    /// Server → client: shutting down; carries the persisted-session
    /// count.
    ShutdownAck = 16,
    /// Server → client: a typed error ([`ErrorCode`]).
    Error = 17,
}

impl FrameKind {
    /// All frame kinds, for exhaustive round-trip tests.
    pub const ALL: [FrameKind; 17] = [
        FrameKind::Hello,
        FrameKind::HelloAck,
        FrameKind::Open,
        FrameKind::OpenAck,
        FrameKind::PredictBatch,
        FrameKind::PredictReply,
        FrameKind::OutcomeBatch,
        FrameKind::OutcomeAck,
        FrameKind::Stats,
        FrameKind::StatsReply,
        FrameKind::Checkpoint,
        FrameKind::CheckpointAck,
        FrameKind::Close,
        FrameKind::CloseAck,
        FrameKind::Shutdown,
        FrameKind::ShutdownAck,
        FrameKind::Error,
    ];

    /// Decodes a kind byte.
    pub fn from_u8(byte: u8) -> Option<FrameKind> {
        Self::ALL.get(byte.wrapping_sub(1) as usize).copied()
    }
}

/// Typed error codes carried by [`FrameKind::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The peer violated the protocol (unexpected frame, bad handshake).
    Protocol = 1,
    /// The frame referenced a session id the server does not hold.
    UnknownSession = 2,
    /// OPEN named an unbuildable predictor spec, or re-attached with a
    /// spec that does not match the live session.
    BadSpec = 3,
    /// Load shed: the server is at its connection bound; retry later.
    Retry = 4,
    /// The server failed internally (e.g. checkpoint I/O).
    Internal = 5,
}

impl ErrorCode {
    /// Decodes an error-code byte.
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        match byte {
            1 => Some(ErrorCode::Protocol),
            2 => Some(ErrorCode::UnknownSession),
            3 => Some(ErrorCode::BadSpec),
            4 => Some(ErrorCode::Retry),
            5 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::Retry => "retry",
            ErrorCode::Internal => "internal",
        })
    }
}

/// Per-session accounting counters, mirroring the `SimCheckpoint`
/// quartet so served sessions and offline runs are compared field for
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Trace records applied (conditional + other).
    pub records: u64,
    /// Instructions represented by those records.
    pub instructions: u64,
    /// Conditional branches predicted.
    pub conditional_branches: u64,
    /// Conditional branches predicted wrongly.
    pub mispredictions: u64,
}

/// One predictor catalogue row in the HELLO_ACK frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorInfo {
    /// Registry name (`"bf-tage"`, …).
    pub name: String,
    /// Its capability descriptor.
    pub caps: PredictorCaps,
}

/// A decoded run of conditional branches: the SoA buffers a
/// `PREDICT_BATCH` frame carries, reusable across frames.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CondBatch {
    /// Branch program counters.
    pub pcs: Vec<u64>,
    /// Taken targets.
    pub targets: Vec<u64>,
    /// Instructions since the previous record, per record.
    pub gaps: Vec<u32>,
    /// Resolved directions.
    pub takens: Vec<bool>,
}

impl CondBatch {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }
}

/// Every `bfbp-wire/1` frame as owned data. Control paths and tests
/// use this enum; the serving hot loop uses the scratch-reusing
/// `encode_*`/`decode_*_into` functions, which share the layout code.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// See [`FrameKind::Hello`].
    Hello {
        /// Must equal [`WIRE_PROTOCOL`].
        protocol: String,
        /// Free-form client identification.
        client: String,
    },
    /// See [`FrameKind::HelloAck`].
    HelloAck {
        /// Must equal [`WIRE_PROTOCOL`].
        protocol: String,
        /// Free-form server identification.
        server: String,
        /// The registry catalogue with capability bits.
        predictors: Vec<PredictorInfo>,
    },
    /// See [`FrameKind::Open`].
    Open {
        /// Client-chosen session id.
        session: u64,
        /// Predictor spec (`PredictorSpec::parse` grammar).
        spec: String,
    },
    /// See [`FrameKind::OpenAck`].
    OpenAck {
        /// Echoed session id.
        session: u64,
        /// The live predictor's capability descriptor.
        caps: PredictorCaps,
        /// True when the session already existed (restored from a
        /// checkpoint or still live from an earlier connection).
        resumed: bool,
        /// Counters at attach time; a resuming client fast-forwards its
        /// trace cursor to `stats.records`.
        stats: SessionStats,
    },
    /// See [`FrameKind::PredictBatch`].
    PredictBatch {
        /// Target session.
        session: u64,
        /// The conditional run.
        batch: CondBatch,
    },
    /// See [`FrameKind::PredictReply`].
    PredictReply {
        /// Echoed session id.
        session: u64,
        /// Per-record misprediction flags.
        miss: Vec<bool>,
    },
    /// See [`FrameKind::OutcomeBatch`].
    OutcomeBatch {
        /// Target session.
        session: u64,
        /// The non-conditional run, in commit order.
        records: Vec<BranchRecord>,
    },
    /// See [`FrameKind::OutcomeAck`].
    OutcomeAck {
        /// Echoed session id.
        session: u64,
    },
    /// See [`FrameKind::Stats`].
    Stats {
        /// Target session.
        session: u64,
    },
    /// See [`FrameKind::StatsReply`].
    StatsReply {
        /// Echoed session id.
        session: u64,
        /// Current counters.
        stats: SessionStats,
    },
    /// See [`FrameKind::Checkpoint`].
    Checkpoint {
        /// Target session.
        session: u64,
    },
    /// See [`FrameKind::CheckpointAck`].
    CheckpointAck {
        /// Echoed session id.
        session: u64,
        /// Whether a `bfbp-ckpt/1` file was actually written.
        persisted: bool,
    },
    /// See [`FrameKind::Close`].
    Close {
        /// Target session.
        session: u64,
    },
    /// See [`FrameKind::CloseAck`].
    CloseAck {
        /// Echoed session id.
        session: u64,
        /// Final counters.
        stats: SessionStats,
    },
    /// See [`FrameKind::Shutdown`].
    Shutdown,
    /// See [`FrameKind::ShutdownAck`].
    ShutdownAck {
        /// Sessions persisted on the way down.
        sessions: u64,
    },
    /// See [`FrameKind::Error`].
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// The session the error concerns (0 when none).
        session: u64,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// EOF in the middle of a frame (clean close at a boundary is
    /// `Ok(None)` from [`FrameReader::read_from`], not an error).
    Torn,
    /// The FNV-1a trailer did not match the body.
    Checksum,
    /// The length prefix was zero or exceeded [`MAX_FRAME`].
    TooLarge(usize),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The payload did not decode (truncated array, bad UTF-8,
    /// unknown enum byte, trailing garbage).
    Malformed(&'static str),
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Torn => write!(f, "torn frame: EOF inside a frame"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::TooLarge(len) => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME}")
            }
            WireError::UnknownKind(byte) => write!(f, "unknown frame kind {byte:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Packs booleans LSB-first into `ceil(n/8)` bytes appended to `out`.
pub fn pack_bits(bits: &[bool], out: &mut Vec<u8>) {
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (i, &b) in chunk.iter().enumerate() {
            byte |= u8::from(b) << i;
        }
        out.push(byte);
    }
}

/// Unpacks `n` LSB-first booleans from `bytes` into `out` (cleared
/// first). `bytes` must hold exactly `ceil(n/8)` bytes; the caller
/// (the payload decoder) guarantees that.
pub fn unpack_bits(bytes: &[u8], n: usize, out: &mut Vec<bool>) {
    out.clear();
    out.reserve(n);
    for i in 0..n {
        out.push(bytes[i / 8] >> (i % 8) & 1 != 0);
    }
}

const fn bits_len(n: usize) -> usize {
    n.div_ceil(8)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Starts a frame in `out` (cleared first): length placeholder + kind.
fn begin_frame(out: &mut Vec<u8>, kind: FrameKind) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    out.push(kind as u8);
}

/// Patches the length prefix and appends the FNV-1a trailer. `out`
/// then holds exactly one complete frame, ready for a single write.
fn finish_frame(out: &mut Vec<u8>) {
    let len = out.len() - 4;
    debug_assert!((1..=MAX_FRAME).contains(&len), "frame body {len} bytes");
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let check = fnv1a(&out[4..]);
    out.extend_from_slice(&check.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_stats(out: &mut Vec<u8>, stats: SessionStats) {
    put_u64(out, stats.records);
    put_u64(out, stats.instructions);
    put_u64(out, stats.conditional_branches);
    put_u64(out, stats.mispredictions);
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a `PREDICT_BATCH` frame into `out` (cleared first). The
/// four slices must be equally long; this is the client hot-path
/// encoder and the single source of truth for the batch layout.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn encode_predict_batch(
    session: u64,
    pcs: &[u64],
    targets: &[u64],
    gaps: &[u32],
    takens: &[bool],
    out: &mut Vec<u8>,
) {
    let n = pcs.len();
    assert!(n == targets.len() && n == gaps.len() && n == takens.len());
    begin_frame(out, FrameKind::PredictBatch);
    put_u64(out, session);
    put_u32(out, n as u32);
    put_u64s(out, pcs);
    put_u64s(out, targets);
    put_u32s(out, gaps);
    pack_bits(takens, out);
    finish_frame(out);
}

/// Encodes a `PREDICT_REPLY` frame into `out` (cleared first): the
/// server hot-path encoder.
pub fn encode_predict_reply(session: u64, miss: &[bool], out: &mut Vec<u8>) {
    begin_frame(out, FrameKind::PredictReply);
    put_u64(out, session);
    put_u32(out, miss.len() as u32);
    pack_bits(miss, out);
    finish_frame(out);
}

/// Encodes an `OUTCOME_BATCH` frame into `out` (cleared first) from a
/// run `start..end` of records inside `chunk` — the same shape
/// `ConditionalPredictor::update_batch` consumes on the far side.
pub fn encode_outcome_batch(
    session: u64,
    chunk: &TraceChunk,
    start: usize,
    end: usize,
    out: &mut Vec<u8>,
) {
    begin_frame(out, FrameKind::OutcomeBatch);
    put_u64(out, session);
    put_u32(out, (end - start) as u32);
    put_u64s(out, &chunk.pcs()[start..end]);
    put_u64s(out, &chunk.targets()[start..end]);
    put_u32s(out, &chunk.inst_gaps()[start..end]);
    for &kind in &chunk.kinds()[start..end] {
        out.push(kind as u8);
    }
    pack_bits(&chunk.takens()[start..end], out);
    finish_frame(out);
}

impl Frame {
    /// The frame's discriminant.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Hello { .. } => FrameKind::Hello,
            Frame::HelloAck { .. } => FrameKind::HelloAck,
            Frame::Open { .. } => FrameKind::Open,
            Frame::OpenAck { .. } => FrameKind::OpenAck,
            Frame::PredictBatch { .. } => FrameKind::PredictBatch,
            Frame::PredictReply { .. } => FrameKind::PredictReply,
            Frame::OutcomeBatch { .. } => FrameKind::OutcomeBatch,
            Frame::OutcomeAck { .. } => FrameKind::OutcomeAck,
            Frame::Stats { .. } => FrameKind::Stats,
            Frame::StatsReply { .. } => FrameKind::StatsReply,
            Frame::Checkpoint { .. } => FrameKind::Checkpoint,
            Frame::CheckpointAck { .. } => FrameKind::CheckpointAck,
            Frame::Close { .. } => FrameKind::Close,
            Frame::CloseAck { .. } => FrameKind::CloseAck,
            Frame::Shutdown => FrameKind::Shutdown,
            Frame::ShutdownAck { .. } => FrameKind::ShutdownAck,
            Frame::Error { .. } => FrameKind::Error,
        }
    }

    /// Encodes the complete frame (header, body, checksum) into `out`
    /// (cleared first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { protocol, client } => {
                begin_frame(out, FrameKind::Hello);
                put_str(out, protocol);
                put_str(out, client);
            }
            Frame::HelloAck {
                protocol,
                server,
                predictors,
            } => {
                begin_frame(out, FrameKind::HelloAck);
                put_str(out, protocol);
                put_str(out, server);
                put_u32(out, predictors.len() as u32);
                for p in predictors {
                    put_str(out, &p.name);
                    out.push(p.caps.bits());
                }
            }
            Frame::Open { session, spec } => {
                begin_frame(out, FrameKind::Open);
                put_u64(out, *session);
                put_str(out, spec);
            }
            Frame::OpenAck {
                session,
                caps,
                resumed,
                stats,
            } => {
                begin_frame(out, FrameKind::OpenAck);
                put_u64(out, *session);
                out.push(caps.bits());
                out.push(u8::from(*resumed));
                put_stats(out, *stats);
            }
            Frame::PredictBatch { session, batch } => {
                encode_predict_batch(
                    *session,
                    &batch.pcs,
                    &batch.targets,
                    &batch.gaps,
                    &batch.takens,
                    out,
                );
                return;
            }
            Frame::PredictReply { session, miss } => {
                encode_predict_reply(*session, miss, out);
                return;
            }
            Frame::OutcomeBatch { session, records } => {
                let mut chunk = TraceChunk::new();
                chunk.extend_from_records(records);
                encode_outcome_batch(*session, &chunk, 0, records.len(), out);
                return;
            }
            Frame::OutcomeAck { session } => {
                begin_frame(out, FrameKind::OutcomeAck);
                put_u64(out, *session);
            }
            Frame::Stats { session } => {
                begin_frame(out, FrameKind::Stats);
                put_u64(out, *session);
            }
            Frame::StatsReply { session, stats } => {
                begin_frame(out, FrameKind::StatsReply);
                put_u64(out, *session);
                put_stats(out, *stats);
            }
            Frame::Checkpoint { session } => {
                begin_frame(out, FrameKind::Checkpoint);
                put_u64(out, *session);
            }
            Frame::CheckpointAck { session, persisted } => {
                begin_frame(out, FrameKind::CheckpointAck);
                put_u64(out, *session);
                out.push(u8::from(*persisted));
            }
            Frame::Close { session } => {
                begin_frame(out, FrameKind::Close);
                put_u64(out, *session);
            }
            Frame::CloseAck { session, stats } => {
                begin_frame(out, FrameKind::CloseAck);
                put_u64(out, *session);
                put_stats(out, *stats);
            }
            Frame::Shutdown => {
                begin_frame(out, FrameKind::Shutdown);
            }
            Frame::ShutdownAck { sessions } => {
                begin_frame(out, FrameKind::ShutdownAck);
                put_u64(out, *sessions);
            }
            Frame::Error {
                code,
                session,
                message,
            } => {
                begin_frame(out, FrameKind::Error);
                out.push(*code as u8);
                put_u64(out, *session);
                put_str(out, message);
            }
        }
        finish_frame(out);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a frame payload.
struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("payload truncated"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte not 0 or 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::Malformed("string not UTF-8"))
    }

    fn stats(&mut self) -> Result<SessionStats, WireError> {
        Ok(SessionStats {
            records: self.u64()?,
            instructions: self.u64()?,
            conditional_branches: self.u64()?,
            mispredictions: self.u64()?,
        })
    }

    fn caps(&mut self) -> Result<PredictorCaps, WireError> {
        PredictorCaps::from_bits(self.u8()?).ok_or(WireError::Malformed("unknown capability bits"))
    }

    /// Batch count: bounded by what a [`MAX_FRAME`] body could carry,
    /// so hostile counts cannot drive huge allocations.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(WireError::Malformed("batch count exceeds frame bound"));
        }
        Ok(n)
    }

    fn u64s_into(&mut self, n: usize, out: &mut Vec<u64>) -> Result<(), WireError> {
        let raw = self.take(n * 8)?;
        out.clear();
        out.reserve(n);
        out.extend(
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
        );
        Ok(())
    }

    fn u32s_into(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), WireError> {
        let raw = self.take(n * 4)?;
        out.clear();
        out.reserve(n);
        out.extend(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        Ok(())
    }

    fn bits_into(&mut self, n: usize, out: &mut Vec<bool>) -> Result<(), WireError> {
        let raw = self.take(bits_len(n))?;
        unpack_bits(raw, n, out);
        Ok(())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Decodes a `PREDICT_BATCH` payload into reusable scratch buffers;
/// returns the session id. The server hot-path decoder.
pub fn decode_predict_batch_into(payload: &[u8], batch: &mut CondBatch) -> Result<u64, WireError> {
    let mut cur = Cur::new(payload);
    let session = cur.u64()?;
    let n = cur.count()?;
    cur.u64s_into(n, &mut batch.pcs)?;
    cur.u64s_into(n, &mut batch.targets)?;
    cur.u32s_into(n, &mut batch.gaps)?;
    cur.bits_into(n, &mut batch.takens)?;
    cur.finish()?;
    Ok(session)
}

/// Decodes a `PREDICT_REPLY` payload into a reusable flag buffer;
/// returns the session id. The client hot-path decoder.
pub fn decode_predict_reply_into(payload: &[u8], miss: &mut Vec<bool>) -> Result<u64, WireError> {
    let mut cur = Cur::new(payload);
    let session = cur.u64()?;
    let n = cur.count()?;
    cur.bits_into(n, miss)?;
    cur.finish()?;
    Ok(session)
}

/// Decodes an `OUTCOME_BATCH` payload into a reusable [`TraceChunk`]
/// (cleared first); returns the session id. The chunk then feeds
/// `ConditionalPredictor::update_batch` directly.
pub fn decode_outcome_batch_into(payload: &[u8], chunk: &mut TraceChunk) -> Result<u64, WireError> {
    let mut cur = Cur::new(payload);
    let session = cur.u64()?;
    let n = cur.count()?;
    let pcs = cur.take(n * 8)?;
    let targets = cur.take(n * 8)?;
    let gaps = cur.take(n * 4)?;
    let kinds = cur.take(n)?;
    let takens = cur.take(bits_len(n))?;
    cur.finish()?;
    chunk.clear();
    for i in 0..n {
        let kind = BranchKind::from_u8(kinds[i])
            .ok_or(WireError::Malformed("unknown branch kind byte"))?;
        chunk.push(&BranchRecord {
            pc: u64::from_le_bytes(pcs[i * 8..i * 8 + 8].try_into().unwrap()),
            target: u64::from_le_bytes(targets[i * 8..i * 8 + 8].try_into().unwrap()),
            taken: takens[i / 8] >> (i % 8) & 1 != 0,
            kind,
            non_branch_insts: u32::from_le_bytes(gaps[i * 4..i * 4 + 4].try_into().unwrap()),
        });
    }
    Ok(session)
}

impl Frame {
    /// Decodes a frame payload the generic, owned way. The batched
    /// kinds route through the same `decode_*_into` functions the hot
    /// paths use, so there is exactly one layout decoder per frame.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cur::new(payload);
        let frame = match kind {
            FrameKind::Hello => Frame::Hello {
                protocol: cur.str()?.to_owned(),
                client: cur.str()?.to_owned(),
            },
            FrameKind::HelloAck => {
                let protocol = cur.str()?.to_owned();
                let server = cur.str()?.to_owned();
                let n = cur.count()?;
                let mut predictors = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    predictors.push(PredictorInfo {
                        name: cur.str()?.to_owned(),
                        caps: cur.caps()?,
                    });
                }
                Frame::HelloAck {
                    protocol,
                    server,
                    predictors,
                }
            }
            FrameKind::Open => Frame::Open {
                session: cur.u64()?,
                spec: cur.str()?.to_owned(),
            },
            FrameKind::OpenAck => Frame::OpenAck {
                session: cur.u64()?,
                caps: cur.caps()?,
                resumed: cur.bool()?,
                stats: cur.stats()?,
            },
            FrameKind::PredictBatch => {
                let mut batch = CondBatch::default();
                let session = decode_predict_batch_into(payload, &mut batch)?;
                return Ok(Frame::PredictBatch { session, batch });
            }
            FrameKind::PredictReply => {
                let mut miss = Vec::new();
                let session = decode_predict_reply_into(payload, &mut miss)?;
                return Ok(Frame::PredictReply { session, miss });
            }
            FrameKind::OutcomeBatch => {
                let mut chunk = TraceChunk::new();
                let session = decode_outcome_batch_into(payload, &mut chunk)?;
                let records = (0..chunk.len()).map(|i| chunk.record(i)).collect();
                return Ok(Frame::OutcomeBatch { session, records });
            }
            FrameKind::OutcomeAck => Frame::OutcomeAck {
                session: cur.u64()?,
            },
            FrameKind::Stats => Frame::Stats {
                session: cur.u64()?,
            },
            FrameKind::StatsReply => Frame::StatsReply {
                session: cur.u64()?,
                stats: cur.stats()?,
            },
            FrameKind::Checkpoint => Frame::Checkpoint {
                session: cur.u64()?,
            },
            FrameKind::CheckpointAck => Frame::CheckpointAck {
                session: cur.u64()?,
                persisted: cur.bool()?,
            },
            FrameKind::Close => Frame::Close {
                session: cur.u64()?,
            },
            FrameKind::CloseAck => Frame::CloseAck {
                session: cur.u64()?,
                stats: cur.stats()?,
            },
            FrameKind::Shutdown => Frame::Shutdown,
            FrameKind::ShutdownAck => Frame::ShutdownAck {
                sessions: cur.u64()?,
            },
            FrameKind::Error => {
                let code = ErrorCode::from_u8(cur.u8()?)
                    .ok_or(WireError::Malformed("unknown error code"))?;
                Frame::Error {
                    code,
                    session: cur.u64()?,
                    message: cur.str()?.to_owned(),
                }
            }
        };
        cur.finish()?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// What one fill attempt saw.
enum Fill {
    /// The buffer was filled completely.
    Full,
    /// EOF before the first byte — a clean close.
    Closed,
}

/// Fills `buf` from `r`, tolerating short reads. EOF with zero bytes
/// consumed is [`Fill::Closed`]; EOF after at least one byte is
/// [`WireError::Torn`].
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, WireError> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) if pos == 0 => return Ok(Fill::Closed),
            Ok(0) => return Err(WireError::Torn),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Reads frames off a byte stream into a reusable buffer: one
/// `FrameReader` per connection gives an allocation-free steady state.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the next frame: `Ok(None)` on a clean close at a frame
    /// boundary, `Ok(Some((kind, payload)))` for a verified frame, and
    /// a typed [`WireError`] for everything else (torn frame, checksum
    /// mismatch, absurd length, unknown kind).
    pub fn read_from(
        &mut self,
        r: &mut impl Read,
    ) -> Result<Option<(FrameKind, &[u8])>, WireError> {
        let mut head = [0u8; 4];
        match fill(r, &mut head)? {
            Fill::Closed => return Ok(None),
            Fill::Full => {}
        }
        let len = u32::from_le_bytes(head) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(WireError::TooLarge(len));
        }
        self.buf.resize(len + 8, 0);
        match fill(r, &mut self.buf)? {
            Fill::Closed => return Err(WireError::Torn),
            Fill::Full => {}
        }
        let (body, trailer) = self.buf.split_at(len);
        let check = u64::from_le_bytes(trailer.try_into().unwrap());
        if fnv1a(body) != check {
            return Err(WireError::Checksum);
        }
        let kind = FrameKind::from_u8(body[0]).ok_or(WireError::UnknownKind(body[0]))?;
        Ok(Some((kind, &self.buf[1..len])))
    }

    /// Reads and fully decodes the next frame the owned way (control
    /// paths and tests; the hot loops pair [`read_from`] with the
    /// `decode_*_into` functions instead).
    ///
    /// [`read_from`]: FrameReader::read_from
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        match self.read_from(r)? {
            None => Ok(None),
            Some((kind, payload)) => Ok(Some(Frame::decode(kind, payload)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kind_bytes_round_trip() {
        for kind in FrameKind::ALL {
            assert_eq!(FrameKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(FrameKind::from_u8(0), None);
        assert_eq!(FrameKind::from_u8(18), None);
    }

    #[test]
    fn hello_round_trips() {
        let frame = Frame::Hello {
            protocol: WIRE_PROTOCOL.to_owned(),
            client: "unit".to_owned(),
        };
        let mut out = Vec::new();
        frame.encode_into(&mut out);
        let mut reader = FrameReader::new();
        let decoded = reader.read_frame(&mut &out[..]).unwrap().unwrap();
        assert_eq!(decoded, frame);
        // And the stream is now cleanly closed.
        assert!(reader.read_frame(&mut &[][..]).unwrap().is_none());
    }

    #[test]
    fn batch_decoders_reuse_scratch() {
        let frame = Frame::PredictBatch {
            session: 7,
            batch: CondBatch {
                pcs: vec![0x40, 0x80, 0xc0],
                targets: vec![0x44, 0x84, 0xc4],
                gaps: vec![1, 2, 3],
                takens: vec![true, false, true],
            },
        };
        let mut out = Vec::new();
        frame.encode_into(&mut out);
        let mut reader = FrameReader::new();
        let (kind, payload) = reader.read_from(&mut &out[..]).unwrap().unwrap();
        assert_eq!(kind, FrameKind::PredictBatch);
        let mut batch = CondBatch::default();
        let session = decode_predict_batch_into(payload, &mut batch).unwrap();
        assert_eq!(session, 7);
        assert_eq!(batch.pcs, [0x40, 0x80, 0xc0]);
        assert_eq!(batch.takens, [true, false, true]);
    }

    #[test]
    fn corrupt_frames_are_typed() {
        let mut out = Vec::new();
        Frame::Stats { session: 3 }.encode_into(&mut out);
        let mut reader = FrameReader::new();

        // Flip a payload bit: checksum.
        let mut bad = out.clone();
        bad[6] ^= 0x40;
        assert!(matches!(
            reader.read_frame(&mut &bad[..]),
            Err(WireError::Checksum)
        ));

        // Truncate: torn.
        assert!(matches!(
            reader.read_frame(&mut &out[..out.len() - 3]),
            Err(WireError::Torn)
        ));

        // Zero length prefix: rejected without reading a body.
        assert!(matches!(
            reader.read_frame(&mut &[0u8; 12][..]),
            Err(WireError::TooLarge(0))
        ));
    }
}
