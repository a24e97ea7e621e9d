//! Property tests for the `bfbp-wire/1` codec: every frame kind
//! round-trips through encode/decode, every truncation is a typed
//! `Torn`, every single-bit corruption is a typed error (never a
//! silent wrong decode), and the scratch-reusing hot-path encoders are
//! byte-identical to the generic `Frame` encoder they share layout
//! code with.
//!
//! Uses the workspace's own deterministic [`Xoshiro256`] generator, so
//! every case is reproducible from its printed seed.

use std::io::Cursor;

use bfbp::sim::ckpt::fnv1a;
use bfbp::sim::wire::{
    encode_outcome_batch, encode_predict_batch, encode_predict_reply, pack_bits, unpack_bits,
    CondBatch, ErrorCode, Frame, FrameKind, FrameReader, PredictorInfo, SessionStats, WireError,
    WIRE_PROTOCOL,
};
use bfbp::sim::PredictorCaps;
use bfbp::trace::record::{BranchKind, BranchRecord};
use bfbp::trace::rng::Xoshiro256;
use bfbp::trace::TraceChunk;

fn rand_string(rng: &mut Xoshiro256, max: u64) -> String {
    const CHARS: &[u8] = b"abcXYZ019 _-:=,./";
    let n = rng.below(max + 1) as usize;
    (0..n)
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char)
        .collect()
}

fn rand_stats(rng: &mut Xoshiro256) -> SessionStats {
    SessionStats {
        records: rng.next_u64(),
        instructions: rng.next_u64(),
        conditional_branches: rng.next_u64(),
        mispredictions: rng.next_u64(),
    }
}

fn rand_caps(rng: &mut Xoshiro256) -> PredictorCaps {
    PredictorCaps::from_bits(rng.below(16) as u8).expect("bits 0..16 are all valid")
}

fn rand_cond_batch(rng: &mut Xoshiro256, max: u64) -> CondBatch {
    let n = rng.below(max + 1) as usize;
    CondBatch {
        pcs: (0..n).map(|_| rng.next_u64()).collect(),
        targets: (0..n).map(|_| rng.next_u64()).collect(),
        gaps: (0..n).map(|_| rng.below(10_000) as u32).collect(),
        takens: (0..n).map(|_| rng.chance(0.5)).collect(),
    }
}

fn rand_record(rng: &mut Xoshiro256) -> BranchRecord {
    let kind = BranchKind::from_u8(rng.below(6) as u8).expect("0..6 are valid kinds");
    BranchRecord {
        pc: rng.next_u64(),
        target: rng.next_u64(),
        kind,
        taken: !kind.is_conditional() || rng.chance(0.5),
        non_branch_insts: rng.below(10_000) as u32,
    }
}

/// A random frame of the given kind, exercising every payload field.
fn rand_frame(kind: FrameKind, rng: &mut Xoshiro256) -> Frame {
    match kind {
        FrameKind::Hello => Frame::Hello {
            protocol: WIRE_PROTOCOL.to_owned(),
            client: rand_string(rng, 24),
        },
        FrameKind::HelloAck => Frame::HelloAck {
            protocol: WIRE_PROTOCOL.to_owned(),
            server: rand_string(rng, 24),
            predictors: (0..rng.below(6))
                .map(|_| PredictorInfo {
                    name: rand_string(rng, 16),
                    caps: rand_caps(rng),
                })
                .collect(),
        },
        FrameKind::Open => Frame::Open {
            session: rng.next_u64(),
            spec: rand_string(rng, 32),
        },
        FrameKind::OpenAck => Frame::OpenAck {
            session: rng.next_u64(),
            caps: rand_caps(rng),
            resumed: rng.chance(0.5),
            stats: rand_stats(rng),
        },
        FrameKind::PredictBatch => Frame::PredictBatch {
            session: rng.next_u64(),
            batch: rand_cond_batch(rng, 64),
        },
        FrameKind::PredictReply => Frame::PredictReply {
            session: rng.next_u64(),
            miss: (0..rng.below(65)).map(|_| rng.chance(0.3)).collect(),
        },
        FrameKind::OutcomeBatch => Frame::OutcomeBatch {
            session: rng.next_u64(),
            records: (0..rng.below(65)).map(|_| rand_record(rng)).collect(),
        },
        FrameKind::OutcomeAck => Frame::OutcomeAck {
            session: rng.next_u64(),
        },
        FrameKind::Stats => Frame::Stats {
            session: rng.next_u64(),
        },
        FrameKind::StatsReply => Frame::StatsReply {
            session: rng.next_u64(),
            stats: rand_stats(rng),
        },
        FrameKind::Checkpoint => Frame::Checkpoint {
            session: rng.next_u64(),
        },
        FrameKind::CheckpointAck => Frame::CheckpointAck {
            session: rng.next_u64(),
            persisted: rng.chance(0.5),
        },
        FrameKind::Close => Frame::Close {
            session: rng.next_u64(),
        },
        FrameKind::CloseAck => Frame::CloseAck {
            session: rng.next_u64(),
            stats: rand_stats(rng),
        },
        FrameKind::Shutdown => Frame::Shutdown,
        FrameKind::ShutdownAck => Frame::ShutdownAck {
            sessions: rng.next_u64(),
        },
        FrameKind::Error => Frame::Error {
            code: ErrorCode::from_u8(1 + rng.below(5) as u8).expect("1..=5 are valid codes"),
            session: rng.next_u64(),
            message: rand_string(rng, 48),
        },
    }
}

#[test]
fn every_frame_kind_round_trips() {
    for seed in 0..32u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for kind in FrameKind::ALL {
            let frame = rand_frame(kind, &mut rng);
            let mut bytes = Vec::new();
            frame.encode_into(&mut bytes);
            let mut reader = FrameReader::new();
            let decoded = reader
                .read_frame(&mut Cursor::new(&bytes))
                .unwrap_or_else(|e| panic!("seed {seed} {kind:?}: {e}"))
                .unwrap_or_else(|| panic!("seed {seed} {kind:?}: unexpected clean close"));
            assert_eq!(decoded, frame, "seed {seed}");
            assert_eq!(decoded.kind(), kind, "seed {seed}");
        }
    }
}

#[test]
fn frames_back_to_back_on_one_stream_all_arrive() {
    let mut rng = Xoshiro256::seed_from_u64(7);
    let frames: Vec<Frame> = FrameKind::ALL
        .into_iter()
        .map(|kind| rand_frame(kind, &mut rng))
        .collect();
    let mut stream = Vec::new();
    let mut scratch = Vec::new();
    for frame in &frames {
        frame.encode_into(&mut scratch);
        stream.extend_from_slice(&scratch);
    }
    let mut cursor = Cursor::new(&stream);
    let mut reader = FrameReader::new();
    for expected in &frames {
        let got = reader.read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(&got, expected);
    }
    assert!(
        reader.read_frame(&mut cursor).unwrap().is_none(),
        "clean close at the frame boundary must read as None"
    );
}

#[test]
fn every_truncation_is_torn() {
    let mut rng = Xoshiro256::seed_from_u64(11);
    for kind in FrameKind::ALL {
        let frame = rand_frame(kind, &mut rng);
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
        for cut in 1..bytes.len() {
            let mut reader = FrameReader::new();
            let result = reader.read_frame(&mut Cursor::new(&bytes[..cut]));
            assert!(
                matches!(result, Err(WireError::Torn)),
                "{kind:?} cut at {cut}/{}: {result:?}",
                bytes.len()
            );
        }
        // Zero bytes is a clean close, not an error.
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.read_frame(&mut Cursor::new(&bytes[..0])),
            Ok(None)
        ));
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let mut rng = Xoshiro256::seed_from_u64(23);
    for kind in FrameKind::ALL {
        let frame = rand_frame(kind, &mut rng);
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let mut reader = FrameReader::new();
                let result = reader.read_frame(&mut Cursor::new(&corrupt));
                // A flip in the length prefix reads as Torn/TooLarge
                // (or trips the checksum on a shortened body); a flip
                // anywhere in the body or trailer trips the checksum.
                // What it must never be is a silently different frame.
                assert!(
                    result.is_err(),
                    "{kind:?} byte {i} bit {bit} decoded as {result:?}"
                );
            }
        }
    }
}

#[test]
fn unknown_kind_byte_is_rejected_by_name() {
    // A frame that is perfectly formed — valid length, valid checksum —
    // except its kind byte is unassigned.
    let body = [200u8, 1, 2, 3];
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
    let mut reader = FrameReader::new();
    assert!(matches!(
        reader.read_frame(&mut Cursor::new(&bytes)),
        Err(WireError::UnknownKind(200))
    ));
}

#[test]
fn absurd_length_prefix_is_rejected_before_allocation() {
    for len in [0u32, (bfbp::sim::wire::MAX_FRAME as u32) + 1, u32::MAX] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut reader = FrameReader::new();
        assert!(
            matches!(
                reader.read_frame(&mut Cursor::new(&bytes)),
                Err(WireError::TooLarge(_))
            ),
            "length {len} must be rejected as TooLarge"
        );
    }
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // An extra byte smuggled after a valid payload, with the length and
    // checksum recomputed to match: the cursor's exhaustive `finish`
    // must reject it as malformed rather than ignore it.
    let mut bytes = Vec::new();
    Frame::Stats { session: 9 }.encode_into(&mut bytes);
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let mut body = bytes[4..4 + len].to_vec();
    body.push(0xAB);
    let mut smuggled = Vec::new();
    smuggled.extend_from_slice(&(body.len() as u32).to_le_bytes());
    smuggled.extend_from_slice(&body);
    smuggled.extend_from_slice(&fnv1a(&body).to_le_bytes());
    let mut reader = FrameReader::new();
    assert!(matches!(
        reader.read_frame(&mut Cursor::new(&smuggled)),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn hot_path_encoders_match_the_generic_frame_encoder() {
    for seed in 0..16u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let session = rng.next_u64();

        let batch = rand_cond_batch(&mut rng, 128);
        let mut fast = Vec::new();
        encode_predict_batch(
            session,
            &batch.pcs,
            &batch.targets,
            &batch.gaps,
            &batch.takens,
            &mut fast,
        );
        let mut generic = Vec::new();
        Frame::PredictBatch { session, batch }.encode_into(&mut generic);
        assert_eq!(fast, generic, "seed {seed}: PREDICT_BATCH layouts diverge");

        let miss: Vec<bool> = (0..rng.below(129)).map(|_| rng.chance(0.2)).collect();
        encode_predict_reply(session, &miss, &mut fast);
        Frame::PredictReply { session, miss }.encode_into(&mut generic);
        assert_eq!(fast, generic, "seed {seed}: PREDICT_REPLY layouts diverge");

        let records: Vec<BranchRecord> =
            (0..rng.below(129)).map(|_| rand_record(&mut rng)).collect();
        let mut chunk = TraceChunk::new();
        chunk.extend_from_records(&records);
        encode_outcome_batch(session, &chunk, 0, chunk.len(), &mut fast);
        Frame::OutcomeBatch { session, records }.encode_into(&mut generic);
        assert_eq!(fast, generic, "seed {seed}: OUTCOME_BATCH layouts diverge");
    }
}

#[test]
fn bit_packing_round_trips_any_length() {
    let mut rng = Xoshiro256::seed_from_u64(41);
    for n in 0..130usize {
        let bits: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut packed = Vec::new();
        pack_bits(&bits, &mut packed);
        assert_eq!(packed.len(), n.div_ceil(8));
        let mut unpacked = Vec::new();
        unpack_bits(&packed, n, &mut unpacked);
        assert_eq!(unpacked, bits, "length {n}");
    }
}

#[test]
fn code_bytes_validate_exhaustively() {
    for byte in 0..=255u8 {
        let kind = FrameKind::from_u8(byte);
        assert_eq!(kind.is_some(), (1..=17).contains(&byte), "kind byte {byte}");
        if let Some(kind) = kind {
            assert_eq!(kind as u8, byte);
        }
        let code = ErrorCode::from_u8(byte);
        assert_eq!(code.is_some(), (1..=5).contains(&byte), "error byte {byte}");
        if let Some(code) = code {
            assert_eq!(code as u8, byte);
        }
    }
}
