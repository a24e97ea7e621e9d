//! Randomized property tests for the core data structures and
//! invariants: trace-format roundtrips (and agreement of the reader's
//! record-window and byte paths), recency-stack invariants, BST
//! FSM equivalence against a reference model, folded-history consistency,
//! history-register semantics (bit and packed-word reads), and BF-GHR
//! bounds.
//!
//! Uses the workspace's own deterministic [`Xoshiro256`] generator, so
//! every case is reproducible from its printed seed.

use std::collections::HashMap;
use std::io::{self, Cursor, Read};

use bfbp::core::bf_ghr::BfGhr;
use bfbp::core::bst::{BranchStatus, Bst};
use bfbp::core::recency::RecencyStack;
use bfbp::predictors::counter::{CounterTable, SatCounter};
use bfbp::predictors::history::{GlobalHistory, ManagedHistory};
use bfbp::sim::ckpt::{Restorable, StateReader, StateWriter};
use bfbp::tage::config::TageConfig;
use bfbp::tage::tage::Tage;
use bfbp::trace::format::{read_trace, write_trace, TraceFormatError};
use bfbp::trace::record::{BranchKind, BranchRecord, Trace};
use bfbp::trace::rng::Xoshiro256;
use bfbp::trace::source::{FileSource, ReplaySource, TraceChunk, TraceSource};

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

fn rand_records(rng: &mut Xoshiro256, lo: u64, hi: u64) -> Vec<BranchRecord> {
    let n = rng.range_inclusive(lo, hi) as usize;
    (0..n).map(|_| rand_record(rng)).collect()
}

#[test]
fn trace_format_roundtrips_any_records() {
    const NAME_CHARS: &[u8] = b"abcXYZ019 _-";
    for seed in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let name: String = (0..rng.below(41))
            .map(|_| *rng.pick(NAME_CHARS) as char)
            .collect();
        let trace = Trace::new(name, rand_records(&mut rng, 0, 200));
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("write");
        let back = read_trace(Cursor::new(&buf)).expect("read");
        assert_eq!(back, trace, "seed {seed}");
    }
}

#[test]
fn trace_format_rejects_any_single_bitflip() {
    for seed in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let trace = Trace::new("t", rand_records(&mut rng, 1, 50));
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("write");
        // Flip one bit somewhere in the body or footer (past the magic
        // and version, which have their own checks).
        let pos = 6 + rng.below((buf.len() - 6) as u64) as usize;
        let bit = rng.below(8);
        buf[pos] ^= 1 << bit;
        // Must fail loudly — either a parse error or a checksum/count
        // mismatch — or, if the flip landed in the name length/content,
        // produce a different name; silent identical success is a bug.
        if let Ok(back) = read_trace(Cursor::new(&buf)) {
            assert_ne!(back, trace, "seed {seed}: corruption went unnoticed");
        }
    }
}

/// A `Read` that hands out one byte per call, so the trace reader never
/// has a whole record window buffered and decodes every byte on its
/// byte path.
struct OneByteReader<'a>(&'a [u8]);

impl Read for OneByteReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match (self.0.split_first(), out.first_mut()) {
            (Some((&byte, rest)), Some(slot)) => {
                *slot = byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// A decode outcome that compares by value: the trace, or the error's
/// debug rendering.
type Decoded = Result<Trace, String>;

fn describe(e: TraceFormatError) -> String {
    format!("{e:?}")
}

/// Drains `source` through chunks of `chunk_records`.
fn drain_chunks(source: &mut dyn TraceSource, chunk_records: usize) -> Decoded {
    let name = source.name().to_owned();
    let mut records = Vec::new();
    let mut chunk = TraceChunk::new();
    while source
        .fill_chunk(&mut chunk, chunk_records)
        .map_err(describe)?
        > 0
    {
        assert!(chunk.len() <= chunk_records);
        records.extend((0..chunk.len()).map(|i| chunk.record(i)));
    }
    Ok(Trace::new(name, records))
}

/// Every way a BFBT stream gets decoded, labelled: `read_trace` over a
/// slice (record windows), over a one-byte reader (byte path only), and
/// `FileSource` at three chunk sizes.
fn decode_every_way(bytes: &[u8]) -> Vec<(String, Decoded)> {
    let mut ways = vec![
        ("slice".to_owned(), read_trace(bytes).map_err(describe)),
        (
            "one-byte".to_owned(),
            read_trace(OneByteReader(bytes)).map_err(describe),
        ),
    ];
    for chunk_records in [1, 7, 4096] {
        let decoded = FileSource::from_reader(bytes)
            .map_err(describe)
            .and_then(|mut source| drain_chunks(&mut source, chunk_records));
        ways.push((format!("file-source/{chunk_records}"), decoded));
    }
    ways
}

/// A pc or target delta: the extremes, full-width values that take
/// ten-byte varints, and short ones of either sign.
fn rand_delta(rng: &mut Xoshiro256) -> i64 {
    match rng.below(6) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => rng.next_u64() as i64,
        3 => (rng.next_u64() >> rng.below(64)) as i64,
        _ => rng.below(4096) as i64 - 2048,
    }
}

fn rand_gap(rng: &mut Xoshiro256) -> u32 {
    match rng.below(4) {
        0 => u32::MAX,
        1 => rng.next_u64() as u32,
        _ => rng.below(300) as u32,
    }
}

/// A trace with every branch kind, `i64::MIN` and `i64::MAX` pc and
/// target deltas, and gaps up to `u32::MAX`.
fn rand_wide_trace(rng: &mut Xoshiro256, n_records: usize) -> Trace {
    let mut pc = 0u64;
    let records = (0..n_records.max(BranchKind::ALL.len()))
        .map(|i| {
            let kind = match BranchKind::ALL.get(i) {
                Some(&kind) => kind,
                None => *rng.pick(&BranchKind::ALL),
            };
            let (pc_delta, target_delta) = match i {
                0 => (i64::MIN, i64::MAX),
                1 => (i64::MAX, i64::MIN),
                _ => (rand_delta(rng), rand_delta(rng)),
            };
            pc = pc.wrapping_add(pc_delta as u64);
            BranchRecord {
                pc,
                target: pc.wrapping_add(target_delta as u64),
                kind,
                taken: !kind.is_conditional() || rng.chance(0.5),
                non_branch_insts: if i == 2 { u32::MAX } else { rand_gap(rng) },
            }
        })
        .collect();
    Trace::new("wide", records)
}

#[test]
fn record_window_and_byte_path_decode_alike() {
    for seed in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let n_records = rng.range_inclusive(0, 3000) as usize;
        let trace = rand_wide_trace(&mut rng, n_records);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("write");
        for (way, decoded) in decode_every_way(&bytes) {
            assert_eq!(decoded.as_ref(), Ok(&trace), "seed {seed}, {way}");
        }
        for chunk_records in [1, 7, 4096] {
            let replayed = drain_chunks(&mut ReplaySource::new(&trace), chunk_records);
            assert_eq!(
                replayed,
                Ok(trace.clone()),
                "seed {seed}, replay/{chunk_records}"
            );
        }
    }
}

#[test]
fn every_truncation_fails_alike_on_both_paths() {
    for seed in 0..4u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let trace = rand_wide_trace(&mut rng, 12);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("write");
        for cut in 0..bytes.len() {
            let ways = decode_every_way(&bytes[..cut]);
            let (_, byte_path) = &ways[1];
            assert!(byte_path.is_err(), "seed {seed}: cut {cut} decoded");
            for (way, decoded) in &ways {
                assert_eq!(decoded, byte_path, "seed {seed}, cut {cut}, {way}");
            }
        }
    }
}

/// LEB128 bytes of `value`.
fn leb128(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

#[test]
fn over_long_varints_are_malformed_at_every_position() {
    // Ten-byte neighbours put the third varint's eleventh byte just past
    // the record window; one-byte ones keep it inside.
    let full = leb128(u64::MAX);
    assert_eq!(full.len(), 10);
    for width in [1usize, 10] {
        let neighbour = if width == 10 {
            full.clone()
        } else {
            vec![0x02]
        };
        for position in 0..3 {
            for over_long in 11..=12 {
                let mut bad = vec![0x80u8; over_long - 1];
                bad.push(0x01);
                let mut record = vec![0x00];
                for varint in 0..3 {
                    record.extend(if varint == position { &bad } else { &neighbour });
                }
                let good = [0x00, 0x02, 0x02, 0x01];
                // With 40 records after it the bad record sits in a full
                // record window; with none and one-byte neighbours it
                // sits in the buffer's last 30 bytes.
                for records_after in [40, 0] {
                    let mut bytes = b"BFBT\x01\x00\x01v".to_vec();
                    bytes.extend_from_slice(&good);
                    bytes.extend_from_slice(&record);
                    for _ in 0..records_after {
                        bytes.extend_from_slice(&good);
                    }
                    bytes.extend_from_slice(&[0x7F, 0x00]);
                    bytes.extend_from_slice(&[0; 8]);
                    for (way, decoded) in decode_every_way(&bytes) {
                        assert_eq!(
                            decoded,
                            Err("MalformedVarint".to_owned()),
                            "{way}: neighbours of {width} bytes, varint {position} of \
                             {over_long} bytes, {records_after} records after"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn recency_stack_invariants_hold() {
    for seed in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let capacity = rng.range_inclusive(1, 15) as usize;
        let n_ops = rng.range_inclusive(1, 300) as usize;
        let mut rs = RecencyStack::new(capacity);
        let mut last_seen: HashMap<u64, (u64, bool)> = HashMap::new();
        for now in 0..n_ops as u64 {
            let key = rng.below(24);
            let outcome = rng.chance(0.5);
            rs.record(key, outcome, now);
            last_seen.insert(key, (now, outcome));

            // Size bounded by capacity.
            assert!(rs.len() <= capacity);
            // No duplicate keys.
            let mut keys: Vec<u64> = rs.iter().map(|e| e.key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), rs.len());
            // Births strictly decreasing top to bottom (recency order).
            let births: Vec<u64> = rs.iter().map(|e| e.birth).collect();
            for w in births.windows(2) {
                assert!(w[0] > w[1], "seed {seed}");
            }
            // Every entry reflects the latest occurrence of its key.
            for e in rs.iter() {
                let (birth, outcome) = last_seen[&e.key];
                assert_eq!(e.birth, birth);
                assert_eq!(e.outcome, outcome);
            }
            // The most recent key is always on top.
            assert_eq!(rs.iter().next().unwrap().key, key);
        }
    }
}

#[test]
fn bst_matches_reference_model() {
    for seed in 0..32u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        // Reference: per-PC "seen taken / seen not-taken" sets. The BST
        // is large enough here that no aliasing occurs (64 PCs, 2^10
        // entries, distinct low bits).
        let mut bst = Bst::new(10);
        let mut seen: HashMap<u64, (bool, bool)> = HashMap::new();
        for _ in 0..rng.range_inclusive(1, 400) {
            let pc = rng.below(64) << 2; // distinct table slots
            let taken = rng.chance(0.5);
            let e = seen.entry(pc).or_insert((false, false));
            if taken {
                e.0 = true;
            } else {
                e.1 = true;
            }
            let status = bst.commit(pc, taken);
            let expected = match *e {
                (true, true) => BranchStatus::NonBiased,
                (true, false) => BranchStatus::Taken,
                (false, true) => BranchStatus::NotTaken,
                (false, false) => unreachable!("at least one direction seen"),
            };
            assert_eq!(status, expected, "seed {seed}");
            assert_eq!(bst.status(pc), expected, "seed {seed}");
        }
    }
}

#[test]
fn folded_history_equals_recompute() {
    for seed in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let olen = rng.range_inclusive(1, 199) as usize;
        let clen = rng.range_inclusive(1, 19) as usize;
        let mut m = ManagedHistory::new(256, &[(olen.min(256), clen)]);
        for _ in 0..rng.range_inclusive(1, 500) {
            m.push(rng.chance(0.5));
            assert_eq!(
                m.fold(0),
                m.folds()[0].recompute(m.history()),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn global_history_matches_vec_model() {
    for seed in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let capacity = rng.range_inclusive(1, 99) as usize;
        let mut h = GlobalHistory::new(capacity);
        let mut model: Vec<bool> = Vec::new();
        for _ in 0..rng.range_inclusive(1, 300) {
            let b = rng.chance(0.5);
            h.push(b);
            model.push(b);
            for age in 0..h.capacity() + 4 {
                let expected = if age < h.capacity() && age < model.len() {
                    model[model.len() - 1 - age]
                } else {
                    false
                };
                assert_eq!(h.bit(age), expected, "seed {seed} age {age}");
            }
        }
    }
}

/// Every packed-word read agrees with `bit`, bit for bit, at every age
/// (including ages past what was pushed and past capacity).
fn assert_packed_matches_bits(h: &GlobalHistory, ctx: &str) {
    for age in 0..h.capacity() + 64 {
        let word = h.packed(age);
        for j in 0..64 {
            assert_eq!(
                (word >> j) & 1 == 1,
                h.bit(age + j),
                "{ctx}: age {age} bit {j}"
            );
        }
    }
    for n in 0..=64 {
        let expected: u64 = (0..n).filter(|&a| h.bit(a)).map(|a| 1 << a).sum();
        assert_eq!(h.low_bits(n), expected, "{ctx}: low_bits({n})");
    }
}

#[test]
fn packed_history_reads_match_bit() {
    for capacity in [64usize, 128, 2048] {
        let mut rng = Xoshiro256::seed_from_u64(capacity as u64);
        let mut h = GlobalHistory::new(capacity);
        assert_eq!(h.capacity(), capacity);
        let mut stops = vec![0, 1, 63, 64, 65, capacity - 1, capacity];
        stops.extend([capacity + 1, 2 * capacity + 37]);
        stops.sort_unstable();
        stops.dedup();
        let mut pushed = 0;
        for stop in stops {
            while pushed < stop {
                h.push(rng.chance(0.5));
                pushed += 1;
            }
            let ctx = format!("capacity {capacity}, {pushed} pushes");
            assert_packed_matches_bits(&h, &ctx);
            // A checkpoint round trip restores the same reads, and both
            // copies stay equal as the ring keeps wrapping.
            let mut w = StateWriter::new();
            h.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored = GlobalHistory::new(capacity);
            restored
                .load_state(&mut StateReader::new(&bytes))
                .expect("round trip");
            assert_packed_matches_bits(&restored, &format!("{ctx}, restored"));
            let mut ahead = h.clone();
            for _ in 0..capacity / 2 + 3 {
                let b = rng.chance(0.5);
                ahead.push(b);
                restored.push(b);
            }
            assert_eq!(restored, ahead, "{ctx}");
            assert_packed_matches_bits(&restored, &format!("{ctx}, restored and pushed"));
        }
    }
}

#[test]
fn isl_tage_fold_spec_stays_equal_to_recompute() {
    // ISL-TAGE's 15 tables: three folds per window, so one push makes
    // 15 evicted-bit reads for 45 folds.
    let config = TageConfig::conventional(15).expect("15 tables");
    let specs = Tage::fold_specs(&config);
    let mut m = ManagedHistory::new(config.max_history(), &specs);
    assert_eq!(m.folds().len(), 45);
    assert_eq!(m.window_reads(), 15);
    let mut rng = Xoshiro256::seed_from_u64(15);
    for push in 0..m.history().capacity() + 100 {
        m.push(rng.chance(0.5));
        for (i, fold) in m.folds().iter().enumerate() {
            assert_eq!(
                m.fold(i),
                fold.recompute(m.history()),
                "push {push}, fold {i}"
            );
        }
    }
}

#[test]
fn sat_counter_stays_in_range() {
    for bits in 1u32..8 {
        let mut rng = Xoshiro256::seed_from_u64(bits as u64);
        let mut c = SatCounter::new(bits);
        for _ in 0..200 {
            c.train(rng.chance(0.5));
            assert!(c.value() >= c.min());
            assert!(c.value() <= c.max());
            assert_eq!(c.is_taken(), c.value() >= 0);
        }
    }
}

#[test]
fn counter_table_stays_in_range() {
    for bits in 1u32..8 {
        let mut rng = Xoshiro256::seed_from_u64(1000 + bits as u64);
        let mut t = CounterTable::new(32, bits);
        let lo = -(1i32 << (bits - 1));
        let hi = (1i32 << (bits - 1)) - 1;
        for _ in 0..200 {
            let idx = rng.below(32) as usize;
            let delta = rng.below(40) as i32 - 20;
            t.add(idx, delta);
            assert!((lo..=hi).contains(&t.get(idx)), "bits {bits}");
        }
    }
}

#[test]
fn bf_ghr_stays_within_compressed_capacity() {
    for seed in 0..16u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut ghr = BfGhr::new();
        let mut out = Vec::new();
        for _ in 0..rng.below(2500) {
            let key = rng.below(1 << 14) as u16;
            ghr.commit(key, rng.chance(0.5), rng.chance(0.5));
            assert!(ghr.compressed_len() <= ghr.compressed_capacity());
        }
        ghr.collect(&mut out);
        assert_eq!(out.len(), ghr.compressed_len());
        let mut mixed = Vec::new();
        ghr.collect_mixed(&mut mixed);
        assert_eq!(mixed.len(), out.len());
    }
}

#[test]
fn biased_only_streams_never_populate_segments() {
    for seed in 0..16u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        // A stream of purely biased branches must leave every segment
        // stack empty: the BF-GHR compresses it to just the prefix.
        let mut ghr = BfGhr::new();
        for _ in 0..rng.range_inclusive(20, 200) {
            ghr.commit(rng.below(1 << 14) as u16, true, false);
        }
        assert!(ghr.compressed_len() <= ghr.recent_len());
    }
}
