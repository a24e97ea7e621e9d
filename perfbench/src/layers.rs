//! Per-layer measurements of a traced run.
//!
//! Each workload first traces its own timed phase (the "on path"
//! numbers: cache fetches, file decode, predictor shims inside the
//! sweep engine, served round trips). Then [`measure`] replays the
//! workload's own branch stream — its first [`SAMPLE_TRACES`] traces —
//! through every layer's public functions, so every per-layer row is
//! measured on every workload. Layers that sit behind private code are
//! replayed through their public parts: BF-GHR inside bf-tage through
//! `BfGhr::fold_mixed`/`commit` fed by the same BST classification, and
//! `TageCore` through `predict`/`update` fed the exact indices and tags
//! bf-tage computes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bfbp_core::bf_ghr::BfGhr;
use bfbp_core::bst::{BranchStatus, Bst};
use bfbp_predictors::history::{mix64, PathHistory};
use bfbp_sim::engine::{self, SweepOptions, SweepReport, TraceInput};
use bfbp_sim::registry::{PredictorRegistry, PredictorSpec};
use bfbp_sim::simulate::Simulation;
use bfbp_sim::wire::{
    decode_outcome_batch_into, decode_predict_batch_into, decode_predict_reply_into,
    encode_outcome_batch, encode_predict_batch, encode_predict_reply, CondBatch, Frame, FrameKind,
    FrameReader,
};
use bfbp_tage::config::TageConfig;
use bfbp_tage::tage::TageCore;
use bfbp_trace::cache::{CacheStatus, TraceCache};
use bfbp_trace::format::{read_trace_file, write_trace};
use bfbp_trace::record::Trace;
use bfbp_trace::source::{ReplaySource, TraceChunk};
use bfbp_trace::synth::suite::TraceSpec;

use crate::serve::{self, MAX_RUN};
use crate::shim::{CallStats, TimedPredictor, TimedSource};
use crate::spans::{self, Span, Tracer};
use crate::stats::mean;
use crate::{inputs, Outcome, LOAD, PREDICTORS, SELF_LAYERS};

/// Traces of the workload's stream the layer replays run over.
pub const SAMPLE_TRACES: usize = 2;

/// Interval length the sweep engine uses by default; replays of
/// `Simulation::run` collect the same windows.
const INTERVAL_INSTS: u64 = 100_000;

/// Tagged tables of the registry's default bf-tage.
const BF_TAGE_TABLES: usize = 10;

/// What a served workload measured on its own path.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOnPath {
    /// Mean client round trip per request, µs.
    pub rtt_mean_us: f64,
    /// Mean `CHECKPOINT` round trip, ms.
    pub checkpoint_ms: f64,
}

/// What the workload's traced timed phase measured itself; [`measure`]
/// uses these in place of its replays where present.
#[derive(Debug, Default)]
pub struct OnPath {
    /// Warm trace-cache fetches: (ns, served from the cache).
    pub fetches: Vec<(u64, bool)>,
    /// BFBT file loads (`TraceInput::from_file`).
    pub decode: CallStats,
    /// Batch predictors timed by the shim inside the sweep, by registry
    /// name.
    pub predict: BTreeMap<String, CallStats>,
    /// The traced sweep: (idle fraction, attempts per job).
    pub engine: Option<(f64, f64)>,
    /// The served sessions' round trips and checkpoint probe.
    pub serve: Option<ServeOnPath>,
    /// Traced wall over untraced wall of the timed phase, minus one.
    pub overhead_frac: f64,
}

/// The replay battery's inputs.
#[derive(Debug)]
pub struct Battery<'a> {
    /// Specs of the sample traces (already in `cache`).
    pub specs: &'a [TraceSpec],
    /// The sample traces, parallel to `specs`.
    pub traces: &'a [Trace],
    /// The workload's populated trace cache.
    pub cache: &'a TraceCache,
    /// Trace-length scale.
    pub scale: f64,
    /// Specs the workload itself runs (drive the `simulate.*` rows).
    pub workload_predictors: &'a [&'a str],
    /// Span sink.
    pub tracer: &'a Tracer,
    /// Parent span of every replay span.
    pub parent: u64,
    /// Scratch directory (probe server checkpoints).
    pub work_dir: &'a Path,
}

/// The engine's idle share and attempts per job of one sweep.
pub fn engine_figures(report: &SweepReport) -> (f64, f64) {
    let jobs = report.jobs();
    let attempts: u64 = jobs.iter().map(|j| u64::from(j.attempts)).sum();
    (
        1.0 - report.speedup() / report.threads().max(1) as f64,
        attempts as f64 / jobs.len().max(1) as f64,
    )
}

fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Times `work` under a span named `name` in `layer`; returns its result
/// and duration in ns.
fn timed<T>(
    b: &Battery<'_>,
    name: &'static str,
    layer: &'static str,
    work: impl FnOnce() -> T,
) -> (T, u64) {
    let open = b.tracer.begin(b.parent, name, layer);
    let start = Instant::now();
    let out = work();
    let elapsed = ns(start);
    b.tracer.end(open);
    (out, elapsed)
}

/// One predictor replayed through `Simulation::run` over the sample.
#[derive(Debug, Default, Clone, Copy)]
struct SimReplay {
    records: u64,
    wall_ns: u64,
    fill: CallStats,
    calls: CallStats,
    timed: bool,
}

/// Runs `spec` over every sample trace through `Simulation::run`, the
/// source wrapped in a [`TimedSource`] and, for batch-preferred
/// predictors, the predictor in a [`TimedPredictor`].
fn simulate_replay(
    b: &Battery<'_>,
    registry: &PredictorRegistry,
    spec: &PredictorSpec,
) -> Result<SimReplay, String> {
    let mut out = SimReplay::default();
    for trace in b.traces {
        let mut predictor = registry.build_spec(spec).map_err(|e| e.to_string())?;
        out.timed = predictor.capabilities().batch_preferred;
        let open = b.tracer.begin(b.parent, "simulate.run", "simulate");
        let mut replay = ReplaySource::new(trace);
        let mut source = TimedSource::new(&mut replay, b.tracer, open.id());
        let start = Instant::now();
        let calls = if out.timed {
            let mut shim = TimedPredictor::new(predictor);
            Simulation::new(&mut shim)
                .intervals(INTERVAL_INSTS)
                .run(&mut source)
                .map_err(|e| e.to_string())?;
            shim.stats()
        } else {
            // Per-record predictors run unwrapped: forwarding through the
            // shim would cost as much as the calls it measures. Each
            // record is one call.
            Simulation::new(predictor.as_mut())
                .intervals(INTERVAL_INSTS)
                .run(&mut source)
                .map_err(|e| e.to_string())?;
            let records = source.stats().records;
            CallStats {
                calls: records,
                records,
                busy_ns: 0,
            }
        };
        out.wall_ns += ns(start);
        let fill = source.stats();
        out.fill.add(fill);
        out.records += fill.records;
        out.calls.add(calls);
        b.tracer.end_with(open, 0, calls.busy_ns);
    }
    Ok(out)
}

/// Per-record predictor cost without the drive loop: the predictor's
/// own calls over the sample, in commit order.
fn isolated_replay(
    b: &Battery<'_>,
    registry: &PredictorRegistry,
    spec: &PredictorSpec,
) -> Result<f64, String> {
    let mut records = 0u64;
    let mut busy = 0u64;
    for trace in b.traces {
        let mut p = registry.build_spec(spec).map_err(|e| e.to_string())?;
        let ((), elapsed) = timed(b, "predict.replay", "predict", || {
            for r in trace.records() {
                if r.kind.is_conditional() {
                    black_box(p.predict(r.pc));
                    p.update(r.pc, r.taken, r.target);
                } else {
                    p.track_other(r);
                }
            }
        });
        records += trace.len() as u64;
        busy += elapsed;
    }
    Ok(busy as f64 / records.max(1) as f64)
}

/// BF-GHR and TAGE-core replays over the first sample trace's
/// conditional stream, driven exactly as bf-tage drives them. Returns
/// (commit ns, fold ns, TAGE predict+update ns) per conditional branch.
fn core_replays(b: &Battery<'_>) -> (f64, f64, f64) {
    let config = TageConfig::bias_free(BF_TAGE_TABLES).expect("10 tables is a bias-free geometry");
    let lengths: Vec<usize> = config.tables.iter().map(|t| t.history_len).collect();
    let geometry = TageCore::new(&config);
    let tables = geometry.tables();
    let n_tables = tables.len();

    // Untimed pass: the branch stream as BF-GHR sees it (hashed key,
    // outcome, BST status) and the indices/tags bf-tage hands TageCore.
    let mut commits: Vec<(u16, bool, bool)> = Vec::new();
    let mut pcs: Vec<(u64, bool)> = Vec::new();
    let mut indices: Vec<usize> = Vec::new();
    let mut tags: Vec<u16> = Vec::new();
    let (mut bst, mut ghr) = (Bst::new(13), BfGhr::new());
    let mut path = PathHistory::new(config.path_bits);
    let mut folded = Vec::with_capacity(n_tables);
    for r in b.traces[0].records() {
        if !r.kind.is_conditional() {
            path.push(r.pc);
            continue;
        }
        let pch = r.pc >> 2;
        let path16 = path.value() & 0xFFFF;
        ghr.fold_mixed(&lengths, &mut folded);
        let (mut h_tag, mut prev) = (0u64, 0u64);
        for (i, t) in tables.iter().enumerate() {
            let h_idx = folded[i];
            let path_mix = mix64(path16.wrapping_mul(0xC2B2_AE3D + i as u64));
            indices.push(t.mask_index(pch ^ (pch >> (t.log_size() + 1)) ^ h_idx ^ (path_mix >> 3)));
            if i == 0 || h_idx != prev {
                h_tag = mix64(h_idx ^ 0xA5A5_5A5A_DEAD_BEEF);
            }
            prev = h_idx;
            tags.push(t.mask_tag(pch ^ h_tag ^ (h_tag >> 13)));
        }
        let non_biased = bst.commit(r.pc, r.taken) == BranchStatus::NonBiased;
        let key = (mix64(pch) & 0x3FFF) as u16;
        ghr.commit(key, r.taken, non_biased);
        path.push(r.pc);
        commits.push((key, r.taken, non_biased));
        pcs.push((r.pc, r.taken));
    }
    let n = commits.len().max(1) as f64;

    let mut ghr = BfGhr::new();
    let (_, commit_ns) = timed(b, "bf_ghr.commit", "bf_ghr", || {
        for &(key, taken, non_biased) in &commits {
            ghr.commit(key, taken, non_biased);
        }
    });
    let mut ghr = BfGhr::new();
    let (_, both_ns) = timed(b, "bf_ghr.fold_commit", "bf_ghr", || {
        for &(key, taken, non_biased) in &commits {
            ghr.fold_mixed(&lengths, &mut folded);
            black_box(&folded);
            ghr.commit(key, taken, non_biased);
        }
    });
    let mut core = TageCore::new(&config);
    let (_, core_ns) = timed(b, "tage_core.predict_update", "tage_core", || {
        for (i, &(pc, taken)) in pcs.iter().enumerate() {
            let span = i * n_tables..(i + 1) * n_tables;
            black_box(core.predict(pc, &indices[span.clone()], &tags[span]));
            core.update(pc, taken);
        }
    });
    (
        commit_ns as f64 / n,
        both_ns.saturating_sub(commit_ns) as f64 / n,
        core_ns as f64 / n,
    )
}

/// Wire replay over the first sample trace's requests: encode of each
/// request and its reply, then frame read + decode of both. Returns
/// (encode ns, decode ns) per request and bytes per decision.
fn wire_replay(b: &Battery<'_>, chunk: &TraceChunk) -> (f64, f64, f64) {
    let runs: Vec<(usize, usize, bool)> = serve::runs(chunk.kinds()).collect();
    let miss = [false; MAX_RUN];
    let (mut request, mut reply, mut stream) = (Vec::new(), Vec::new(), Vec::new());
    let mut encode_ns = 0u64;
    let open = b.tracer.begin(b.parent, "wire.encode", "wire");
    for &(i, j, conditional) in &runs {
        let start = Instant::now();
        if conditional {
            encode_predict_batch(
                1,
                &chunk.pcs()[i..j],
                &chunk.targets()[i..j],
                &chunk.inst_gaps()[i..j],
                &chunk.takens()[i..j],
                &mut request,
            );
            encode_predict_reply(1, &miss[..j - i], &mut reply);
        } else {
            encode_outcome_batch(1, chunk, i, j, &mut request);
            Frame::OutcomeAck { session: 1 }.encode_into(&mut reply);
        }
        encode_ns += ns(start);
        stream.extend_from_slice(&request);
        stream.extend_from_slice(&reply);
    }
    b.tracer.end(open);
    let mut reader = FrameReader::new();
    let (mut batch, mut flags, mut others) = (CondBatch::default(), Vec::new(), TraceChunk::new());
    let (decoded, decode_ns) = timed(b, "wire.decode", "wire", || {
        let mut input = &stream[..];
        let mut frames = 0usize;
        while let Ok(Some((kind, payload))) = reader.read_from(&mut input) {
            let ok = match kind {
                FrameKind::PredictBatch => decode_predict_batch_into(payload, &mut batch).is_ok(),
                FrameKind::PredictReply => decode_predict_reply_into(payload, &mut flags).is_ok(),
                FrameKind::OutcomeBatch => decode_outcome_batch_into(payload, &mut others).is_ok(),
                _ => Frame::decode(kind, payload).is_ok(),
            };
            frames += usize::from(ok);
        }
        frames
    });
    assert_eq!(decoded, 2 * runs.len(), "every replayed frame decodes");
    let requests = runs.len().max(1) as f64;
    let decisions: usize = runs.iter().filter(|r| r.2).map(|r| r.1 - r.0).sum();
    (
        encode_ns as f64 / requests,
        decode_ns as f64 / requests,
        stream.len() as f64 / decisions.max(1) as f64,
    )
}

/// The served predictor's share of a request: the same requests through
/// a fresh bf-tage's batch calls, µs per request.
fn serve_predict_replay(
    b: &Battery<'_>,
    registry: &PredictorRegistry,
    chunk: &TraceChunk,
) -> Result<f64, String> {
    let spec = PredictorSpec::parse(serve::SPEC).map_err(|e| e.to_string())?;
    let mut p = registry.build_spec(&spec).map_err(|e| e.to_string())?;
    let runs: Vec<(usize, usize, bool)> = serve::runs(chunk.kinds()).collect();
    let mut miss = [false; MAX_RUN];
    let (_, busy) = timed(b, "serve.predict_batch", "predict", || {
        for &(i, j, conditional) in &runs {
            if conditional {
                p.predict_batch(
                    &chunk.pcs()[i..j],
                    &chunk.targets()[i..j],
                    &chunk.takens()[i..j],
                    &mut miss[..j - i],
                );
            } else {
                p.update_batch(chunk, i, j);
            }
        }
    });
    Ok(busy as f64 / 1e3 / runs.len().max(1) as f64)
}

/// A probe server bound for this battery: one session over `chunk`, then
/// the checkpoint probe. Returns (mean round trip µs, checkpoint ms).
fn serve_probe(b: &Battery<'_>, chunk: &TraceChunk) -> Result<ServeOnPath, String> {
    let ckpt_dir = b.work_dir.join("probe-checkpoints");
    let open = b.tracer.begin(b.parent, "serve.probe", "service");
    let server = serve::bind(Some(&ckpt_dir))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let probed = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let probed = serve::checkpoint_probe(&addr, chunk);
        handle.shutdown();
        match serving.join() {
            Ok(Ok(_)) => probed,
            Ok(Err(e)) => Err(format!("probe server failed: {e}")),
            Err(_) => Err("probe server panicked".to_owned()),
        }
    });
    b.tracer.end(open);
    let (requests, checkpoint_ms) = probed?;
    Ok(ServeOnPath {
        rtt_mean_us: serve::mean_rtt_us(&requests),
        checkpoint_ms,
    })
}

/// Measures every per-layer row except the self times (see
/// [`push_self_times`]) and adds them to `out`.
///
/// # Errors
///
/// A replay that could not run (bad spec, probe server).
pub fn measure(b: &Battery<'_>, on_path: &OnPath, out: &mut Outcome) -> Result<(), String> {
    let registry = bfbp::default_registry();
    let sample_records: u64 = b.traces.iter().map(|t| t.len() as u64).sum();
    let sample_note = format!("replay of {} records", sample_records);

    // Trace substrate: generate, encode, decode, fetch.
    let mut synth_ns = 0u64;
    let mut encode_ns = 0u64;
    let mut decode = on_path.decode;
    let replay_decode = decode.records == 0;
    let mut fetches = on_path.fetches.clone();
    for (spec, trace) in b.specs.iter().zip(b.traces) {
        let n = inputs::records(spec, b.scale);
        let (generated, elapsed) = timed(b, "synth.generate", "synth", || spec.generate_len(n));
        synth_ns += elapsed;
        if generated != *trace {
            out.mismatches.push(format!(
                "{}: regenerated trace differs from set-up",
                spec.name()
            ));
        }
        let mut bytes = Vec::new();
        let (written, elapsed) = timed(b, "format.encode", "format", || {
            write_trace(&mut bytes, trace)
        });
        written.map_err(|e| e.to_string())?;
        encode_ns += elapsed;
        if replay_decode {
            let path = b
                .cache
                .entry_path(spec, n)
                .expect("the cache has a directory");
            let (read, elapsed) = timed(b, "format.decode", "format", || read_trace_file(path));
            read.map_err(|e| e.to_string())?;
            decode.add(CallStats {
                calls: 1,
                records: n as u64,
                busy_ns: elapsed,
            });
        }
        let ((_, status), elapsed) = timed(b, "cache.fetch", "cache", || b.cache.fetch(spec, n));
        fetches.push((elapsed, status == CacheStatus::Hit));
    }
    let records = sample_records.max(1) as f64;
    out.push(
        "synth.records_per_s",
        records / (synth_ns as f64 / 1e9),
        sample_note.clone(),
    );
    out.push(
        "format.encode_ns_per_rec",
        encode_ns as f64 / records,
        sample_note.clone(),
    );
    out.push(
        "format.decode_ns_per_rec",
        decode.busy_ns as f64 / decode.records.max(1) as f64,
        format!(
            "{} records over {} file loads",
            decode.records, decode.calls
        ),
    );
    let fetch_ms: Vec<f64> = fetches.iter().map(|&(ns, _)| ns as f64 / 1e6).collect();
    let hits = fetches.iter().filter(|f| f.1).count();
    out.push(
        "cache.fetch_ms",
        mean(&fetch_ms),
        format!("mean of {} warm fetches", fetches.len()),
    );
    out.push(
        "cache.hit_frac",
        hits as f64 / fetches.len().max(1) as f64,
        format!("{hits} of {} warm fetches", fetches.len()),
    );

    // Drive loop, source and predictors: every predictor through
    // `Simulation::run`; per-record ones also in isolation.
    let mut fill = CallStats::default();
    let (mut self_ns, mut self_records, mut drive) = (0f64, 0u64, CallStats::default());
    for (name, spec_text) in PREDICTORS {
        let spec = PredictorSpec::parse(spec_text).map_err(|e| e.to_string())?;
        let replay = simulate_replay(b, &registry, &spec)?;
        fill.add(replay.fill);
        let (per_rec, note) = if let Some(stats) = on_path.predict.get(name) {
            (
                stats.busy_ns as f64 / stats.records.max(1) as f64,
                format!("shim in the traced sweep, {} records", stats.records),
            )
        } else if replay.timed {
            (
                replay.calls.busy_ns as f64 / replay.records.max(1) as f64,
                format!("shim, {sample_note}"),
            )
        } else {
            (
                isolated_replay(b, &registry, &spec)?,
                format!("isolated per-record {sample_note}"),
            )
        };
        out.push(&format!("predict.{name}.ns_per_rec"), per_rec, note);
        if b.workload_predictors.contains(&spec_text) {
            let predictor_ns = if replay.timed {
                replay.calls.busy_ns as f64
            } else {
                per_rec * replay.records as f64
            };
            self_ns += replay.wall_ns as f64 - replay.fill.busy_ns as f64 - predictor_ns;
            self_records += replay.records;
            drive.add(replay.calls);
        }
    }
    out.push(
        "source.fill_ns_per_rec",
        fill.busy_ns as f64 / fill.records.max(1) as f64,
        format!("{} fills of ReplaySource", fill.calls),
    );
    out.push(
        "simulate.self_ns_per_rec",
        self_ns / self_records.max(1) as f64,
        format!("Simulation::run minus source and predictor, {self_records} records"),
    );
    out.push(
        "simulate.records_per_call",
        drive.records as f64 / drive.calls.max(1) as f64,
        format!("{} predictor calls", drive.calls),
    );

    let (commit, fold, core) = core_replays(b);
    let branches_note = format!("replay of {}'s conditional branches", b.traces[0].name());
    out.push("bf_ghr.commit_ns", commit, branches_note.clone());
    out.push("bf_ghr.fold_ns", fold, "fold_mixed+commit minus commit");
    out.push("tage_core.predict_update_ns", core, branches_note);

    let (idle, attempts) = match on_path.engine {
        Some(figures) => figures,
        None => {
            let inputs: Vec<TraceInput> = b.traces.iter().cloned().map(TraceInput::ready).collect();
            let specs = [PredictorSpec::parse(serve::SPEC).map_err(|e| e.to_string())?];
            let open = b.tracer.begin(b.parent, "engine.sweep", "engine");
            let report = engine::sweep_inputs(
                &registry,
                &specs,
                &inputs,
                &SweepOptions::new().with_threads(LOAD),
            )
            .map_err(|e| e.to_string())?;
            b.tracer.end(open);
            engine_figures(&report)
        }
    };
    out.push("engine.idle_frac", idle, "1 - speedup / threads");
    out.push("engine.attempts_per_job", attempts, "");

    let chunk = serve::to_chunk(&b.traces[0]);
    let (encode, decode, bytes) = wire_replay(b, &chunk);
    out.push("wire.encode_ns_per_req", encode, "request + reply frame");
    out.push(
        "wire.decode_ns_per_req",
        decode,
        "request + reply frame read and decode",
    );
    out.push("wire.bytes_per_decision", bytes, "request + reply bytes");
    let predict_us = serve_predict_replay(b, &registry, &chunk)?;
    out.push(
        "serve.predict_us_per_req",
        predict_us,
        "bf-tage batch calls per request, in isolation",
    );
    let served = match on_path.serve {
        Some(served) => served,
        None => serve_probe(b, &chunk)?,
    };
    out.push(
        "serve.transport_us_per_req",
        served.rtt_mean_us - (encode + decode) / 1e3 - predict_us,
        format!(
            "mean round trip {:.3} us minus wire and predict",
            served.rtt_mean_us
        ),
    );
    out.push(
        "serve.checkpoint_ms",
        served.checkpoint_ms,
        "CHECKPOINT frame round trip",
    );
    out.push(
        "traced.overhead_frac",
        on_path.overhead_frac,
        "traced / untraced timed wall - 1",
    );
    Ok(())
}

/// Adds one `self_ms.<layer>` row per [`SELF_LAYERS`] entry. Aggregated
/// predictor calls (`child_busy_ns` of job and `simulate.run` spans)
/// count as the predictor layer's self time.
pub fn push_self_times(spans: &[Span], out: &mut Outcome) {
    let by_layer = spans::self_time_by_layer(spans);
    let busy: u64 = spans.iter().map(|s| s.child_busy_ns).sum();
    for layer in SELF_LAYERS {
        let mut ns = by_layer.get(layer).copied().unwrap_or(0);
        if layer == "predict" {
            ns += busy;
        }
        let count = spans.iter().filter(|s| s.layer == layer).count();
        out.push(
            &format!("self_ms.{layer}"),
            ns as f64 / 1e6,
            format!("{count} spans"),
        );
    }
}
