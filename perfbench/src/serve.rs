//! The `serve-bf-tage` workload: a [`Server`] on loopback serves
//! bf-tage to [`LOAD`] closed-loop [`ServeClient`] connections. Each
//! connection opens its own session on a different suite trace, sends
//! same-kind runs of at most [`MAX_RUN`] records, closes, and moves on to
//! its next trace until the measurement window ends.
//!
//! Rates and round-trip percentiles are taken per one-second window of
//! request completions and reported as the median over the windows, so a
//! short stall on a shared host moves one window, not the result.

use std::path::Path;
use std::time::{Duration, Instant};

use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::service::{ServeClient, ServeError, ServeOptions, Server};
use bfbp_sim::simulate::Simulation;
use bfbp_sim::wire::SessionStats;
use bfbp_trace::record::{BranchKind, Trace};
use bfbp_trace::source::TraceChunk;

use crate::inputs::seeded_suite;
use crate::layers::{self, Battery, OnPath, ServeOnPath};
use crate::spans::Tracer;
use crate::stats::{mean, percentile};
use crate::{par_map, populate_cache, repeat_setup, settle, Config, Outcome, LOAD};

/// The served predictor.
pub const SPEC: &str = "bf-tage";

/// Longest run of records one request carries.
pub const MAX_RUN: usize = 32;

/// Sessions per connection in each pass of a traced run.
const TRACED_SESSIONS: usize = 2;

/// `CHECKPOINT` round trips timed by [`checkpoint_probe`].
const CHECKPOINTS: usize = 5;

/// One batch request, as the client timed it.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Completion, ns after the pass started.
    pub end_ns: u64,
    /// Round trip, ns.
    pub rtt_ns: u64,
    /// Records carried.
    pub records: u32,
    /// Conditional records carried (predictions served).
    pub decisions: u32,
}

/// One finished session, as the client saw it.
#[derive(Debug)]
pub struct SessionResult {
    /// Index of the served trace.
    pub trace: usize,
    /// Session id.
    pub session: u64,
    /// Counters from the closing `CLOSE_ACK`.
    pub stats: SessionStats,
    /// Every miss flag the server returned, in request order.
    pub flags: Vec<bool>,
}

/// One connection's work.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Completed sessions.
    pub sessions: Vec<SessionResult>,
    /// Every `PREDICT_BATCH` / `OUTCOME_BATCH` request.
    pub requests: Vec<Request>,
    /// Requests sent, control frames included.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// The failure that ended the connection, if any.
    pub error: Option<String>,
}

/// Copies `trace` into one structure-of-arrays chunk, the shape the
/// client's batch calls take.
pub fn to_chunk(trace: &Trace) -> TraceChunk {
    let mut chunk = TraceChunk::with_capacity(trace.len());
    for record in trace.records() {
        chunk.push(record);
    }
    chunk
}

/// The requests a trace becomes: maximal runs of same-kind records, at
/// most [`MAX_RUN`] long, as `(start, end, conditional)`.
pub fn runs(kinds: &[BranchKind]) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let conditional = kinds.get(i)?.is_conditional();
        let start = i;
        i += 1;
        while i < kinds.len() && i - start < MAX_RUN && kinds[i].is_conditional() == conditional {
            i += 1;
        }
        Some((start, i, conditional))
    })
}

/// Streams `chunk` through an open `session`, one request per
/// [`runs`] entry, appending each request (times relative to `epoch`)
/// to `requests` and the returned miss flags to `flags`. Returns the
/// requests sent.
///
/// # Errors
///
/// The failing request's error, with the requests sent up to it.
pub fn stream(
    client: &mut ServeClient,
    session: u64,
    chunk: &TraceChunk,
    epoch: Instant,
    requests: &mut Vec<Request>,
    flags: &mut Vec<bool>,
) -> Result<u64, (ServeError, u64)> {
    let (pcs, targets) = (chunk.pcs(), chunk.targets());
    let (takens, gaps) = (chunk.takens(), chunk.inst_gaps());
    let mut sent = 0u64;
    for (i, j, conditional) in runs(chunk.kinds()) {
        sent += 1;
        let start = Instant::now();
        if conditional {
            let miss = client
                .predict_batch(
                    session,
                    &pcs[i..j],
                    &targets[i..j],
                    &gaps[i..j],
                    &takens[i..j],
                )
                .map_err(|e| (e, sent))?;
            flags.extend_from_slice(miss);
        } else {
            client
                .outcome_batch(session, chunk, i, j)
                .map_err(|e| (e, sent))?;
        }
        let end = Instant::now();
        requests.push(Request {
            end_ns: (end - epoch).as_nanos() as u64,
            rtt_ns: (end - start).as_nanos() as u64,
            records: (j - i) as u32,
            decisions: if conditional { (j - i) as u32 } else { 0 },
        });
    }
    Ok(sent)
}

/// One closed-loop connection: session after session, connection `conn`
/// taking traces `conn, conn + LOAD, …` (wrapping), until `deadline`
/// passes or `max_sessions` sessions are done. A `serve.session` span
/// per session goes under `parent`.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: &str,
    conn: usize,
    chunks: &[TraceChunk],
    epoch: Instant,
    deadline: Instant,
    max_sessions: usize,
    tracer: &Tracer,
    parent: u64,
) -> ConnResult {
    let mut out = ConnResult::default();
    let fail = |out: &mut ConnResult, e: String| {
        out.failed += 1;
        out.error = Some(e);
    };
    out.attempted += 1;
    let mut client = match ServeClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            fail(&mut out, format!("connect: {e}"));
            return out;
        }
    };
    if let Err(e) = client.hello("perfbench") {
        fail(&mut out, format!("hello: {e}"));
        return out;
    }
    for k in 0..max_sessions {
        let trace = (k * LOAD + conn) % chunks.len();
        let session = (k * LOAD + conn + 1) as u64;
        let open = tracer.begin(parent, "serve.session", "service");
        out.attempted += 1;
        if let Err(e) = client.open(session, SPEC) {
            fail(&mut out, format!("open session {session}: {e}"));
            return out;
        }
        let mut flags = Vec::with_capacity(chunks[trace].len());
        let streamed = stream(
            &mut client,
            session,
            &chunks[trace],
            epoch,
            &mut out.requests,
            &mut flags,
        )
        .and_then(|sent| {
            out.attempted += sent + 1;
            client.close_session(session).map_err(|e| (e, 0))
        });
        match streamed {
            Ok(stats) => out.sessions.push(SessionResult {
                trace,
                session,
                stats,
                flags,
            }),
            Err((e, sent)) => {
                out.attempted += sent;
                fail(&mut out, format!("session {session}: {e}"));
                return out;
            }
        }
        tracer.end_with(open, session, 0);
        if Instant::now() >= deadline {
            break;
        }
    }
    out
}

/// Runs [`LOAD`] connections against `addr` concurrently, for `window`
/// or `max_sessions` sessions each; returns their results and the wall
/// time until the last one finished.
fn serve_pass(
    addr: &str,
    chunks: &[TraceChunk],
    window: Duration,
    max_sessions: usize,
    tracer: &Tracer,
    parent: u64,
) -> (Vec<ConnResult>, f64) {
    let epoch = Instant::now();
    let deadline = epoch + window;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD)
            .map(|conn| {
                scope.spawn(move || {
                    connection(
                        addr,
                        conn,
                        chunks,
                        epoch,
                        deadline,
                        max_sessions,
                        tracer,
                        parent,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    (results, epoch.elapsed().as_secs_f64())
}

/// Opens a session on `addr`, feeds it `chunk`, then times
/// [`CHECKPOINTS`] `CHECKPOINT` round trips before closing it. Returns
/// the batch requests and the mean checkpoint round trip (ms).
///
/// # Errors
///
/// Any failed request, or a checkpoint the server did not write (the
/// server needs a checkpoint directory).
pub fn checkpoint_probe(addr: &str, chunk: &TraceChunk) -> Result<(Vec<Request>, f64), String> {
    let session = u64::MAX;
    let mut client = ServeClient::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    client.hello("perfbench-probe").map_err(|e| e.to_string())?;
    client.open(session, SPEC).map_err(|e| e.to_string())?;
    let (mut requests, mut flags) = (Vec::new(), Vec::new());
    stream(
        &mut client,
        session,
        chunk,
        Instant::now(),
        &mut requests,
        &mut flags,
    )
    .map_err(|(e, _)| e.to_string())?;
    let mut ckpt_ms = Vec::with_capacity(CHECKPOINTS);
    for _ in 0..CHECKPOINTS {
        let start = Instant::now();
        let written = client.checkpoint(session).map_err(|e| e.to_string())?;
        ckpt_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !written {
            return Err("server wrote no checkpoint (no checkpoint directory?)".to_owned());
        }
    }
    client.close_session(session).map_err(|e| e.to_string())?;
    Ok((requests, mean(&ckpt_ms)))
}

/// Mean round trip of `requests`, µs.
pub fn mean_rtt_us(requests: &[Request]) -> f64 {
    let rtt: Vec<f64> = requests.iter().map(|r| r.rtt_ns as f64 / 1e3).collect();
    mean(&rtt)
}

/// Binds a loopback server for bf-tage sessions; `checkpoints` enables
/// `CHECKPOINT` frames (cadence persistence stays off either way).
///
/// # Errors
///
/// When the port cannot be bound or the directory created.
pub fn bind(checkpoints: Option<&Path>) -> Result<Server, String> {
    let options = ServeOptions {
        checkpoint_dir: checkpoints.map(Path::to_path_buf),
        ..ServeOptions::default()
    };
    Server::bind("127.0.0.1:0", bfbp::default_registry(), options)
        .map_err(|e| format!("cannot bind the server: {e}"))
}

/// Per-branch miss flags and closing counters of one trace.
type Truth = Result<(Vec<bool>, SessionStats), String>;

/// Offline ground truth for one trace: per-branch miss flags from the
/// `Simulation::observer` hook and the closing counters.
fn offline(trace: &Trace) -> Truth {
    let spec = PredictorSpec::parse(SPEC).map_err(|e| e.to_string())?;
    let mut predictor = bfbp::default_registry()
        .build_spec(&spec)
        .map_err(|e| e.to_string())?;
    let mut flags = Vec::with_capacity(trace.len());
    let mut observe = |_pc: u64, _taken: bool, missed: bool| flags.push(missed);
    let (result, _) = Simulation::new(predictor.as_mut())
        .observer(&mut observe)
        .run_trace(trace)
        .map_err(|e| e.to_string())?;
    let stats = SessionStats {
        records: trace.len() as u64,
        instructions: result.instructions(),
        conditional_branches: result.conditional_branches(),
        mispredictions: result.mispredictions(),
    };
    Ok((flags, stats))
}

/// Checks every served session against an offline run of its trace:
/// the miss flags of every reply, and the closing counters.
fn verify(conns: &[ConnResult], chunks: &[TraceChunk], names: &[String], out: &mut Outcome) {
    let mut served: Vec<usize> = conns
        .iter()
        .flat_map(|c| c.sessions.iter().map(|s| s.trace))
        .collect();
    served.sort_unstable();
    served.dedup();
    let truth: Vec<(usize, Truth)> = par_map(served.len(), |i| {
        let t = served[i];
        let records = (0..chunks[t].len()).map(|r| chunks[t].record(r));
        (t, offline(&Trace::new(names[t].clone(), records.collect())))
    });
    for conn in conns {
        if let Some(e) = &conn.error {
            out.mismatches.push(format!("connection failed: {e}"));
        }
        for s in &conn.sessions {
            let Some((_, expected)) = truth.iter().find(|(t, _)| *t == s.trace) else {
                continue;
            };
            match expected {
                Err(e) => out
                    .mismatches
                    .push(format!("offline run of {} failed: {e}", names[s.trace])),
                Ok((flags, stats)) => {
                    if &s.stats != stats {
                        out.mismatches.push(format!(
                            "session {} ({}): served {:?} != offline {:?}",
                            s.session, names[s.trace], s.stats, stats
                        ));
                    }
                    if &s.flags != flags {
                        let at = s.flags.iter().zip(flags).position(|(a, b)| a != b);
                        out.mismatches.push(format!(
                            "session {} ({}): miss flags differ from offline (first at branch {:?}, {} vs {} flags)",
                            s.session,
                            names[s.trace],
                            at,
                            s.flags.len(),
                            flags.len()
                        ));
                    }
                }
            }
        }
    }
}

/// Per-window figures of one pass: records/s, decisions/s, and the
/// round-trip p50 and p99 (µs) of the requests completed in each of the
/// whole windows of `window`, one second long (or the whole window when
/// shorter).
fn windows(conns: &[ConnResult], window: f64) -> Vec<[f64; 4]> {
    let count = (window.floor() as usize).max(1);
    let len_ns = window / count as f64 * 1e9;
    let mut buckets: Vec<(u64, u64, Vec<f64>)> = vec![(0, 0, Vec::new()); count];
    for request in conns.iter().flat_map(|c| &c.requests) {
        let b = (request.end_ns as f64 / len_ns) as usize;
        if let Some((records, decisions, rtt)) = buckets.get_mut(b) {
            *records += u64::from(request.records);
            *decisions += u64::from(request.decisions);
            rtt.push(request.rtt_ns as f64 / 1e3);
        }
    }
    let secs = len_ns / 1e9;
    buckets
        .into_iter()
        .filter(|(_, _, rtt)| !rtt.is_empty())
        .map(|(records, decisions, mut rtt)| {
            rtt.sort_by(f64::total_cmp);
            [
                records as f64 / secs,
                decisions as f64 / secs,
                percentile(&rtt, 50.0),
                percentile(&rtt, 99.0),
            ]
        })
        .collect()
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// When set-up fails (work directory, bind).
pub fn run(config: &Config, traced: bool) -> Result<Outcome, String> {
    let tracer = if traced {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let specs = seeded_suite(config.seed);
    let names: Vec<String> = specs.iter().map(|s| s.name().to_owned()).collect();
    let root = tracer.begin(0, config.workload.name(), "bench");
    let cache_dir = config.work_dir.join("trace-cache");
    let ckpt_dir = config.work_dir.join("checkpoints");

    let setup = tracer.begin(root.id(), "setup", "bench");
    let (setup_walls, (cache, traces, server)) = repeat_setup(config.setup_reps, || {
        let (cache, traces) =
            populate_cache(&specs, config.scale, &cache_dir, &tracer, setup.id())?;
        let open = tracer.begin(setup.id(), "serve.bind", "service");
        let server = bind(traced.then_some(ckpt_dir.as_path()))?;
        tracer.end(open);
        Ok((cache, traces, server))
    })?;
    tracer.end(setup);
    settle(&cache_dir);
    let mut sample = Vec::with_capacity(layers::SAMPLE_TRACES);
    let mut chunks = Vec::with_capacity(traces.len());
    for trace in traces {
        chunks.push(to_chunk(&trace));
        if sample.len() < layers::SAMPLE_TRACES {
            sample.push(trace);
        }
    }
    let addr = server.local_addr().to_string();
    let handle = server.handle();

    let mut out = Outcome::default();
    let window = Duration::from_secs_f64(config.seconds);
    let (passes, probe) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let mut passes = Vec::new();
        let mut probe = Ok((Vec::new(), 0.0));
        if traced {
            // Fixed work untraced, traced, untraced: the first warms up,
            // the last is the overhead baseline. Then the checkpoint probe.
            let untraced = Tracer::disabled();
            let far = Duration::from_secs(3600);
            passes.push(serve_pass(
                &addr,
                &chunks,
                far,
                TRACED_SESSIONS,
                &untraced,
                0,
            ));
            let timed = tracer.begin(root.id(), "timed", "bench");
            passes.push(serve_pass(
                &addr,
                &chunks,
                far,
                TRACED_SESSIONS,
                &tracer,
                timed.id(),
            ));
            tracer.end(timed);
            passes.push(serve_pass(
                &addr,
                &chunks,
                far,
                TRACED_SESSIONS,
                &untraced,
                0,
            ));
            probe = checkpoint_probe(&addr, &chunks[0]);
        } else {
            passes.push(serve_pass(
                &addr,
                &chunks,
                window,
                usize::MAX,
                &tracer,
                root.id(),
            ));
        }
        handle.shutdown();
        match serving.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => out
                .mismatches
                .push(format!("server stopped with an error: {e}")),
            Err(_) => out.mismatches.push("server thread panicked".to_owned()),
        }
        (passes, probe)
    });

    for (conns, _) in &passes {
        for conn in conns {
            out.attempted += conn.attempted;
            out.failed += conn.failed;
        }
        verify(conns, &chunks, &names, &mut out);
    }
    // Untraced runs measure their one pass; traced runs their traced one.
    let (measured, measured_wall) = &passes[usize::from(traced)];

    if traced {
        let (_, checkpoint_ms) = probe?;
        let requests: Vec<Request> = measured.iter().flat_map(|c| c.requests.clone()).collect();
        let battery = tracer.begin(root.id(), "replay", "bench");
        let on_path = OnPath {
            serve: Some(ServeOnPath {
                rtt_mean_us: mean_rtt_us(&requests),
                checkpoint_ms,
            }),
            overhead_frac: measured_wall / passes[2].1 - 1.0,
            ..OnPath::default()
        };
        layers::measure(
            &Battery {
                specs: &specs[..sample.len()],
                traces: &sample,
                cache: &cache,
                scale: config.scale,
                workload_predictors: &[SPEC],
                tracer: &tracer,
                parent: battery.id(),
                work_dir: &config.work_dir,
            },
            &on_path,
            &mut out,
        )?;
        tracer.end(battery);
        tracer.end(root);
        let spans = tracer.spans();
        layers::push_self_times(&spans, &mut out);
        out.spans = spans;
        return Ok(out);
    }

    let figures = windows(measured, config.seconds);
    let column = |i: usize| -> Vec<f64> { figures.iter().map(|f| f[i]).collect() };
    let requests: usize = measured.iter().map(|c| c.requests.len()).sum();
    let windows = format!("one-second windows of {requests} requests, {LOAD} connections");
    // A fresh predictor per session makes each trace's MPKI the same in
    // every session that serves it; average over distinct traces.
    let mut mpki: Vec<(usize, f64)> = measured
        .iter()
        .flat_map(|c| &c.sessions)
        .map(|s| {
            let misses = s.stats.mispredictions as f64;
            (
                s.trace,
                1000.0 * misses / s.stats.instructions.max(1) as f64,
            )
        })
        .collect();
    mpki.sort_by_key(|m| m.0);
    mpki.dedup_by_key(|m| m.0);
    let mpki: Vec<f64> = mpki.into_iter().map(|m| m.1).collect();
    out.push_median("setup_s", &setup_walls, "set-ups: cold trace cache + bind");
    out.push_median("records_per_s", &column(0), &windows);
    out.push_median("decisions_per_s", &column(1), &windows);
    out.push_median("rtt_p50_us", &column(2), &windows);
    out.push_median("rtt_p99_us", &column(3), &windows);
    out.push(
        "mpki",
        mean(&mpki),
        format!("mean over the {} distinct traces served", mpki.len()),
    );
    Ok(out)
}
