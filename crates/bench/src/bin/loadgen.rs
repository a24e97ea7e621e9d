//! Load generator and correctness harness for `bfbp-serve`: replays
//! cached suite traces through N concurrent client connections,
//! measures served throughput, and verifies that every session's final
//! counters are byte-identical to an offline `Simulation::run` of the
//! same (spec, trace) pair — the served path must never drift from the
//! simulator it wraps.
//!
//! ```sh
//! loadgen --addr HOST:PORT [--connections N] [--batch N]
//!         [--spec SPEC] [--trace NAME]... [--records N] [--shutdown]
//!         [--trace-cache|--no-trace-cache]
//! ```
//!
//! Defaults: 4 connections, batch 1024, spec `bf-tage`, trace `SERV1`.
//! Traces are dealt to connections round-robin; connection `c` drives
//! session id `c+1`. Retryable failures (connection refused, torn
//! frames, `RETRY` shed replies, a served process being killed and
//! restarted) are absorbed by reconnect-with-backoff: the client
//! re-opens its session and fast-forwards its trace cursor to the
//! record count the server reports, so a mid-run `kill -9` + restart
//! converges to the same final counters as an uninterrupted run. The
//! exit code is non-zero when any session's counters disagree with the
//! offline simulation.
//!
//! The run reports served decisions per wall-clock second, all
//! connections combined. `--shutdown` sends a graceful `SHUTDOWN` frame
//! after the run so the server persists its sessions and exits.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bfbp_bench::cli::Harness;
use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::service::{ServeClient, ServeError};
use bfbp_sim::simulate::Simulation;
use bfbp_sim::wire::SessionStats;
use bfbp_trace::source::TraceChunk;
use bfbp_trace::synth::suite;

/// Total reconnect-backoff budget per connection: generous enough to
/// ride out a served process being killed and manually restarted.
const RETRY_BUDGET: Duration = Duration::from_secs(60);

fn main() -> ExitCode {
    let mut harness = Harness::from_env(1.0);
    let mut addr: Option<String> = None;
    let mut connections = 4usize;
    let mut batch = 1024usize;
    let mut spec_text = "bf-tage".to_owned();
    let mut trace_names: Vec<String> = Vec::new();
    let mut records: Option<usize> = None;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match harness.parse_flag(&["--trace-cache"], &arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage(&e),
        }
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = Some(a),
                None => return usage("--addr needs HOST:PORT"),
            },
            "--connections" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => connections = n,
                _ => return usage("--connections needs a positive count"),
            },
            "--batch" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => batch = n,
                _ => return usage("--batch needs a positive record count"),
            },
            "--spec" => match args.next() {
                Some(s) => spec_text = s,
                None => return usage("--spec needs a predictor spec"),
            },
            "--trace" => match args.next() {
                Some(t) => trace_names.push(t),
                None => return usage("--trace needs a suite trace name"),
            },
            "--records" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => records = Some(n),
                _ => return usage("--records needs a positive count"),
            },
            "--shutdown" => shutdown = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = addr else {
        return usage("--addr is required (the server prints `listening on ADDR`)");
    };
    if trace_names.is_empty() {
        trace_names.push("SERV1".to_owned());
    }

    // Load each trace once and compute the offline ground truth the
    // served counters must match byte-for-byte.
    let registry = bfbp::default_registry();
    let spec = match PredictorSpec::parse(&spec_text) {
        Ok(s) => s,
        Err(e) => return usage(&format!("bad spec {spec_text:?}: {e}")),
    };
    let mut traces: Vec<(String, TraceChunk, SessionStats)> = Vec::new();
    for name in &trace_names {
        let Some(trace_spec) = suite::find(name) else {
            return usage(&format!("unknown trace {name:?}"));
        };
        let n = records.unwrap_or_else(|| trace_spec.default_len());
        let (trace, _status) = harness.cache.fetch(&trace_spec, n);
        let mut chunk = TraceChunk::new();
        chunk.extend_from_records(trace.records());
        let mut predictor = match registry.build_spec(&spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot build {spec_text:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (result, _) = Simulation::new(predictor.as_mut())
            .run_trace(&trace)
            .expect("never cancelled");
        let expected = SessionStats {
            records: trace.len() as u64,
            instructions: result.instructions(),
            conditional_branches: result.conditional_branches(),
            mispredictions: result.mispredictions(),
        };
        traces.push((name.clone(), chunk, expected));
    }

    println!(
        "loadgen: {connections} connection(s) x {spec_text} over {} (batch {batch}) -> {addr}",
        trace_names.join(", ")
    );
    let started = Instant::now();
    let outcomes: Vec<Result<SessionStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (_, chunk, _) = &traces[c % traces.len()];
                let addr = addr.as_str();
                let spec_text = spec_text.as_str();
                scope.spawn(move || drive(addr, (c + 1) as u64, spec_text, chunk, batch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread never panics"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut failures = 0u32;
    let mut total_records = 0u64;
    let mut total_decisions = 0u64;
    for (c, outcome) in outcomes.iter().enumerate() {
        let (name, _, expected) = &traces[c % traces.len()];
        match outcome {
            Ok(stats) => {
                total_records += stats.records;
                total_decisions += stats.conditional_branches;
                if stats == expected {
                    println!(
                        "  conn {c} ({name}): {} records, {} decisions, {} misp — matches offline",
                        stats.records, stats.conditional_branches, stats.mispredictions
                    );
                } else {
                    eprintln!(
                        "  conn {c} ({name}): MISMATCH served {stats:?} vs offline {expected:?}"
                    );
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("  conn {c} ({name}): FAILED: {e}");
                failures += 1;
            }
        }
    }
    let decisions_per_sec = total_decisions as f64 / elapsed;
    let records_per_sec = total_records as f64 / elapsed;
    println!(
        "served {total_decisions} decisions ({total_records} records) in {elapsed:.2} s: \
         {decisions_per_sec:.0} decisions/sec, {records_per_sec:.0} records/sec"
    );

    if shutdown {
        match ServeClient::connect(&addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()))
        {
            Ok(persisted) => println!("server shutdown: persisted {persisted} session(s)"),
            Err(e) => {
                eprintln!("error: shutdown failed: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("loadgen: {failures} failure(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Drives one session over one connection to completion, reconnecting
/// (and fast-forwarding to the server's record cursor) on retryable
/// failures until [`RETRY_BUDGET`] of backoff is exhausted.
fn drive(
    addr: &str,
    session: u64,
    spec: &str,
    chunk: &TraceChunk,
    batch: usize,
) -> Result<SessionStats, String> {
    let mut waited = Duration::ZERO;
    let mut backoff = Duration::from_millis(250);
    let pause = |waited: &mut Duration, backoff: &mut Duration, why: &dyn std::fmt::Display| {
        if *waited >= RETRY_BUDGET {
            return Err(format!("retry budget exhausted: {why}"));
        }
        std::thread::sleep(*backoff);
        *waited += *backoff;
        *backoff = (*backoff * 2).min(Duration::from_secs(4));
        Ok(())
    };
    loop {
        let attempt = (|| -> Result<SessionStats, ServeError> {
            let mut client = ServeClient::connect(addr).map_err(|e| ServeError::Wire(e.into()))?;
            client.hello("loadgen")?;
            let opened = client.open(session, spec)?;
            // A resumed session has already applied this many records
            // (possibly restored from a checkpoint after a crash);
            // fast-forward so nothing is double-counted.
            run_session(
                &mut client,
                session,
                chunk,
                opened.stats.records as usize,
                batch,
            )
        })();
        match attempt {
            Ok(stats) => return Ok(stats),
            Err(e) if e.is_retryable() => pause(&mut waited, &mut backoff, &e)?,
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Streams `chunk[cursor..]` through the session as maximal same-kind
/// runs capped at `batch` records — the segmentation `Simulation::run`
/// uses — then closes the session and returns its final counters.
fn run_session(
    client: &mut ServeClient,
    session: u64,
    chunk: &TraceChunk,
    cursor: usize,
    batch: usize,
) -> Result<SessionStats, ServeError> {
    for (i, j, conditional) in chunk.kind_runs(cursor..chunk.len(), batch) {
        if conditional {
            client.predict_batch(
                session,
                &chunk.pcs()[i..j],
                &chunk.targets()[i..j],
                &chunk.inst_gaps()[i..j],
                &chunk.takens()[i..j],
            )?;
        } else {
            client.outcome_batch(session, chunk, i, j)?;
        }
    }
    client.close_session(session)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--connections N] [--batch N]\n\
        \x20              [--spec SPEC] [--trace NAME]... [--records N] [--shutdown]\n\
        \x20              [--trace-cache|--no-trace-cache]"
    );
    ExitCode::from(2)
}
