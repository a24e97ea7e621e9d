//! End-to-end tests for the online prediction service: an in-process
//! `Server` driven by `ServeClient` over real loopback TCP. The
//! load-bearing property throughout is that served sessions produce
//! counters *byte-identical* to an offline `Simulation::run` of the
//! same (spec, trace) pair — across every registered predictor, across
//! load shedding, and across both graceful shutdown and a
//! SIGKILL-equivalent crash followed by a restart that resumes from
//! `bfbp-ckpt/1` session checkpoints.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bfbp::sim::service::{ServeClient, ServeError, ServeOptions, Server, ServerHandle};
use bfbp::sim::simulate::Simulation;
use bfbp::sim::wire::{ErrorCode, SessionStats};
use bfbp::trace::record::Trace;
use bfbp::trace::synth::suite;
use bfbp::trace::TraceChunk;

/// A unique scratch path under the target temp dir.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bfbp-serve-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

fn spec03(n_records: usize) -> Trace {
    suite::find("SPEC03")
        .expect("SPEC03 in suite")
        .generate_len(n_records)
}

fn chunk_of(trace: &Trace) -> TraceChunk {
    let mut chunk = TraceChunk::new();
    chunk.extend_from_records(trace.records());
    chunk
}

/// Ground truth: the offline simulation's counters for (spec, trace).
fn offline(spec: &str, trace: &Trace) -> SessionStats {
    let registry = bfbp::default_registry();
    let parsed = bfbp::sim::registry::PredictorSpec::parse(spec).expect("valid spec");
    let mut predictor = registry.build_spec(&parsed).expect("buildable spec");
    let (result, _) = Simulation::new(predictor.as_mut())
        .run_trace(trace)
        .expect("never cancelled");
    SessionStats {
        records: trace.len() as u64,
        instructions: result.instructions(),
        conditional_branches: result.conditional_branches(),
        mispredictions: result.mispredictions(),
    }
}

/// Stops the server when dropped — crucially, *during unwind too*: a
/// failing assertion inside a `thread::scope` would otherwise leave
/// the serving thread blocked in `accept` and hang the whole test
/// binary at the scope's implicit join.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `body` against a served instance, then shuts the server down
/// gracefully (unless the body already stopped it) and returns the
/// body's result alongside the persisted-session count.
fn with_server<T>(
    options: ServeOptions,
    body: impl FnOnce(std::net::SocketAddr, &ServerHandle) -> T,
) -> (T, u64) {
    let server = Server::bind("127.0.0.1:0", bfbp::default_registry(), options)
        .expect("bind ephemeral loopback port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve().expect("serve loop"));
        let stop = StopOnDrop(handle.clone());
        let result = body(addr, &handle);
        drop(stop);
        let persisted = serving.join().expect("serve thread");
        (result, persisted)
    })
}

/// Streams `chunk[cursor..]` through the session as maximal same-kind
/// runs capped at `batch`, the simulation's segmentation, then closes
/// the session and returns its final counters.
fn drive(
    client: &mut ServeClient,
    session: u64,
    chunk: &TraceChunk,
    mut cursor: usize,
    batch: usize,
) -> Result<SessionStats, ServeError> {
    stream(client, session, chunk, &mut cursor, chunk.len(), batch)?;
    client.close_session(session)
}

/// Streams `chunk[*cursor..until]` without closing the session.
fn stream(
    client: &mut ServeClient,
    session: u64,
    chunk: &TraceChunk,
    cursor: &mut usize,
    until: usize,
    batch: usize,
) -> Result<(), ServeError> {
    for (i, j, conditional) in chunk.kind_runs(*cursor..until, batch) {
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
        *cursor = j;
    }
    Ok(())
}

#[test]
fn served_counts_match_offline_for_every_predictor() {
    let trace = spec03(2_000);
    let chunk = chunk_of(&trace);
    let registry = bfbp::default_registry();
    let names: Vec<String> = registry.names().iter().map(|n| (*n).to_owned()).collect();
    let ((), _) = with_server(ServeOptions::default(), |addr, _| {
        let mut client = ServeClient::connect(addr).expect("connect");
        let catalogue = client.hello("serve-tests").expect("hello");
        assert_eq!(catalogue.len(), names.len(), "catalogue lists the registry");
        for (i, name) in names.iter().enumerate() {
            let session = (i + 1) as u64;
            let opened = client.open(session, name).expect("open");
            assert!(!opened.resumed, "{name}: fresh session");
            assert_eq!(opened.stats, SessionStats::default());
            let served = drive(&mut client, session, &chunk, 0, 512).expect("drive");
            assert_eq!(served, offline(name, &trace), "{name}: served != offline");
        }
    });
}

#[test]
fn predictions_on_the_wire_match_the_servers_accounting() {
    // The per-record miss flags the client gets back must sum to the
    // misprediction counter the server reports — the flags are the
    // real payload, the counters just audit them.
    let trace = spec03(2_000);
    let chunk = chunk_of(&trace);
    let ((), _) = with_server(ServeOptions::default(), |addr, _| {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.hello("serve-tests").expect("hello");
        client.open(7, "bf-tage").expect("open");
        let mut flagged = 0u64;
        for (i, j, conditional) in chunk.kind_runs(0..chunk.len(), 256) {
            if conditional {
                let miss = client
                    .predict_batch(
                        7,
                        &chunk.pcs()[i..j],
                        &chunk.targets()[i..j],
                        &chunk.inst_gaps()[i..j],
                        &chunk.takens()[i..j],
                    )
                    .expect("predict");
                assert_eq!(miss.len(), j - i, "one flag per record");
                flagged += miss.iter().filter(|&&m| m).count() as u64;
            } else {
                client.outcome_batch(7, &chunk, i, j).expect("outcome");
            }
        }
        let stats = client.close_session(7).expect("close");
        assert_eq!(stats.mispredictions, flagged);
        assert_eq!(stats, offline("bf-tage", &trace));
    });
}

#[test]
fn overload_is_shed_with_a_typed_retry_error() {
    let options = ServeOptions {
        max_connections: 1,
        ..ServeOptions::default()
    };
    let ((), _) = with_server(options, |addr, _| {
        let mut first = ServeClient::connect(addr).expect("connect first");
        first.hello("occupant").expect("hello");
        // The slot is taken: the next connection must be shed with a
        // RETRY error frame, which the client surfaces as a retryable
        // remote error rather than a mystery hangup.
        let mut second = ServeClient::connect(addr).expect("connect second");
        match second.hello("shed-me") {
            Err(
                err @ ServeError::Remote {
                    code: ErrorCode::Retry,
                    ..
                },
            ) => assert!(err.is_retryable(), "shed replies invite a retry"),
            other => panic!("expected a RETRY shed, got {other:?}"),
        }
    });
}

#[test]
fn protocol_misuse_gets_typed_errors_not_hangups() {
    let trace = spec03(200);
    let chunk = chunk_of(&trace);
    let ((), _) = with_server(ServeOptions::default(), |addr, _| {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.hello("serve-tests").expect("hello");
        // Predicting on a session nobody opened.
        match stream(&mut client, 99, &chunk, &mut 0, chunk.len(), 64) {
            Err(ServeError::Remote {
                code: ErrorCode::UnknownSession,
                session: 99,
                ..
            }) => {}
            other => panic!("expected UnknownSession, got {other:?}"),
        }
        // Opening a spec the registry cannot build.
        match client.open(1, "no-such-predictor") {
            Err(ServeError::Remote {
                code: ErrorCode::BadSpec,
                ..
            }) => {}
            other => panic!("expected BadSpec, got {other:?}"),
        }
        // A spec whose history length no kernel can run: rejected by
        // the registry before anything is allocated.
        match client.open(3, "oh-snap:hist=100000000000") {
            Err(ServeError::Remote {
                code: ErrorCode::BadSpec,
                ..
            }) => {}
            other => panic!("expected BadSpec for an oversized history, got {other:?}"),
        }
        // Re-attaching with a different spec text.
        client.open(2, "gshare").expect("open");
        match client.open(2, "bimodal") {
            Err(ServeError::Remote {
                code: ErrorCode::BadSpec,
                ..
            }) => {}
            other => panic!("expected BadSpec on spec mismatch, got {other:?}"),
        }
        // The connection survived every error above.
        client.close_session(2).expect("session 2 still live");
    });
}

#[test]
fn graceful_shutdown_persists_the_exact_offset_and_resumes() {
    let trace = spec03(2_000);
    let chunk = chunk_of(&trace);
    let dir = scratch("graceful");
    let options = ServeOptions {
        checkpoint_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    // Phase 1: stream part of the trace, then ask the server to go
    // down gracefully — it must persist the session at its exact
    // current offset even with no checkpoint cadence configured.
    let ((cut, reported), persisted) = with_server(options.clone(), |addr, _| {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.hello("phase-1").expect("hello");
        client.open(5, "bf-tage").expect("open");
        let mut cursor = 0usize;
        stream(&mut client, 5, &chunk, &mut cursor, 700, 128).expect("stream");
        let reported = client.shutdown_server().expect("graceful shutdown");
        (cursor, reported)
    });
    assert_eq!(reported, 1, "SHUTDOWN_ACK reports the persisted session");
    assert_eq!(persisted, 1, "one session persisted on the way down");

    // Phase 2: a fresh server over the same checkpoint directory
    // restores the session; the client resumes at the reported offset
    // and the final counters match an uninterrupted offline run.
    let server = Server::bind("127.0.0.1:0", bfbp::default_registry(), options)
        .expect("bind restart server");
    assert_eq!(server.restored_sessions(), 1, "session restored on boot");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve().expect("serve loop"));
        let _stop = StopOnDrop(handle.clone());
        let mut client = ServeClient::connect(addr).expect("reconnect");
        client.hello("phase-2").expect("hello");
        let opened = client.open(5, "bf-tage").expect("re-open");
        assert!(opened.resumed, "session must resume, not restart");
        assert_eq!(
            opened.stats.records, cut as u64,
            "graceful shutdown persists the exact offset"
        );
        let served = drive(&mut client, 5, &chunk, cut, 128).expect("finish");
        assert_eq!(served, offline("bf-tage", &trace));
        let _ = serving;
    });
}

#[test]
fn kill_and_restart_resumes_from_cadence_checkpoints() {
    let trace = spec03(2_000);
    let chunk = chunk_of(&trace);
    let dir = scratch("killed");
    let options = ServeOptions {
        checkpoint_every: 256,
        checkpoint_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    const SENT: usize = 1_500;

    // Phase 1: stream most of the trace, then kill the server — the
    // SIGKILL-equivalent path persists nothing on the way down, so
    // only the cadence checkpoints survive.
    let server = Server::bind("127.0.0.1:0", bfbp::default_registry(), options.clone())
        .expect("bind first server");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve().expect("serve loop"));
        let _stop = StopOnDrop(handle.clone());
        let mut client = ServeClient::connect(addr).expect("connect");
        client.hello("phase-1").expect("hello");
        client.open(3, "bf-tage").expect("open");
        stream(&mut client, 3, &chunk, &mut 0, SENT, 100).expect("stream");
        handle.kill();
        let persisted = serving.join().expect("serve thread");
        assert_eq!(persisted, 0, "kill persists nothing");
    });

    // Phase 2: restart over the same directory. The session resumes
    // from its last cadence checkpoint: strictly behind what was sent
    // (the tail died with the process) but well past zero, on a
    // checkpoint-cadence boundary. Replaying from that offset must
    // converge to the uninterrupted offline counters.
    let server = Server::bind("127.0.0.1:0", bfbp::default_registry(), options)
        .expect("bind restart server");
    assert_eq!(server.restored_sessions(), 1, "session restored on boot");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve().expect("serve loop"));
        let _stop = StopOnDrop(handle.clone());
        let mut client = ServeClient::connect(addr).expect("reconnect");
        client.hello("phase-2").expect("hello");
        let opened = client.open(3, "bf-tage").expect("re-open");
        assert!(opened.resumed, "session must resume, not restart");
        let restored = opened.stats.records;
        // Cadence persists fire at the first batch boundary past each
        // multiple of 256, so the restored offset is at least one full
        // cadence in but strictly behind what was sent.
        assert!(
            restored >= 256,
            "restored offset {restored}: at least one cadence checkpoint was written"
        );
        assert!(
            restored < SENT as u64,
            "restored offset {restored} must trail the {SENT} records sent"
        );
        let served = drive(&mut client, 3, &chunk, restored as usize, 100).expect("finish");
        assert_eq!(served, offline("bf-tage", &trace));
        let _ = serving;
    });
}

#[test]
fn closing_a_session_deletes_its_checkpoint() {
    let trace = spec03(600);
    let chunk = chunk_of(&trace);
    let dir = scratch("closed");
    let options = ServeOptions {
        checkpoint_every: 100,
        checkpoint_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let ((), persisted) = with_server(options, |addr, _| {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.hello("serve-tests").expect("hello");
        client.open(1, "gshare").expect("open");
        let mut cursor = 0usize;
        stream(&mut client, 1, &chunk, &mut cursor, chunk.len(), 64).expect("stream");
        assert!(
            fs::read_dir(&dir).expect("ckpt dir").count() > 0,
            "cadence checkpoints exist while the session is live"
        );
        client.close_session(1).expect("close");
        assert_eq!(
            fs::read_dir(&dir).expect("ckpt dir").count(),
            0,
            "a closed session leaves no checkpoint behind"
        );
    });
    assert_eq!(persisted, 0, "nothing left to persist at shutdown");
}
