//! `bfbp-serve`: the online prediction service.
//!
//! A [`Server`] owns live, registry-built predictors keyed by session
//! id and speaks the [`crate::wire`] protocol over TCP. Each session
//! carries the same accounting quartet as a `SimCheckpoint` (records,
//! instructions, conditional branches, mispredictions), so a served
//! trace is comparable field for field with an offline
//! `Simulation::run` of the same records.
//!
//! ## Serving loop
//!
//! Connections are handled by a bounded thread-per-connection pool:
//! an accepted connection beyond [`ServeOptions::max_connections`] is
//! load-shed with a typed `RETRY` error frame rather than queued, so
//! an overloaded server degrades by telling clients to back off
//! instead of stalling them. Inside a connection, `PREDICT_BATCH`
//! frames route through [`ConditionalPredictor::predict_batch`] — the
//! fused kernels the offline hot loop uses — and every buffer (frame,
//! batch SoA, miss flags, reply) is connection-local scratch reused
//! across frames, so the steady-state serving loop performs no
//! allocation.
//!
//! ## Session lifecycle and crash recovery
//!
//! `OPEN` creates a session or re-attaches to a live one (the ack
//! carries `resumed` plus current counters so the client can
//! fast-forward its trace cursor). With a checkpoint directory
//! configured, sessions are persisted into the `bfbp-ckpt/1`
//! container — at the [`ServeOptions::checkpoint_every`] record
//! cadence, on explicit `CHECKPOINT` frames, and on graceful
//! shutdown. On startup the server scans the directory and restores
//! every session it finds (quarantining corrupt files exactly like
//! the offline engine), so a SIGKILLed server comes back holding its
//! sessions at their last persisted record counts and clients replay
//! only the small uncheckpointed tail.
//!
//! [`ConditionalPredictor::predict_batch`]: crate::predictor::ConditionalPredictor::predict_batch

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bfbp_trace::source::TraceChunk;

use crate::ckpt::{quarantine_ckpt, read_ckpt_file, write_ckpt_file, StateReader, StateWriter};
use crate::obs::{Event, EventJournal, Metrics};
use crate::predictor::{ConditionalPredictor, PredictorCaps};
use crate::registry::{PredictorRegistry, PredictorSpec};
use crate::wire::{
    decode_outcome_batch_into, decode_predict_batch_into, decode_predict_reply_into,
    encode_outcome_batch, encode_predict_batch, encode_predict_reply, CondBatch, ErrorCode, Frame,
    FrameKind, FrameReader, PredictorInfo, SessionStats, WireError, WIRE_PROTOCOL,
};

/// Server identification sent in `HELLO_ACK`.
const SERVER_NAME: &str = "bfbp-serve";

/// Knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bound on concurrently served connections; an accept beyond it
    /// is load-shed with a `RETRY` error frame.
    pub max_connections: usize,
    /// Persist each session every this many records (0 = only on
    /// explicit `CHECKPOINT` frames and graceful shutdown).
    pub checkpoint_every: u64,
    /// Where session `bfbp-ckpt/1` files live; `None` disables
    /// persistence entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a `bfbp-events/1` journal of serve lifecycle events here.
    pub events: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_connections: 8,
            checkpoint_every: 0,
            checkpoint_dir: None,
            events: None,
        }
    }
}

/// One live session: a predictor plus its accounting.
struct Session {
    /// The spec text the session was opened with; re-attach requires
    /// the identical text.
    spec: String,
    caps: PredictorCaps,
    predictor: Box<dyn ConditionalPredictor>,
    stats: SessionStats,
    /// Next record boundary to persist at (`u64::MAX` = cadence off).
    next_ckpt: u64,
}

/// Lock-free serving counters, folded into a [`Metrics`] snapshot on
/// demand.
#[derive(Debug, Default)]
struct ServeCounters {
    connections: AtomicU64,
    shed: AtomicU64,
    frames: AtomicU64,
    decisions: AtomicU64,
    outcomes: AtomicU64,
    ckpt_writes: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_resumed: AtomicU64,
    sessions_closed: AtomicU64,
}

/// The session manager: owns every live predictor and the persistence
/// policy. Shared by reference across connection-handler threads.
struct SessionManager {
    registry: PredictorRegistry,
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<Session>>>>,
    checkpoint_every: u64,
    checkpoint_dir: Option<PathBuf>,
    events: Option<EventJournal>,
    counters: ServeCounters,
}

/// Outcome of an `OPEN`.
struct Opened {
    caps: PredictorCaps,
    resumed: bool,
    stats: SessionStats,
}

impl SessionManager {
    fn next_ckpt_after(&self, records: u64) -> u64 {
        records
            .checked_div(self.checkpoint_every)
            .map_or(u64::MAX, |n| (n + 1) * self.checkpoint_every)
    }

    fn emit(&self, event: Event) {
        if let Some(journal) = &self.events {
            journal.emit(event);
        }
    }

    /// Opens `id` (or re-attaches to it). `Err` is a BAD_SPEC message.
    fn open(&self, id: u64, spec_text: &str) -> Result<Opened, String> {
        let mut sessions = self.sessions.lock().unwrap();
        if let Some(cell) = sessions.get(&id) {
            let session = cell.lock().unwrap();
            if session.spec != spec_text {
                return Err(format!(
                    "session {id} is live with spec {:?}, not {:?}",
                    session.spec, spec_text
                ));
            }
            self.counters
                .sessions_resumed
                .fetch_add(1, Ordering::Relaxed);
            self.emit(
                Event::new("session_attach")
                    .num("session", id)
                    .num("records", session.stats.records),
            );
            return Ok(Opened {
                caps: session.caps,
                resumed: true,
                stats: session.stats,
            });
        }
        let spec = PredictorSpec::parse(spec_text).map_err(|e| e.to_string())?;
        let mut predictor = self.registry.build_spec(&spec).map_err(|e| e.to_string())?;
        let caps = predictor.capabilities();
        let stats = SessionStats::default();
        sessions.insert(
            id,
            Arc::new(Mutex::new(Session {
                spec: spec_text.to_owned(),
                caps,
                predictor,
                stats,
                next_ckpt: self.next_ckpt_after(0),
            })),
        );
        self.counters
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        self.emit(
            Event::new("session_open")
                .num("session", id)
                .str("spec", spec_text),
        );
        Ok(Opened {
            caps,
            resumed: false,
            stats,
        })
    }

    fn session(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.sessions.lock().unwrap().get(&id).cloned()
    }

    fn ckpt_path(&self, id: u64) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|dir| dir.join(format!("session-{id}.ckpt")))
    }

    /// Persists one session into its `bfbp-ckpt/1` file. `Ok(false)`
    /// when persistence is off or the predictor is not checkpointable.
    fn persist(&self, id: u64, session: &mut Session) -> io::Result<bool> {
        let Some(path) = self.ckpt_path(id) else {
            return Ok(false);
        };
        let Some(restorable) = session.predictor.checkpointing() else {
            return Ok(false);
        };
        let mut state = StateWriter::new();
        restorable.save_state(&mut state);
        let mut w = StateWriter::new();
        w.u64(id);
        w.str(&session.spec);
        w.u64(session.stats.records);
        w.u64(session.stats.instructions);
        w.u64(session.stats.conditional_branches);
        w.u64(session.stats.mispredictions);
        w.bytes(&state.into_bytes());
        write_ckpt_file(&path, &w.into_bytes())?;
        self.counters.ckpt_writes.fetch_add(1, Ordering::Relaxed);
        self.emit(
            Event::new("session_ckpt")
                .num("session", id)
                .num("records", session.stats.records),
        );
        Ok(true)
    }

    /// Cadence persistence inside the hot loop: writes a checkpoint
    /// when the session crossed its next boundary. I/O failures are
    /// reported as events, not connection errors — the session stays
    /// servable, durability just lags.
    fn maybe_persist(&self, id: u64, session: &mut Session) {
        if session.stats.records < session.next_ckpt {
            return;
        }
        session.next_ckpt = self.next_ckpt_after(session.stats.records);
        if let Err(e) = self.persist(id, session) {
            self.emit(
                Event::new("session_ckpt_error")
                    .num("session", id)
                    .str("error", &e.to_string()),
            );
        }
    }

    /// Persists every live session (graceful shutdown); returns how
    /// many files were written.
    fn persist_all(&self) -> u64 {
        let cells: Vec<(u64, Arc<Mutex<Session>>)> = self
            .sessions
            .lock()
            .unwrap()
            .iter()
            .map(|(&id, cell)| (id, Arc::clone(cell)))
            .collect();
        let mut persisted = 0;
        for (id, cell) in cells {
            let mut session = cell.lock().unwrap();
            match self.persist(id, &mut session) {
                Ok(true) => persisted += 1,
                Ok(false) => {}
                Err(e) => self.emit(
                    Event::new("session_ckpt_error")
                        .num("session", id)
                        .str("error", &e.to_string()),
                ),
            }
        }
        persisted
    }

    /// Restores every `session-*.ckpt` in the checkpoint directory;
    /// corrupt or unbuildable files are quarantined, exactly like the
    /// offline engine's resume path. Returns how many sessions came
    /// back.
    fn restore_all(&self) -> u64 {
        let Some(dir) = self.checkpoint_dir.clone() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut restored = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.starts_with("session-") || !name.ends_with(".ckpt") {
                continue;
            }
            match self.restore_one(&path) {
                Ok(id) => {
                    restored += 1;
                    self.emit(Event::new("session_restore").num("session", id));
                }
                Err(e) => {
                    let quarantined = quarantine_ckpt(&path);
                    self.emit(
                        Event::new("session_restore_error")
                            .str("path", &path.display().to_string())
                            .str("error", &e)
                            .str(
                                "quarantined",
                                &quarantined
                                    .map(|p| p.display().to_string())
                                    .unwrap_or_default(),
                            ),
                    );
                }
            }
        }
        restored
    }

    fn restore_one(&self, path: &std::path::Path) -> Result<u64, String> {
        let payload = read_ckpt_file(path).map_err(|e| e.to_string())?;
        let mut r = StateReader::new(&payload);
        let mut decode = || -> Result<(u64, String, SessionStats, Vec<u8>), String> {
            let id = r.u64().map_err(|e| e.to_string())?;
            let spec = r.str().map_err(|e| e.to_string())?.to_owned();
            let stats = SessionStats {
                records: r.u64().map_err(|e| e.to_string())?,
                instructions: r.u64().map_err(|e| e.to_string())?,
                conditional_branches: r.u64().map_err(|e| e.to_string())?,
                mispredictions: r.u64().map_err(|e| e.to_string())?,
            };
            let state = r.bytes().map_err(|e| e.to_string())?.to_vec();
            r.finish().map_err(|e| e.to_string())?;
            Ok((id, spec, stats, state))
        };
        let (id, spec_text, stats, state) = decode()?;
        let spec = PredictorSpec::parse(&spec_text).map_err(|e| e.to_string())?;
        let mut predictor = self.registry.build_spec(&spec).map_err(|e| e.to_string())?;
        let caps = predictor.capabilities();
        let mut reader = StateReader::new(&state);
        predictor
            .checkpointing()
            .ok_or("checkpointed predictor is not checkpointable")?
            .load_state(&mut reader)
            .map_err(|e| e.to_string())?;
        reader.finish().map_err(|e| e.to_string())?;
        self.sessions.lock().unwrap().insert(
            id,
            Arc::new(Mutex::new(Session {
                spec: spec_text,
                caps,
                predictor,
                stats,
                next_ckpt: self.next_ckpt_after(stats.records),
            })),
        );
        Ok(id)
    }

    /// Closes a session: removes it and deletes its checkpoint file.
    fn close(&self, id: u64) -> Option<SessionStats> {
        let cell = self.sessions.lock().unwrap().remove(&id)?;
        let stats = cell.lock().unwrap().stats;
        if let Some(path) = self.ckpt_path(id) {
            let _ = std::fs::remove_file(path);
        }
        self.counters
            .sessions_closed
            .fetch_add(1, Ordering::Relaxed);
        self.emit(
            Event::new("session_close")
                .num("session", id)
                .num("records", stats.records)
                .num("mispredictions", stats.mispredictions),
        );
        Some(stats)
    }

    /// Snapshot of the serving counters as a [`Metrics`] registry.
    fn metrics(&self) -> Metrics {
        let c = &self.counters;
        let mut m = Metrics::new();
        m.counter("serve_connections", c.connections.load(Ordering::Relaxed));
        m.counter("serve_shed", c.shed.load(Ordering::Relaxed));
        m.counter("serve_frames", c.frames.load(Ordering::Relaxed));
        m.counter("serve_decisions", c.decisions.load(Ordering::Relaxed));
        m.counter("serve_outcomes", c.outcomes.load(Ordering::Relaxed));
        m.counter("serve_ckpt_writes", c.ckpt_writes.load(Ordering::Relaxed));
        m.counter(
            "serve_sessions_opened",
            c.sessions_opened.load(Ordering::Relaxed),
        );
        m.counter(
            "serve_sessions_resumed",
            c.sessions_resumed.load(Ordering::Relaxed),
        );
        m.counter(
            "serve_sessions_closed",
            c.sessions_closed.load(Ordering::Relaxed),
        );
        m.gauge(
            "serve_sessions_live",
            self.sessions.lock().unwrap().len() as f64,
        );
        m
    }
}

/// Shared stop state between a [`Server`] and its [`ServerHandle`]s.
#[derive(Debug)]
struct Stop {
    shutdown: AtomicBool,
    /// SIGKILL-equivalent: stop *without* persisting sessions. Tests
    /// use this to model a hard crash in-process.
    kill: AtomicBool,
    /// Sessions already persisted by a `SHUTDOWN` frame handler (which
    /// takes the kill path so they are not persisted twice); folded
    /// into [`Server::serve`]'s return value.
    persisted: AtomicU64,
    addr: SocketAddr,
    /// Live connection streams, force-closed on shutdown so handler
    /// threads blocked in `read` wake up.
    conns: Mutex<Vec<Option<TcpStream>>>,
}

impl Stop {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || self.kill.load(Ordering::SeqCst)
    }

    fn trigger(&self, kill: bool) {
        if kill {
            self.kill.store(true, Ordering::SeqCst);
        } else {
            self.shutdown.store(true, Ordering::SeqCst);
        }
        // Wake the acceptor with a throwaway connection, then yank
        // every live connection out from under its blocked read.
        let _ = TcpStream::connect(self.addr);
        for slot in self.conns.lock().unwrap().iter().flatten() {
            let _ = slot.shutdown(Shutdown::Both);
        }
    }

    fn register(&self, stream: &TcpStream) -> Option<usize> {
        let clone = stream.try_clone().ok()?;
        let mut conns = self.conns.lock().unwrap();
        if let Some(idx) = conns.iter().position(Option::is_none) {
            conns[idx] = Some(clone);
            Some(idx)
        } else {
            conns.push(Some(clone));
            Some(conns.len() - 1)
        }
    }

    fn unregister(&self, idx: usize) {
        self.conns.lock().unwrap()[idx] = None;
    }
}

/// Remote control for a running [`Server`]: stop it gracefully (with
/// session persistence) or hard (without), from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<Stop>,
}

impl ServerHandle {
    /// Graceful stop: the accept loop exits, live connections are
    /// closed, and every session is persisted before
    /// [`Server::serve`] returns.
    pub fn shutdown(&self) {
        self.stop.trigger(false);
    }

    /// Hard stop: like [`shutdown`] but *skips* persistence — the
    /// in-process equivalent of SIGKILL, so tests can assert crash
    /// recovery runs purely off cadence checkpoints.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn kill(&self) {
        self.stop.trigger(true);
    }
}

/// The TCP prediction server. See the module docs for the protocol
/// and lifecycle; construct with [`Server::bind`], run with
/// [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    manager: SessionManager,
    catalogue: Vec<PredictorInfo>,
    options: ServeOptions,
    stop: Arc<Stop>,
    restored: u64,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.stop.addr)
            .field("options", &self.options)
            .field("restored", &self.restored)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), restores any
    /// persisted sessions from the checkpoint directory, and probes
    /// the registry catalogue for the HELLO handshake.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: PredictorRegistry,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let events = match &options.events {
            Some(path) => Some(EventJournal::create(path)?),
            None => None,
        };
        if let Some(dir) = &options.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
        }
        let catalogue = registry
            .names()
            .iter()
            .filter_map(|name| {
                registry.capabilities(name).ok().map(|caps| PredictorInfo {
                    name: (*name).to_owned(),
                    caps,
                })
            })
            .collect();
        let manager = SessionManager {
            registry,
            sessions: Mutex::new(BTreeMap::new()),
            checkpoint_every: options.checkpoint_every,
            checkpoint_dir: options.checkpoint_dir.clone(),
            events,
            counters: ServeCounters::default(),
        };
        let restored = manager.restore_all();
        manager.emit(
            Event::new("serve_start")
                .str("addr", &local.to_string())
                .num("restored", restored),
        );
        Ok(Server {
            listener,
            manager,
            catalogue,
            options,
            stop: Arc::new(Stop {
                shutdown: AtomicBool::new(false),
                kill: AtomicBool::new(false),
                persisted: AtomicU64::new(0),
                addr: local,
                conns: Mutex::new(Vec::new()),
            }),
            restored,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Sessions restored from checkpoints at startup.
    pub fn restored_sessions(&self) -> u64 {
        self.restored
    }

    /// A clonable remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Snapshot of the serving counters.
    pub fn metrics(&self) -> Metrics {
        self.manager.metrics()
    }

    /// Serves until [`ServerHandle::shutdown`] / [`ServerHandle::kill`]
    /// (or a `SHUTDOWN` frame). Returns the number of sessions
    /// persisted on the way down (0 after `kill`).
    pub fn serve(&self) -> io::Result<u64> {
        let active = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            loop {
                let (stream, _) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) if self.stop.stopping() => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if self.stop.stopping() {
                    break;
                }
                if active.load(Ordering::SeqCst) >= self.options.max_connections {
                    self.manager.counters.shed.fetch_add(1, Ordering::Relaxed);
                    self.manager.emit(Event::new("serve_shed"));
                    shed(stream);
                    continue;
                }
                self.manager
                    .counters
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                active.fetch_add(1, Ordering::SeqCst);
                let slot = self.stop.register(&stream);
                let active = &active;
                scope.spawn(move || {
                    Connection::new(self, stream).run();
                    if let Some(idx) = slot {
                        self.stop.unregister(idx);
                    }
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Ok(())
        })?;
        let persisted = if self.stop.kill.load(Ordering::SeqCst) {
            // A SHUTDOWN frame handler already persisted (and counted)
            // everything; a real kill leaves this at zero.
            self.stop.persisted.load(Ordering::SeqCst)
        } else {
            self.manager.persist_all()
        };
        let metrics = self.manager.metrics();
        self.manager.emit(
            Event::new("serve_stop")
                .num("persisted", persisted)
                .num(
                    "decisions",
                    metrics.counter_value("serve_decisions").unwrap_or(0),
                )
                .num("frames", metrics.counter_value("serve_frames").unwrap_or(0)),
        );
        Ok(persisted)
    }
}

/// Writes the load-shed `RETRY` error frame and drops the connection.
fn shed(mut stream: TcpStream) {
    let mut out = Vec::new();
    Frame::Error {
        code: ErrorCode::Retry,
        session: 0,
        message: "server at connection capacity, retry later".to_owned(),
    }
    .encode_into(&mut out);
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection state: the stream pair plus every reusable scratch
/// buffer of the serving hot loop.
struct Connection<'s> {
    server: &'s Server,
    stream: TcpStream,
    reader: FrameReader,
    /// Read side (buffered clone of `stream`).
    rd: Option<BufReader<TcpStream>>,
    out: Vec<u8>,
    batch: CondBatch,
    chunk: TraceChunk,
    miss: Vec<bool>,
}

impl<'s> Connection<'s> {
    fn new(server: &'s Server, stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        let rd = stream
            .try_clone()
            .ok()
            .map(|clone| BufReader::with_capacity(64 * 1024, clone));
        Self {
            server,
            stream,
            reader: FrameReader::new(),
            rd,
            out: Vec::new(),
            batch: CondBatch::default(),
            chunk: TraceChunk::new(),
            miss: Vec::new(),
        }
    }

    /// Sends an already-encoded frame; false = connection dead.
    fn send(&mut self) -> bool {
        self.stream.write_all(&self.out).is_ok()
    }

    fn send_frame(&mut self, frame: &Frame) -> bool {
        frame.encode_into(&mut self.out);
        self.send()
    }

    fn send_error(&mut self, code: ErrorCode, session: u64, message: &str) -> bool {
        self.send_frame(&Frame::Error {
            code,
            session,
            message: message.to_owned(),
        })
    }

    fn run(mut self) {
        let Some(mut rd) = self.rd.take() else {
            return;
        };
        let manager = &self.server.manager;
        loop {
            let (kind, payload) = match self.reader.read_from(&mut rd) {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => {
                    // Stream-level corruption (torn frame, checksum,
                    // absurd length): the byte stream cannot be
                    // trusted any further, so drop the connection.
                    manager.emit(Event::new("conn_error").str("error", &e.to_string()));
                    return;
                }
            };
            manager.counters.frames.fetch_add(1, Ordering::Relaxed);
            let ok = match kind {
                FrameKind::PredictBatch => {
                    // Hot path: decode into scratch, drive the fused
                    // kernel, reply — no allocation past warmup.
                    let session = match decode_predict_batch_into(payload, &mut self.batch) {
                        Ok(session) => session,
                        Err(_) => {
                            self.send_error(ErrorCode::Protocol, 0, "bad PREDICT_BATCH");
                            return;
                        }
                    };
                    self.predict(session)
                }
                FrameKind::OutcomeBatch => {
                    let session = match decode_outcome_batch_into(payload, &mut self.chunk) {
                        Ok(session) => session,
                        Err(_) => {
                            self.send_error(ErrorCode::Protocol, 0, "bad OUTCOME_BATCH");
                            return;
                        }
                    };
                    self.outcome(session)
                }
                _ => {
                    let frame = match Frame::decode(kind, payload) {
                        Ok(frame) => frame,
                        Err(e) => {
                            self.send_error(ErrorCode::Protocol, 0, &e.to_string());
                            return;
                        }
                    };
                    match self.control(frame) {
                        Flow::Continue(ok) => ok,
                        Flow::Stop => return,
                    }
                }
            };
            if !ok {
                return;
            }
        }
    }

    /// Drives a decoded `PREDICT_BATCH` through the session predictor.
    fn predict(&mut self, session_id: u64) -> bool {
        let manager = &self.server.manager;
        let Some(cell) = manager.session(session_id) else {
            return self.send_error(
                ErrorCode::UnknownSession,
                session_id,
                "no such session; OPEN it first",
            );
        };
        let n = self.batch.len();
        self.miss.resize(n, false);
        {
            let mut session = cell.lock().unwrap();
            session.predictor.predict_batch(
                &self.batch.pcs,
                &self.batch.targets,
                &self.batch.takens,
                &mut self.miss,
            );
            let mut wrong = 0u64;
            for &flag in &self.miss {
                wrong += u64::from(flag);
            }
            let mut instructions = 0u64;
            for &gap in &self.batch.gaps {
                instructions += u64::from(gap) + 1;
            }
            session.stats.records += n as u64;
            session.stats.instructions += instructions;
            session.stats.conditional_branches += n as u64;
            session.stats.mispredictions += wrong;
            manager.maybe_persist(session_id, &mut session);
        }
        manager
            .counters
            .decisions
            .fetch_add(n as u64, Ordering::Relaxed);
        encode_predict_reply(session_id, &self.miss, &mut self.out);
        self.send()
    }

    /// Drives a decoded `OUTCOME_BATCH` through the session predictor.
    fn outcome(&mut self, session_id: u64) -> bool {
        let manager = &self.server.manager;
        let Some(cell) = manager.session(session_id) else {
            return self.send_error(
                ErrorCode::UnknownSession,
                session_id,
                "no such session; OPEN it first",
            );
        };
        let n = self.chunk.len();
        {
            let mut session = cell.lock().unwrap();
            session.predictor.update_batch(&self.chunk, 0, n);
            let mut instructions = 0u64;
            for &gap in self.chunk.inst_gaps() {
                instructions += u64::from(gap) + 1;
            }
            session.stats.records += n as u64;
            session.stats.instructions += instructions;
            manager.maybe_persist(session_id, &mut session);
        }
        manager
            .counters
            .outcomes
            .fetch_add(n as u64, Ordering::Relaxed);
        self.send_frame(&Frame::OutcomeAck {
            session: session_id,
        })
    }

    /// Handles every non-batched frame.
    fn control(&mut self, frame: Frame) -> Flow {
        let manager = &self.server.manager;
        match frame {
            Frame::Hello { protocol, .. } => {
                if protocol != WIRE_PROTOCOL {
                    self.send_error(
                        ErrorCode::Protocol,
                        0,
                        &format!("protocol {protocol:?}, expected {WIRE_PROTOCOL:?}"),
                    );
                    return Flow::Stop;
                }
                Flow::Continue(self.send_frame(&Frame::HelloAck {
                    protocol: WIRE_PROTOCOL.to_owned(),
                    server: SERVER_NAME.to_owned(),
                    predictors: self.server.catalogue.clone(),
                }))
            }
            Frame::Open { session, spec } => match manager.open(session, &spec) {
                Ok(opened) => Flow::Continue(self.send_frame(&Frame::OpenAck {
                    session,
                    caps: opened.caps,
                    resumed: opened.resumed,
                    stats: opened.stats,
                })),
                Err(message) => {
                    Flow::Continue(self.send_error(ErrorCode::BadSpec, session, &message))
                }
            },
            Frame::Stats { session } => match manager.session(session) {
                Some(cell) => {
                    let stats = cell.lock().unwrap().stats;
                    Flow::Continue(self.send_frame(&Frame::StatsReply { session, stats }))
                }
                None => Flow::Continue(self.send_error(
                    ErrorCode::UnknownSession,
                    session,
                    "no such session",
                )),
            },
            Frame::Checkpoint { session } => match manager.session(session) {
                Some(cell) => {
                    let result = {
                        let mut locked = cell.lock().unwrap();
                        manager.persist(session, &mut locked)
                    };
                    match result {
                        Ok(persisted) => Flow::Continue(
                            self.send_frame(&Frame::CheckpointAck { session, persisted }),
                        ),
                        Err(e) => Flow::Continue(self.send_error(
                            ErrorCode::Internal,
                            session,
                            &e.to_string(),
                        )),
                    }
                }
                None => Flow::Continue(self.send_error(
                    ErrorCode::UnknownSession,
                    session,
                    "no such session",
                )),
            },
            Frame::Close { session } => match manager.close(session) {
                Some(stats) => Flow::Continue(self.send_frame(&Frame::CloseAck { session, stats })),
                None => Flow::Continue(self.send_error(
                    ErrorCode::UnknownSession,
                    session,
                    "no such session",
                )),
            },
            Frame::Shutdown => {
                let sessions = manager.persist_all();
                self.send_frame(&Frame::ShutdownAck { sessions });
                // Sessions are already on disk; take the hard-stop
                // path so they are not persisted twice, but credit the
                // count so `serve()` still reports it.
                self.server.stop.persisted.store(sessions, Ordering::SeqCst);
                self.server.stop.trigger(true);
                Flow::Stop
            }
            _ => {
                self.send_error(
                    ErrorCode::Protocol,
                    0,
                    &format!("unexpected {:?} frame from a client", frame.kind()),
                );
                Flow::Stop
            }
        }
    }
}

/// Whether a control frame leaves the connection open.
enum Flow {
    Continue(bool),
    Stop,
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// What the client sees when a request fails.
#[derive(Debug)]
pub enum ServeError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server replied with a typed error frame.
    Remote {
        /// Error class.
        code: ErrorCode,
        /// Session the error concerns.
        session: u64,
        /// Human-readable detail.
        message: String,
    },
    /// The server replied with a frame the request does not expect.
    Unexpected(FrameKind),
    /// The server closed the connection at a frame boundary.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Remote {
                code,
                session,
                message,
            } => write!(f, "server error [{code}] (session {session}): {message}"),
            ServeError::Unexpected(kind) => write!(f, "unexpected {kind:?} reply"),
            ServeError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl ServeError {
    /// True when the failure is worth a reconnect-and-retry: the
    /// transport died (server restart) or the server shed us with
    /// `RETRY`.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Wire(WireError::Io(_) | WireError::Torn)
                | ServeError::Closed
                | ServeError::Remote {
                    code: ErrorCode::Retry,
                    ..
                }
        )
    }
}

/// Result of [`ServeClient::open`].
#[derive(Debug, Clone, Copy)]
pub struct OpenedSession {
    /// The live predictor's capability descriptor.
    pub caps: PredictorCaps,
    /// True when the session already existed server-side.
    pub resumed: bool,
    /// Counters at attach time — a resuming client fast-forwards its
    /// trace cursor to `stats.records`.
    pub stats: SessionStats,
}

/// A synchronous `bfbp-wire/1` client: one request/response at a time
/// over one TCP connection, with all frame buffers reused across
/// calls. Shared by `loadgen`, the integration tests, and anything
/// else that wants to drive a served predictor.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    rd: BufReader<TcpStream>,
    reader: FrameReader,
    out: Vec<u8>,
    miss: Vec<bool>,
}

impl ServeClient {
    /// Connects (without sending anything; call [`hello`] next).
    ///
    /// [`hello`]: ServeClient::hello
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let rd = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(ServeClient {
            stream,
            rd,
            reader: FrameReader::new(),
            out: Vec::new(),
            miss: Vec::new(),
        })
    }

    fn send(&mut self) -> Result<(), ServeError> {
        self.stream
            .write_all(&self.out)
            .map_err(|e| ServeError::Wire(WireError::Io(e)))
    }

    fn read_reply(&mut self) -> Result<Frame, ServeError> {
        match self.reader.read_frame(&mut self.rd)? {
            None => Err(ServeError::Closed),
            Some(Frame::Error {
                code,
                session,
                message,
            }) => Err(ServeError::Remote {
                code,
                session,
                message,
            }),
            Some(frame) => Ok(frame),
        }
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, ServeError> {
        frame.encode_into(&mut self.out);
        self.send()?;
        self.read_reply()
    }

    /// HELLO handshake; returns the server's predictor catalogue.
    pub fn hello(&mut self, client: &str) -> Result<Vec<PredictorInfo>, ServeError> {
        let reply = self.request(&Frame::Hello {
            protocol: WIRE_PROTOCOL.to_owned(),
            client: client.to_owned(),
        })?;
        match reply {
            Frame::HelloAck {
                protocol,
                predictors,
                ..
            } if protocol == WIRE_PROTOCOL => Ok(predictors),
            Frame::HelloAck { .. } => Err(ServeError::Wire(WireError::Malformed(
                "server speaks a different protocol",
            ))),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }

    /// Opens (or re-attaches to) session `session` running `spec`.
    pub fn open(&mut self, session: u64, spec: &str) -> Result<OpenedSession, ServeError> {
        let reply = self.request(&Frame::Open {
            session,
            spec: spec.to_owned(),
        })?;
        match reply {
            Frame::OpenAck {
                session: echoed,
                caps,
                resumed,
                stats,
            } if echoed == session => Ok(OpenedSession {
                caps,
                resumed,
                stats,
            }),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }

    /// Streams a run of conditional branches through the session and
    /// returns the per-record misprediction flags. The hot call: both
    /// directions reuse this client's scratch buffers.
    pub fn predict_batch(
        &mut self,
        session: u64,
        pcs: &[u64],
        targets: &[u64],
        gaps: &[u32],
        takens: &[bool],
    ) -> Result<&[bool], ServeError> {
        encode_predict_batch(session, pcs, targets, gaps, takens, &mut self.out);
        self.send()?;
        match self.reader.read_from(&mut self.rd)? {
            None => Err(ServeError::Closed),
            Some((FrameKind::PredictReply, payload)) => {
                let echoed = decode_predict_reply_into(payload, &mut self.miss)?;
                if echoed != session {
                    return Err(ServeError::Wire(WireError::Malformed(
                        "reply for a different session",
                    )));
                }
                Ok(&self.miss)
            }
            Some((FrameKind::Error, payload)) => match Frame::decode(FrameKind::Error, payload)? {
                Frame::Error {
                    code,
                    session,
                    message,
                } => Err(ServeError::Remote {
                    code,
                    session,
                    message,
                }),
                _ => unreachable!("decode returned a non-Error for FrameKind::Error"),
            },
            Some((kind, _)) => Err(ServeError::Unexpected(kind)),
        }
    }

    /// Streams a run `start..end` of non-conditional records (from a
    /// [`TraceChunk`]) through the session.
    pub fn outcome_batch(
        &mut self,
        session: u64,
        chunk: &TraceChunk,
        start: usize,
        end: usize,
    ) -> Result<(), ServeError> {
        encode_outcome_batch(session, chunk, start, end, &mut self.out);
        self.send()?;
        match self.read_reply()? {
            Frame::OutcomeAck { session: echoed } if echoed == session => Ok(()),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }

    /// Fetches the session's current counters.
    pub fn stats(&mut self, session: u64) -> Result<SessionStats, ServeError> {
        match self.request(&Frame::Stats { session })? {
            Frame::StatsReply {
                session: echoed,
                stats,
            } if echoed == session => Ok(stats),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }

    /// Asks the server to persist the session now; returns whether a
    /// checkpoint file was written.
    pub fn checkpoint(&mut self, session: u64) -> Result<bool, ServeError> {
        match self.request(&Frame::Checkpoint { session })? {
            Frame::CheckpointAck {
                session: echoed,
                persisted,
            } if echoed == session => Ok(persisted),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }

    /// Closes the session; returns its final counters.
    pub fn close_session(&mut self, session: u64) -> Result<SessionStats, ServeError> {
        match self.request(&Frame::Close { session })? {
            Frame::CloseAck {
                session: echoed,
                stats,
            } if echoed == session => Ok(stats),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }

    /// Asks the server to persist everything and stop; returns the
    /// persisted-session count.
    pub fn shutdown_server(&mut self) -> Result<u64, ServeError> {
        match self.request(&Frame::Shutdown)? {
            Frame::ShutdownAck { sessions } => Ok(sessions),
            other => Err(ServeError::Unexpected(other.kind())),
        }
    }
}
