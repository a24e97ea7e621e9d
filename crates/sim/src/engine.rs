//! The parallel, fault-tolerant suite-sweep engine.
//!
//! Every figure of the paper is a (predictor-configuration × trace)
//! cross-product. [`sweep`] schedules that whole matrix as independent
//! jobs over a work queue serviced by scoped worker threads: each job
//! builds a fresh predictor through the [`PredictorRegistry`], runs it
//! over one shared trace (held behind `Arc<Trace>`, generated once by
//! the [`SuiteRunner`]), and records the [`SimResult`] plus per-job wall
//! time and windowed (interval) MPKI.
//!
//! # Fault tolerance
//!
//! Long campaigns only work at scale if a single bad job degrades
//! gracefully instead of aborting the matrix, so every job runs inside
//! an isolation boundary:
//!
//! * a panicking predictor (or trace) is caught with `catch_unwind` and
//!   becomes a structured [`JobStatus::Failed`] for that one job;
//! * a [`RetryPolicy`] re-attempts failed jobs with a fixed backoff;
//! * an optional per-job wall-clock timeout gives each job a deadline,
//!   checked every
//!   [`CANCEL_CHECK_RECORDS`](crate::simulate::CANCEL_CHECK_RECORDS)
//!   records and every 2 ms of backoff or injected delay; a job past it
//!   reports [`JobStatus::TimedOut`] while the pool moves on;
//! * a trace that fails validation on load ([`TraceInput::Unavailable`])
//!   quarantines exactly the jobs that needed it;
//! * each job that finishes `ok` is appended to a [`journal`] file, and
//!   a later sweep with [`SweepOptions::resume_from`] restores those
//!   jobs and re-runs only the others;
//! * with [`SweepOptions::with_checkpoints`], every in-flight job
//!   additionally snapshots its full predictor + accounting state to a
//!   `bfbp-ckpt/1` file every N records, so a crash (or an injected
//!   [`Fault::Kill`]) mid-job loses at most one checkpoint interval:
//!   the next run restores the snapshot, replays only the tail, and
//!   produces **byte-identical** result documents to an uninterrupted
//!   run, while a torn, stale, or mismatched checkpoint is quarantined
//!   and the job simply re-runs from zero;
//! * a deterministic [`FaultPlan`] injects panics, delays, kills, and
//!   trace-format failures into chosen jobs so every one of these paths
//!   is exercised by tests.
//!
//! Determinism: jobs are completely independent (fresh predictor, shared
//! immutable trace) and results are reassembled in job-index order, so
//! [`SweepReport::results_json`] is **byte-identical** at every thread
//! count and schedule; one worker is simply a pool of one. Timing lives
//! in a separate JSON section that [`SweepReport::to_json`] appends.
//! Both documents, and the metrics document, are built with
//! [`crate::json`].
//!
//! ```
//! use bfbp_sim::engine::{self, SweepOptions};
//! use bfbp_sim::registry::{PredictorRegistry, PredictorSpec};
//! use bfbp_sim::runner::SuiteRunner;
//! use bfbp_trace::synth::suite;
//!
//! let registry = PredictorRegistry::with_builtins();
//! let runner = SuiteRunner::from_specs(vec![suite::find("INT1").unwrap()], 0.01);
//! let specs = [PredictorSpec::new("static-taken")];
//! let report = engine::sweep(&registry, &specs, &runner, &SweepOptions::default()).unwrap();
//! assert_eq!(report.try_results("static-taken").unwrap().len(), 1);
//! assert!(report.is_fully_ok());
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bfbp_trace::format::{corrupt, read_trace, read_trace_file};
use bfbp_trace::record::{BranchRecord, Trace};

use crate::ckpt::{self, JobCheckpoint, Restorable, SimCheckpoint, StateReader, StateWriter};
use crate::fault::{Fault, FaultPlan};
use crate::journal::{self, Journal, JournalError};
use crate::json::{array, lines, Object};
use crate::obs::{self, Event, EventJournal, FlightRecorder, H2pTable, JobObs, Progress};
use crate::predictor::ConditionalPredictor;
use crate::registry::{BuildError, Params, PredictorRegistry, PredictorSpec};
use crate::runner::SuiteRunner;
use crate::simulate::{mean_mpki, IntervalPoint, SimResult, Simulation, SimulationError};

// This module's own import, made `pub` because perfbench imports these
// two from here; private once perfbench imports them from `crate::json`.
pub use crate::json::{json_f64, json_string};

/// Schema identifier of the sweep result document.
pub const SWEEP_SCHEMA: &str = "bfbp-sweep/2";

/// How failed job attempts are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (minimum 1 — the first try counts).
    pub max_attempts: u32,
    /// Fixed pause between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `retries` re-attempts after the first try.
    pub fn retries(retries: u32, backoff: Duration) -> Self {
        Self {
            max_attempts: retries.saturating_add(1),
            backoff,
        }
    }
}

/// Tuning knobs for a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Worker threads; `0` means all available cores.
    pub threads: usize,
    /// Window size (in committed instructions) for interval MPKI
    /// collection; `0` disables interval collection.
    pub interval_insts: u64,
    /// Per-job retry policy for failed (not timed-out) attempts.
    pub retry: RetryPolicy,
    /// Per-job wall-clock budget covering all attempts and backoff; a
    /// job past it is cancelled at its next check and marked
    /// [`JobStatus::TimedOut`]. `None` sets no budget.
    pub timeout: Option<Duration>,
    /// Deterministic fault injection (tests and chaos drills).
    pub fault_plan: Option<FaultPlan>,
    /// Resume journal: started with the jobs restored from
    /// [`SweepOptions::resume_from`], then one line per job that
    /// finishes `ok`.
    pub journal: Option<PathBuf>,
    /// Journal to restore finished jobs from; every other job is re-run.
    /// The journal must belong to this matrix ([`journal::matrix_id`],
    /// trace lengths included), or the sweep fails with
    /// [`SweepError::Journal`]. [`SweepOptions::journal`] may name the
    /// same file or another; either way it starts with every restored
    /// job.
    pub resume_from: Option<PathBuf>,
    /// Mid-job checkpoint cadence in trace records; `0` disables
    /// mid-job checkpointing. Takes effect only together with
    /// [`SweepOptions::checkpoint_dir`].
    pub checkpoint_every: u64,
    /// Directory mid-job `bfbp-ckpt/1` snapshots are written to (one
    /// `job-<index>.ckpt` per in-flight job, deleted on success). A
    /// later sweep of the same matrix pointed at the same directory
    /// resumes each interrupted job from its snapshot.
    pub checkpoint_dir: Option<PathBuf>,
    /// Collect per-job observability: predictor introspection metrics
    /// and the per-branch H2P attribution table. Never perturbs the
    /// `bfbp-sweep/2` results document.
    pub metrics: bool,
    /// Span/event journal (`bfbp-events/1` JSONL) to append sweep → job
    /// → interval spans to; `None` disables event emission.
    pub events: Option<PathBuf>,
    /// Draw a live stderr progress line (jobs done/failed/ETA).
    pub progress: bool,
    /// Flight-recorder ring capacity in records; `0` disables the
    /// recorder. Takes effect only together with
    /// [`SweepOptions::postmortem_dir`]. Never perturbs the
    /// `bfbp-sweep/2` or `bfbp-metrics/1` documents.
    pub flight_recorder: usize,
    /// Directory `bfbp-postmortem/1` dumps are written to (one
    /// `job-<index>.postmortem.json` per dead attempt) when a job
    /// fails, times out, panics, or is killed.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepOptions {
    /// The defaults: all cores, 100k-instruction intervals, one attempt,
    /// no timeout, no faults, no journal, no observability.
    pub fn new() -> Self {
        Self {
            threads: 0,
            interval_insts: 100_000,
            retry: RetryPolicy::default(),
            timeout: None,
            fault_plan: None,
            journal: None,
            resume_from: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            metrics: false,
            events: None,
            progress: false,
            flight_recorder: 0,
            postmortem_dir: None,
        }
    }

    /// A one-worker sweep.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::new()
        }
    }

    /// Overrides the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the per-job wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Journals every job that finishes `ok` to `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resumes from the journal at `path` and journals back to it: the
    /// file is rewritten with every restored job and gains each job that
    /// finishes `ok` — the `sweep --resume` workflow.
    pub fn resuming(mut self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        self.resume_from = Some(path.clone());
        self.journal = Some(path);
        self
    }

    /// Enables mid-job checkpointing: every `every` records each
    /// in-flight job snapshots its predictor, accounting, and observer
    /// state to `<dir>/job-<index>.ckpt`, and a later sweep of the same
    /// matrix with the same directory resumes from the snapshot instead
    /// of starting the job over.
    pub fn with_checkpoints(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_every = every;
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables per-job metrics/H2P collection.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Appends span/event lines to the `bfbp-events/1` journal at `path`.
    pub fn with_events(mut self, path: impl Into<PathBuf>) -> Self {
        self.events = Some(path.into());
        self
    }

    /// Enables the misprediction flight recorder: every in-flight job
    /// keeps its last `capacity` decisions (PC, kind, prediction,
    /// outcome, provenance) in a ring, and any attempt that fails,
    /// times out, panics, or is killed dumps the ring as a
    /// `bfbp-postmortem/1` document to `<dir>/job-<index>.postmortem.json`.
    pub fn with_flight_recorder(mut self, capacity: usize, dir: impl Into<PathBuf>) -> Self {
        self.flight_recorder = capacity;
        self.postmortem_dir = Some(dir.into());
        self
    }
}

/// Why a sweep could not run at all (individual job failures never
/// surface here — they are per-job statuses in the report).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A spec failed validation before any simulation started.
    Build(BuildError),
    /// The checkpoint journal could not be created, read, or matched.
    Journal(JournalError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Build(e) => write!(f, "{e}"),
            SweepError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Build(e) => Some(e),
            SweepError::Journal(e) => Some(e),
        }
    }
}

impl From<BuildError> for SweepError {
    fn from(e: BuildError) -> Self {
        SweepError::Build(e)
    }
}

impl From<JournalError> for SweepError {
    fn from(e: JournalError) -> Self {
        SweepError::Journal(e)
    }
}

/// One (predictor-config × trace) cell of a sweep that completed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The simulation outcome.
    pub result: SimResult,
    /// Windowed MPKI samples (empty when interval collection is off).
    pub intervals: Vec<IntervalPoint>,
    /// Wall time of the successful attempt (predictor construction +
    /// simulation).
    pub wall: Duration,
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The job completed and produced a result.
    Ok(JobRecord),
    /// Every permitted attempt failed (panic, build error, or trace
    /// fault); `error` is the last attempt's message.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
    /// The job ran past its wall-clock budget and was cancelled.
    TimedOut,
    /// The job was never attempted (fault plan or operator decision).
    Skipped,
    /// An injected [`Fault::Kill`] cut the job off mid-run, modeling a
    /// process death (SIGKILL, OOM, power loss). Never retried and
    /// never journaled — like a real crash, the only thing a resumed
    /// sweep can see is the mid-job checkpoint left on disk.
    Killed,
}

impl JobStatus {
    /// The status keyword used in the results document and the event
    /// journal.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Ok(_) => "ok",
            JobStatus::Failed { .. } => "failed",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Skipped => "skipped",
            JobStatus::Killed => "killed",
        }
    }
}

/// The per-job envelope: terminal status plus attempt accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Terminal status (carries the [`JobRecord`] when successful).
    pub status: JobStatus,
    /// Attempts consumed (0 when the job never ran).
    pub attempts: u32,
    /// Wall time across all attempts, including backoff.
    pub wall: Duration,
}

impl JobOutcome {
    /// The completed record, if the job succeeded.
    pub fn record(&self) -> Option<&JobRecord> {
        match &self.status {
            JobStatus::Ok(record) => Some(record),
            _ => None,
        }
    }

    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        matches!(self.status, JobStatus::Ok(_))
    }
}

/// Per-series metadata recorded once per predictor spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesInfo {
    /// Display label (spec label).
    pub label: String,
    /// Registered predictor name the series was built from.
    pub predictor: String,
    /// Effective parameters (registry defaults + overrides).
    pub params: Params,
    /// The predictor's self-reported name.
    pub predictor_name: String,
    /// Hardware budget of the configuration, in bytes.
    pub storage_bytes: u64,
}

/// Run-level health counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Total jobs in the matrix.
    pub jobs: usize,
    /// Jobs that completed successfully.
    pub ok: usize,
    /// Jobs that exhausted their attempts.
    pub failed: usize,
    /// Jobs cancelled at their wall-clock deadline.
    pub timed_out: usize,
    /// Jobs never attempted.
    pub skipped: usize,
    /// Jobs cut off mid-run by an injected kill fault.
    pub killed: usize,
    /// Of the ok jobs, how many were restored from a resume journal.
    pub resumed: usize,
}

/// One trace column of a sweep matrix: an in-memory trace, or a
/// placeholder for a trace that failed validation on load, which
/// quarantines exactly the jobs needing it instead of the whole run.
#[derive(Debug, Clone)]
pub enum TraceInput {
    /// A healthy, shared trace.
    Ready(Arc<Trace>),
    /// A trace that could not be loaded; its jobs report
    /// [`JobStatus::Failed`] without being attempted.
    Unavailable {
        /// Display name for the trace column.
        name: String,
        /// Why the load failed.
        error: String,
    },
}

impl TraceInput {
    /// Wraps an in-memory trace.
    pub fn ready(trace: Trace) -> Self {
        TraceInput::Ready(Arc::new(trace))
    }

    /// Loads and validates a BFBT trace file; a corrupt or unreadable
    /// file becomes [`TraceInput::Unavailable`] (named after the file
    /// stem) instead of an error, so one bad file costs one trace
    /// column, not the run.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Self {
        let path = path.as_ref();
        match read_trace_file(path) {
            Ok(trace) => TraceInput::Ready(Arc::new(trace)),
            Err(e) => TraceInput::Unavailable {
                name: path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string()),
                error: e.to_string(),
            },
        }
    }

    /// The trace column's display name.
    pub fn name(&self) -> &str {
        match self {
            TraceInput::Ready(trace) => trace.name(),
            TraceInput::Unavailable { name, .. } => name,
        }
    }

    /// How many records the input delivers per job (0 when unavailable).
    pub fn n_records(&self) -> u64 {
        match self {
            TraceInput::Ready(trace) => trace.len() as u64,
            TraceInput::Unavailable { .. } => 0,
        }
    }
}

/// The complete outcome of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    series: Vec<SeriesInfo>,
    trace_names: Vec<String>,
    /// Series-major: `jobs[s * n_traces + t]`.
    jobs: Vec<JobOutcome>,
    /// Parallel to `jobs`: per-job observability, present only when
    /// [`SweepOptions::metrics`] was set and the job ran this sweep.
    obs: Vec<Option<JobObs>>,
    threads: usize,
    wall: Duration,
    resumed: usize,
}

impl SweepReport {
    /// Series metadata in spec order.
    pub fn series(&self) -> &[SeriesInfo] {
        &self.series
    }

    /// Trace names in suite order.
    pub fn trace_names(&self) -> &[String] {
        &self.trace_names
    }

    /// All job outcomes, series-major then trace order.
    pub fn jobs(&self) -> &[JobOutcome] {
        &self.jobs
    }

    /// The outcome of one (series, trace) cell.
    pub fn job(&self, series: usize, trace: usize) -> Option<&JobOutcome> {
        self.jobs.get(series * self.trace_names.len() + trace)
    }

    /// The observability record of one (series, trace) cell — `None`
    /// when metrics collection was off, the job failed, or the job was
    /// restored from a resume journal.
    pub fn job_obs(&self, series: usize, trace: usize) -> Option<&JobObs> {
        self.obs
            .get(series * self.trace_names.len() + trace)
            .and_then(Option::as_ref)
    }

    fn series_jobs(&self, s: usize) -> &[JobOutcome] {
        let t = self.trace_names.len();
        &self.jobs[s * t..(s + 1) * t]
    }

    /// Successful per-trace results for the series with the given
    /// label, in trace order (failed/timed-out/skipped cells are
    /// omitted). `None` if the label is unknown.
    pub fn try_results(&self, label: &str) -> Option<Vec<SimResult>> {
        let s = self.series.iter().position(|info| info.label == label)?;
        Some(
            self.series_jobs(s)
                .iter()
                .filter_map(|j| j.record().map(|r| r.result.clone()))
                .collect(),
        )
    }

    /// `(label, successful per-trace results)` for every series, in
    /// spec order.
    pub fn all_results(&self) -> Vec<(String, Vec<SimResult>)> {
        self.series
            .iter()
            .map(|info| {
                let results = self
                    .try_results(&info.label)
                    .expect("series labels enumerate existing series");
                (info.label.clone(), results)
            })
            .collect()
    }

    /// Arithmetic-mean MPKI of one series' successful jobs (panics if
    /// the label is unknown — labels come from the caller's own specs).
    pub fn mean_mpki(&self, label: &str) -> f64 {
        let results = self
            .try_results(label)
            .unwrap_or_else(|| panic!("no sweep series labeled {label:?}"));
        mean_mpki(&results)
    }

    /// Run-level health counts.
    pub fn summary(&self) -> RunSummary {
        let mut summary = RunSummary {
            jobs: self.jobs.len(),
            resumed: self.resumed,
            ..RunSummary::default()
        };
        for job in &self.jobs {
            match job.status {
                JobStatus::Ok(_) => summary.ok += 1,
                JobStatus::Failed { .. } => summary.failed += 1,
                JobStatus::TimedOut => summary.timed_out += 1,
                JobStatus::Skipped => summary.skipped += 1,
                JobStatus::Killed => summary.killed += 1,
            }
        }
        summary
    }

    /// Whether every job completed successfully.
    pub fn is_fully_ok(&self) -> bool {
        self.jobs.iter().all(JobOutcome::is_ok)
    }

    /// Worker threads the sweep ran with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// End-to-end wall time of the sweep.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Sum of per-job wall times — the work a serial run would do.
    pub fn cpu(&self) -> Duration {
        self.jobs.iter().map(|j| j.wall).sum()
    }

    /// Observed parallel speedup: total job time over wall time.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.cpu().as_secs_f64() / wall
    }

    /// One series of the results document. Its entry spans lines: the
    /// identity members, then `mean_mpki`, then one result per line.
    fn series_json(&self, s: usize) -> String {
        let info = &self.series[s];
        let jobs = self.series_jobs(s);
        let results: Vec<SimResult> = jobs
            .iter()
            .filter_map(|j| j.record().map(|r| r.result.clone()))
            .collect();
        let mean = if results.is_empty() {
            f64::NAN // renders as null: no successful job to average
        } else {
            mean_mpki(&results)
        };
        let head = Object::new()
            .str("label", &info.label)
            .str("predictor", &info.predictor)
            .str("predictor_name", &info.predictor_name)
            .member("storage_bytes", info.storage_bytes)
            .member("params", info.params.to_json());
        let rows = jobs.iter().zip(&self.trace_names).map(|(job, trace)| {
            let row = Object::new()
                .str("trace", trace)
                .str("status", job.status.name());
            match &job.status {
                JobStatus::Ok(record) => {
                    let r = &record.result;
                    let intervals = record.intervals.iter().map(|iv| {
                        array([
                            iv.instructions.to_string(),
                            iv.mispredictions.to_string(),
                            json_f64(iv.mpki()),
                        ])
                    });
                    row.member("conditional_branches", r.conditional_branches())
                        .member("mispredictions", r.mispredictions())
                        .member("instructions", r.instructions())
                        .f64("mpki", r.mpki())
                        .member("intervals", array(intervals))
                }
                JobStatus::Failed { error } => {
                    row.member("attempts", job.attempts).str("error", error)
                }
                JobStatus::TimedOut | JobStatus::Skipped | JobStatus::Killed => row,
            }
        });
        format!(
            "{{{},\n     \"mean_mpki\": {},\n     \"results\": [\n{}     ]}}",
            head.members(),
            json_f64(mean),
            lines(rows, "      ")
        )
    }

    fn render_json(&self, with_timing: bool) -> String {
        let series = (0..self.series.len()).map(|s| self.series_json(s));
        let summary = self.summary();
        let summary = Object::new()
            .member("jobs", summary.jobs)
            .member("ok", summary.ok)
            .member("failed", summary.failed)
            .member("timed_out", summary.timed_out)
            .member("skipped", summary.skipped)
            .member("killed", summary.killed);
        let mut doc = Object::lines("  ")
            .str("schema", SWEEP_SCHEMA)
            .member(
                "traces",
                array(self.trace_names.iter().map(|t| json_string(t))),
            )
            .member("series", format!("[\n{}  ]", lines(series, "    ")))
            .member("summary", summary);
        if with_timing {
            // One array per series, one cell per trace.
            let per_job = |cell: fn(&JobOutcome) -> String| {
                array((0..self.series.len()).map(|s| array(self.series_jobs(s).iter().map(cell))))
            };
            let timing = Object::new()
                .f64("wall_ms", self.wall.as_secs_f64() * 1e3)
                .f64("cpu_ms", self.cpu().as_secs_f64() * 1e3)
                .f64("parallel_speedup", self.speedup())
                .member(
                    "jobs_ms",
                    per_job(|job| json_f64(job.wall.as_secs_f64() * 1e3)),
                )
                .member("attempts", per_job(|job| job.attempts.to_string()));
            doc = doc
                .member("threads", self.threads)
                .member("resumed_jobs", self.resumed)
                .member("timing", timing);
        }
        format!("{doc}\n")
    }

    /// The deterministic results document: independent of thread count
    /// and scheduling (no timing fields). A parallel sweep and a serial
    /// sweep of the same matrix produce byte-identical output, and a
    /// resumed run whose re-run jobs succeed produces byte-identical
    /// output to an all-healthy run of the same matrix.
    pub fn results_json(&self) -> String {
        self.render_json(false)
    }

    /// The full machine-readable document: results plus the timing
    /// section (`wall_ms`, `cpu_ms`, `parallel_speedup`, per-job times
    /// and attempt counts).
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// Writes [`SweepReport::to_json`] to `<dir>/<run>.json`, creating
    /// the directory. Returns the written path.
    pub fn write_json(&self, dir: &Path, run: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{run}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The `bfbp-metrics/1` document: one entry per job carrying the
    /// predictor's introspection metrics and its top-N H2P table.
    /// Deterministic (independent of thread count and scheduling).
    /// `None` when the sweep ran without [`SweepOptions::metrics`].
    pub fn metrics_json(&self) -> Option<String> {
        if self.obs.iter().all(Option::is_none) {
            return None;
        }
        let jobs = self.series.iter().enumerate().flat_map(|(s, info)| {
            self.trace_names.iter().enumerate().map(move |(t, name)| {
                obs::job_obs_json(&info.label, name, self.job_obs(s, t), obs::H2P_TOP_N)
            })
        });
        let doc = Object::lines("  ")
            .str("schema", obs::METRICS_SCHEMA)
            .member("h2p_top", obs::H2P_TOP_N)
            .member("jobs", format!("[\n{}  ]", lines(jobs, "    ")));
        Some(format!("{doc}\n"))
    }

    /// Writes [`SweepReport::metrics_json`] to `<dir>/<run>.metrics.json`,
    /// creating the directory; returns `Ok(None)` without writing when
    /// the sweep collected no metrics.
    pub fn write_metrics_json(&self, dir: &Path, run: &str) -> io::Result<Option<PathBuf>> {
        let Some(json) = self.metrics_json() else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{run}.metrics.json"));
        std::fs::write(&path, json)?;
        Ok(Some(path))
    }
}

fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker that panicked inside a lock poisons it; the protected
    // data (the result slots) is still structurally valid, so
    // recover instead of cascading the panic to every other worker.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cooperative cancellation of one job: its wall-clock deadline, which
/// the simulation loop checks at every chunk boundary and
/// [`cancellable_sleep`] every 2 ms.
struct CancelSignal {
    deadline: Option<Instant>,
}

impl CancelSignal {
    fn cancelled(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Sleeps for `total`, polling `cancel` in small slices. Returns `false`
/// if cancelled before the sleep finished.
fn cancellable_sleep(total: Duration, cancel: &CancelSignal) -> bool {
    let slice = Duration::from_millis(2);
    let end = Instant::now() + total;
    loop {
        if cancel.cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= end {
            return true;
        }
        std::thread::sleep((end - now).min(slice));
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A healthy two-record trace used as raw material for injected
/// trace-format faults (serialized, corrupted, re-read — so the real
/// parse path produces the error).
fn fault_probe_trace() -> Trace {
    Trace::new(
        "fault-probe",
        vec![
            BranchRecord::cond(0x40, 0x80, true, 3),
            BranchRecord::cond(0x80, 0x40, false, 1),
        ],
    )
}

enum AttemptError {
    /// Retryable failure (panic, build error, injected trace fault).
    Failed(String),
    /// The job's deadline passed; never retried.
    Cancelled,
    /// An injected [`Fault::Kill`] ended the attempt after this many
    /// records, simulating a process death; never retried.
    Killed(u64),
}

/// What one executed job leaves behind: its terminal outcome plus the
/// optional observability payload (metrics + H2P) of the final attempt.
type ExecutedJob = (JobOutcome, Option<Box<JobObs>>);

/// Everything a worker needs to run jobs, shared immutably across the
/// pool.
struct SweepContext<'a> {
    registry: &'a PredictorRegistry,
    specs: &'a [PredictorSpec],
    inputs: &'a [TraceInput],
    n_traces: usize,
    interval_insts: u64,
    retry: RetryPolicy,
    faults: BTreeMap<usize, Fault>,
    journal: Option<Journal>,
    /// Matrix fingerprint, stamped into (and checked against) every
    /// mid-job checkpoint.
    matrix: u64,
    /// Mid-job checkpoint cadence in records; `0` disables.
    checkpoint_every: u64,
    /// Directory mid-job checkpoints live in.
    checkpoint_dir: Option<PathBuf>,
    /// Collect per-job introspection metrics and H2P attribution.
    collect_metrics: bool,
    /// Span/event journal shared by all workers (internally locked).
    events: Option<EventJournal>,
    /// Live stderr progress line shared by all workers.
    progress: Option<Progress>,
    /// Flight-recorder ring capacity; `0` disables per-job recording.
    flight_capacity: usize,
    /// Directory postmortem dumps are written to when an attempt dies.
    postmortem_dir: Option<PathBuf>,
}

impl SweepContext<'_> {
    fn emit(&self, event: Event) {
        if let Some(events) = &self.events {
            events.emit(event);
        }
    }

    fn job_event(&self, ev: &'static str, job: usize) -> Event {
        Event::new(ev)
            .num("job", job as u64)
            .str("series", &self.specs[job / self.n_traces].label())
            .str("trace", self.inputs[job % self.n_traces].name())
    }

    /// The on-disk path job `job`'s mid-job checkpoint lives at, when
    /// mid-job checkpointing is configured.
    fn ckpt_path(&self, job: usize) -> Option<PathBuf> {
        if self.checkpoint_every == 0 {
            return None;
        }
        self.checkpoint_dir
            .as_ref()
            .map(|dir| dir.join(format!("job-{job}.ckpt")))
    }

    /// Reads, validates, and applies the mid-job checkpoint at `path`:
    /// the predictor state is loaded in place and the observer table
    /// (when metrics are on) is returned alongside the accounting
    /// snapshot to resume from. Any problem — unreadable file, wrong
    /// matrix/job/predictor/trace, a snapshot beyond the end of the
    /// trace, or undecodable state — returns the reason instead, in
    /// which case the predictor may hold partially loaded state and
    /// must be rebuilt by the caller.
    fn restore_ckpt(
        &self,
        job: usize,
        path: &Path,
        trace: &Trace,
        predictor: &mut dyn ConditionalPredictor,
    ) -> Result<(SimCheckpoint, Option<H2pTable>), String> {
        let spec = &self.specs[job / self.n_traces];
        let loaded = JobCheckpoint::read_from(path).map_err(|e| format!("unreadable: {e}"))?;
        if loaded.matrix_id != self.matrix {
            return Err(format!(
                "matrix mismatch: checkpoint {:#018x}, sweep {:#018x}",
                loaded.matrix_id, self.matrix
            ));
        }
        if loaded.job_index != job as u64 {
            return Err(format!(
                "job mismatch: checkpoint {}, expected {job}",
                loaded.job_index
            ));
        }
        if loaded.predictor != spec.label() {
            return Err(format!(
                "predictor mismatch: checkpoint {:?}, expected {:?}",
                loaded.predictor,
                spec.label()
            ));
        }
        if loaded.trace != trace.name() {
            return Err(format!(
                "trace mismatch: checkpoint {:?}, expected {:?}",
                loaded.trace,
                trace.name()
            ));
        }
        if loaded.sim.records > trace.len() as u64 {
            return Err(format!(
                "snapshot at record {} lies beyond the {}-record trace",
                loaded.sim.records,
                trace.len()
            ));
        }
        let Some(restorable) = predictor.checkpointing() else {
            return Err("predictor has no checkpoint capability".to_owned());
        };
        let mut reader = StateReader::new(&loaded.sim.predictor);
        restorable
            .load_state(&mut reader)
            .map_err(|e| format!("predictor state: {e}"))?;
        reader
            .finish()
            .map_err(|e| format!("predictor state: {e}"))?;
        let h2p = if self.collect_metrics {
            if loaded.observer.is_empty() {
                return Err("no observer state, but metrics collection is on".to_owned());
            }
            let mut table = H2pTable::default();
            let mut reader = StateReader::new(&loaded.observer);
            table
                .load_state(&mut reader)
                .map_err(|e| format!("observer state: {e}"))?;
            reader
                .finish()
                .map_err(|e| format!("observer state: {e}"))?;
            Some(table)
        } else {
            None
        };
        Ok((loaded.sim, h2p))
    }

    fn run_attempt(
        &self,
        job: usize,
        attempt: u32,
        trace: &Trace,
        fault: Option<&Fault>,
        cancel: &CancelSignal,
    ) -> Result<(JobRecord, Option<Box<JobObs>>), AttemptError> {
        let attempt_start = Instant::now();
        match fault {
            // The guard runs the injected delay; a cancelled sleep means
            // the deadline passed mid-delay.
            Some(Fault::Delay { millis })
                if !cancellable_sleep(Duration::from_millis(*millis), cancel) =>
            {
                return Err(AttemptError::Cancelled);
            }
            Some(Fault::TraceError { kind }) => {
                let bytes = corrupt::corrupted(&fault_probe_trace(), *kind);
                let err =
                    read_trace(&bytes[..]).expect_err("corrupted probe stream must fail to parse");
                return Err(AttemptError::Failed(format!("trace load failed: {err}")));
            }
            _ => {}
        }
        let kill_after = match fault {
            Some(Fault::Kill { record }) => Some(*record),
            _ => None,
        };
        let spec = &self.specs[job / self.n_traces];
        let ckpt_path = self.ckpt_path(job);
        // The flight recorder lives OUTSIDE the unwind boundary: a
        // predictor panic mid-simulation must not take the black box
        // down with it — the recorded window up to the panic is exactly
        // what the postmortem needs.
        let mut flight = (self.flight_capacity > 0 && self.postmortem_dir.is_some())
            .then(|| FlightRecorder::new(self.flight_capacity));
        let flight_ref = &mut flight;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(Fault::Panic { first_attempts }) = fault {
                if attempt <= *first_attempts {
                    panic!("injected panic (job {job}, attempt {attempt})");
                }
            }
            let mut predictor = self
                .registry
                .build_spec(spec)
                .map_err(|e| AttemptError::Failed(format!("predictor build failed: {e}")))?;
            // Mid-job resume: a valid snapshot restores the predictor,
            // the accounting, and the observer; anything wrong with the
            // file quarantines it and the job runs from zero instead —
            // degraded, never wrong.
            let mut resume: Option<SimCheckpoint> = None;
            let mut restored_h2p: Option<H2pTable> = None;
            if let Some(path) = ckpt_path.as_ref().filter(|p| p.exists()) {
                match self.restore_ckpt(job, path, trace, predictor.as_mut()) {
                    Ok((snapshot, h2p)) => {
                        self.emit(
                            Event::new("ckpt_restore")
                                .num("job", job as u64)
                                .num("attempt", u64::from(attempt))
                                .num("records", snapshot.records),
                        );
                        resume = Some(snapshot);
                        restored_h2p = h2p;
                    }
                    Err(reason) => {
                        let mut event = Event::new("ckpt_quarantined")
                            .num("job", job as u64)
                            .str("error", &reason);
                        if let Some(target) = ckpt::quarantine_ckpt(path) {
                            event = event.str("file", &target.display().to_string());
                        }
                        self.emit(event);
                        // A failed restore can leave partially loaded
                        // predictor state behind.
                        predictor = self.registry.build_spec(spec).map_err(|e| {
                            AttemptError::Failed(format!("predictor build failed: {e}"))
                        })?;
                    }
                }
            }
            // Shared by the observer closure and the checkpoint sink —
            // closure captures cannot split a borrow through the Box.
            let obs = RefCell::new(self.collect_metrics.then(|| Box::new(JobObs::default())));
            if let (Some(obs), Some(h2p)) = (obs.borrow_mut().as_mut(), restored_h2p) {
                obs.h2p = h2p;
            }
            let mut cancelled = || cancel.cancelled();
            let mut observe = |pc: u64, taken: bool, mispredicted: bool| {
                if let Some(obs) = obs.borrow_mut().as_mut() {
                    obs.h2p.record(pc, taken, mispredicted);
                }
            };
            let mut save = |snapshot: SimCheckpoint| {
                let Some(path) = ckpt_path.as_deref() else {
                    return;
                };
                let observer = match obs.borrow().as_deref() {
                    Some(o) => {
                        let mut w = StateWriter::new();
                        o.h2p.save_state(&mut w);
                        w.into_bytes()
                    }
                    None => Vec::new(),
                };
                let records = snapshot.records;
                let file = JobCheckpoint {
                    matrix_id: self.matrix,
                    job_index: job as u64,
                    predictor: spec.label(),
                    trace: trace.name().to_owned(),
                    sim: snapshot,
                    observer,
                };
                match file.write_to(path) {
                    Ok(()) => self.emit(
                        Event::new("ckpt_write")
                            .num("job", job as u64)
                            .num("records", records),
                    ),
                    // "No checkpoint taken": the previous snapshot, if
                    // any, stays valid.
                    Err(e) => {
                        eprintln!("warning: cannot write checkpoint {}: {e}", path.display())
                    }
                }
            };
            let mut sim = Simulation::new(predictor.as_mut())
                .intervals(self.interval_insts)
                .cancel(&mut cancelled);
            if self.collect_metrics {
                sim = sim.observer(&mut observe);
            }
            if ckpt_path.is_some() {
                sim = sim.checkpoint_every(self.checkpoint_every, &mut save);
            }
            if let Some(records) = kill_after {
                sim = sim.kill_after(records);
            }
            if let Some(snapshot) = resume {
                sim = sim.resume_from(snapshot);
            }
            if let Some(recorder) = flight_ref.as_mut() {
                // A retried attempt starts a fresh simulation; stale
                // entries from the previous attempt would lie about it.
                recorder.clear();
                sim = sim.recorder(recorder);
            }
            let (result, intervals) = sim.run_trace(trace).map_err(|e| match e {
                SimulationError::Aborted => AttemptError::Cancelled,
                SimulationError::Killed(records) => AttemptError::Killed(records),
                // Neither `Source` nor `Resume` can occur here: a replayed
                // trace never fails to decode, and `restore_ckpt` has
                // already rejected a snapshot past the trace's end.
                other => AttemptError::Failed(other.to_string()),
            })?;
            let mut obs = obs.into_inner();
            // A finished job's mid-job snapshot is spent; left behind it
            // would resume a future sweep of the same matrix from a
            // stale mid-point of an already-complete job.
            if let Some(path) = &ckpt_path {
                let _ = std::fs::remove_file(path);
            }
            if let Some(obs) = &mut obs {
                obs.record_run(&result, predictor.as_ref());
            }
            Ok((
                JobRecord {
                    result,
                    intervals,
                    wall: attempt_start.elapsed(),
                },
                obs,
            ))
        }));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => Err(AttemptError::Failed(format!(
                "panic: {}",
                panic_message(payload)
            ))),
        };
        // Any attempt-terminal error — failure, panic, timeout, injected
        // kill — dumps the black box before the error propagates; a
        // later successful attempt leaves the dump of the last dead one
        // for inspection.
        if let Err(err) = &result {
            let (status, detail) = match err {
                AttemptError::Failed(msg) => ("failed", msg.clone()),
                AttemptError::Cancelled => ("timed_out", format!("attempt {attempt} cancelled")),
                AttemptError::Killed(records) => {
                    ("killed", format!("killed after {records} records"))
                }
            };
            self.write_postmortem(job, status, &detail, flight.as_ref());
        }
        result
    }

    /// Writes job `job`'s `bfbp-postmortem/1` dump (atomic tmp+rename,
    /// like checkpoint files) and references it from the event journal.
    /// Best-effort: a failed write warns and the job error still
    /// propagates unchanged.
    fn write_postmortem(
        &self,
        job: usize,
        status: &str,
        detail: &str,
        recorder: Option<&FlightRecorder>,
    ) {
        let (Some(recorder), Some(dir)) = (recorder, self.postmortem_dir.as_ref()) else {
            return;
        };
        let series = self.specs[job / self.n_traces].label();
        let trace = self.inputs[job % self.n_traces].name();
        let json = obs::postmortem_json(recorder, &series, trace, job, status, detail);
        let path = dir.join(format!("job-{job}.postmortem.json"));
        match ckpt::write_atomic(&path, json.as_bytes()) {
            Ok(()) => self.emit(
                Event::new("postmortem")
                    .num("job", job as u64)
                    .str("status", status)
                    .num("entries", recorder.len() as u64)
                    .str("file", &path.display().to_string()),
            ),
            Err(e) => eprintln!("warning: cannot write postmortem {}: {e}", path.display()),
        }
    }

    /// Feeds one finished job into the live progress line, crediting its
    /// trace's record count (successful jobs only) toward the
    /// records/sec rate.
    fn tick_progress(&self, job: usize, outcome: &JobOutcome) {
        if let Some(progress) = &self.progress {
            let records = if outcome.is_ok() {
                self.inputs[job % self.n_traces].n_records()
            } else {
                0
            };
            progress.tick(outcome.is_ok(), records, outcome.wall.as_secs_f64());
        }
    }

    /// Runs one job to its terminal status: trace availability check,
    /// fault lookup, attempt/retry loop, panic isolation. Opens a
    /// `job_open` span in the event journal and always closes it with a
    /// `job_close` carrying the terminal [`JobStatus`] keyword.
    fn run_job(&self, job: usize, cancel: &CancelSignal) -> ExecutedJob {
        let job_start = Instant::now();
        self.emit(self.job_event("job_open", job));
        let (outcome, obs) = self.run_job_inner(job, job_start, cancel);
        if let JobStatus::Ok(record) = &outcome.status {
            for (index, iv) in record.intervals.iter().enumerate() {
                self.emit(
                    Event::new("interval")
                        .num("job", job as u64)
                        .num("index", index as u64)
                        .num("instructions", iv.instructions)
                        .num("mispredictions", iv.mispredictions)
                        .float("mpki", iv.mpki()),
                );
            }
        }
        let mut close = self
            .job_event("job_close", job)
            .str("status", outcome.status.name())
            .num("attempts", u64::from(outcome.attempts))
            .float("wall_ms", outcome.wall.as_secs_f64() * 1e3);
        match &outcome.status {
            JobStatus::Ok(record) => close = close.float("mpki", record.result.mpki()),
            JobStatus::Failed { error } => close = close.str("error", error),
            JobStatus::TimedOut | JobStatus::Skipped | JobStatus::Killed => {}
        }
        self.emit(close);
        (outcome, obs)
    }

    fn run_job_inner(&self, job: usize, job_start: Instant, cancel: &CancelSignal) -> ExecutedJob {
        let fault = self.faults.get(&job);
        if matches!(fault, Some(Fault::Skip)) {
            return (
                JobOutcome {
                    status: JobStatus::Skipped,
                    attempts: 0,
                    wall: job_start.elapsed(),
                },
                None,
            );
        }
        let trace = match &self.inputs[job % self.n_traces] {
            TraceInput::Ready(trace) => trace.as_ref(),
            TraceInput::Unavailable { name, error } => {
                return (
                    JobOutcome {
                        status: JobStatus::Failed {
                            error: format!("trace {name:?} unavailable: {error}"),
                        },
                        attempts: 0,
                        wall: job_start.elapsed(),
                    },
                    None,
                );
            }
        };
        let max_attempts = self.retry.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 1..=max_attempts {
            match self.run_attempt(job, attempt, trace, fault, cancel) {
                Ok((record, obs)) => {
                    return (
                        JobOutcome {
                            status: JobStatus::Ok(record),
                            attempts: attempt,
                            wall: job_start.elapsed(),
                        },
                        obs,
                    );
                }
                Err(AttemptError::Cancelled) => {
                    // The deadline passed: record the moment in the
                    // journal — the final status alone cannot say *when*
                    // the budget ran out.
                    self.emit(
                        Event::new("timeout")
                            .num("job", job as u64)
                            .num("attempt", u64::from(attempt))
                            .float("wall_ms", job_start.elapsed().as_secs_f64() * 1e3),
                    );
                    return (
                        JobOutcome {
                            status: JobStatus::TimedOut,
                            attempts: attempt,
                            wall: job_start.elapsed(),
                        },
                        None,
                    );
                }
                Err(AttemptError::Killed(records)) => {
                    // The simulated process death: no retry, and no
                    // journal line, since the job is not `ok` — a real
                    // SIGKILL leaves only the mid-job snapshot on disk
                    // for the next run to find.
                    self.emit(
                        Event::new("killed")
                            .num("job", job as u64)
                            .num("attempt", u64::from(attempt))
                            .num("records", records),
                    );
                    return (
                        JobOutcome {
                            status: JobStatus::Killed,
                            attempts: attempt,
                            wall: job_start.elapsed(),
                        },
                        None,
                    );
                }
                Err(AttemptError::Failed(error)) => {
                    if attempt < max_attempts {
                        self.emit(
                            Event::new("retry")
                                .num("job", job as u64)
                                .num("attempt", u64::from(attempt))
                                .str("error", &error),
                        );
                    }
                    last_error = error;
                    if attempt < max_attempts
                        && !self.retry.backoff.is_zero()
                        && !cancellable_sleep(self.retry.backoff, cancel)
                    {
                        self.emit(
                            Event::new("timeout")
                                .num("job", job as u64)
                                .num("attempt", u64::from(attempt))
                                .float("wall_ms", job_start.elapsed().as_secs_f64() * 1e3),
                        );
                        return (
                            JobOutcome {
                                status: JobStatus::TimedOut,
                                attempts: attempt,
                                wall: job_start.elapsed(),
                            },
                            None,
                        );
                    }
                }
            }
        }
        (
            JobOutcome {
                status: JobStatus::Failed { error: last_error },
                attempts: max_attempts,
                wall: job_start.elapsed(),
            },
            None,
        )
    }

    /// Journals a finished job (only an `ok` job writes a line); journal
    /// write failures degrade to a warning (the sweep's in-memory results
    /// are unaffected).
    fn checkpoint(&self, job: usize, outcome: &JobOutcome) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.record(job, outcome) {
                eprintln!("warning: sweep checkpoint write failed: {e}");
            }
        }
    }
}

/// Runs the full (spec × trace) matrix in parallel with per-job fault
/// isolation and reassembles deterministic per-series results.
///
/// All specs are validated (built once) up front, so an unknown
/// predictor or bad parameter fails before any simulation starts;
/// individual job failures after that point degrade to per-job
/// statuses, never a run-level error.
///
/// # Errors
///
/// Returns [`SweepError::Build`] for an invalid spec and
/// [`SweepError::Journal`] when a checkpoint journal cannot be
/// created/read or belongs to a different matrix.
pub fn sweep(
    registry: &PredictorRegistry,
    specs: &[PredictorSpec],
    runner: &SuiteRunner,
    options: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    let inputs: Vec<TraceInput> = runner
        .traces()
        .iter()
        .map(|t| TraceInput::Ready(t.clone()))
        .collect();
    sweep_inputs(registry, specs, &inputs, options)
}

/// [`sweep`] over explicit trace columns, including quarantined
/// ([`TraceInput::Unavailable`]) ones — the entry point for sweeping
/// on-disk trace files.
///
/// # Errors
///
/// See [`sweep`].
pub fn sweep_inputs(
    registry: &PredictorRegistry,
    specs: &[PredictorSpec],
    inputs: &[TraceInput],
    options: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    let start = Instant::now();
    let mut series = Vec::with_capacity(specs.len());
    for spec in specs {
        let probe = registry.build_spec(spec)?;
        series.push(SeriesInfo {
            label: spec.label(),
            predictor: spec.predictor().to_owned(),
            params: registry.effective_params(spec)?,
            predictor_name: probe.name().into_owned(),
            storage_bytes: probe.storage().total_bytes(),
        });
    }

    let trace_names: Vec<String> = inputs.iter().map(|t| t.name().to_owned()).collect();
    let n_traces = inputs.len();
    let n_jobs = specs.len() * n_traces;
    let matrix = journal::matrix_id(&series, inputs, options.interval_insts);

    // Resume: restore finished jobs recorded for this exact matrix.
    let mut restored = match &options.resume_from {
        Some(path) => Journal::load(path, matrix)?,
        None => BTreeMap::new(),
    };
    restored.retain(|job, _| *job < n_jobs);
    let resumed = restored.len();

    // The journal starts with every restored job, so it is a whole
    // resume record whichever file the run resumed from.
    let journal_handle = options
        .journal
        .as_deref()
        .map(|path| Journal::create(path, matrix, &restored))
        .transpose()?;

    let pending: Vec<usize> = (0..n_jobs).filter(|j| !restored.contains_key(j)).collect();

    let threads = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        options.threads
    }
    .min(pending.len().max(1));

    // The event journal degrades to a warning when unopenable:
    // observability must never take down a sweep that would otherwise
    // run.
    let events = options.events.as_ref().and_then(|path| {
        EventJournal::open(path)
            .map_err(|e| eprintln!("warning: cannot open event journal {}: {e}", path.display()))
            .ok()
    });
    let context = SweepContext {
        registry,
        specs,
        inputs,
        n_traces,
        interval_insts: options.interval_insts,
        retry: options.retry,
        faults: options
            .fault_plan
            .as_ref()
            .map(|plan| plan.materialized(n_jobs))
            .unwrap_or_default(),
        journal: journal_handle,
        matrix,
        checkpoint_every: options.checkpoint_every,
        checkpoint_dir: options.checkpoint_dir.clone(),
        collect_metrics: options.metrics,
        events,
        progress: options.progress.then(|| Progress::new(pending.len())),
        flight_capacity: options.flight_recorder,
        postmortem_dir: options.postmortem_dir.clone(),
    };
    context.emit(
        Event::new("sweep_open")
            .num("jobs", n_jobs as u64)
            .num("pending", pending.len() as u64)
            .num("restored", resumed as u64)
            .num("series", specs.len() as u64)
            .num("traces", n_traces as u64)
            .num("threads", threads as u64),
    );

    // One pool at every thread count: workers take pending jobs in
    // order from a shared counter, and each job carries its own deadline.
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ExecutedJob>>> = Mutex::new(vec![None; n_jobs]);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&job) = pending.get(slot) else {
                        break;
                    };
                    let cancel = CancelSignal {
                        deadline: options.timeout.map(|t| Instant::now() + t),
                    };
                    let (outcome, obs) = context.run_job(job, &cancel);
                    context.checkpoint(job, &outcome);
                    context.tick_progress(job, &outcome);
                    lock_or_recover(&slots)[job] = Some((outcome, obs));
                })
            })
            .collect();
        for worker in workers {
            // A worker can only panic outside the per-job isolation
            // boundary (an engine bug, not a predictor bug); its
            // claimed-but-unfinished job degrades to a failed slot
            // below instead of tearing down the sweep.
            let _ = worker.join();
        }
    });
    let mut executed = slots.into_inner().unwrap_or_else(PoisonError::into_inner);

    let mut job_obs: Vec<Option<JobObs>> = Vec::with_capacity(n_jobs);
    let jobs: Vec<JobOutcome> = (0..n_jobs)
        .map(|job| {
            if let Some(outcome) = restored.remove(&job) {
                job_obs.push(None);
                return outcome;
            }
            let (outcome, obs) = executed[job].take().unwrap_or_else(|| {
                (
                    JobOutcome {
                        status: JobStatus::Failed {
                            error: "worker thread lost before completing this job".to_owned(),
                        },
                        attempts: 0,
                        wall: Duration::ZERO,
                    },
                    None,
                )
            });
            job_obs.push(obs.map(|boxed| *boxed));
            outcome
        })
        .collect();

    let report = SweepReport {
        series,
        trace_names,
        jobs,
        obs: job_obs,
        threads,
        wall: start.elapsed(),
        resumed,
    };
    let summary = report.summary();
    context.emit(
        Event::new("sweep_close")
            .num("ok", summary.ok as u64)
            .num("failed", summary.failed as u64)
            .num("timed_out", summary.timed_out as u64)
            .num("skipped", summary.skipped as u64)
            .num("killed", summary.killed as u64)
            .float("wall_ms", report.wall.as_secs_f64() * 1e3),
    );
    if let Some(progress) = &context.progress {
        progress.finish();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_trace::synth::suite;

    fn tiny_runner() -> SuiteRunner {
        SuiteRunner::from_specs(
            vec![suite::find("INT1").unwrap(), suite::find("MM2").unwrap()],
            0.005,
        )
    }

    fn two_specs() -> Vec<PredictorSpec> {
        vec![
            PredictorSpec::new("static-taken").labeled("T"),
            PredictorSpec::new("static-not-taken").labeled("NT"),
        ]
    }

    #[test]
    fn sweep_covers_the_matrix_in_order() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let report = sweep(&registry, &two_specs(), &runner, &SweepOptions::default()).unwrap();
        assert_eq!(report.jobs().len(), 4);
        assert!(report.is_fully_ok());
        assert_eq!(report.trace_names(), &["INT1".to_owned(), "MM2".to_owned()]);
        let t = report.try_results("T").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].trace_name(), "INT1");
        assert_eq!(t[1].trace_name(), "MM2");
        // Complementary predictors partition the mispredictions.
        let nt = report.try_results("NT").unwrap();
        for (a, b) in t.iter().zip(&nt) {
            assert_eq!(
                a.mispredictions() + b.mispredictions(),
                a.conditional_branches()
            );
        }
        assert!(report.try_results("nope").is_none());
        let summary = report.summary();
        assert_eq!((summary.jobs, summary.ok), (4, 4));
    }

    #[test]
    fn parallel_results_json_is_byte_identical_to_serial() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let specs = two_specs();
        let serial = sweep(&registry, &specs, &runner, &SweepOptions::serial()).unwrap();
        let parallel = sweep(
            &registry,
            &specs,
            &runner,
            &SweepOptions::default().with_threads(4),
        )
        .unwrap();
        assert_eq!(serial.threads(), 1);
        assert_eq!(parallel.threads(), 4);
        assert_eq!(serial.results_json(), parallel.results_json());
    }

    #[test]
    fn unknown_spec_fails_before_simulating() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let specs = [PredictorSpec::new("no-such-predictor")];
        assert!(matches!(
            sweep(&registry, &specs, &runner, &SweepOptions::default()),
            Err(SweepError::Build(BuildError::UnknownPredictor { .. }))
        ));
    }

    #[test]
    fn timing_fields_present_only_in_full_json() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let report = sweep(&registry, &two_specs(), &runner, &SweepOptions::serial()).unwrap();
        let results = report.results_json();
        let full = report.to_json();
        assert!(!results.contains("\"timing\""));
        assert!(results.contains("\"schema\": \"bfbp-sweep/2\""));
        assert!(results.contains("\"summary\""));
        assert!(results.contains("\"status\": \"ok\""));
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"parallel_speedup\""));
        assert!(full.contains("\"wall_ms\""));
        assert!(full.contains("\"attempts\""));
        assert!(report.speedup() > 0.0);
    }

    #[test]
    fn intervals_cover_the_whole_trace() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let options = SweepOptions {
            threads: 1,
            interval_insts: 1000,
            ..SweepOptions::default()
        };
        let report = sweep(&registry, &two_specs(), &runner, &options).unwrap();
        for job in report.jobs() {
            let record = job.record().expect("healthy sweep");
            let total: u64 = record.intervals.iter().map(|iv| iv.instructions).sum();
            assert_eq!(total, record.result.instructions());
            let misp: u64 = record.intervals.iter().map(|iv| iv.mispredictions).sum();
            assert_eq!(misp, record.result.mispredictions());
        }
    }

    #[test]
    fn injected_panic_fails_one_job_and_spares_the_rest() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let options = SweepOptions::serial().with_fault_plan(FaultPlan::new().panic_at(1));
        let report = sweep(&registry, &two_specs(), &runner, &options).unwrap();
        let summary = report.summary();
        assert_eq!((summary.ok, summary.failed), (3, 1));
        let failed = &report.jobs()[1];
        assert_eq!(failed.attempts, 1);
        match &failed.status {
            JobStatus::Failed { error } => {
                assert!(error.contains("injected panic"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The failed cell renders with its status; the run summary too.
        let json = report.results_json();
        assert!(json.contains("\"status\": \"failed\""), "{json}");
        assert!(json.contains("\"failed\": 1"), "{json}");
    }

    #[test]
    fn flaky_panic_succeeds_within_retry_budget() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let options = SweepOptions::serial()
            .with_retry(RetryPolicy::retries(2, Duration::ZERO))
            .with_fault_plan(FaultPlan::new().flaky_panic_at(2, 1));
        let report = sweep(&registry, &two_specs(), &runner, &options).unwrap();
        assert!(report.is_fully_ok());
        assert_eq!(report.jobs()[2].attempts, 2);
        assert_eq!(report.jobs()[0].attempts, 1);
    }

    #[test]
    fn skip_and_trace_fault_statuses_are_reported() {
        let registry = PredictorRegistry::with_builtins();
        let runner = tiny_runner();
        let plan = FaultPlan::new()
            .skip_at(0)
            .trace_error_at(3, corrupt::CorruptKind::ChecksumMismatch);
        let options = SweepOptions::serial().with_fault_plan(plan);
        let report = sweep(&registry, &two_specs(), &runner, &options).unwrap();
        assert_eq!(report.jobs()[0].status, JobStatus::Skipped);
        match &report.jobs()[3].status {
            JobStatus::Failed { error } => {
                assert!(error.contains("checksum mismatch"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        let summary = report.summary();
        assert_eq!((summary.ok, summary.failed, summary.skipped), (2, 1, 1));
        assert!(!report.is_fully_ok());
        let json = report.results_json();
        assert!(json.contains("\"status\": \"skipped\""));
    }

    #[test]
    fn unavailable_trace_quarantines_only_its_column() {
        let registry = PredictorRegistry::with_builtins();
        let healthy = suite::find("INT1").unwrap().generate_len(1000);
        let inputs = [
            TraceInput::ready(healthy),
            TraceInput::Unavailable {
                name: "broken".to_owned(),
                error: "checksum mismatch: footer 0x1, computed 0x2".to_owned(),
            },
        ];
        let report =
            sweep_inputs(&registry, &two_specs(), &inputs, &SweepOptions::serial()).unwrap();
        assert_eq!(report.trace_names()[1], "broken");
        let summary = report.summary();
        assert_eq!((summary.ok, summary.failed), (2, 2));
        for s in 0..2 {
            assert!(report.job(s, 0).unwrap().is_ok());
            let broken = report.job(s, 1).unwrap();
            assert_eq!(broken.attempts, 0);
            match &broken.status {
                JobStatus::Failed { error } => {
                    assert!(error.contains("unavailable"), "{error}")
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
    }
}
