//! The trace-driven simulation loop and its result type.
//!
//! The hot loop consumes structure-of-arrays [`TraceChunk`]s from any
//! [`TraceSource`], so a simulation's working set is O(chunk) whether
//! the trace is materialized or decoded from disk. Each chunk is split
//! into maximal runs of same-kind records ([`TraceChunk::kind_runs`]):
//! conditional runs go to [`ConditionalPredictor::predict_batch`], the
//! others to [`ConditionalPredictor::update_batch`]. Totals, interval
//! windows, and observer callbacks are then computed from the
//! per-record misprediction flags in one scalar pass, so batching never
//! changes a single count. There is one drive loop, whatever hooks a
//! run installs; the [`Simulation`] builder is its one entry point.

use std::fmt;

use bfbp_trace::record::Trace;
use bfbp_trace::source::{ReplaySource, TraceChunk, TraceSource};
use bfbp_trace::TraceFormatError;

use crate::ckpt::{SimCheckpoint, StateWriter};
use crate::obs::{FlightEntry, FlightRecorder};
use crate::predictor::ConditionalPredictor;

/// The outcome of running one predictor over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    trace_name: String,
    predictor_name: String,
    conditional_branches: u64,
    mispredictions: u64,
    instructions: u64,
}

impl SimResult {
    /// Creates a result from raw counts (primarily for tests; use
    /// [`simulate`] to produce real results).
    pub fn from_counts(
        trace_name: impl Into<String>,
        predictor_name: impl Into<String>,
        conditional_branches: u64,
        mispredictions: u64,
        instructions: u64,
    ) -> Self {
        Self {
            trace_name: trace_name.into(),
            predictor_name: predictor_name.into(),
            conditional_branches,
            mispredictions,
            instructions,
        }
    }

    /// Name of the simulated trace.
    pub fn trace_name(&self) -> &str {
        &self.trace_name
    }

    /// Name of the predictor configuration.
    pub fn predictor_name(&self) -> &str {
        &self.predictor_name
    }

    /// Number of predicted conditional branches.
    pub fn conditional_branches(&self) -> u64 {
        self.conditional_branches
    }

    /// Number of mispredicted conditional branches.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Total committed instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Mispredictions per 1000 instructions — the paper's headline metric.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        1000.0 * self.mispredictions as f64 / self.instructions as f64
    }

    /// Fraction of conditional branches predicted correctly, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.conditional_branches == 0 {
            return 1.0;
        }
        1.0 - self.mispredictions as f64 / self.conditional_branches as f64
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.3} MPKI ({:.2}% accuracy, {}/{} mispredicted)",
            self.predictor_name,
            self.trace_name,
            self.mpki(),
            100.0 * self.accuracy(),
            self.mispredictions,
            self.conditional_branches
        )
    }
}

/// One window of a simulation: counts accumulated over (about)
/// `interval_insts` committed instructions. Windowed MPKI exposes
/// warm-up and phase behavior that a whole-trace average hides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalPoint {
    /// Instructions committed in this window.
    pub instructions: u64,
    /// Conditional branches predicted in this window.
    pub conditional_branches: u64,
    /// Mispredictions in this window.
    pub mispredictions: u64,
}

impl IntervalPoint {
    /// Mispredictions per 1000 instructions within this window.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        1000.0 * self.mispredictions as f64 / self.instructions as f64
    }
}

/// Runs `predictor` over every record of `trace`, in commit order.
///
/// Conditional records are predicted and then immediately used for
/// training; other records are passed to
/// [`ConditionalPredictor::track_other`]. Shorthand for an unadorned
/// [`Simulation`] run.
pub fn simulate<P: ConditionalPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> SimResult {
    match Simulation::new(predictor).run_trace(trace) {
        Ok((result, _)) => result,
        Err(e) => unreachable!("uncancellable replay cannot fail: {e}"),
    }
}

/// How many records a cancellable simulation processes between
/// cancellation checks — also the default [`Simulation`] chunk size, so
/// a chunk boundary doubles as a cancellation point. Coarse enough to
/// keep the clock read off the hot path, fine enough that a job stops
/// within a fraction of a millisecond of its deadline.
pub const CANCEL_CHECK_RECORDS: u64 = 4096;

/// Error from a [`Simulation`] run.
#[derive(Debug)]
pub enum SimulationError {
    /// The cancellation hook returned `true`; partial counts are
    /// discarded.
    Aborted,
    /// A streaming source failed to decode its byte stream. Replayed
    /// traces never produce this.
    Source(TraceFormatError),
    /// Fault injection: the run was killed at a [`Simulation::kill_after`]
    /// record boundary, mimicking a process death mid-job. Carries the
    /// number of records that were fully processed before the kill.
    Killed(u64),
    /// A [`Simulation::resume_from`] point could not be reached — the
    /// checkpoint claims more records than the source delivers.
    Resume(&'static str),
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Aborted => write!(f, "simulation aborted by cancellation signal"),
            SimulationError::Source(e) => write!(f, "trace source failed: {e}"),
            SimulationError::Killed(records) => {
                write!(
                    f,
                    "simulation killed by fault injection after {records} records"
                )
            }
            SimulationError::Resume(msg) => write!(f, "cannot resume: {msg}"),
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimulationError::Source(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceFormatError> for SimulationError {
    fn from(e: TraceFormatError) -> Self {
        SimulationError::Source(e)
    }
}

/// Builder for one simulation run: a predictor plus optional interval
/// collection, a cancellation hook, and a per-branch observation hook.
///
/// ```
/// use bfbp_sim::predictor::StaticPredictor;
/// use bfbp_sim::simulate::Simulation;
/// use bfbp_trace::record::{BranchRecord, Trace};
///
/// let trace = Trace::new("t", vec![BranchRecord::cond(0x40, 0x80, true, 4)]);
/// let mut predictor = StaticPredictor::always_taken();
/// let (result, _intervals) = Simulation::new(&mut predictor)
///     .intervals(100)
///     .run_trace(&trace)
///     .unwrap();
/// assert_eq!(result.mispredictions(), 0);
/// ```
///
/// [`Simulation::run`] accepts any [`TraceSource`], consuming it in
/// structure-of-arrays chunks so memory stays O(chunk); the record
/// sequence — and therefore every count, interval window, and
/// observation — is identical whichever source delivers the trace.
pub struct Simulation<'a, P: ConditionalPredictor + ?Sized> {
    predictor: &'a mut P,
    interval_insts: u64,
    chunk_records: usize,
    cancel: Option<&'a mut dyn FnMut() -> bool>,
    observer: Option<&'a mut dyn FnMut(u64, bool, bool)>,
    checkpoint_every: u64,
    checkpoint_sink: Option<&'a mut dyn FnMut(SimCheckpoint)>,
    kill_after: Option<u64>,
    resume: Option<SimCheckpoint>,
    recorder: Option<&'a mut FlightRecorder>,
}

impl<P: ConditionalPredictor + ?Sized> fmt::Debug for Simulation<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("predictor", &self.predictor.name())
            .field("interval_insts", &self.interval_insts)
            .field("chunk_records", &self.chunk_records)
            .field("cancel", &self.cancel.is_some())
            .field("observer", &self.observer.is_some())
            .field("checkpoint_every", &self.checkpoint_every)
            .field("kill_after", &self.kill_after)
            .field("resume", &self.resume.as_ref().map(|c| c.records))
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl<'a, P: ConditionalPredictor + ?Sized> Simulation<'a, P> {
    /// Starts a run of `predictor` with no intervals, no cancellation,
    /// and no observer.
    pub fn new(predictor: &'a mut P) -> Self {
        Self {
            predictor,
            interval_insts: 0,
            chunk_records: CANCEL_CHECK_RECORDS as usize,
            cancel: None,
            observer: None,
            checkpoint_every: 0,
            checkpoint_sink: None,
            kill_after: None,
            resume: None,
            recorder: None,
        }
    }

    /// Collects windowed counts every `interval_insts` committed
    /// instructions (`0`, the default, disables collection).
    ///
    /// Window boundaries land on record boundaries, so a window may
    /// overrun `interval_insts` by at most one record; the final
    /// (possibly short) window is always emitted when any instructions
    /// remain. Summing the interval counts always reproduces the totals
    /// in the [`SimResult`].
    pub fn intervals(mut self, interval_insts: u64) -> Self {
        self.interval_insts = interval_insts;
        self
    }

    /// Overrides the chunk size in records (default
    /// [`CANCEL_CHECK_RECORDS`]). Results never depend on the chunk
    /// size; only memory footprint and cancellation latency do.
    pub fn chunk_records(mut self, n: usize) -> Self {
        self.chunk_records = n.max(1);
        self
    }

    /// Installs a cooperative cancellation hook, polled at every chunk
    /// boundary; a `true` return abandons the run with
    /// [`SimulationError::Aborted`].
    ///
    /// This is the mechanism behind the sweep engine's per-job
    /// wall-clock timeout: the engine's hook reads the clock against the
    /// job's deadline. Cancellation never alters results: a run that
    /// completes is bit-identical to an uncancellable one.
    pub fn cancel(mut self, cancelled: &'a mut dyn FnMut() -> bool) -> Self {
        self.cancel = Some(cancelled);
        self
    }

    /// Installs a per-branch observation hook: `observe(pc, taken,
    /// mispredicted)` fires for every conditional branch *after* its
    /// prediction resolves — the attribution tap behind
    /// [`crate::obs::H2pTable`]. Observation never feeds back into the
    /// predictor, so observed and unobserved runs produce identical
    /// results.
    pub fn observer(mut self, observe: &'a mut dyn FnMut(u64, bool, bool)) -> Self {
        self.observer = Some(observe);
        self
    }

    /// Emits a [`SimCheckpoint`] into `sink` at the first chunk boundary
    /// at or after every multiple of `every` records (`0` disables).
    ///
    /// The checkpoint carries the full accounting state plus the
    /// predictor's serialized [`crate::ckpt::Restorable`] state, captured
    /// at the same instant. Predictors without the checkpointing
    /// capability never fire the sink. Checkpointing never alters
    /// results: the snapshot is taken between chunks, where the
    /// predictor holds no in-flight prediction.
    pub fn checkpoint_every(mut self, every: u64, sink: &'a mut dyn FnMut(SimCheckpoint)) -> Self {
        self.checkpoint_every = every;
        self.checkpoint_sink = Some(sink);
        self
    }

    /// Fault injection: abandon the run with [`SimulationError::Killed`]
    /// at the first chunk boundary at or after `records` processed
    /// records — before any checkpoint due at the same boundary, so the
    /// kill always loses whatever progress followed the last snapshot,
    /// exactly like a real process death.
    pub fn kill_after(mut self, records: u64) -> Self {
        self.kill_after = Some(records);
        self
    }

    /// Installs a [`FlightRecorder`]: every record (conditional or not)
    /// is pushed into the ring as it commits, with the predictor's
    /// [`last_provenance`] sampled between predict and update for
    /// conditionals.
    ///
    /// Provenance is per-prediction scratch that a batch kernel would
    /// overwrite, so inside the same drive loop a recorded conditional
    /// run calls `predict`, records, then `update` for each record. By
    /// the [`predict_batch`] contract that is observationally identical
    /// to the batch call: recording never changes a count, a window, or
    /// an observation.
    ///
    /// [`last_provenance`]: ConditionalPredictor::last_provenance
    /// [`predict_batch`]: ConditionalPredictor::predict_batch
    pub fn recorder(mut self, recorder: &'a mut FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Resumes accounting from a previously captured checkpoint: the
    /// first `ckpt.records` source records are skipped (without touching
    /// the predictor) and all counters, interval windows, and the open
    /// window continue from the checkpointed values.
    ///
    /// Restoring the *predictor* from `ckpt.predictor` is the caller's
    /// responsibility, before the run starts — the split keeps a failed
    /// blob restore (torn file) recoverable by rebuilding the predictor,
    /// which `Simulation` cannot do.
    pub fn resume_from(mut self, ckpt: SimCheckpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Runs the simulation over `source`, chunk by chunk, to
    /// completion.
    ///
    /// # Errors
    ///
    /// [`SimulationError::Aborted`] when the cancellation hook fires,
    /// [`SimulationError::Source`] when the source fails to decode.
    pub fn run<S: TraceSource + ?Sized>(
        self,
        source: &mut S,
    ) -> Result<(SimResult, Vec<IntervalPoint>), SimulationError> {
        let Simulation {
            predictor,
            interval_insts,
            chunk_records,
            mut cancel,
            mut observer,
            checkpoint_every,
            mut checkpoint_sink,
            kill_after,
            resume,
            mut recorder,
        } = self;
        let trace_name = source.name().to_owned();
        let mut conditional_branches = 0u64;
        let mut mispredictions = 0u64;
        let mut instructions = 0u64;
        let mut intervals = Vec::new();
        let mut window = IntervalPoint {
            instructions: 0,
            conditional_branches: 0,
            mispredictions: 0,
        };
        let mut records_done = 0u64;
        let mut chunk = TraceChunk::with_capacity(chunk_records);
        if let Some(ckpt) = resume {
            // Fast-forward the source past the already-processed prefix.
            // The records are decoded and discarded — the predictor was
            // restored by the caller and must not see them again.
            let mut to_skip = ckpt.records;
            while to_skip > 0 {
                let ask = (to_skip as usize).min(chunk_records);
                let n = source.fill_chunk(&mut chunk, ask)?;
                if n == 0 {
                    return Err(SimulationError::Resume(
                        "checkpoint lies beyond the end of the trace",
                    ));
                }
                to_skip -= n as u64;
            }
            records_done = ckpt.records;
            conditional_branches = ckpt.conditional_branches;
            mispredictions = ckpt.mispredictions;
            instructions = ckpt.instructions;
            intervals = ckpt.intervals;
            window = ckpt.window;
        }
        // Next checkpoint boundary strictly after `records`; `u64::MAX`
        // (never reached) when checkpointing is disabled.
        let next_ckpt_after = |records: u64| {
            records
                .checked_div(checkpoint_every)
                .map_or(u64::MAX, |n| (n + 1) * checkpoint_every)
        };
        let mut next_ckpt = next_ckpt_after(records_done);
        let mut miss = vec![false; chunk_records];
        loop {
            let n = source.fill_chunk(&mut chunk, chunk_records)?;
            if n == 0 {
                break;
            }
            // The chunk boundary is the cancellation point: with the
            // default chunk size this polls at the same record indices
            // the per-record loop historically did, and a completed
            // trace is never aborted by a trailing poll.
            if let Some(cancelled) = cancel.as_mut() {
                if cancelled() {
                    return Err(SimulationError::Aborted);
                }
            }
            let pcs = &chunk.pcs()[..n];
            let targets = &chunk.targets()[..n];
            let kinds = &chunk.kinds()[..n];
            let takens = &chunk.takens()[..n];
            let gaps = &chunk.inst_gaps()[..n];
            if miss.len() < n {
                miss.resize(n, false);
            }
            let entry = |k: usize, predicted, provenance| FlightEntry {
                index: records_done + k as u64,
                pc: pcs[k],
                kind: kinds[k],
                predicted,
                outcome: takens[k],
                provenance,
            };
            // Drive the predictor over maximal same-kind runs: one
            // (virtual) batch call per run instead of two per record. A
            // recorder samples provenance between predict and update, so
            // a recorded conditional run goes record by record.
            for (i, j, conditional) in chunk.kind_runs(0..n, usize::MAX) {
                if !conditional {
                    if let Some(rec) = recorder.as_mut() {
                        // Non-conditionals are never predicted; the entry
                        // mirrors the committed direction and carries no
                        // provenance.
                        for (k, &taken) in (i..j).zip(&takens[i..j]) {
                            rec.record(entry(k, taken, None));
                        }
                    }
                    predictor.update_batch(&chunk, i, j);
                } else if let Some(rec) = recorder.as_mut() {
                    for k in i..j {
                        let guess = predictor.predict(pcs[k]);
                        miss[k] = guess != takens[k];
                        rec.record(entry(k, guess, predictor.last_provenance()));
                        predictor.update(pcs[k], takens[k], targets[k]);
                    }
                } else {
                    predictor.predict_batch(
                        &pcs[i..j],
                        &targets[i..j],
                        &takens[i..j],
                        &mut miss[i..j],
                    );
                }
            }
            // Accounting from the miss flags. Nothing downstream of the
            // flags feeds back into the predictor, so a separate pass
            // changes no count.
            for i in 0..n {
                let insts = u64::from(gaps[i]) + 1;
                instructions += insts;
                window.instructions += insts;
                if kinds[i].is_conditional() {
                    conditional_branches += 1;
                    window.conditional_branches += 1;
                    if miss[i] {
                        mispredictions += 1;
                        window.mispredictions += 1;
                    }
                    if let Some(observe) = observer.as_mut() {
                        observe(pcs[i], takens[i], miss[i]);
                    }
                }
                // Interval windows close on exact record boundaries;
                // this check cannot move to the chunk boundary without
                // breaking byte-identity with the materialized path.
                if interval_insts > 0 && window.instructions >= interval_insts {
                    intervals.push(window);
                    window = IntervalPoint {
                        instructions: 0,
                        conditional_branches: 0,
                        mispredictions: 0,
                    };
                }
            }
            records_done += n as u64;
            // The kill fires before any checkpoint due at this boundary:
            // a real SIGKILL never leaves a snapshot of the work it
            // destroys.
            if kill_after.is_some_and(|k| records_done >= k) {
                return Err(SimulationError::Killed(records_done));
            }
            if records_done >= next_ckpt {
                next_ckpt = next_ckpt_after(records_done);
                if let Some(sink) = checkpoint_sink.as_mut() {
                    if let Some(restorable) = predictor.checkpointing() {
                        let mut w = StateWriter::new();
                        restorable.save_state(&mut w);
                        sink(SimCheckpoint {
                            records: records_done,
                            instructions,
                            conditional_branches,
                            mispredictions,
                            intervals: intervals.clone(),
                            window,
                            predictor: w.into_bytes(),
                        });
                    }
                }
            }
        }
        if interval_insts > 0 && window.instructions > 0 {
            intervals.push(window);
        }
        let result = SimResult {
            trace_name,
            predictor_name: predictor.name().into_owned(),
            conditional_branches,
            mispredictions,
            instructions,
        };
        Ok((result, intervals))
    }

    /// [`Simulation::run`] over an already-materialized trace (replayed
    /// in chunks; no copy of the records is made).
    ///
    /// # Errors
    ///
    /// [`SimulationError::Aborted`] when the cancellation hook fires;
    /// replay cannot fail to decode.
    pub fn run_trace(
        self,
        trace: &Trace,
    ) -> Result<(SimResult, Vec<IntervalPoint>), SimulationError> {
        self.run(&mut ReplaySource::new(trace))
    }
}

/// Arithmetic-mean MPKI over a set of results — the aggregate the paper
/// reports ("average (arithmetic mean) MPKI").
///
/// Returns 0 for an empty slice.
pub fn mean_mpki(results: &[SimResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(SimResult::mpki).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::StaticPredictor;
    use bfbp_trace::record::{BranchKind, BranchRecord};

    fn trace_tnt() -> Trace {
        Trace::new(
            "tnt",
            vec![
                BranchRecord::cond(0x10, 0x20, true, 4),  // 5 insts
                BranchRecord::cond(0x10, 0x20, false, 4), // 5 insts
                BranchRecord::uncond(0x30, 0x40, BranchKind::Call, 9), // 10 insts
                BranchRecord::cond(0x10, 0x20, true, 4),  // 5 insts
            ],
        )
    }

    #[test]
    fn static_taken_counts_mispredictions() {
        let mut p = StaticPredictor::always_taken();
        let result = simulate(&mut p, &trace_tnt());
        assert_eq!(result.conditional_branches(), 3);
        assert_eq!(result.mispredictions(), 1);
        assert_eq!(result.instructions(), 25);
        assert!((result.mpki() - 40.0).abs() < 1e-9);
        assert!((result.accuracy() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn static_not_taken_mirror() {
        let mut p = StaticPredictor::always_not_taken();
        let result = simulate(&mut p, &trace_tnt());
        assert_eq!(result.mispredictions(), 2);
    }

    #[test]
    fn empty_trace_result() {
        let mut p = StaticPredictor::always_taken();
        let result = simulate(&mut p, &Trace::new("empty", vec![]));
        assert_eq!(result.mpki(), 0.0);
        assert_eq!(result.accuracy(), 1.0);
    }

    #[test]
    fn intervals_sum_to_totals() {
        let trace = trace_tnt();
        let mut p = StaticPredictor::always_taken();
        let (result, intervals) = Simulation::new(&mut p)
            .intervals(10)
            .run_trace(&trace)
            .unwrap();
        // 25 instructions in windows of >= 10: records of 5,5,10,5 insts
        // close windows at 10 and 20, leaving a 5-inst tail.
        assert_eq!(intervals.len(), 3);
        assert_eq!(
            intervals.iter().map(|iv| iv.instructions).sum::<u64>(),
            result.instructions()
        );
        assert_eq!(
            intervals.iter().map(|iv| iv.mispredictions).sum::<u64>(),
            result.mispredictions()
        );
        assert_eq!(
            intervals
                .iter()
                .map(|iv| iv.conditional_branches)
                .sum::<u64>(),
            result.conditional_branches()
        );

        // interval_insts = 0 disables collection.
        let mut p2 = StaticPredictor::always_taken();
        let (r2, none) = Simulation::new(&mut p2).run_trace(&trace).unwrap();
        assert_eq!(r2, result);
        assert!(none.is_empty());
    }

    #[test]
    fn cancellable_simulation_aborts_and_completes() {
        let trace = trace_tnt();
        // Immediate cancellation aborts before any record.
        let mut p = StaticPredictor::always_taken();
        let mut always = || true;
        assert!(matches!(
            Simulation::new(&mut p)
                .cancel(&mut always)
                .run_trace(&trace),
            Err(SimulationError::Aborted)
        ));
        // A never-firing signal reproduces the plain path exactly.
        let mut p1 = StaticPredictor::always_taken();
        let mut p2 = StaticPredictor::always_taken();
        let plain = Simulation::new(&mut p1)
            .intervals(10)
            .run_trace(&trace)
            .unwrap();
        let mut never = || false;
        let cancellable = Simulation::new(&mut p2)
            .intervals(10)
            .cancel(&mut never)
            .run_trace(&trace)
            .unwrap();
        assert_eq!(plain, cancellable);
        assert_eq!(
            SimulationError::Aborted.to_string(),
            "simulation aborted by cancellation signal"
        );
    }

    #[test]
    fn observed_run_matches_plain_and_sees_every_branch() {
        let trace = trace_tnt();
        let mut p1 = StaticPredictor::always_taken();
        let mut p2 = StaticPredictor::always_taken();
        let plain = Simulation::new(&mut p1)
            .intervals(10)
            .run_trace(&trace)
            .unwrap();
        let mut seen = Vec::new();
        let mut observe = |pc, taken, mispredicted| seen.push((pc, taken, mispredicted));
        let observed = Simulation::new(&mut p2)
            .intervals(10)
            .observer(&mut observe)
            .run_trace(&trace)
            .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(
            seen,
            vec![
                (0x10, true, false),
                (0x10, false, true),
                (0x10, true, false)
            ]
        );
    }

    #[test]
    fn chunk_size_never_changes_results() {
        let spec = bfbp_trace::synth::suite::find("FP2").unwrap();
        let trace = spec.generate_len(2500);
        let mut p0 = StaticPredictor::always_taken();
        let reference = Simulation::new(&mut p0)
            .intervals(500)
            .run_trace(&trace)
            .unwrap();
        for chunk in [1usize, 7, 100, 2500, 10_000] {
            let mut p = StaticPredictor::always_taken();
            let chunked = Simulation::new(&mut p)
                .intervals(500)
                .chunk_records(chunk)
                .run_trace(&trace)
                .unwrap();
            assert_eq!(chunked, reference, "chunk_records = {chunk}");
        }
    }

    #[test]
    fn mean_mpki_averages() {
        let a = SimResult::from_counts("a", "p", 100, 10, 1000); // 10 MPKI
        let b = SimResult::from_counts("b", "p", 100, 30, 1000); // 30 MPKI
        assert!((mean_mpki(&[a, b]) - 20.0).abs() < 1e-9);
        assert_eq!(mean_mpki(&[]), 0.0);
    }

    #[test]
    fn display_mentions_names() {
        let r = SimResult::from_counts("tr", "pred", 10, 1, 100);
        let s = format!("{r}");
        assert!(s.contains("tr") && s.contains("pred"));
    }

    #[test]
    fn tracking_receives_non_conditionals() {
        struct Counter {
            tracked: usize,
        }
        impl ConditionalPredictor for Counter {
            fn name(&self) -> std::borrow::Cow<'_, str> {
                "counter".into()
            }
            fn predict(&mut self, _: u64) -> bool {
                true
            }
            fn update(&mut self, _: u64, _: bool, _: u64) {}
            fn track_other(&mut self, _: &BranchRecord) {
                self.tracked += 1;
            }
            fn storage(&self) -> crate::storage::StorageBreakdown {
                crate::storage::StorageBreakdown::new()
            }
        }
        let mut p = Counter { tracked: 0 };
        simulate(&mut p, &trace_tnt());
        assert_eq!(p.tracked, 1);
    }
}
