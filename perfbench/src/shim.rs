//! Timing shims around the two public layer traits: a
//! [`ConditionalPredictor`] wrapper and a [`TraceSource`] wrapper.
//!
//! The predictor shim forwards every trait method, capability probes
//! included, so a simulation drives the wrapped predictor down exactly
//! the path it would take unwrapped. It times each call only for
//! predictors whose capabilities prefer the batched drive, where one
//! call covers a run of records; per-record predictors cost a few
//! nanoseconds per call, less than a clock read, so for them the shim
//! only counts calls and their cost is measured by an isolated replay.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bfbp_sim::ckpt::Restorable;
use bfbp_sim::obs::PredictorIntrospect;
use bfbp_sim::predictor::{ConditionalPredictor, PredictorCaps, Provenance};
use bfbp_sim::registry::PredictorRegistry;
use bfbp_sim::storage::StorageBreakdown;
use bfbp_trace::record::BranchRecord;
use bfbp_trace::source::{TraceChunk, TraceSource};
use bfbp_trace::TraceFormatError;

use crate::spans::{Open, Tracer};

/// Calls into one layer: how many, over how many records, and (when
/// timed) for how long.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Records those calls covered.
    pub records: u64,
    /// Time inside the calls, ns (0 when the calls were not timed).
    pub busy_ns: u64,
}

impl CallStats {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: CallStats) {
        self.calls += other.calls;
        self.records += other.records;
        self.busy_ns += other.busy_ns;
    }
}

/// Per-predictor call totals, keyed by registry name, summed over every
/// shim built through a [`timed_registry`].
pub type Totals = Arc<Mutex<BTreeMap<String, CallStats>>>;

/// Where a shim reports when it is dropped: one span covering its
/// lifetime (build to drop, i.e. one sweep job) and its call totals.
#[derive(Debug)]
struct JobSink {
    tracer: Arc<Tracer>,
    open: Open,
    job: u64,
    key: String,
    totals: Totals,
}

/// A [`ConditionalPredictor`] that forwards to `inner` and measures the
/// calls it forwards.
pub struct TimedPredictor {
    inner: Box<dyn ConditionalPredictor>,
    timed: bool,
    stats: CallStats,
    sink: Option<JobSink>,
}

impl std::fmt::Debug for TimedPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedPredictor")
            .field("inner", &self.inner.name())
            .field("timed", &self.timed)
            .field("stats", &self.stats)
            .finish()
    }
}

impl TimedPredictor {
    /// Wraps `inner`; its batch calls are timed when its capabilities
    /// prefer the batched drive.
    pub fn new(mut inner: Box<dyn ConditionalPredictor>) -> Self {
        let timed = inner.capabilities().batch_preferred;
        Self {
            inner,
            timed,
            stats: CallStats::default(),
            sink: None,
        }
    }

    /// Whether calls are timed (batch-preferred predictors only).
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// The calls forwarded so far.
    pub fn stats(&self) -> CallStats {
        self.stats
    }

    fn count(&mut self, records: usize) {
        self.stats.calls += 1;
        self.stats.records += records as u64;
    }
}

impl Drop for TimedPredictor {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        // Builds that never saw a record (the engine's per-series probe)
        // are not jobs.
        if self.stats.records == 0 {
            return;
        }
        let JobSink {
            tracer,
            open,
            job,
            key,
            totals,
        } = sink;
        tracer.end_with(open, job, self.stats.busy_ns);
        if let Ok(mut totals) = totals.lock() {
            totals.entry(key).or_default().add(self.stats);
        };
    }
}

impl ConditionalPredictor for TimedPredictor {
    fn name(&self) -> Cow<'_, str> {
        self.inner.name()
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.count(1);
        self.inner.predict(pc)
    }

    fn update(&mut self, pc: u64, taken: bool, target: u64) {
        self.inner.update(pc, taken, target);
    }

    fn track_other(&mut self, record: &BranchRecord) {
        self.count(1);
        self.inner.track_other(record);
    }

    fn predict_batch(&mut self, pcs: &[u64], targets: &[u64], takens: &[bool], miss: &mut [bool]) {
        self.count(pcs.len());
        if self.timed {
            let start = Instant::now();
            self.inner.predict_batch(pcs, targets, takens, miss);
            self.stats.busy_ns += start.elapsed().as_nanos() as u64;
        } else {
            self.inner.predict_batch(pcs, targets, takens, miss);
        }
    }

    fn update_batch(&mut self, chunk: &TraceChunk, start: usize, end: usize) {
        self.count(end - start);
        if self.timed {
            let clock = Instant::now();
            self.inner.update_batch(chunk, start, end);
            self.stats.busy_ns += clock.elapsed().as_nanos() as u64;
        } else {
            self.inner.update_batch(chunk, start, end);
        }
    }

    fn storage(&self) -> StorageBreakdown {
        self.inner.storage()
    }

    fn introspection(&self) -> Option<&dyn PredictorIntrospect> {
        self.inner.introspection()
    }

    fn last_provenance(&self) -> Option<Provenance> {
        self.inner.last_provenance()
    }

    fn prefers_batch(&self) -> bool {
        self.inner.prefers_batch()
    }

    fn checkpointing(&mut self) -> Option<&mut dyn Restorable> {
        self.inner.checkpointing()
    }

    fn capabilities(&mut self) -> PredictorCaps {
        self.inner.capabilities()
    }
}

/// A registry with every predictor of `base`, each wrapped in a
/// [`TimedPredictor`] that records a `job` span under `parent` (build to
/// drop) and adds its call totals to `totals` when dropped.
pub fn timed_registry(
    base: Arc<PredictorRegistry>,
    tracer: Arc<Tracer>,
    parent: u64,
    totals: Totals,
) -> PredictorRegistry {
    let jobs = Arc::new(AtomicU64::new(1));
    let mut registry = PredictorRegistry::new();
    let names: Vec<String> = base.names().iter().map(|n| (*n).to_owned()).collect();
    for name in names {
        let defaults = base.defaults(&name).cloned().unwrap_or_default();
        let description = base.describe(&name).unwrap_or_default().to_owned();
        let (base, tracer, totals, jobs) = (
            Arc::clone(&base),
            Arc::clone(&tracer),
            Arc::clone(&totals),
            Arc::clone(&jobs),
        );
        let key = name.clone();
        registry.register(&name, &description, defaults, move |params| {
            let inner = base.build(&key, params)?;
            let mut shim = TimedPredictor::new(inner);
            shim.sink = Some(JobSink {
                open: tracer.begin(parent, "job", "engine"),
                tracer: Arc::clone(&tracer),
                job: jobs.fetch_add(1, Ordering::Relaxed),
                key: key.clone(),
                totals: Arc::clone(&totals),
            });
            Ok(Box::new(shim))
        });
    }
    registry
}

/// A [`TraceSource`] that records one `source.fill` span per chunk.
#[derive(Debug)]
pub struct TimedSource<'a, S: TraceSource + ?Sized> {
    inner: &'a mut S,
    tracer: &'a Tracer,
    parent: u64,
    stats: CallStats,
}

impl<'a, S: TraceSource + ?Sized> TimedSource<'a, S> {
    /// Wraps `inner`; fill spans go under `parent`.
    pub fn new(inner: &'a mut S, tracer: &'a Tracer, parent: u64) -> Self {
        Self {
            inner,
            tracer,
            parent,
            stats: CallStats::default(),
        }
    }

    /// The fills so far.
    pub fn stats(&self) -> CallStats {
        self.stats
    }
}

impl<S: TraceSource + ?Sized> TraceSource for TimedSource<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fill_chunk(
        &mut self,
        chunk: &mut TraceChunk,
        max_records: usize,
    ) -> Result<usize, TraceFormatError> {
        let open = self.tracer.begin(self.parent, "source.fill", "source");
        let start = Instant::now();
        let filled = self.inner.fill_chunk(chunk, max_records);
        self.stats.busy_ns += start.elapsed().as_nanos() as u64;
        self.tracer.end(open);
        let n = filled?;
        self.stats.calls += 1;
        self.stats.records += n as u64;
        Ok(n)
    }
}
