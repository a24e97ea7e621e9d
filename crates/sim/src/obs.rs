//! Structured observability for sweeps and predictors.
//!
//! Three layers, all dependency-free and all strictly *off the results
//! path* — enabling any of them never changes a [`SimResult`] or the
//! `bfbp-sweep/2` document:
//!
//! 1. **Metrics** — a [`Metrics`] registry of counters, gauges, and
//!    fixed-bucket histograms, filled per job by predictors that
//!    implement [`PredictorIntrospect`] (BST occupancy, BF-GHR fill,
//!    weight saturation, TAGE per-table allocations, …);
//! 2. **Attribution** — an [`H2pTable`] accumulating per-static-branch
//!    execution/taken/mispredict counts, surfacing the top-N
//!    hard-to-predict PCs that dominate a trace's MPKI;
//! 3. **Events** — an append-only `bfbp-events/1` JSONL journal
//!    ([`EventJournal`]) of sweep → job → interval spans with monotonic
//!    timestamps, plus a live stderr [`Progress`] line.
//!
//! Every JSON object and event line here is built with [`crate::json`].
//!
//! [`SimResult`]: crate::simulate::SimResult

use std::collections::{BTreeMap, HashMap};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use bfbp_trace::record::BranchKind;

use crate::ckpt::{CodecError, Restorable, StateReader, StateWriter};
use crate::json::{array, json_f64, lines, opt, Object};
use crate::predictor::Provenance;

/// Schema identifier of the span/event journal (one JSON object per line).
pub const EVENTS_SCHEMA: &str = "bfbp-events/1";

/// Schema identifier of the per-sweep metrics document.
pub const METRICS_SCHEMA: &str = "bfbp-metrics/1";

/// Schema identifier of flight-recorder postmortem dumps.
pub const POSTMORTEM_SCHEMA: &str = "bfbp-postmortem/1";

/// How many hard-to-predict PCs the metrics document keeps per job.
pub const H2P_TOP_N: usize = 32;

/// A fixed-bucket histogram: `bounds` are inclusive upper bounds in
/// ascending order, and one extra overflow bucket catches everything
/// beyond the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram over the given bucket bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Records one observation into the first bucket whose bound admits
    /// it (or the overflow bucket).
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; the last is the
    /// overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the bucket holding the target rank, the
    /// standard fixed-bucket estimate. The first bucket's lower edge is
    /// taken as `min(0, bound)`; ranks landing in the unbounded overflow
    /// bucket are reported as the last finite bound. Returns `None` when
    /// nothing has been observed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let below = cumulative as f64;
            cumulative += count;
            if cumulative as f64 >= rank && count > 0 {
                let upper = match self.bounds.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: no upper edge to interpolate
                    // toward; the last finite bound is the best estimate.
                    None => return self.bounds.last().copied(),
                };
                let lower = if i == 0 {
                    upper.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let frac = ((rank - below) / count as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        self.bounds.last().copied()
    }

    fn to_json(&self) -> Object {
        let quantile = |q| opt(self.quantile(q).map(json_f64));
        Object::new()
            .member("bounds", array(self.bounds.iter().map(|b| json_f64(*b))))
            .member("counts", array(&self.counts))
            .member("p50", quantile(0.5))
            .member("p90", quantile(0.9))
            .member("p99", quantile(0.99))
    }
}

/// A deterministic registry of named counters, gauges, and histograms.
///
/// Names are sorted (BTreeMap) so the JSON rendering is byte-stable
/// regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Fraction of `weights` pinned at the `±clamp` training bound — the
/// weight-saturation measure the neural predictors export. Returns 0
/// for an empty slice.
pub fn saturation_fraction(weights: &[i8], clamp: i32) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    let saturated = weights
        .iter()
        .filter(|&&w| i32::from(w).abs() >= clamp)
        .count();
    saturated as f64 / weights.len() as f64
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the named counter to an absolute value.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Sets the named gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records one observation into the named histogram, creating it
    /// over `bounds` on first use.
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The named counter's value, if set.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named gauge's value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let counters: Object = self.counters.iter().collect();
        let gauges: Object = self
            .gauges
            .iter()
            .map(|(name, value)| (name, json_f64(*value)))
            .collect();
        let histograms: Object = self
            .histograms
            .iter()
            .map(|(name, hist)| (name, hist.to_json()))
            .collect();
        Object::new()
            .member("counters", counters)
            .member("gauges", gauges)
            .member("histograms", histograms)
            .to_string()
    }

    /// Renders the registry as aligned human-readable lines (the
    /// `diagnose` view; same data as [`Metrics::to_json`]).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:<40} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("  {name:<40} {value:.4}\n"));
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!("  {name:<40}"));
            for (i, count) in hist.counts().iter().enumerate() {
                let label = hist
                    .bounds()
                    .get(i)
                    .map(|b| format!("<={b}"))
                    .unwrap_or_else(|| "over".to_owned());
                out.push_str(&format!(" {label}:{count}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Implemented by predictors that can export internal state as metrics.
///
/// The sweep engine calls this once per job, *after* the simulation
/// finishes, so implementations are free to do O(state) scans (occupancy
/// counts, weight-saturation fractions) without touching the hot path.
pub trait PredictorIntrospect {
    /// Exports internal counters/gauges/histograms into `metrics`.
    fn introspect(&self, metrics: &mut Metrics);
}

/// Per-static-branch accounting for one simulated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchStats {
    /// The branch's program counter.
    pub pc: u64,
    /// Dynamic executions of the branch.
    pub executed: u64,
    /// Executions resolved taken.
    pub taken: u64,
    /// Executions the predictor got wrong.
    pub mispredicted: u64,
}

impl BranchStats {
    /// Fraction of executions resolved taken.
    pub fn taken_rate(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.taken as f64 / self.executed as f64
    }

    /// Fraction of executions mispredicted.
    pub fn mispredict_rate(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.mispredicted as f64 / self.executed as f64
    }
}

/// A multiplicative hasher for PC keys. `record` runs once per committed
/// conditional branch, where the default SipHash costs several percent of
/// simulation throughput; PCs are word-aligned addresses with little
/// adversarial structure, so one Fibonacci multiply spreads them fine.
#[derive(Debug, Default, Clone, Copy)]
struct PcHasher(u64);

impl std::hash::Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (value ^ (value >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The hard-to-predict (H2P) attribution table: per-PC execution, taken,
/// and misprediction counts, built by observing every conditional branch
/// of a job.
///
/// Internally a `HashMap` for O(1) hot-path updates; every rendered view
/// sorts (mispredictions descending, then PC ascending) so output is
/// deterministic and identical between serial and parallel sweeps.
#[derive(Debug, Clone, Default)]
pub struct H2pTable {
    branches: HashMap<u64, BranchStats, std::hash::BuildHasherDefault<PcHasher>>,
}

impl PartialEq for H2pTable {
    fn eq(&self, other: &Self) -> bool {
        self.branches == other.branches
    }
}

impl H2pTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed conditional branch.
    #[inline]
    pub fn record(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        let stats = self.branches.entry(pc).or_insert(BranchStats {
            pc,
            executed: 0,
            taken: 0,
            mispredicted: 0,
        });
        stats.executed += 1;
        stats.taken += u64::from(taken);
        stats.mispredicted += u64::from(mispredicted);
    }

    /// Distinct static branches observed.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether no branch was observed.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Total mispredictions across all branches.
    pub fn total_mispredicted(&self) -> u64 {
        self.branches.values().map(|b| b.mispredicted).sum()
    }

    /// The `n` worst branches: sorted by mispredictions descending, PC
    /// ascending as the tiebreak; branches that were never mispredicted
    /// are excluded.
    pub fn top(&self, n: usize) -> Vec<BranchStats> {
        let mut rows: Vec<BranchStats> = self
            .branches
            .values()
            .filter(|b| b.mispredicted > 0)
            .copied()
            .collect();
        rows.sort_unstable_by(|a, b| b.mispredicted.cmp(&a.mispredicted).then(a.pc.cmp(&b.pc)));
        rows.truncate(n);
        rows
    }

    /// Renders the top-`n` branches as a JSON array (deterministic).
    pub fn to_json(&self, n: usize) -> String {
        array(self.top(n).iter().map(|b| {
            Object::new()
                .str("pc", &format!("{:#x}", b.pc))
                .member("executed", b.executed)
                .f64("taken_rate", b.taken_rate())
                .member("mispredicts", b.mispredicted)
        }))
    }

    /// Every branch sorted by PC — the canonical order for
    /// serialization, so identical tables always serialize to identical
    /// bytes regardless of `HashMap` iteration order.
    fn sorted_by_pc(&self) -> Vec<BranchStats> {
        let mut rows: Vec<BranchStats> = self.branches.values().copied().collect();
        rows.sort_unstable_by_key(|b| b.pc);
        rows
    }

    /// Renders the top-`n` branches as an aligned human-readable table —
    /// the same rows [`H2pTable::to_json`] emits.
    pub fn render_table(&self, n: usize) -> String {
        let total = self.total_mispredicted().max(1) as f64;
        let mut out =
            String::from("        pc      mispredicts   executed   taken%   mpred%   share%\n");
        for b in self.top(n) {
            out.push_str(&format!(
                "  {:#10x}  {:>11}  {:>9}  {:>6.1}%  {:>6.1}%  {:>6.1}%\n",
                b.pc,
                b.mispredicted,
                b.executed,
                100.0 * b.taken_rate(),
                100.0 * b.mispredict_rate(),
                100.0 * b.mispredicted as f64 / total,
            ));
        }
        out
    }
}

impl Restorable for H2pTable {
    fn save_state(&self, w: &mut StateWriter) {
        let rows = self.sorted_by_pc();
        w.usize(rows.len());
        for b in rows {
            w.u64(b.pc);
            w.u64(b.executed);
            w.u64(b.taken);
            w.u64(b.mispredicted);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let count = r.usize()?;
        if count.saturating_mul(32) > r.remaining() {
            return Err(CodecError::Truncated);
        }
        self.branches.clear();
        for _ in 0..count {
            let stats = BranchStats {
                pc: r.u64()?,
                executed: r.u64()?,
                taken: r.u64()?,
                mispredicted: r.u64()?,
            };
            if stats.taken > stats.executed || stats.mispredicted > stats.executed {
                return Err(CodecError::Malformed("h2p counts exceed executions"));
            }
            self.branches.insert(stats.pc, stats);
        }
        Ok(())
    }
}

/// Everything observability collects for one completed job: the
/// predictor's introspection metrics plus the per-branch H2P table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobObs {
    /// Introspection counters/gauges/histograms.
    pub metrics: Metrics,
    /// Per-static-branch misprediction attribution.
    pub h2p: H2pTable,
}

/// Renders one job's observability record as a JSON object — the shared
/// source for both the sweep metrics document and the `diagnose` bin.
pub fn job_obs_json(series: &str, trace: &str, obs: Option<&JobObs>, top: usize) -> String {
    Object::new()
        .str("series", series)
        .str("trace", trace)
        .member("metrics", opt(obs.map(|obs| obs.metrics.to_json())))
        .member("h2p", opt(obs.map(|obs| obs.h2p.to_json(top))))
        .to_string()
}

/// One recorded decision in the [`FlightRecorder`] ring: the per-record
/// forensic unit a postmortem dump is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEntry {
    /// Zero-based index of the record within the job's trace.
    pub index: u64,
    /// The branch's program counter.
    pub pc: u64,
    /// The record's control-transfer kind.
    pub kind: BranchKind,
    /// The direction the predictor guessed. For non-conditional records
    /// (which are never predicted) this mirrors `outcome`.
    pub predicted: bool,
    /// The committed direction.
    pub outcome: bool,
    /// Attribution for the prediction, when the predictor exports one
    /// (conditional records only).
    pub provenance: Option<Provenance>,
}

impl FlightEntry {
    /// Whether the predictor got this record wrong. Always `false` for
    /// non-conditional records.
    pub fn mispredicted(&self) -> bool {
        self.kind.is_conditional() && self.predicted != self.outcome
    }

    fn to_json(self) -> Object {
        let provenance = self.provenance.map(|p| {
            Object::new()
                .str("component", p.component)
                .member("table", opt(p.table))
                .member("prediction", p.prediction)
                .member("alternate", opt(p.alternate))
                .member("counter", opt(p.counter))
                .member("margin", opt(p.margin))
                .member("history_len", opt(p.history_len))
        });
        Object::new()
            .member("i", self.index)
            .str("pc", &format!("{:#x}", self.pc))
            .str("kind", &self.kind.to_string())
            .member("predicted", self.predicted)
            .member("taken", self.outcome)
            .member("mispredicted", self.mispredicted())
            .member("provenance", opt(provenance))
    }
}

/// A fixed-capacity ring buffer of the last N prediction decisions — the
/// black box a postmortem dump reads after a job dies.
///
/// Strictly off the results path: recording is O(1) per record with zero
/// steady-state allocation (the ring is allocated once, up front), never
/// feeds anything back into the predictor, and a recorder-on run
/// produces byte-identical `bfbp-sweep/2`/`bfbp-metrics/1` documents to
/// a recorder-off run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    entries: Vec<FlightEntry>,
    capacity: usize,
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` decisions
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries the ring currently holds (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total decisions ever recorded, including those the ring has since
    /// evicted.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Records one decision, evicting the oldest entry once the ring is
    /// full. O(1), allocation-free after the ring fills.
    #[inline]
    pub fn record(&mut self, entry: FlightEntry) {
        self.total += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.entries[self.head] = entry;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// Forgets everything recorded so far (the allocation is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.total = 0;
    }

    /// The retained entries in chronological order, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        if self.entries.len() < self.capacity {
            self.entries.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.entries[self.head..]);
            out.extend_from_slice(&self.entries[..self.head]);
            out
        }
    }

    /// The most recent entry, if any.
    pub fn last(&self) -> Option<FlightEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let i = if self.head == 0 {
            self.entries.len() - 1
        } else {
            self.head - 1
        };
        Some(self.entries[i])
    }
}

/// Renders one `bfbp-postmortem/1` document: job identity, how it died,
/// and the flight recorder's retained window, oldest entry first.
pub fn postmortem_json(
    recorder: &FlightRecorder,
    series: &str,
    trace: &str,
    job: usize,
    status: &str,
    detail: &str,
) -> String {
    let entries = recorder.entries();
    let entries = if entries.is_empty() {
        "[]".to_owned()
    } else {
        format!(
            "[\n{}  ]",
            lines(entries.iter().map(|e| e.to_json()), "    ")
        )
    };
    let doc = Object::lines("  ")
        .str("schema", POSTMORTEM_SCHEMA)
        .member("job", job)
        .str("series", series)
        .str("trace", trace)
        .str("status", status)
        .str("detail", detail)
        .member("recorded", recorder.total_recorded())
        .member("capacity", recorder.capacity())
        .member("entries", entries);
    format!("{doc}\n")
}

/// One event line under construction for the [`EventJournal`].
///
/// Fields are rendered in insertion order after the journal-stamped
/// `ev` and `t_us` keys.
#[derive(Debug)]
pub struct Event {
    ev: &'static str,
    fields: Object,
}

impl Event {
    /// Starts an event of the given kind (`sweep_open`, `job_close`, …).
    pub fn new(ev: &'static str) -> Self {
        Self {
            ev,
            fields: Object::new(),
        }
    }

    /// Appends an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.fields = self.fields.member(key, value);
        self
    }

    /// Appends a float field.
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.fields = self.fields.f64(key, value);
        self
    }

    /// Appends a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields = self.fields.str(key, value);
        self
    }

    fn render(&self, t_us: u64) -> String {
        let line = Object::new()
            .str("ev", self.ev)
            .member("t_us", t_us)
            .append(&self.fields);
        format!("{line}\n")
    }
}

#[derive(Debug)]
struct EventSink {
    file: std::fs::File,
    last_us: u64,
    warned: bool,
}

/// The `bfbp-events/1` span/event journal: one JSON object per line,
/// stamped with microseconds since the journal was opened. Timestamps
/// are monotonic non-decreasing in file order (writers serialize on an
/// internal lock), and every write is flushed so a crashed run leaves a
/// readable prefix.
#[derive(Debug)]
pub struct EventJournal {
    start: Instant,
    sink: Mutex<EventSink>,
}

impl EventJournal {
    /// Creates (truncating) the journal at `path` and writes the
    /// `journal_open` header event carrying the schema.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_options(path.as_ref(), true)
    }

    /// Opens the journal at `path` for appending, creating it (with the
    /// header event) only when missing or empty — so several sweeps of a
    /// campaign can share one journal.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_options(path.as_ref(), false)
    }

    fn with_options(path: &Path, truncate: bool) -> std::io::Result<Self> {
        // Same courtesy as the results and postmortem writers: a journal
        // pointed into a not-yet-created directory creates it.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(truncate)
            .append(!truncate)
            .open(path)?;
        let empty = file.metadata()?.len() == 0;
        let journal = Self {
            start: Instant::now(),
            sink: Mutex::new(EventSink {
                file,
                last_us: 0,
                warned: false,
            }),
        };
        if empty {
            journal.emit(Event::new("journal_open").str("schema", EVENTS_SCHEMA));
        }
        Ok(journal)
    }

    /// Stamps and appends one event. Write failures degrade to a single
    /// stderr warning — observability must never fail the run.
    pub fn emit(&self, event: Event) {
        let elapsed = self.start.elapsed().as_micros() as u64;
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        let t_us = elapsed.max(sink.last_us);
        sink.last_us = t_us;
        let line = event.render(t_us);
        let failed = sink
            .file
            .write_all(line.as_bytes())
            .and_then(|()| sink.file.flush())
            .is_err();
        if failed && !sink.warned {
            sink.warned = true;
            eprintln!("warning: event journal write failed; further events may be lost");
        }
    }
}

#[derive(Debug)]
struct ProgressState {
    done: usize,
    failed: usize,
    records: u64,
    busy_secs: f64,
}

/// A live single-line stderr progress report for sweeps: jobs done and
/// failed, aggregate simulation throughput, and an ETA derived from
/// completed-job wall times, rewritten in place with `\r`.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    start: Instant,
    state: Mutex<ProgressState>,
}

impl Progress {
    /// Creates a tracker for `total` pending jobs.
    pub fn new(total: usize) -> Self {
        Self {
            total,
            start: Instant::now(),
            state: Mutex::new(ProgressState {
                done: 0,
                failed: 0,
                records: 0,
                busy_secs: 0.0,
            }),
        }
    }

    /// Records one finished job (`ok == false` counts toward the failed
    /// tally; `records` and `wall_secs` are the job's trace length and
    /// wall time) and redraws the line.
    ///
    /// The ETA scales the mean completed-job wall time by the remaining
    /// job count, divided by the effective parallelism observed so far
    /// (summed job time over elapsed time) — so it stays honest whether
    /// the sweep runs serial or wide.
    pub fn tick(&self, ok: bool, records: u64, wall_secs: f64) {
        let (done, failed, records_total, busy) = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.done += 1;
            state.failed += usize::from(!ok);
            state.records += records;
            state.busy_secs += wall_secs.max(0.0);
            (state.done, state.failed, state.records, state.busy_secs)
        };
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            records_total as f64 / elapsed
        } else {
            0.0
        };
        let eta = if done > 0 {
            let remaining = self.total.saturating_sub(done) as f64;
            let mean_wall = busy / done as f64;
            let parallelism = if elapsed > 0.0 {
                (busy / elapsed).max(1.0)
            } else {
                1.0
            };
            remaining * mean_wall / parallelism
        } else {
            f64::NAN
        };
        eprint!(
            "\r[sweep] {done}/{} jobs done ({failed} failed), {:.3}M rec/s, ETA {eta:.0}s        ",
            self.total,
            rate / 1e6
        );
    }

    /// Terminates the progress line with a newline.
    pub fn finish(&self) {
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 4.0, 16.0]);
        for v in [0.5, 1.0, 3.0, 16.0, 17.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn metrics_json_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.incr("z.count", 2);
        m.incr("a.count", 1);
        m.incr("a.count", 1);
        m.gauge("mid.gauge", 0.5);
        m.observe("h", &[1.0], 0.5);
        let json = m.to_json();
        assert!(json.find("\"a.count\": 2").unwrap() < json.find("\"z.count\": 2").unwrap());
        assert!(json.contains("\"mid.gauge\": 0.5"));
        assert!(json.contains("\"bounds\": [1.0], \"counts\": [1, 0]"));
        assert_eq!(m.counter_value("a.count"), Some(2));
        assert_eq!(m.gauge_value("mid.gauge"), Some(0.5));
        assert!(!m.is_empty());
        assert!(!m.render_human().is_empty());
    }

    #[test]
    fn h2p_orders_by_mispredicts_then_pc() {
        let mut t = H2pTable::new();
        for _ in 0..3 {
            t.record(0x20, true, true);
        }
        for _ in 0..3 {
            t.record(0x10, false, true);
        }
        t.record(0x30, true, true);
        t.record(0x40, true, false); // never mispredicted: excluded
        let top = t.top(10);
        assert_eq!(
            top.iter().map(|b| b.pc).collect::<Vec<_>>(),
            vec![0x10, 0x20, 0x30]
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_mispredicted(), 7);
        assert!((top[0].taken_rate() - 0.0).abs() < 1e-12);
        assert!((top[1].taken_rate() - 1.0).abs() < 1e-12);
        let json = t.to_json(2);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"pc\": \"0x10\""));
        assert!(!json.contains("\"pc\": \"0x30\""), "{json}");
        assert!(t.render_table(3).contains("0x10"));
    }

    #[test]
    fn event_journal_stamps_monotonic_lines() {
        let path =
            std::env::temp_dir().join(format!("bfbp-obs-test-{}.events", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = EventJournal::create(&path).unwrap();
        journal.emit(Event::new("job_open").num("job", 0).str("trace", "T1"));
        journal.emit(
            Event::new("job_close")
                .num("job", 0)
                .str("status", "ok")
                .float("mpki", 2.5),
        );
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(EVENTS_SCHEMA));
        assert!(lines[1].contains("\"ev\": \"job_open\""));
        assert!(lines[2].contains("\"status\": \"ok\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        // Re-open appends without a second header.
        let journal = EventJournal::open(&path).unwrap();
        journal.emit(Event::new("sweep_close"));
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("journal_open").count(), 1);
        assert_eq!(text.lines().count(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn h2p_table_round_trips_through_state_codec() {
        let mut t = H2pTable::new();
        for i in 0..50u64 {
            t.record(0x1000 + 8 * (i % 7), i % 3 == 0, i % 5 == 0);
        }
        let mut w = StateWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        // Identical state serializes to identical bytes (sorted order).
        let mut w2 = StateWriter::new();
        t.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        let mut back = H2pTable::new();
        back.record(0xDEAD, true, true); // pre-existing junk is replaced
        let mut r = StateReader::new(&bytes);
        back.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_json(H2P_TOP_N), t.to_json(H2P_TOP_N));
        // Truncation and impossible counts are rejected.
        let mut trunc = H2pTable::new();
        assert!(trunc
            .load_state(&mut StateReader::new(&bytes[..bytes.len() - 3]))
            .is_err());
        let mut w = StateWriter::new();
        w.usize(1);
        w.u64(0x40);
        w.u64(1); // executed
        w.u64(2); // taken > executed: impossible
        w.u64(0);
        let bad = w.into_bytes();
        assert!(trunc.load_state(&mut StateReader::new(&bad)).is_err());
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(&[10.0, 20.0, 40.0]);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..10 {
            h.observe(5.0); // bucket <=10
        }
        for _ in 0..10 {
            h.observe(15.0); // bucket <=20
        }
        // p50 rank = 10 of 20: exactly the top of the first bucket.
        assert!((h.quantile(0.5).unwrap() - 10.0).abs() < 1e-9);
        // p75 rank = 15: halfway through the 10..20 bucket.
        assert!((h.quantile(0.75).unwrap() - 15.0).abs() < 1e-9);
        assert!((h.quantile(0.0).unwrap() - 0.0).abs() < 1e-9);
        assert!((h.quantile(1.0).unwrap() - 20.0).abs() < 1e-9);
        // Overflow-bucket ranks clamp to the last finite bound.
        let mut over = Histogram::new(&[1.0]);
        over.observe(99.0);
        assert!((over.quantile(0.5).unwrap() - 1.0).abs() < 1e-9);
        let json = h.to_json().to_string();
        assert!(json.contains("\"p50\": 10.0"), "{json}");
        assert!(json.contains("\"p90\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        // Empty histograms render null quantiles, never invalid JSON.
        let empty = Histogram::new(&[1.0]);
        assert!(empty.to_json().to_string().contains("\"p50\": null"));
    }

    #[test]
    fn non_finite_gauges_render_null() {
        let mut m = Metrics::new();
        m.gauge("gauge.a", f64::NAN);
        m.gauge("gauge.b", f64::INFINITY);
        m.gauge("gauge.c", f64::NEG_INFINITY);
        m.gauge("good", 1.5);
        let json = m.to_json();
        assert!(json.contains("\"gauge.a\": null"), "{json}");
        assert!(json.contains("\"gauge.b\": null"), "{json}");
        assert!(json.contains("\"gauge.c\": null"), "{json}");
        assert!(json.contains("\"good\": 1.5"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn flight_recorder_keeps_last_n_in_order() {
        let mut rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        assert_eq!(rec.last(), None);
        for i in 0..10u64 {
            rec.record(FlightEntry {
                index: i,
                pc: 0x1000 + i,
                kind: BranchKind::CondDirect,
                predicted: i % 2 == 0,
                outcome: true,
                provenance: Some(Provenance::of("unit", i % 2 == 0)),
            });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.total_recorded(), 10);
        let idx: Vec<u64> = rec.entries().iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![6, 7, 8, 9]);
        assert_eq!(rec.last().unwrap().index, 9);
        assert!(rec.last().unwrap().mispredicted()); // predicted false, taken
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.total_recorded(), 0);
        // Capacity 0 is clamped, not a panic.
        let mut one = FlightRecorder::new(0);
        one.record(FlightEntry {
            index: 0,
            pc: 0,
            kind: BranchKind::Return,
            predicted: true,
            outcome: true,
            provenance: None,
        });
        assert_eq!(one.len(), 1);
        assert!(!one.last().unwrap().mispredicted()); // non-conditional
    }

    #[test]
    fn postmortem_json_shape() {
        let mut rec = FlightRecorder::new(8);
        rec.record(FlightEntry {
            index: 41,
            pc: 0x4000,
            kind: BranchKind::CondDirect,
            predicted: true,
            outcome: false,
            provenance: Some(Provenance {
                component: "tage",
                table: Some(3),
                prediction: true,
                alternate: Some(false),
                counter: Some(-2),
                margin: None,
                history_len: Some(27),
            }),
        });
        let json = postmortem_json(&rec, "bf-tage", "SERV1", 7, "killed", "kill@7=4096");
        assert!(json.contains("\"schema\": \"bfbp-postmortem/1\""), "{json}");
        assert!(json.contains("\"job\": 7"), "{json}");
        assert!(json.contains("\"status\": \"killed\""), "{json}");
        assert!(json.contains("\"pc\": \"0x4000\""), "{json}");
        assert!(json.contains("\"component\": \"tage\""), "{json}");
        assert!(json.contains("\"table\": 3"), "{json}");
        assert!(json.contains("\"counter\": -2"), "{json}");
        assert!(json.contains("\"margin\": null"), "{json}");
        assert!(json.contains("\"mispredicted\": true"), "{json}");
        // Empty recorder still renders a valid document.
        let empty = postmortem_json(&FlightRecorder::new(2), "s", "t", 0, "failed", "boom");
        assert!(empty.contains("\"entries\": []"), "{empty}");
    }

    #[test]
    fn job_obs_json_renders_null_when_absent() {
        let json = job_obs_json("s", "t", None, 8);
        assert!(json.contains("\"metrics\": null"));
        let obs = JobObs::default();
        let json = job_obs_json("s", "t", Some(&obs), 8);
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"h2p\": []"));
    }
}
