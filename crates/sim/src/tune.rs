//! Budget-constrained design-space autotuning: successive-halving
//! search over a predictor's registry parameters with Pareto frontier
//! reporting.
//!
//! The paper's evaluation is a design-space exploration at fixed
//! hardware budgets — every comparison is "best achievable MPKI at N
//! kilobits". This module automates that exploration:
//!
//! 1. A [`SearchSpace`] declares per-parameter ranges or choices over a
//!    registered predictor's typed [`Params`]; candidates come from
//!    exhaustive grid enumeration or deterministic seeded sampling.
//! 2. Infeasible points are rejected up-front: a candidate whose
//!    [`StorageBreakdown::total_bits`] exceeds the budget never costs a
//!    single simulated record.
//! 3. A successive-halving scheduler evaluates the survivors over rungs
//!    of increasing trace-record counts (each rung divides the full
//!    length by `eta^(rungs-1-rung)`), keeping the best `1/eta` of the
//!    field per rung. Every rung is lowered as one batch of jobs onto
//!    [`engine::sweep_inputs`], so retries, timeouts, checkpointing,
//!    and the `bfbp-events/1` journal all apply unchanged. Traces come
//!    from [`TuneOptions::cache`].
//! 4. With [`TuneOptions::state`] set, each rung's sweep journal is the
//!    only resume record: a killed run resumed with
//!    [`TuneOptions::resume`] restores every finished job from them, and
//!    the engine refuses a journal of other work by its matrix id.
//! 5. The result is a deterministic `bfbp-frontier/1` JSON report: the
//!    Pareto-optimal configurations of MPKI vs. total storage bits,
//!    each with its component breakdown and per-rung provenance. The
//!    report is byte-identical across thread counts and across
//!    kill+resume vs. uninterrupted runs.
//!
//! ```
//! use bfbp_sim::registry::PredictorRegistry;
//! use bfbp_sim::tune::{tune, SearchSpace, TuneOptions};
//! use bfbp_trace::synth::suite;
//!
//! let registry = PredictorRegistry::with_builtins();
//! let space = SearchSpace::parse("static-taken").unwrap();
//! let traces = vec![suite::find("SPEC03").unwrap()];
//! let mut options = TuneOptions::default();
//! options.rungs = 1;
//! options.scale = 0.01;
//! let report = tune(&registry, &space, 1_000_000, &traces, &options).unwrap();
//! assert_eq!(report.frontier().len(), 1);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use bfbp_trace::cache::TraceCache;
use bfbp_trace::rng::Xoshiro256;
use bfbp_trace::synth::suite::TraceSpec;

use crate::ckpt::write_atomic;
use crate::engine::{self, SweepError, SweepOptions, TraceInput};
use crate::json::{array, json_f64, json_string, lines, Object};
use crate::obs::{Event, EventJournal};
use crate::registry::{ParamValue, Params, PredictorRegistry, PredictorSpec};
use crate::runner::scaled_len;
use crate::simulate::SimResult;
use crate::storage::StorageBreakdown;
use crate::JobStatus;

/// Schema identifier of the Pareto frontier report.
pub const FRONTIER_SCHEMA: &str = "bfbp-frontier/1";
/// Minimum records per trace at any rung — mirrors the floor the suite
/// runner applies to scaled trace lengths, below which MPKI is noise.
pub const MIN_RUNG_RECORDS: usize = 1000;
/// Largest grid [`SearchSpace::validate`] accepts. [`tune`] prices every
/// point before the first rung, so an unbounded space would exhaust
/// memory before any work starts; the paper's sweeps need a few dozen.
pub const MAX_CANDIDATES: u64 = 1 << 16;

/// One axis of a [`SearchSpace`]: an inclusive integer range with a
/// step, or an explicit list of typed values.
#[derive(Debug, Clone, PartialEq)]
pub enum Dimension {
    /// Inclusive integer range `lo..=hi` walked in `step` increments.
    Range {
        /// First value.
        lo: i64,
        /// Last admissible value (inclusive).
        hi: i64,
        /// Positive increment between values.
        step: i64,
    },
    /// Explicit alternatives, each parsed with [`ParamValue::parse`]
    /// semantics (bool, then int, then string).
    Choices(Vec<ParamValue>),
}

impl Dimension {
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Dimension::Range { lo, hi, step } => {
                if lo > hi {
                    0
                } else {
                    // `abs_diff` cannot overflow where `hi - lo` would.
                    usize::try_from(hi.abs_diff(*lo) / step.unsigned_abs())
                        .map_or(usize::MAX, |n| n.saturating_add(1))
                }
            }
            Dimension::Choices(values) => values.len(),
        }
    }

    /// Whether the axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value on the axis (declaration order).
    pub fn value(&self, i: usize) -> ParamValue {
        match self {
            Dimension::Range { lo, step, .. } => ParamValue::Int(lo + *step * i as i64),
            Dimension::Choices(values) => values[i].clone(),
        }
    }

    /// Canonical text rendering, `lo..hi` / `lo..hi/step` / `a|b|c`.
    fn render(&self) -> String {
        match self {
            Dimension::Range { lo, hi, step } if *step == 1 => format!("{lo}..{hi}"),
            Dimension::Range { lo, hi, step } => format!("{lo}..{hi}/{step}"),
            Dimension::Choices(values) => values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|"),
        }
    }
}

/// A declared search space: a registered predictor name plus one
/// [`Dimension`] per parameter key. Keys are held in sorted order, so
/// enumeration, sampling, and the rendered grammar are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    predictor: String,
    dims: BTreeMap<String, Dimension>,
}

impl SearchSpace {
    /// A space over `predictor` with no axes yet (a single candidate:
    /// the registry defaults).
    pub fn new(predictor: &str) -> Self {
        Self {
            predictor: predictor.to_owned(),
            dims: BTreeMap::new(),
        }
    }

    /// Builder-style inclusive integer range axis (step 1).
    pub fn range(self, key: &str, lo: i64, hi: i64) -> Self {
        self.range_step(key, lo, hi, 1)
    }

    /// Builder-style inclusive integer range axis with a step.
    pub fn range_step(mut self, key: &str, lo: i64, hi: i64, step: i64) -> Self {
        self.dims
            .insert(key.to_owned(), Dimension::Range { lo, hi, step });
        self
    }

    /// Builder-style explicit-choices axis.
    pub fn choices(mut self, key: &str, values: Vec<ParamValue>) -> Self {
        self.dims.insert(key.to_owned(), Dimension::Choices(values));
        self
    }

    /// Parses the `--space` grammar:
    /// `name[:key=lo..hi[/step],key=a|b|c,key=value,...]`.
    ///
    /// A range is two integers joined by `..` (inclusive) with an
    /// optional `/step`; `|` separates explicit alternatives; a bare
    /// value is a single-choice axis. Values use the same typing rules
    /// as predictor specs (bool, int, float, string in that order).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Space`] on an empty name, a malformed pair,
    /// a non-integer, descending or wider-than-`i64` range, or a
    /// non-positive step.
    pub fn parse(text: &str) -> Result<Self, TuneError> {
        let (name, params_text) = match text.split_once(':') {
            Some((h, p)) => (h, Some(p)),
            None => (text, None),
        };
        if name.is_empty() {
            return Err(TuneError::space(format!(
                "empty predictor name in {text:?}"
            )));
        }
        let mut space = SearchSpace::new(name);
        for pair in params_text
            .unwrap_or("")
            .split(',')
            .filter(|p| !p.is_empty())
        {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(TuneError::space(format!(
                    "axis {pair:?} is not key=range-or-choices"
                )));
            };
            space.dims.insert(key.to_owned(), parse_dimension(value)?);
        }
        Ok(space)
    }

    /// The canonical rendering of the space — parseable back with
    /// [`SearchSpace::parse`], and the frontier report's `space`.
    pub fn render(&self) -> String {
        if self.dims.is_empty() {
            return self.predictor.clone();
        }
        let axes = self
            .dims
            .iter()
            .map(|(k, d)| format!("{k}={}", d.render()))
            .collect::<Vec<_>>()
            .join(",");
        format!("{}:{axes}", self.predictor)
    }

    /// The predictor name the space is declared over.
    pub fn predictor(&self) -> &str {
        &self.predictor
    }

    /// The axes in key order.
    pub fn dims(&self) -> impl Iterator<Item = (&str, &Dimension)> {
        self.dims.iter().map(|(k, d)| (k.as_str(), d))
    }

    /// Total number of points in the grid (product of axis lengths).
    pub fn cardinality(&self) -> u64 {
        self.dims
            .values()
            .map(|d| d.len() as u64)
            .fold(1u64, u64::saturating_mul)
    }

    /// Validates the space against the registry: the predictor must be
    /// registered, every axis key must be one of its declared
    /// parameters, and the grid may hold at most [`MAX_CANDIDATES`]
    /// points. Surfaces the registry's typed errors (which name the
    /// accepted keys) as [`TuneError::Space`].
    pub fn validate(&self, registry: &PredictorRegistry) -> Result<(), TuneError> {
        let defaults = registry.defaults(&self.predictor).ok_or_else(|| {
            TuneError::space(format!(
                "unknown predictor {:?}; registered: {}",
                self.predictor,
                registry.names().join(", ")
            ))
        })?;
        for (key, dim) in &self.dims {
            if dim.is_empty() {
                return Err(TuneError::space(format!("axis {key:?} is empty")));
            }
            let mut probe = Params::new();
            probe.insert(key, dim.value(0));
            defaults
                .merged_with(&probe)
                .map_err(|e| TuneError::space(e.to_string()))?;
        }
        if self.cardinality() > MAX_CANDIDATES {
            return Err(TuneError::space(format!(
                "{} points exceed the limit of {MAX_CANDIDATES}",
                self.cardinality()
            )));
        }
        Ok(())
    }

    /// Exhaustive grid enumeration, in sorted-key row-major order
    /// (last key varies fastest). Each returned [`Params`] holds only
    /// the overrides; registry defaults fill the rest at build time.
    pub fn grid(&self) -> Vec<Params> {
        let keys: Vec<&String> = self.dims.keys().collect();
        let sizes: Vec<usize> = self.dims.values().map(Dimension::len).collect();
        if sizes.contains(&0) {
            return Vec::new();
        }
        let total = self.cardinality() as usize;
        let mut out = Vec::with_capacity(total);
        let mut index = vec![0usize; keys.len()];
        for _ in 0..total {
            let mut params = Params::new();
            for (d, key) in keys.iter().enumerate() {
                params.insert(key, self.dims[*key].value(index[d]));
            }
            out.push(params);
            for d in (0..index.len()).rev() {
                index[d] += 1;
                if index[d] < sizes[d] {
                    break;
                }
                index[d] = 0;
            }
        }
        out
    }

    /// Deterministic seeded sampling of up to `n` distinct points.
    /// Falls back to the full grid when `n` covers it. The same seed
    /// always yields the same candidates in the same order, which is
    /// what makes the rung journals resumable without storing them.
    pub fn sample(&self, seed: u64, n: usize) -> Vec<Params> {
        if n == 0 || n as u64 >= self.cardinality() {
            return self.grid();
        }
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        // Each draw picks one value per axis; duplicates are skipped.
        // The attempt budget guards against tiny spaces where n is
        // close to the cardinality and rejection sampling stalls.
        let mut attempts = 0usize;
        while out.len() < n && attempts < n.saturating_mul(64) + 64 {
            attempts += 1;
            let mut params = Params::new();
            for (key, dim) in &self.dims {
                let i = rng.below(dim.len() as u64) as usize;
                params.insert(key, dim.value(i));
            }
            if seen.insert(params.summary()) {
                out.push(params);
            }
        }
        out
    }
}

fn parse_dimension(text: &str) -> Result<Dimension, TuneError> {
    if let Some((range, step)) = split_range(text) {
        let (lo_text, hi_text) = range;
        let lo: i64 = lo_text
            .parse()
            .map_err(|_| TuneError::space(format!("range start {lo_text:?} is not an integer")))?;
        let hi: i64 = hi_text
            .parse()
            .map_err(|_| TuneError::space(format!("range end {hi_text:?} is not an integer")))?;
        let step: i64 = match step {
            Some(s) => s
                .parse()
                .map_err(|_| TuneError::space(format!("range step {s:?} is not an integer")))?,
            None => 1,
        };
        if step <= 0 {
            return Err(TuneError::space(format!("range step {step} must be > 0")));
        }
        if lo > hi {
            return Err(TuneError::space(format!("range {lo}..{hi} is descending")));
        }
        if hi.checked_sub(lo).is_none() {
            return Err(TuneError::space(format!(
                "range {lo}..{hi} is wider than an i64"
            )));
        }
        return Ok(Dimension::Range { lo, hi, step });
    }
    let values: Vec<ParamValue> = text
        .split('|')
        .filter(|v| !v.is_empty())
        .map(ParamValue::parse)
        .collect();
    if values.is_empty() {
        return Err(TuneError::space(format!("axis value {text:?} is empty")));
    }
    Ok(Dimension::Choices(values))
}

/// Splits `lo..hi` or `lo..hi/step` into its parts; `None` when `text`
/// is not a range.
fn split_range(text: &str) -> Option<((&str, &str), Option<&str>)> {
    let (lo, rest) = text.split_once("..")?;
    match rest.split_once('/') {
        Some((hi, step)) => Some(((lo, hi), Some(step))),
        None => Some(((lo, rest), None)),
    }
}

/// Why a tuning run could not start or finish.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The search space is malformed or does not validate against the
    /// registry (the message names the accepted parameter keys).
    Space {
        /// Human-readable reason.
        reason: String,
    },
    /// No candidate fits the storage budget (or every one failed to
    /// build); nothing to search.
    NoFeasible {
        /// Points declared by the space (after sampling).
        declared: usize,
        /// Points rejected because `total_bits` exceeds the budget.
        over_budget: usize,
        /// Points whose predictor failed to build.
        rejected: usize,
    },
    /// A rung's sweep failed to start, or its journal is another run's.
    Sweep(SweepError),
    /// Resume was requested without a [`TuneOptions::state`] path.
    State {
        /// Human-readable reason.
        reason: String,
    },
}

impl TuneError {
    fn space(reason: impl Into<String>) -> Self {
        TuneError::Space {
            reason: reason.into(),
        }
    }

    fn state(reason: impl Into<String>) -> Self {
        TuneError::State {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Space { reason } => write!(f, "invalid search space: {reason}"),
            TuneError::NoFeasible {
                declared,
                over_budget,
                rejected,
            } => write!(
                f,
                "no feasible candidate: {declared} declared, {over_budget} over budget, \
                 {rejected} failed to build"
            ),
            TuneError::Sweep(e) => write!(f, "rung sweep failed: {e}"),
            TuneError::State { reason } => write!(f, "tuner state: {reason}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<SweepError> for TuneError {
    fn from(e: SweepError) -> Self {
        TuneError::Sweep(e)
    }
}

/// Tuning-run knobs beyond the space and budget.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Keep the best `1/eta` of the field per rung (>= 2).
    pub eta: usize,
    /// Number of successive-halving rungs (>= 1). Rung `r` of `R`
    /// evaluates `full_len / eta^(R-1-r)` records per trace, so the
    /// final rung always runs the full scaled length.
    pub rungs: usize,
    /// Seeded-sample at most this many candidates; `0` enumerates the
    /// full grid.
    pub samples: usize,
    /// Seed for [`SearchSpace::sample`].
    pub seed: u64,
    /// Trace-length scale factor (1.0 = the suite's default lengths).
    pub scale: f64,
    /// Names the rung journals ([`rung_journal`]); `None` disables
    /// journaling (and resume). A fresh run removes every journal of its
    /// schedule before rung 0.
    pub state: Option<PathBuf>,
    /// Re-enter an interrupted run: each rung whose journal exists
    /// restores its finished jobs from it and simulates only the rest.
    /// The engine refuses a journal whose matrix (candidates and trace
    /// lengths) differs from the rung's.
    pub resume: bool,
    /// Engine options every rung's sweep inherits (threads, retries,
    /// timeouts, events journal, ...). The `journal` / `resume_from`
    /// fields here are overridden per rung by the rung journals of
    /// [`TuneOptions::state`], and `metrics` is off per rung: the tuner
    /// writes no metrics document.
    pub sweep: SweepOptions,
    /// Where every rung's truncated traces are served from; the default
    /// generates them without disk I/O.
    pub cache: TraceCache,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            eta: 2,
            rungs: 3,
            samples: 0,
            seed: 0xB1A5_F7EE,
            scale: 1.0,
            state: None,
            resume: false,
            sweep: SweepOptions::default(),
            cache: TraceCache::disabled(),
        }
    }
}

/// One feasible candidate configuration: its stable index in the
/// declared candidate order, its parameter overrides, and its storage.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index in declaration order — stable across runs and resumes, and
    /// the basis of the `c<index>` series labels.
    pub index: usize,
    /// Parameter overrides (registry defaults fill the rest).
    pub params: Params,
    /// Full component breakdown at build time.
    pub storage: StorageBreakdown,
}

impl Candidate {
    /// The deterministic series label used in sweeps and reports.
    pub fn label(&self) -> String {
        format!("c{}", self.index)
    }

    /// Total storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.storage.total_bits()
    }
}

/// The outcome of one rung: every surviving candidate's mean MPKI at
/// that rung's record count.
#[derive(Debug, Clone)]
pub struct RungOutcome {
    /// Rung index, `0..rungs`.
    pub rung: usize,
    /// The divisor applied to each trace's full scaled length.
    pub divisor: u64,
    /// `(candidate index, mean MPKI)` for every candidate evaluated at
    /// this rung, in candidate order. Failed candidates score
    /// `f64::INFINITY` and never survive.
    pub scores: Vec<(usize, f64)>,
    /// Whether every job of the rung was restored from its journal
    /// instead of simulated.
    pub restored: bool,
}

/// One Pareto-optimal configuration in the frontier report.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Candidate index (provenance into the declared candidate order).
    pub candidate: usize,
    /// Parameter overrides of the winning configuration.
    pub params: Params,
    /// Mean MPKI over the suite at the final (full-length) rung.
    pub mean_mpki: f64,
    /// Total storage in bits.
    pub total_bits: u64,
    /// Component breakdown.
    pub storage: StorageBreakdown,
    /// Mean MPKI at every rung the candidate was evaluated at, in rung
    /// order — the provenance trail of the winning configuration.
    pub mpki_by_rung: Vec<f64>,
}

/// Everything a finished tuning run knows, plus the deterministic
/// `bfbp-frontier/1` renderer.
#[derive(Debug)]
pub struct TuneReport {
    space_text: String,
    predictor: String,
    budget_bits: u64,
    eta: usize,
    rungs: usize,
    samples: usize,
    seed: u64,
    trace_names: Vec<String>,
    declared: usize,
    over_budget: usize,
    rejected: usize,
    candidates: Vec<Candidate>,
    outcomes: Vec<RungOutcome>,
    frontier: Vec<FrontierPoint>,
    simulated_records: u64,
    wall: std::time::Duration,
}

impl TuneReport {
    /// The Pareto-optimal configurations, cheapest first.
    pub fn frontier(&self) -> &[FrontierPoint] {
        &self.frontier
    }

    /// Every feasible candidate that entered rung 0.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Per-rung outcomes in rung order.
    pub fn outcomes(&self) -> &[RungOutcome] {
        &self.outcomes
    }

    /// Points declared by the space (after sampling), including the
    /// infeasible ones.
    pub fn declared(&self) -> usize {
        self.declared
    }

    /// Points rejected up-front for exceeding the budget.
    pub fn over_budget(&self) -> usize {
        self.over_budget
    }

    /// Candidate evaluations performed across all simulated rungs
    /// (restored rungs count too — they were evaluated by the run that
    /// journaled them).
    pub fn configs_evaluated(&self) -> usize {
        self.outcomes.iter().map(|o| o.scores.len()).sum()
    }

    /// Trace records actually simulated by this process (wholly restored
    /// rungs excluded) — the denominator of configs-per-second throughput.
    pub fn simulated_records(&self) -> u64 {
        self.simulated_records
    }

    /// Wall-clock time of the tuning run.
    pub fn wall(&self) -> std::time::Duration {
        self.wall
    }

    /// The storage budget every frontier point satisfies.
    pub fn budget_bits(&self) -> u64 {
        self.budget_bits
    }

    /// Renders the deterministic `bfbp-frontier/1` document. Contains
    /// no timings, hostnames, or thread counts — byte-identical across
    /// machines for the same (space, budget, schedule, suite).
    pub fn frontier_json(&self) -> String {
        let points = self.frontier.iter().map(|point| {
            let storage = point.storage.items().iter().map(|item| {
                Object::new()
                    .str("component", item.label())
                    .member("bits", item.bits())
            });
            Object::lines("      ")
                .member("candidate", point.candidate)
                .str("label", &format!("c{}", point.candidate))
                .member("params", point.params.to_json())
                .f64("mean_mpki", point.mean_mpki)
                .member("total_bits", point.total_bits)
                .f64(
                    "total_kb",
                    (point.total_bits as f64 / 8192.0 * 10.0).round() / 10.0,
                )
                .member("storage", array(storage))
                .member(
                    "mpki_by_rung",
                    array(point.mpki_by_rung.iter().map(|m| json_f64(*m))),
                )
        });
        let frontier = if self.frontier.is_empty() {
            "[]".to_owned()
        } else {
            format!("[\n{}  ]", lines(points, "    "))
        };
        let candidates = Object::new()
            .member("declared", self.declared)
            .member("feasible", self.candidates.len())
            .member("over_budget", self.over_budget)
            .member("rejected", self.rejected);
        let rung_candidates = self
            .outcomes
            .iter()
            .map(|o| array(o.scores.iter().map(|(candidate, _)| candidate)));
        let doc = Object::lines("  ")
            .str("schema", FRONTIER_SCHEMA)
            .str("predictor", &self.predictor)
            .str("space", &self.space_text)
            .member("budget_bits", self.budget_bits)
            .member("eta", self.eta)
            .member("rungs", self.rungs)
            .member("samples", self.samples)
            .member("seed", self.seed)
            .member(
                "traces",
                array(self.trace_names.iter().map(|t| json_string(t))),
            )
            .member("candidates", candidates)
            .member(
                "rung_divisors",
                array(self.outcomes.iter().map(|o| o.divisor)),
            )
            .member("rung_candidates", array(rung_candidates))
            .member("frontier", frontier);
        format!("{doc}\n")
    }

    /// Writes the frontier document atomically (tmp + rename), so a
    /// crash mid-write never leaves a torn report.
    ///
    /// # Errors
    ///
    /// Returns the underlying io error.
    pub fn write_frontier(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.frontier_json().as_bytes())
    }
}

/// Runs the full successive-halving search and returns the report.
///
/// `budget_bits` is the hardware storage budget: candidates whose
/// [`StorageBreakdown::total_bits`] exceeds it are rejected before any
/// simulation. `traces` is the evaluation suite (order defines each
/// rung's job matrix).
///
/// # Errors
///
/// Returns [`TuneError::Space`] when the space does not validate,
/// [`TuneError::NoFeasible`] when no candidate fits the budget,
/// [`TuneError::State`] when resume is requested without a state path,
/// and [`TuneError::Sweep`] when a rung cannot start or its journal
/// belongs to another run.
pub fn tune(
    registry: &PredictorRegistry,
    space: &SearchSpace,
    budget_bits: u64,
    traces: &[TraceSpec],
    options: &TuneOptions,
) -> Result<TuneReport, TuneError> {
    let started = std::time::Instant::now();
    if options.eta < 2 {
        return Err(TuneError::space("eta must be >= 2"));
    }
    if options.rungs == 0 {
        return Err(TuneError::space("rungs must be >= 1"));
    }
    if traces.is_empty() {
        return Err(TuneError::space("no traces given"));
    }
    space.validate(registry)?;

    // Candidate generation is deterministic, so a resumed run recomputes
    // the exact candidate list, and with it every rung's matrix id.
    let declared_params = space.sample(options.seed, options.samples);
    let declared = declared_params.len();
    let mut candidates = Vec::new();
    let mut over_budget = 0usize;
    let mut rejected = 0usize;
    for (index, params) in declared_params.into_iter().enumerate() {
        match registry.build(space.predictor(), &params) {
            Ok(predictor) => {
                let storage = predictor.storage();
                if storage.total_bits() > budget_bits {
                    over_budget += 1;
                } else {
                    candidates.push(Candidate {
                        index,
                        params,
                        storage,
                    });
                }
            }
            Err(_) => rejected += 1,
        }
    }
    if candidates.is_empty() {
        return Err(TuneError::NoFeasible {
            declared,
            over_budget,
            rejected,
        });
    }

    let base_lens: Vec<usize> = traces
        .iter()
        .map(|t| scaled_len(t, options.scale))
        .collect();

    let events = options
        .sweep
        .events
        .as_ref()
        .and_then(|path| EventJournal::open(path).ok());
    if let Some(journal) = &events {
        journal.emit(
            Event::new("tune_open")
                .str("space", &space.render())
                .num("budget_bits", budget_bits)
                .num("eta", options.eta as u64)
                .num("rungs", options.rungs as u64)
                .num("declared", declared as u64)
                .num("feasible", candidates.len() as u64)
                .num("over_budget", over_budget as u64),
        );
    }
    match (&options.state, options.resume) {
        (None, true) => return Err(TuneError::state("resume requested but no state path given")),
        // A fresh run starts every rung over. Left behind, a later
        // rung's journal from an older run would be picked up by a
        // resume of this one, and refused half-way through it.
        (Some(state), false) => {
            for rung in 0..options.rungs {
                let _ = std::fs::remove_file(rung_journal(state, rung));
            }
        }
        _ => {}
    }

    let mut outcomes: Vec<RungOutcome> = Vec::new();
    let mut survivors: Vec<usize> = candidates.iter().map(|c| c.index).collect();
    let by_index: BTreeMap<usize, &Candidate> = candidates.iter().map(|c| (c.index, c)).collect();
    let mut simulated_records = 0u64;

    for rung in 0..options.rungs {
        let divisor = (options.eta as u64)
            .saturating_pow((options.rungs - 1 - rung) as u32)
            .max(1);
        if let Some(journal) = &events {
            journal.emit(
                Event::new("tune_rung_open")
                    .num("rung", rung as u64)
                    .num("divisor", divisor)
                    .num("candidates", survivors.len() as u64),
            );
        }
        let specs: Vec<PredictorSpec> = survivors
            .iter()
            .map(|&i| spec_for(space.predictor(), by_index[&i]))
            .collect();
        let inputs: Vec<TraceInput> = traces
            .iter()
            .zip(&base_lens)
            .map(|(spec, &full)| {
                let records = rung_records(full, divisor);
                let (trace, _) = options.cache.fetch(spec, records);
                TraceInput::ready(trace)
            })
            .collect();
        let mut rung_options = options.sweep.clone();
        rung_options.journal = None;
        rung_options.resume_from = None;
        rung_options.metrics = false;
        if let Some(state) = &options.state {
            // A kill mid-rung resumes the rung's finished jobs too.
            let journal = rung_journal(state, rung);
            if options.resume && journal.exists() {
                rung_options.resume_from = Some(journal.clone());
            }
            rung_options.journal = Some(journal);
        }
        let report = engine::sweep_inputs(registry, &specs, &inputs, &rung_options)?;
        let summary = report.summary();
        let restored = summary.resumed == summary.jobs;
        if !restored {
            simulated_records +=
                inputs.iter().map(TraceInput::n_records).sum::<u64>() * survivors.len() as u64;
        }
        let scores = survivors
            .iter()
            .map(|&i| (i, score(&report, &by_index[&i].label())))
            .collect();
        let outcome = RungOutcome {
            rung,
            divisor,
            scores,
            restored,
        };
        if let Some(journal) = &events {
            journal.emit(
                Event::new("tune_rung_close")
                    .num("rung", rung as u64)
                    .num("divisor", divisor)
                    .num("evaluated", outcome.scores.len() as u64)
                    .float("best_mpki", best_score(&outcome.scores)),
            );
        }
        survivors = halve(&outcome.scores, options.eta);
        outcomes.push(outcome);
        if survivors.is_empty() {
            break;
        }
    }

    let frontier = build_frontier(&outcomes, &by_index);
    if let Some(journal) = &events {
        journal.emit(
            Event::new("tune_close")
                .num("frontier", frontier.len() as u64)
                .num(
                    "evaluations",
                    outcomes.iter().map(|o| o.scores.len() as u64).sum(),
                )
                .float("wall_ms", started.elapsed().as_secs_f64() * 1e3),
        );
    }

    Ok(TuneReport {
        space_text: space.render(),
        predictor: space.predictor().to_owned(),
        budget_bits,
        eta: options.eta,
        rungs: options.rungs,
        samples: options.samples,
        seed: options.seed,
        trace_names: traces.iter().map(|t| t.name().to_owned()).collect(),
        declared,
        over_budget,
        rejected,
        candidates,
        outcomes,
        frontier,
        simulated_records,
        wall: started.elapsed(),
    })
}

/// Rung `rung`'s sweep journal: the [`TuneOptions::state`] path with its
/// extension replaced by `rung<rung>.journal`.
pub fn rung_journal(state: &Path, rung: usize) -> PathBuf {
    state.with_extension(format!("rung{rung}.journal"))
}

/// Records per trace at a rung: the full scaled length divided by the
/// rung's divisor, floored at [`MIN_RUNG_RECORDS`] (but never above the
/// full length).
pub fn rung_records(full_len: usize, divisor: u64) -> usize {
    (full_len / divisor as usize).max(MIN_RUNG_RECORDS.min(full_len))
}

fn spec_for(predictor: &str, candidate: &Candidate) -> PredictorSpec {
    let mut spec = PredictorSpec::new(predictor).labeled(&candidate.label());
    for (key, value) in candidate.params.iter() {
        spec = spec.with(key, value.clone());
    }
    spec
}

/// A candidate's rung score: mean MPKI across every trace, or infinity
/// when any job did not finish cleanly (a failing configuration must
/// never out-rank a working one).
fn score(report: &engine::SweepReport, label: &str) -> f64 {
    let Some(series) = report.series().iter().position(|s| s.label == label) else {
        return f64::INFINITY;
    };
    let mut results: Vec<SimResult> = Vec::new();
    for trace in 0..report.trace_names().len() {
        match report.job(series, trace).map(|j| &j.status) {
            Some(JobStatus::Ok(record)) => results.push(record.result.clone()),
            _ => return f64::INFINITY,
        }
    }
    crate::simulate::mean_mpki(&results)
}

fn best_score(scores: &[(usize, f64)]) -> f64 {
    scores.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min)
}

/// Survivor selection: the best `ceil(n/eta)` candidates by (MPKI,
/// index), returned in candidate-index order. Infinite scores never
/// survive unless nothing else exists.
fn halve(scores: &[(usize, f64)], eta: usize) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = scores.to_vec();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let keep = ranked.len().div_ceil(eta).max(1);
    let mut survivors: Vec<usize> = ranked
        .into_iter()
        .take(keep)
        .filter(|(_, m)| m.is_finite())
        .map(|(i, _)| i)
        .collect();
    survivors.sort_unstable();
    survivors
}

/// The Pareto frontier over the final rung's finite scores: sorted by
/// storage, a point survives only when it strictly improves MPKI over
/// every cheaper point.
fn build_frontier(
    outcomes: &[RungOutcome],
    by_index: &BTreeMap<usize, &Candidate>,
) -> Vec<FrontierPoint> {
    let Some(last) = outcomes.last() else {
        return Vec::new();
    };
    let mut points: Vec<(u64, f64, usize)> = last
        .scores
        .iter()
        .filter(|(_, m)| m.is_finite())
        .map(|&(i, m)| (by_index[&i].total_bits(), m, i))
        .collect();
    points.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut frontier = Vec::new();
    let mut best = f64::INFINITY;
    for (bits, mpki, index) in points {
        if mpki < best {
            best = mpki;
            let candidate = by_index[&index];
            let mpki_by_rung = outcomes
                .iter()
                .filter_map(|o| o.scores.iter().find(|(i, _)| *i == index).map(|(_, m)| *m))
                .collect();
            frontier.push(FrontierPoint {
                candidate: index,
                params: candidate.params.clone(),
                mean_mpki: mpki,
                total_bits: bits,
                storage: candidate.storage.clone(),
                mpki_by_rung,
            });
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_roundtrip() {
        let space = SearchSpace::parse("bf-isl-tage:tables=4..10,sc=true|false").unwrap();
        assert_eq!(space.predictor(), "bf-isl-tage");
        assert_eq!(space.cardinality(), 14);
        assert_eq!(space.render(), "bf-isl-tage:sc=true|false,tables=4..10");
        let again = SearchSpace::parse(&space.render()).unwrap();
        assert_eq!(space, again);
    }

    #[test]
    fn parse_range_with_step_and_bare_value() {
        let space = SearchSpace::parse("gshare:log-size=10..20/5").unwrap();
        let (_, dim) = space.dims().next().unwrap();
        assert_eq!(dim.len(), 3);
        assert_eq!(dim.value(2), ParamValue::Int(20));

        let single = SearchSpace::parse("tage:tables=7").unwrap();
        assert_eq!(single.cardinality(), 1);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(SearchSpace::parse("").is_err());
        assert!(SearchSpace::parse("x:k").is_err());
        assert!(SearchSpace::parse("x:k=10..4").is_err());
        assert!(SearchSpace::parse("x:k=1..5/0").is_err());
        assert!(SearchSpace::parse("x:k=a..b").is_err());
    }

    #[test]
    fn grid_is_row_major_and_complete() {
        let space = SearchSpace::new("p")
            .range("a", 1, 2)
            .choices("b", vec![ParamValue::Bool(true), ParamValue::Bool(false)]);
        let grid = space.grid();
        assert_eq!(grid.len(), 4);
        let rendered: Vec<String> = grid.iter().map(Params::summary).collect();
        assert_eq!(
            rendered,
            vec!["a=1,b=true", "a=1,b=false", "a=2,b=true", "a=2,b=false"]
        );
    }

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let space = SearchSpace::new("p").range("a", 0, 99).range("b", 0, 99);
        let s1 = space.sample(7, 20);
        let s2 = space.sample(7, 20);
        assert_eq!(s1.len(), 20);
        let r1: Vec<String> = s1.iter().map(Params::summary).collect();
        let r2: Vec<String> = s2.iter().map(Params::summary).collect();
        assert_eq!(r1, r2);
        let mut dedup = r1.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
        // A different seed gives a different draw.
        let r3: Vec<String> = space.sample(8, 20).iter().map(Params::summary).collect();
        assert_ne!(r1, r3);
    }

    #[test]
    fn sample_covering_the_grid_falls_back_to_enumeration() {
        let space = SearchSpace::new("p").range("a", 1, 3);
        assert_eq!(space.sample(1, 0).len(), 3);
        assert_eq!(space.sample(1, 10).len(), 3);
    }

    #[test]
    fn validate_names_accepted_keys() {
        let registry = PredictorRegistry::with_builtins();
        let bad = SearchSpace::parse("static-taken:tables=1..4").unwrap();
        let err = bad.validate(&registry).unwrap_err();
        assert!(err.to_string().contains("tables"), "{err}");
        assert!(SearchSpace::parse("static-taken")
            .unwrap()
            .validate(&registry)
            .is_ok());
        assert!(SearchSpace::parse("no-such")
            .unwrap()
            .validate(&registry)
            .is_err());
    }

    #[test]
    fn halving_keeps_best_and_drops_failures() {
        let scores = vec![(0, 5.0), (1, f64::INFINITY), (2, 3.0), (3, 4.0), (4, 3.0)];
        // ceil(5/2) = 3 kept: candidates 2, 4 (tie broken by index), 3.
        assert_eq!(halve(&scores, 2), vec![2, 3, 4]);
        // All-failed field keeps nobody.
        assert_eq!(halve(&[(0, f64::INFINITY)], 2), Vec::<usize>::new());
    }

    #[test]
    fn rung_records_floors_and_divides() {
        assert_eq!(rung_records(100_000, 4), 25_000);
        assert_eq!(rung_records(100_000, 1), 100_000);
        assert_eq!(rung_records(2_000, 16), MIN_RUNG_RECORDS);
        assert_eq!(rung_records(500, 4), 500);
    }

    #[test]
    fn frontier_is_pareto_minimal() {
        let candidates = [
            Candidate {
                index: 0,
                params: Params::new(),
                storage: StorageBreakdown::from_iter([crate::storage::StorageItem::new("t", 100)]),
            },
            Candidate {
                index: 1,
                params: Params::new(),
                storage: StorageBreakdown::from_iter([crate::storage::StorageItem::new("t", 200)]),
            },
            Candidate {
                index: 2,
                params: Params::new(),
                storage: StorageBreakdown::from_iter([crate::storage::StorageItem::new("t", 300)]),
            },
        ];
        let by_index: BTreeMap<usize, &Candidate> =
            candidates.iter().map(|c| (c.index, c)).collect();
        // 200 bits / 5.0 MPKI is dominated by 100 bits / 4.0; 300 bits
        // / 3.0 improves and stays.
        let outcomes = vec![RungOutcome {
            rung: 0,
            divisor: 1,
            scores: vec![(0, 4.0), (1, 5.0), (2, 3.0)],
            restored: false,
        }];
        let frontier = build_frontier(&outcomes, &by_index);
        let picks: Vec<(usize, u64)> = frontier
            .iter()
            .map(|p| (p.candidate, p.total_bits))
            .collect();
        assert_eq!(picks, vec![(0, 100), (2, 300)]);
    }
}
