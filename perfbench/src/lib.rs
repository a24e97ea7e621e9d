//! One benchmark for the bfbp simulator: three workloads, end-to-end
//! metrics from untraced runs, and per-layer metrics from a separate
//! traced run. See `README.md` beside this crate for the workloads, the
//! metric definitions and the span file.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod offline;
pub mod serve;
pub mod shim;
pub mod spans;
pub mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use bfbp_trace::cache::TraceCache;
use bfbp_trace::record::Trace;
use bfbp_trace::synth::suite::TraceSpec;

use crate::spans::{Span, Tracer};

/// Sweep worker threads, and served client connections: the load is
/// sized for a 2-core host.
pub const LOAD: usize = 2;

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's four predictors over the warm-cached suite.
    PaperSweep,
    /// Three cheap baselines over the suite loaded from BFBT files.
    FileBaselines,
    /// bf-tage served over loopback to closed-loop clients.
    ServeBfTage,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::FileBaselines,
        Workload::ServeBfTage,
    ];

    /// The workloads `BENCHMARK.json` lists, whose metrics carry bounds.
    /// `serve-bf-tage` runs and checks itself the same way but is left
    /// out: on a 2-vCPU host whose speed swings by up to 2x over minutes,
    /// its round-trip spread across seeds exceeded the largest bound a
    /// metric may have. Its wire and service layers are still measured on
    /// the gated workloads, by the traced run's probe session.
    pub const GATED: [Workload; 2] = [Workload::PaperSweep, Workload::FileBaselines];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::FileBaselines => "file-baselines",
            Workload::ServeBfTage => "serve-bf-tage",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// What runs.
    pub workload: Workload,
    /// Input seed (see [`inputs::seeded_suite`]).
    pub seed: u64,
    /// Length of the untraced measurement window.
    pub seconds: f64,
    /// Trace-length scale; 1.0 is the shipped suite's lengths.
    pub scale: f64,
    /// Set-up repetitions of an untraced run.
    pub setup_reps: usize,
    /// Scratch directory the benchmark owns (trace cache, checkpoints).
    pub work_dir: PathBuf,
}

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order;
/// printed by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("decisions_per_s", "decisions/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("mpki", "MPKI"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// The seven predictors with a `predict.<name>.ns_per_rec` row, as
/// `(name, spec)`: what the three workloads run, ISL-TAGE being the
/// paper's TAGE baseline without the statistical corrector.
pub const PREDICTORS: [(&str, &str); 7] = [
    ("static-taken", "static-taken"),
    ("bimodal", "bimodal"),
    ("gshare", "gshare"),
    ("oh-snap", "oh-snap"),
    ("isl-tage", "isl-tage:sc=false"),
    ("bf-neural", "bf-neural"),
    ("bf-tage", "bf-tage"),
];

/// Layers with a `self_ms.<layer>` row (span `layer` values).
pub const SELF_LAYERS: [&str; 9] = [
    "synth", "format", "cache", "source", "simulate", "predict", "engine", "wire", "service",
];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order; printed
/// by traced runs of every workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut rows: Vec<(String, &'static str)> = [
        ("synth.records_per_s", "records/s"),
        ("format.encode_ns_per_rec", "ns/record"),
        ("format.decode_ns_per_rec", "ns/record"),
        ("cache.fetch_ms", "ms"),
        ("cache.hit_frac", "ratio"),
        ("source.fill_ns_per_rec", "ns/record"),
        ("simulate.self_ns_per_rec", "ns/record"),
        ("simulate.records_per_call", "records/call"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for (name, _) in PREDICTORS {
        rows.push((format!("predict.{name}.ns_per_rec"), "ns/record"));
    }
    for (n, u) in [
        ("bf_ghr.commit_ns", "ns/branch"),
        ("bf_ghr.fold_ns", "ns/branch"),
        ("tage_core.predict_update_ns", "ns/branch"),
        ("engine.idle_frac", "ratio"),
        ("engine.attempts_per_job", "attempts/job"),
        ("wire.encode_ns_per_req", "ns/request"),
        ("wire.decode_ns_per_req", "ns/request"),
        ("wire.bytes_per_decision", "B/decision"),
        ("serve.predict_us_per_req", "us/request"),
        ("serve.transport_us_per_req", "us/request"),
        ("serve.checkpoint_ms", "ms"),
        ("traced.overhead_frac", "ratio"),
    ] {
        rows.push((n.to_owned(), u));
    }
    for layer in SELF_LAYERS {
        rows.push((format!("self_ms.{layer}"), "ms"));
    }
    rows
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (an [`END_TO_END`] or [`per_layer`] row).
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Human-readable context: sample counts, how it was measured.
    pub note: String,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: sweep jobs, or served requests.
    pub attempted: u64,
    /// Of those, operations that failed or were refused.
    pub failed: u64,
    /// Every correctness check that failed, described.
    pub mismatches: Vec<String>,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Spans of a traced run (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            note: note.into(),
        });
    }

    /// Adds the median of `values` (samples of `what`), noting the
    /// sample count and range.
    pub fn push_median(&mut self, name: &str, values: &[f64], what: &str) {
        let (value, note) = stats::median_noted(values, what);
        self.push(name, value, note);
    }

    /// The value of `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }
}

/// Runs one workload, traced or untraced.
///
/// # Errors
///
/// A message when the workload cannot run at all (bad spec, I/O on the
/// work directory, a server that cannot bind).
pub fn run(config: &Config, traced: bool) -> Result<Outcome, String> {
    match config.workload {
        Workload::PaperSweep | Workload::FileBaselines => offline::run(config, traced),
        Workload::ServeBfTage => serve::run(config, traced),
    }
}

/// Set-up shared by every workload: empties `dir` and fetches every spec
/// through a trace cache there, so each cold fetch generates the trace
/// and stores it. One `cache.fetch` span per trace goes under `parent`.
///
/// # Errors
///
/// When `dir` cannot be emptied or created.
pub fn populate_cache(
    specs: &[TraceSpec],
    scale: f64,
    dir: &Path,
    tracer: &Tracer,
    parent: u64,
) -> Result<(TraceCache, Vec<Trace>), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot empty {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cache = TraceCache::at(dir);
    let traces = specs
        .iter()
        .map(|spec| {
            let open = tracer.begin(parent, "cache.fetch", "cache");
            let (trace, _) = cache.fetch(spec, inputs::records(spec, scale));
            tracer.end(open);
            trace
        })
        .collect();
    Ok((cache, traces))
}

/// `f` over `0..n` on [`LOAD`] threads, results in index order. Used for
/// verification, which runs outside every timing.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD)
            .map(|k| {
                scope.spawn(move || (k..n).step_by(LOAD).map(|i| (i, f(i))).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification threads do not panic"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Flushes every file set-up wrote under `dir` to disk, untimed, so the
/// kernel's deferred writeback of set-up's output does not run during
/// the timed phase.
pub fn settle(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if let Ok(file) = std::fs::File::open(entry.path()) {
            let _ = file.sync_all();
        }
    }
}

/// Runs `once` `reps` times (at least once), timing each; returns the
/// walls in seconds and the last repetition's product. The previous
/// product is dropped before the next repetition starts, untimed.
///
/// # Errors
///
/// The first error `once` returns.
pub fn repeat_setup<T>(
    reps: usize,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let product = once()?;
        walls.push(start.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((walls, last.expect("at least one repetition ran")))
}
