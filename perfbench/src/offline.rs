//! The two offline workloads.
//!
//! `paper-sweep` runs the paper's four predictors over the suite,
//! fetched warm through `SuiteRunner::from_specs_cached` (the path every
//! experiment bin takes), with `engine::sweep` on [`LOAD`] threads.
//! `file-baselines` runs three cheap baselines over the suite loaded
//! from its BFBT files with `TraceInput::from_file` (the `sweep
//! --trace-file` path) and `engine::sweep_inputs`. The files are the
//! trace-cache entries set-up stores.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bfbp_sim::engine::{self, SweepOptions, SweepReport, TraceInput};
use bfbp_sim::registry::{PredictorRegistry, PredictorSpec};
use bfbp_sim::runner::SuiteRunner;
use bfbp_sim::simulate::{mean_mpki, SimResult, Simulation};
use bfbp_trace::cache::{CacheStatus, TraceCache};
use bfbp_trace::record::Trace;
use bfbp_trace::synth::suite::TraceSpec;

use crate::inputs::{records, seeded_suite};
use crate::layers::{self, Battery, OnPath};
use crate::shim::{timed_registry, Totals};
use crate::spans::Tracer;
use crate::stats::percentile;
use crate::{par_map, populate_cache, repeat_setup, settle, Config, Outcome, Workload, LOAD};

/// `paper-sweep`'s predictors: OH-SNAP, the paper's TAGE baseline
/// (ISL-TAGE without the statistical corrector), BF-Neural, BF-TAGE.
pub const PAPER_PREDICTORS: [&str; 4] = ["oh-snap", "isl-tage:sc=false", "bf-neural", "bf-tage"];

/// `file-baselines`' predictors: two per-record ones and gshare, which
/// takes the batched drive.
pub const BASELINE_PREDICTORS: [&str; 3] = ["static-taken", "bimodal", "gshare"];

/// The registry a timed repetition builds predictors from.
enum Drive<'a> {
    /// The plain registry (untraced).
    Plain(&'a PredictorRegistry),
    /// Every predictor wrapped in a timing shim (traced).
    Timed(&'a Arc<PredictorRegistry>, &'a Totals),
}

/// One timed repetition: warm fetch or file load, then the sweep.
struct Rep {
    wall_s: f64,
    report: SweepReport,
}

struct Workspace<'a> {
    workload: Workload,
    specs: &'a [TraceSpec],
    scale: f64,
    cache: &'a TraceCache,
    predictors: &'a [PredictorSpec],
}

impl Workspace<'_> {
    /// The timed phase once. Traced repetitions fetch trace by trace
    /// (`from_specs_cached` is exactly that loop) so each fetch gets its
    /// own span and cache status.
    fn rep(
        &self,
        drive: &Drive<'_>,
        tracer: &Arc<Tracer>,
        parent: u64,
        on_path: &mut OnPath,
    ) -> Result<Rep, String> {
        let options = SweepOptions::new().with_threads(LOAD);
        let start = Instant::now();
        let mut runner = None;
        let mut inputs = Vec::new();
        match (self.workload, drive) {
            (Workload::PaperSweep, Drive::Plain(_)) => {
                runner = Some(SuiteRunner::from_specs_cached(
                    self.specs.to_vec(),
                    self.scale,
                    self.cache,
                    None,
                ));
            }
            (Workload::PaperSweep, Drive::Timed(..)) => {
                for spec in self.specs {
                    let open = tracer.begin(parent, "cache.fetch", "cache");
                    let fetch = Instant::now();
                    let (trace, status) = self.cache.fetch(spec, records(spec, self.scale));
                    on_path.fetches.push((
                        fetch.elapsed().as_nanos() as u64,
                        status == CacheStatus::Hit,
                    ));
                    tracer.end(open);
                    inputs.push(TraceInput::ready(trace));
                }
            }
            _ => {
                for spec in self.specs {
                    let n = records(spec, self.scale);
                    let path = self
                        .cache
                        .entry_path(spec, n)
                        .expect("the cache has a directory");
                    let open = tracer.begin(parent, "format.decode", "format");
                    let load = Instant::now();
                    inputs.push(TraceInput::from_file(path));
                    on_path.decode.calls += 1;
                    on_path.decode.records += n as u64;
                    on_path.decode.busy_ns += load.elapsed().as_nanos() as u64;
                    tracer.end(open);
                }
            }
        }
        let open = tracer.begin(parent, "engine.sweep", "engine");
        let shimmed;
        let registry = match drive {
            Drive::Plain(registry) => *registry,
            Drive::Timed(base, totals) => {
                shimmed = timed_registry(
                    Arc::clone(base),
                    Arc::clone(tracer),
                    open.id(),
                    Arc::clone(totals),
                );
                &shimmed
            }
        };
        let report = match &runner {
            Some(runner) => engine::sweep(registry, self.predictors, runner, &options),
            None => engine::sweep_inputs(registry, self.predictors, &inputs, &options),
        }
        .map_err(|e| format!("sweep failed: {e}"))?;
        tracer.end(open);
        Ok(Rep {
            wall_s: start.elapsed().as_secs_f64(),
            report,
        })
    }
}

/// Direct `Simulation::run` of every (predictor, trace) pair, on
/// [`LOAD`] threads; `None` where the run itself failed.
fn direct_results(
    registry: &PredictorRegistry,
    predictors: &[PredictorSpec],
    traces: &[Trace],
) -> Vec<Option<SimResult>> {
    par_map(predictors.len() * traces.len(), |job| {
        let trace = &traces[job % traces.len()];
        let mut p = registry.build_spec(&predictors[job / traces.len()]).ok()?;
        let (result, _) = Simulation::new(p.as_mut()).run_trace(trace).ok()?;
        Some(result)
    })
}

/// Every job of every repetition must be ok with the counts of a direct
/// `Simulation::run` of the same predictor and trace.
fn verify(reps: &[Rep], direct: &[Option<SimResult>], n_traces: usize, out: &mut Outcome) {
    for (r, rep) in reps.iter().enumerate() {
        for (job, outcome) in rep.report.jobs().iter().enumerate() {
            out.attempted += 1;
            let label = format!(
                "rep {r}: {} on {}",
                rep.report.series()[job / n_traces].label,
                rep.report.trace_names()[job % n_traces]
            );
            let Some(record) = outcome.record() else {
                out.failed += 1;
                out.mismatches
                    .push(format!("{label}: job {}", outcome.status.name()));
                continue;
            };
            // (instructions, conditional branches, mispredictions)
            let counts = |r: &SimResult| {
                (
                    r.instructions(),
                    r.conditional_branches(),
                    r.mispredictions(),
                )
            };
            let got = counts(&record.result);
            match direct[job].as_ref().map(counts) {
                Some(want) if want == got => {}
                Some(want) => out.mismatches.push(format!(
                    "{label}: sweep counted {got:?}, direct run {want:?} \
                     (instructions, conditional branches, mispredictions)"
                )),
                None => out.mismatches.push(format!("{label}: direct run failed")),
            }
        }
    }
}

/// Runs `paper-sweep` or `file-baselines`; see the module docs.
///
/// # Errors
///
/// When set-up or a sweep cannot run at all.
pub fn run(config: &Config, traced: bool) -> Result<Outcome, String> {
    let predictor_texts: &[&str] = match config.workload {
        Workload::PaperSweep => &PAPER_PREDICTORS,
        _ => &BASELINE_PREDICTORS,
    };
    let predictors = predictor_texts
        .iter()
        .map(|t| PredictorSpec::parse(t))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let tracer = Arc::new(if traced {
        Tracer::new()
    } else {
        Tracer::disabled()
    });
    let specs = seeded_suite(config.seed);
    let root = tracer.begin(0, config.workload.name(), "bench");
    let cache_dir = config.work_dir.join("trace-cache");

    let setup = tracer.begin(root.id(), "setup", "bench");
    let (setup_walls, (cache, _)) = repeat_setup(config.setup_reps, || {
        populate_cache(&specs, config.scale, &cache_dir, &tracer, setup.id())
    })?;
    tracer.end(setup);
    settle(&cache_dir);

    let registry = Arc::new(bfbp::default_registry());
    let space = Workspace {
        workload: config.workload,
        specs: &specs,
        scale: config.scale,
        cache: &cache,
        predictors: &predictors,
    };
    let mut on_path = OnPath::default();
    let totals: Totals = Arc::new(Mutex::new(Default::default()));
    let mut reps = Vec::new();
    if traced {
        // Untraced, traced, untraced: the first warms caches and the
        // allocator, the last is the overhead baseline.
        let untraced = Arc::new(Tracer::disabled());
        reps.push(space.rep(
            &Drive::Plain(&registry),
            &untraced,
            0,
            &mut OnPath::default(),
        )?);
        let timed = tracer.begin(root.id(), "timed", "bench");
        reps.push(space.rep(
            &Drive::Timed(&registry, &totals),
            &tracer,
            timed.id(),
            &mut on_path,
        )?);
        tracer.end(timed);
        reps.push(space.rep(
            &Drive::Plain(&registry),
            &untraced,
            0,
            &mut OnPath::default(),
        )?);
    } else {
        let start = Instant::now();
        while reps.is_empty() || start.elapsed().as_secs_f64() < config.seconds {
            reps.push(space.rep(&Drive::Plain(&registry), &tracer, 0, &mut on_path)?);
        }
    }

    // Verification, outside every timing.
    let traces: Vec<Trace> = specs
        .iter()
        .map(|spec| cache.fetch(spec, records(spec, config.scale)).0)
        .collect();
    let mut out = Outcome::default();
    let direct = direct_results(&registry, &predictors, &traces);
    verify(&reps, &direct, traces.len(), &mut out);

    if traced {
        let (traced_rep, untraced) = (&reps[1], &reps[2]);
        on_path.engine = Some(layers::engine_figures(&traced_rep.report));
        on_path.overhead_frac = traced_rep.wall_s / untraced.wall_s - 1.0;
        on_path.predict = totals
            .lock()
            .expect("shims add totals without panicking")
            .iter()
            .filter(|(_, stats)| stats.busy_ns > 0)
            .map(|(name, stats)| (name.clone(), *stats))
            .collect();
        let sample = &traces[..layers::SAMPLE_TRACES];
        let battery = tracer.begin(root.id(), "replay", "bench");
        layers::measure(
            &Battery {
                specs: &specs[..sample.len()],
                traces: sample,
                cache: &cache,
                scale: config.scale,
                workload_predictors: predictor_texts,
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

    let records_per_rep: u64 =
        traces.iter().map(|t| t.len() as u64).sum::<u64>() * predictors.len() as u64;
    let record_rates: Vec<f64> = reps
        .iter()
        .map(|r| records_per_rep as f64 / r.wall_s)
        .collect();
    let decision_rates: Vec<f64> = reps
        .iter()
        .map(|r| {
            let jobs = r.report.jobs().iter().filter_map(|j| j.record());
            jobs.map(|j| j.result.conditional_branches()).sum::<u64>() as f64 / r.wall_s
        })
        .collect();
    // The user's request is a sweep: fetch or load, then every job. Job
    // walls are no steadier a sample: they cluster by trace length and
    // predictor, and their p50 sits between clusters.
    let mut sweep_us: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e6).collect();
    sweep_us.sort_by(f64::total_cmp);
    let results: Vec<SimResult> = reps[0]
        .report
        .jobs()
        .iter()
        .filter_map(|j| j.record().map(|r| r.result.clone()))
        .collect();
    let phases = format!("timed phases of {records_per_rep} records, {LOAD} threads");
    out.push_median("setup_s", &setup_walls, "set-ups: cold trace cache");
    out.push_median("records_per_s", &record_rates, &phases);
    out.push_median("decisions_per_s", &decision_rates, &phases);
    let sweeps = format!("sweep round trips (n={})", sweep_us.len());
    out.push("rtt_p50_us", percentile(&sweep_us, 50.0), sweeps.clone());
    out.push("rtt_p99_us", percentile(&sweep_us, 99.0), sweeps);
    out.push(
        "mpki",
        mean_mpki(&results),
        format!("mean over {} jobs", results.len()),
    );
    Ok(out)
}
