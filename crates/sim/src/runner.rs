//! Suite runner: generate (or fetch from cache) the 40-trace suite
//! once, then run many predictor configurations over it.
//!
//! Trace generation is cheap relative to prediction but not free; every
//! figure harness compares several predictors on the same traces, so the
//! runner materializes each trace a single time. Traces are held behind
//! `Arc` so the parallel [`engine`](crate::engine) can share them across
//! worker threads without copying.
//!
//! [`SuiteRunner::from_specs_cached`] routes every trace through a
//! [`TraceCache`], so across processes the synthetic generator runs at
//! most once per `(spec, length)` pair, and reports each fetch to an
//! events journal as a `trace_cache` event, which is how the test suite
//! asserts that a warm cache performs *zero* generation work. The bench
//! binaries build their runner this way from their settings
//! (`bfbp_bench::cli::Harness::suite_runner`).

use std::sync::Arc;

use bfbp_trace::cache::TraceCache;
use bfbp_trace::record::Trace;
use bfbp_trace::synth::suite::TraceSpec;

use crate::obs::{Event, EventJournal};
use crate::registry::{BuildError, PredictorRegistry, PredictorSpec};
use crate::simulate::{simulate, SimResult};

/// Holds the generated benchmark traces and runs predictors over them.
#[derive(Debug)]
pub struct SuiteRunner {
    specs: Vec<TraceSpec>,
    traces: Vec<Arc<Trace>>,
}

impl SuiteRunner {
    /// Generates traces for an explicit set of specs, always running the
    /// synthetic generator (no cache I/O). Prefer
    /// [`SuiteRunner::from_specs_cached`] for repeated runs.
    pub fn from_specs(specs: Vec<TraceSpec>, scale: f64) -> Self {
        Self::from_specs_cached(specs, scale, &TraceCache::disabled(), None)
    }

    /// Materializes traces for `specs`, scaling every trace's default
    /// length by `scale` (at least 1000 records; see [`scaled_len`]) and
    /// serving each from `cache` when a valid entry exists, generating
    /// (then storing) otherwise. Every fetch emits a `trace_cache` event
    /// to `events` recording the trace name, record count, and
    /// [`CacheStatus`](bfbp_trace::CacheStatus) keyword, so journals make
    /// cache behaviour auditable.
    pub fn from_specs_cached(
        specs: Vec<TraceSpec>,
        scale: f64,
        cache: &TraceCache,
        events: Option<&EventJournal>,
    ) -> Self {
        let traces = specs
            .iter()
            .map(|spec| {
                let len = scaled_len(spec, scale);
                let (trace, status) = cache.fetch(spec, len);
                if let Some(journal) = events {
                    journal.emit(
                        Event::new("trace_cache")
                            .str("trace", spec.name())
                            .num("records", len as u64)
                            .str("status", status.name())
                            .num("generated", u64::from(status.generated())),
                    );
                }
                Arc::new(trace)
            })
            .collect();
        Self { specs, traces }
    }

    /// The specs in suite order.
    pub fn specs(&self) -> &[TraceSpec] {
        &self.specs
    }

    /// The generated traces, parallel to [`SuiteRunner::specs`]. Shared
    /// (`Arc`) so sweep workers can borrow them across threads.
    pub fn traces(&self) -> &[Arc<Trace>] {
        &self.traces
    }

    /// Runs one registry-built configuration over every trace, building a
    /// fresh predictor per trace, returning per-trace results in suite
    /// order. This is the serial, single-spec slice of
    /// [`engine::sweep`](crate::engine::sweep).
    pub fn run_spec(
        &self,
        registry: &PredictorRegistry,
        spec: &PredictorSpec,
    ) -> Result<Vec<SimResult>, BuildError> {
        // Validate once up front so an error can't surface mid-suite.
        registry.build_spec(spec)?;
        Ok(self
            .traces
            .iter()
            .map(|trace| {
                let mut predictor = registry
                    .build_spec(spec)
                    .expect("spec validated before the suite run");
                simulate(predictor.as_mut(), trace.as_ref())
            })
            .collect())
    }
}

/// The record count a spec materializes at scale `scale`: the default
/// length scaled, floored at 1000 records. This is the shared sizing rule
/// for the runner, the tuner, and the experiments that fetch single
/// traces — all must agree or cache keys diverge from sweep contents.
pub fn scaled_len(spec: &TraceSpec, scale: f64) -> usize {
    ((spec.default_len() as f64 * scale) as usize).max(1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfbp_trace::cache::CacheStatus;
    use bfbp_trace::synth::suite;

    #[test]
    fn generates_all_forty_traces() {
        let runner = SuiteRunner::from_specs(suite::suite(), 0.01);
        assert_eq!(runner.traces().len(), 40);
        assert_eq!(runner.specs().len(), 40);
        // Scale 0.01 of 300k = 3000 records for long traces.
        assert_eq!(runner.traces()[0].len(), 3000);
        assert_eq!(runner.traces()[20].len(), 1000);
    }

    #[test]
    fn minimum_length_is_enforced() {
        let runner = SuiteRunner::from_specs(vec![suite::find("FP1").unwrap()], 1e-9);
        assert_eq!(runner.traces()[0].len(), 1000);
        assert_eq!(scaled_len(&suite::find("FP1").unwrap(), 1e-9), 1000);
    }

    #[test]
    fn cached_from_specs_matches_uncached() {
        let dir = std::env::temp_dir().join(format!("bfbp-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::at(&dir);
        let specs = vec![suite::find("SPEC00").unwrap(), suite::find("MM2").unwrap()];
        let plain = SuiteRunner::from_specs(specs.clone(), 0.01);
        let cold = SuiteRunner::from_specs_cached(specs.clone(), 0.01, &cache, None);
        let warm = SuiteRunner::from_specs_cached(specs.clone(), 0.01, &cache, None);
        for i in 0..specs.len() {
            assert_eq!(plain.traces()[i], cold.traces()[i]);
            assert_eq!(plain.traces()[i], warm.traces()[i]);
        }
        // The warm pass is really served from disk.
        let len = scaled_len(&specs[0], 0.01);
        assert_eq!(cache.fetch(&specs[0], len).1, CacheStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_spec_produces_one_result_per_trace() {
        let specs = vec![suite::find("SPEC00").unwrap(), suite::find("MM2").unwrap()];
        let runner = SuiteRunner::from_specs(specs, 0.01);
        let registry = PredictorRegistry::with_builtins();
        let results = runner
            .run_spec(&registry, &PredictorSpec::new("static-taken"))
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].trace_name(), "SPEC00");
        assert_eq!(results[1].trace_name(), "MM2");
        assert!(results.iter().all(|r| r.conditional_branches() > 0));
    }

    #[test]
    fn run_spec_rejects_unknown_names() {
        let runner = SuiteRunner::from_specs(vec![suite::find("MM2").unwrap()], 0.01);
        let registry = PredictorRegistry::with_builtins();
        assert!(matches!(
            runner.run_spec(&registry, &PredictorSpec::new("nope")),
            Err(BuildError::UnknownPredictor { .. })
        ));
    }
}
