//! Seeded workload inputs: the shipped 40-trace suite, re-created per
//! benchmark seed.
//!
//! A suite [`TraceSpec`] derives its generator seed from its name, so
//! renaming a spec (with its knobs, category and length class unchanged)
//! yields a statistically identical trace with different records. The
//! default seed keeps the shipped names and therefore reproduces the
//! shipped suite exactly, trace-cache fingerprints included.

use bfbp_sim::runner::scaled_len;
use bfbp_trace::synth::suite::{self, TraceSpec};

/// The seed that reproduces the shipped suite.
pub const DEFAULT_SEED: u64 = 0;

/// The suite under `seed`: every spec renamed `NAME.s<seed>` (except
/// under [`DEFAULT_SEED`]), knobs untouched.
pub fn seeded_suite(seed: u64) -> Vec<TraceSpec> {
    suite::suite()
        .into_iter()
        .map(|spec| {
            if seed == DEFAULT_SEED {
                spec
            } else {
                TraceSpec::new(
                    format!("{}.s{seed}", spec.name()),
                    spec.category(),
                    spec.is_long(),
                    spec.knobs().clone(),
                )
            }
        })
        .collect()
}

/// Record count of `spec` at trace-length scale `scale` — the sizing
/// rule the runner, the engine and the trace cache share.
pub fn records(spec: &TraceSpec, scale: f64) -> usize {
    scaled_len(spec, scale)
}
