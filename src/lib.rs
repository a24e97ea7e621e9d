//! # bfbp — Bias-Free Branch Predictor reproduction
//!
//! Facade crate re-exporting the full workspace: a from-scratch Rust
//! reproduction of Gope & Lipasti, *"Bias-Free Branch Predictor"*,
//! MICRO-47 (2014).
//!
//! * [`trace`] — branch records, trace format, statistics, synthetic
//!   CBP-style workload suite;
//! * [`sim`] — the simulation driver, MPKI metrics, storage accounting;
//! * [`predictors`] — baselines: bimodal, gshare, perceptron,
//!   piecewise-linear, OH-SNAP-style scaled neural, loop predictor;
//! * [`tage`] — TAGE / ISL-TAGE baselines;
//! * [`core`] — the paper's contribution: BST, recency stack, BF-Neural,
//!   BF-GHR, BF-TAGE.
//!
//! ## Quick start
//!
//! Predictors are built by name through the workspace-wide registry and
//! swept over the synthetic suite by the parallel engine:
//!
//! ```
//! use bfbp::sim::engine::{self, SweepOptions};
//! use bfbp::sim::registry::PredictorSpec;
//! use bfbp::sim::runner::SuiteRunner;
//! use bfbp::trace::synth::suite;
//!
//! let registry = bfbp::default_registry();
//! let runner = SuiteRunner::from_specs(vec![suite::find("SPEC03").unwrap()], 0.01);
//! let specs = [PredictorSpec::new("bf-neural")];
//! let report = engine::sweep(&registry, &specs, &runner, &SweepOptions::default()).unwrap();
//! println!("{:.3} MPKI", report.mean_mpki("bf-neural"));
//! ```

pub use bfbp_core as core;
pub use bfbp_predictors as predictors;
pub use bfbp_sim as sim;
pub use bfbp_tage as tage;
pub use bfbp_trace as trace;

pub use bfbp_sim::{
    chrome_trace, json::parse_json, parse_events, postmortem_json, read_events, tune, FlightEntry,
    FlightRecorder, FrontierPoint, ParsedEvent, PredictorCaps, Provenance, SearchSpace,
    ServeClient, ServeError, ServeOptions, Server, ServerHandle, SessionStats, Simulation,
    SimulationError, TraceInput, TuneError, TuneOptions, TuneReport,
};
pub use bfbp_trace::{CacheStatus, FileSource, ReplaySource, TraceCache, TraceChunk, TraceSource};

use bfbp_sim::registry::PredictorRegistry;

/// The registry of every predictor in the workspace: the trivial static
/// baselines plus everything registered by [`predictors`], [`tage`], and
/// [`core`]. Build one once and share it (`&` is enough — builders are
/// `Send + Sync`) across sweep threads.
pub fn default_registry() -> PredictorRegistry {
    let mut registry = PredictorRegistry::with_builtins();
    bfbp_predictors::register(&mut registry);
    bfbp_tage::register(&mut registry);
    bfbp_core::register(&mut registry);
    registry
}
