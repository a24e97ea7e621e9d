//! # bfbp-sim
//!
//! Trace-driven branch-predictor simulation: the predictor trait (a Rust
//! rendering of the CBP-4 simulation contract), the commit-order
//! simulation loop with MPKI accounting, a suite runner, a predictor
//! registry with a parallel sweep engine, and hardware storage
//! accounting.
//!
//! ```
//! use bfbp_sim::predictor::StaticPredictor;
//! use bfbp_sim::simulate::simulate;
//! use bfbp_trace::record::{BranchRecord, Trace};
//!
//! let trace = Trace::new("t", vec![BranchRecord::cond(0x40, 0x80, true, 4)]);
//! let mut predictor = StaticPredictor::always_taken();
//! let result = simulate(&mut predictor, &trace);
//! assert_eq!(result.mispredictions(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ckpt;
pub mod engine;
pub mod fault;
pub mod forensics;
pub mod journal;
pub mod json;
pub mod obs;
pub mod predictor;
pub mod registry;
pub mod runner;
pub mod service;
pub mod simulate;
pub mod storage;
pub mod tune;
pub mod wire;

pub use ckpt::{
    CodecError, JobCheckpoint, Restorable, SimCheckpoint, StateReader, StateWriter, CKPT_MAGIC,
};
pub use engine::{
    sweep, sweep_inputs, JobOutcome, JobRecord, JobStatus, RetryPolicy, RunSummary, SweepError,
    SweepOptions, SweepReport, TraceInput,
};
pub use fault::{Fault, FaultPlan, FaultPlanParseError};
pub use forensics::{chrome_trace, parse_events, read_events, EventsError, ParsedEvent};
pub use journal::{Journal, JournalError};
pub use json::{parse_json, JsonError, JsonValue};
pub use obs::{
    postmortem_json, saturation_fraction, BranchStats, Event, EventJournal, FlightEntry,
    FlightRecorder, H2pTable, Histogram, JobObs, Metrics, PredictorIntrospect, Progress,
    EVENTS_SCHEMA, H2P_TOP_N, METRICS_SCHEMA, POSTMORTEM_SCHEMA,
};
pub use predictor::{ConditionalPredictor, PredictorCaps, Provenance};
pub use registry::{BuildError, ParamValue, Params, PredictorRegistry, PredictorSpec};
pub use service::{ServeClient, ServeError, ServeOptions, Server, ServerHandle};
pub use simulate::{
    mean_mpki, simulate, IntervalPoint, SimResult, Simulation, SimulationAborted, SimulationError,
};
pub use storage::StorageBreakdown;
pub use tune::{
    tune, Candidate, Dimension, FrontierPoint, RungOutcome, SearchSpace, TuneError, TuneOptions,
    TuneReport, FRONTIER_SCHEMA, TUNE_MAGIC,
};
pub use wire::{
    ErrorCode, Frame, FrameKind, FrameReader, PredictorInfo, SessionStats, WireError, MAX_FRAME,
    WIRE_PROTOCOL,
};
