//! # bfbp-trace
//!
//! Branch-trace substrate for the Bias-Free Branch Predictor
//! reproduction: record types, a binary on-disk trace format with a
//! streaming parser, trace statistics (including the paper's Figure 2
//! bias profile), and a deterministic synthetic workload engine that
//! stands in for the proprietary CBP-4 trace suite.
//!
//! ## Quick start
//!
//! ```
//! use bfbp_trace::synth::suite;
//! use bfbp_trace::stats::BiasProfile;
//!
//! // Generate a scaled-down version of the suite's SPEC03 trace.
//! let spec = suite::find("SPEC03").expect("SPEC03 is in the suite");
//! let trace = spec.generate_len(20_000);
//! let profile = BiasProfile::measure(&trace);
//! println!(
//!     "{}: {:.1}% of static branches completely biased",
//!     trace.name(),
//!     profile.static_biased_percent()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod format;
pub mod record;
pub mod rng;
pub mod source;
pub mod stats;
pub mod synth;

pub use cache::{CacheStatus, TraceCache};
pub use format::{
    fnv1a, read_trace, read_trace_file, write_trace, TraceFormatError, TraceReader, TraceWriter,
};
pub use record::{BranchKind, BranchRecord, Trace};
pub use source::{
    collect_source, FileSource, ReplaySource, TraceChunk, TraceSource, DEFAULT_CHUNK_RECORDS,
};
