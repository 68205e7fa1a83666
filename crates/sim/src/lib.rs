//! Facade and experiment runner for the LT-cords reproduction.
//!
//! This crate re-exports the workspace's public API under one roof and adds
//! the experiment harness used by the examples, integration tests, CLI and
//! figure/table benches:
//!
//! * [`experiment`] — named predictor configurations ([`PredictorKind`])
//!   and the coverage, timing and multi-programmed experiment drivers.
//! * [`engine`] — the unified experiment engine: declarative [`RunSpec`]
//!   keys, a deduplicating [`engine::Scheduler`] planning over pluggable
//!   [`engine::ExecutionBackend`]s (thread pool, subprocess workers),
//!   spec-keyed [`engine::ResultSet`]s and the serialized `results/`
//!   artifact cache.
//! * [`report`] — fixed-width table formatting for paper-style output.
//!
//! # Example
//!
//! ```
//! use ltc_sim::experiment::{run_coverage, PredictorKind};
//!
//! let report = run_coverage("mcf", PredictorKind::LtCords, 50_000, 1);
//! assert!(report.base_l1_misses > 0);
//! ```

pub mod engine;
pub mod experiment;
pub mod report;

pub use engine::{
    BackendKind, EngineOptions, ExecutionBackend, Mode, ProgressMode, ResultSet, RunResult,
    RunSpec, Scheduler,
};
pub use experiment::{
    run_coverage, run_multiprog, run_timing, MultiProgReport, PredictorKind, COVERAGE_ACCESSES,
    TIMING_ACCESSES,
};
pub use report::Table;

// The serde_json shim, re-exported for worker-protocol peers (`ltsim
// worker` parses spec lines with the same parser the engine writes with).
pub use serde_json;

pub use ltc_analysis as analysis;
pub use ltc_cache as cache;
pub use ltc_lasttouch as lasttouch;
pub use ltc_predictors as predictors;
pub use ltc_stream as stream;
pub use ltc_timing as timing;
pub use ltc_trace as trace;
pub use ltcords as core;
