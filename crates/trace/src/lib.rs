//! Memory-reference traces and synthetic workload generation.
//!
//! This crate is the bottom substrate of the LT-cords reproduction. It defines
//! the core value types shared by every other crate ([`Addr`], [`Pc`],
//! [`MemoryAccess`]), the [`TraceSource`] abstraction that all simulators
//! consume, a library of workload *pattern primitives* ([`gen`]), and the
//! named benchmark [`suite`] that stands in for the paper's SPEC CPU2000 and
//! Olden programs.
//!
//! The paper evaluates LT-cords on traces gathered from SimpleScalar/Alpha
//! runs of SPEC CPU2000 and Olden. Those binaries and traces are not
//! available here, so each benchmark is replaced by a deterministic synthetic
//! generator that reproduces the *structural* properties LT-cords is
//! sensitive to: recurrence of miss sequences (temporal correlation),
//! footprint relative to the cache hierarchy, dependence chains (memory-level
//! parallelism), and layout regularity (which determines whether
//! delta-correlating prefetchers such as GHB PC/DC can compete).
//!
//! # Example
//!
//! ```
//! use ltc_trace::{suite, TraceSource};
//!
//! let entry = suite::by_name("mcf").expect("mcf is part of the suite");
//! let mut source = entry.build(42); // 42 is the RNG seed
//! let first = source.next_access().expect("generators are unbounded");
//! assert!(first.addr.0 < 1 << 40);
//! ```

pub mod checkpoint;
pub mod gen;
pub mod interleave;
pub mod io;
pub mod packed;
pub mod record;
pub mod segment;
pub mod source;
pub mod stats;
pub mod suite;

pub use checkpoint::{Checkpoint, CheckpointStore, RestoreError, SourceState};
pub use interleave::MultiProgram;
pub use record::{AccessKind, Addr, MemoryAccess, Pc};
pub use segment::TraceSegment;
pub use source::{BoxedSource, Replay, TraceSource};
pub use stats::TraceStats;
pub use suite::{SuiteEntry, WorkloadClass};
