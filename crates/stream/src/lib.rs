//! Bounded-memory one-pass stream summaries.
//!
//! The exact DBCP correlation table grows with the number of distinct
//! last-touch signatures — megabytes for the paper's workloads, unbounded
//! for arbitrarily long traces. This crate provides the sketch
//! counterpart: reusable summaries that mine the same (signature →
//! next-miss) correlations online in memory that is fixed up front,
//! trading a quantified estimation error for independence from trace
//! length:
//!
//! * [`SpaceSaving`] — deterministic top-k frequency counting with the
//!   classic ε·N error bound (Metwally et al.).
//! * [`CountMin`] — a seeded counter sketch answering frequency queries
//!   for *any* key, never undercounting (Cormode & Muthukrishnan).
//! * [`ChhSummary`] — correlated heavy hitters over a two-dimensional
//!   stream: set-associative Space-Saving counters over keys, nested
//!   inner counters over each key's correlated values, and a
//!   [`CountMin`] over whole pairs capping the estimates (Lahiri et al.;
//!   Epicoco et al.).
//!
//! Both Space-Saving summaries run one count step — bump the item's
//! counter, or hand it the minimum counter and record what it inherited
//! (per observation [`ChhSummary`] takes it for the key, then the value)
//! — and one merge, the combine in [`merge`].
//!
//! Every summary reports its modelled resident footprint via
//! `memory_bytes()` and can be sized from a byte budget (`with_budget`);
//! the budget is a hard bound that holds for any stream length. Hashing
//! seeds derive from the workspace `rand` generator, so a summary's state
//! is a pure function of `(configuration, observation sequence)` — the
//! property that lets sketch-based experiment runs participate in the
//! engine's artifact cache.
//!
//! Every summary is also **mergeable**: `merge(&mut self, other)` folds a
//! same-shape peer in (shape checked via [`SketchShape`], mismatches are
//! typed [`MergeError`]s), with the combined error bounds documented on
//! each `merge`. Together with the serializable `*State` snapshots this
//! lets one logical trace be split across workers — each summarizes its
//! segment in budgeted memory, and the partial summaries combine into one
//! (`ltsim stream --segments N`).
//!
//! # Example
//!
//! ```
//! use ltc_stream::{ChhConfig, ChhSummary};
//!
//! // 64 KiB of summary, no matter how long the miss stream gets.
//! let mut chh = ChhSummary::new(ChhConfig::with_budget(64 << 10));
//! for i in 0..1_000_000u64 {
//!     let signature = i % 3;
//!     let next_miss = 0x1000 + signature * 0x40;
//!     chh.observe(signature, next_miss);
//! }
//! assert!(chh.memory_bytes() <= 64 << 10);
//! assert_eq!(chh.correlated(0).unwrap()[0].value, 0x1000);
//! ```

pub mod chh;
pub mod countmin;
pub mod hash;
pub mod merge;
pub mod spacesaving;

pub use chh::{ChhConfig, ChhPair, ChhState, ChhSummary};
pub use countmin::{CountMin, CountMinState};
pub use hash::{FoldHasher, FoldMap};
pub use merge::{MergeError, SketchShape};
pub use spacesaving::{Estimate, SpaceSaving, SpaceSavingState};
