//! Baseline hardware prefetchers and the prefetcher interface.
//!
//! This crate defines the [`Prefetcher`] trait through which every predictor
//! in the reproduction (the [`NullPrefetcher`], a classic [`StridePrefetcher`],
//! the delta-correlating [`GhbPrefetcher`] of Nesbit & Smith, the
//! [`DbcpPrefetcher`] of Lai & Falsafi, and LT-cords itself in the `ltcords`
//! crate) plugs into the coverage and timing simulators, plus the baseline
//! implementations the paper compares against in Table 3. A predictor
//! only requests prefetches ([`PrefetchRequest`], defined in `ltc_cache`
//! and re-exported here); the simulators apply them through
//! `ltc_cache::Hierarchy::prefetch`.
//!
//! # Example
//!
//! ```
//! use ltc_predictors::{DbcpConfig, DbcpPrefetcher, Prefetcher};
//!
//! let dbcp = DbcpPrefetcher::new(DbcpConfig::unlimited());
//! assert_eq!(dbcp.name(), "dbcp");
//! ```

pub mod dbcp;
pub mod ghb;
pub mod null;
pub mod prefetcher;
pub mod queue;
pub mod sketch;
pub mod stride;
pub mod table;

pub use dbcp::{DbcpConfig, DbcpPrefetcher};
pub use ghb::{GhbConfig, GhbPrefetcher};
/// Prefetch requests describe a cache fill, so they live in `ltc_cache`;
/// they are re-exported here beside the trait that produces them.
pub use ltc_cache::{PrefetchLevel, PrefetchRequest};
/// The integer-key hasher of the hot maps, shared with `ltcords` (which
/// does not depend on `ltc_stream`).
pub use ltc_stream::hash::{FoldHasher, FoldMap};
pub use null::NullPrefetcher;
pub use prefetcher::{PredictorTraffic, Prefetcher};
pub use queue::RequestQueue;
pub use sketch::SketchDbcp;
pub use stride::{StrideConfig, StridePrefetcher};
pub use table::{CorrelationTable, TableConfig};
