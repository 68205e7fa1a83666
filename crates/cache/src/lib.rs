//! Set-associative cache hierarchy simulator.
//!
//! This crate provides the functional (hit/miss/eviction) cache model used
//! by every experiment in the LT-cords reproduction: a configurable
//! set-associative [`Cache`] with LRU or FIFO replacement, prefetch fills
//! with block provenance tracking, and a two-level [`Hierarchy`] matching the
//! paper's 64 KB 2-way L1D + 1 MB 8-way unified L2 (Table 1). Predictors
//! describe the fills they want as [`PrefetchRequest`]s; the coverage,
//! multi-programmed and timing simulators all apply them through
//! [`Hierarchy::prefetch`].
//!
//! The cache reports rich eviction information on every fill because the
//! last-touch predictors built on top of it (DBCP and LT-cords) train on
//! evictions: an eviction identifies the *last touch* of the evicted block
//! and pairs it with the replacing address (paper Section 2).
//!
//! # Example
//!
//! ```
//! use ltc_cache::{Cache, CacheConfig};
//! use ltc_trace::{Addr, AccessKind};
//!
//! let mut l1 = Cache::new(CacheConfig::l1d());
//! let miss = l1.access(Addr(0x1000), AccessKind::Load);
//! assert!(!miss.hit);
//! let hit = l1.access(Addr(0x1008), AccessKind::Load); // same line
//! assert!(hit.hit);
//! ```

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod image;
pub mod stats;

pub use cache::{AccessOutcome, Cache, EvictedBlock, PrefetchOutcome};
pub use config::{CacheConfig, Geometry, GeometryError, ReplacementPolicy};
pub use hierarchy::{
    Hierarchy, HierarchyConfig, HierarchyOutcome, MemLevel, PrefetchLevel, PrefetchRequest,
};
pub use image::{CacheImage, HierarchyImage, ImageError};
pub use stats::CacheStats;
