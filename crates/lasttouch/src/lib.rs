//! Last-touch history tables and signature construction.
//!
//! Both the Dead-Block Correlating Prefetcher (DBCP, the paper's baseline
//! from Lai & Falsafi, the paper's reference 12) and LT-cords itself construct predictions from
//! *last-touch signatures*: a hash of the PC trace that touched a cache block
//! from its fill until its eviction, combined with the address history of the
//! block's cache set (paper Sections 2 and 4.1). This crate implements that
//! shared machinery once:
//!
//! * [`Signature`] / [`SignatureScheme`] — the truncated signature hash
//!   (32-bit in the paper's trace-driven studies, 23-bit in the
//!   cycle-accurate configuration of Section 5.6).
//! * [`Confidence`] — the 2-bit saturating confidence counter initialized to
//!   2 "to expedite training" (Section 4.4).
//! * [`HistoryTable`] — a structure organized like the L1D tag array that
//!   accumulates per-block PC traces and per-set eviction history, yielding
//!   a lookup signature on every committed access and a training
//!   [`SignatureRecord`] on every eviction.
//!
//! # Example
//!
//! ```
//! use ltc_lasttouch::{HistoryTable, SignatureScheme};
//! use ltc_cache::CacheConfig;
//! use ltc_trace::{Addr, Pc};
//!
//! let mut history = HistoryTable::new(CacheConfig::l1d(), SignatureScheme::trace_mode());
//! // An access to a block updates its trace and yields a lookup signature.
//! let sig = history.record_access(Addr(0x1000), Pc(0x400100));
//! // When the block is later evicted by a miss to 0x9000, training data
//! // (the same signature, paired with the replacement) is produced.
//! let rec = history.record_eviction(Addr(0x1000), Addr(0x9000)).unwrap();
//! assert_eq!(rec.signature, sig);
//! assert_eq!(rec.predicted, Addr(0x9000));
//! ```

pub mod confidence;
pub mod history;
pub mod signature;

pub use confidence::Confidence;
pub use history::HistoryTable;
pub use signature::{Signature, SignatureRecord, SignatureScheme};
