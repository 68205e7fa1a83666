//! Workload pattern primitives.
//!
//! Each paper benchmark is modelled as a parameterization of a small number
//! of *pattern primitives*, chosen so that the properties LT-cords depends on
//! (miss-sequence recurrence, footprint, dependence chains, layout
//! regularity) match the qualitative characterization in the paper:
//!
//! * [`SweepGen`] — repeated sequential/strided passes over one or more
//!   arrays (SPECfp array codes: swim, applu, mgrid, lucas, art, …).
//! * [`ChaseGen`] — pointer chasing over a mostly-static linked structure,
//!   with optional per-pass mutation that makes recorded signatures stale
//!   (mcf, em3d, ammp, parser).
//! * [`TreeGen`] — depth-first walks or root-to-leaf path walks over a
//!   statically allocated tree (treeadd, bh).
//! * [`IndirectGen`] — sparse `x[idx[i]]` gathers with a static index array
//!   (equake, galgel, facerec).
//! * [`RandomGen`] — uniformly random, non-recurring references
//!   (hash-dominated codes: twolf's move evaluation, bzip2 buckets).
//! * [`HashWindowGen`] — a sequential input window plus random hash-table
//!   probes (gzip).
//! * [`PhaseMix`] — cycles through several sub-generators in short phases
//!   (gcc's many small program phases).
//!
//! All generators are deterministic given their seed and unbounded (they
//! iterate their outer loop forever, like the paper's benchmarks).

mod chase;
mod gap;
mod hashwindow;
mod indirect;
mod phase;
mod random;
mod sweep;
mod tree;

pub use chase::{ChaseConfig, ChaseGen, Layout};
pub use gap::GapModel;
pub use hashwindow::{HashWindowConfig, HashWindowGen};
pub use indirect::{IndirectConfig, IndirectGen};
pub use phase::PhaseMix;
pub use random::{RandomConfig, RandomGen};
pub use sweep::{SweepConfig, SweepGen};
pub use tree::{Traversal, TreeConfig, TreeGen, TreeLayout};

/// Cache-line size assumed by generators when sizing nodes and runs (bytes).
///
/// This matches the paper's 64-byte lines (Table 1); the cache simulator's
/// geometry is configured independently, but generators use this constant to
/// reason about spatial locality.
pub const LINE_BYTES: u64 = 64;

/// `x % m`, skipping the division when `x` is already below `m` (the
/// common case for the per-access offsets it wraps).
#[inline]
fn wrap(x: u64, m: u64) -> u64 {
    if x < m {
        x
    } else {
        x % m
    }
}
