//! Predictor size-accounting audit (ISSUE 6 satellite d).
//!
//! `Prefetcher::memory_bytes()` is the honest resident footprint the
//! budget-sweep figures charge each predictor; `storage_bytes()` is the
//! modelled hardware budget. The two serve different comparisons and
//! must not drift from the actual data-structure layout: these tests pin
//! the per-entry growth of the unlimited correlation table, the
//! constancy of the fixed-array organizations, and the budget bound of
//! the sketch predictor — all through public API, by differencing real
//! allocations rather than restating private constants.

use ltc_cache::{Hierarchy, HierarchyConfig};
use ltc_predictors::table::TableConfig;
use ltc_predictors::{
    CorrelationTable, DbcpConfig, DbcpPrefetcher, GhbConfig, GhbPrefetcher, NullPrefetcher,
    Prefetcher, SketchDbcp, StrideConfig, StridePrefetcher,
};
use ltc_trace::{Addr, MemoryAccess, Pc};

/// Drives a predictor through a conflict loop so its tables populate.
fn drive<P: Prefetcher>(p: &mut P, iterations: usize) {
    let mut h = Hierarchy::new(HierarchyConfig::paper());
    let span = 512 * 64;
    let mut out = Vec::new();
    for i in 0..iterations {
        for alias in 0..4u64 {
            let addr = Addr((i as u64 % 64) * 64 + alias * span);
            let a = MemoryAccess::load(Pc(0x400 + alias * 8), addr);
            let outcome = h.access(a.addr, a.kind);
            p.on_access(&a, &outcome, &mut out);
            out.clear();
        }
    }
}

/// The unlimited table's resident memory grows linearly: each distinct
/// signature costs exactly the same number of bytes, and the total is
/// always `len × per_entry`. (The hardware model stays at the paper's
/// 5 B/signature, strictly below the honest count.)
#[test]
fn unlimited_table_memory_grows_per_entry() {
    let mut table = CorrelationTable::new(TableConfig::unlimited());
    assert_eq!(table.memory_bytes(), 0);
    let sig = |i: u32| ltc_lasttouch::Signature(0x1000 + i * 17);
    table.train(sig(0), Addr(0x40));
    let per_entry = table.memory_bytes();
    assert!(per_entry > 0);
    for i in 1..500u32 {
        table.train(sig(i), Addr(0x40 + u64::from(i) * 64));
        assert_eq!(
            table.memory_bytes(),
            table.len() as u64 * per_entry,
            "entry {i} broke linear growth"
        );
    }
    // Re-training an existing signature allocates nothing.
    let before = table.memory_bytes();
    table.train(sig(3), Addr(0x9999 * 64));
    assert_eq!(table.memory_bytes(), before);
    assert!(table.storage_bytes() < table.memory_bytes(), "5 B model must undercut resident");
}

/// The finite organization allocates its sets×ways array up front: the
/// resident count is non-zero from construction and never moves, no
/// matter how many signatures stream through.
#[test]
fn finite_table_memory_is_constant() {
    let mut table = CorrelationTable::new(TableConfig::with_bytes(64 << 10));
    let cold = table.memory_bytes();
    assert!(cold > 0, "fixed array must be charged when empty");
    for i in 0..10_000u32 {
        table.train(ltc_lasttouch::Signature(i), Addr(u64::from(i) * 64));
    }
    assert_eq!(table.memory_bytes(), cold);
    assert_eq!(table.storage_bytes(), table.storage_bytes(), "model stays capacity-based");
}

/// Fixed-array prefetchers (GHB, stride) must report a footprint that is
/// constant across any stream and at least the modelled hardware bytes
/// (full-width entries cannot be smaller than the packed model).
#[test]
fn fixed_array_prefetchers_report_constant_honest_memory() {
    let mut ghb = GhbPrefetcher::new(GhbConfig::default());
    let mut stride = StridePrefetcher::new(StrideConfig::default());
    let ghb_cold = ghb.memory_bytes();
    let stride_cold = stride.memory_bytes();
    drive(&mut ghb, 500);
    drive(&mut stride, 500);
    assert_eq!(ghb.memory_bytes(), ghb_cold, "GHB arrays are fixed");
    assert_eq!(stride.memory_bytes(), stride_cold, "stride table is fixed");
    assert!(ghb.memory_bytes() >= ghb.storage_bytes());
    assert!(stride.memory_bytes() >= stride.storage_bytes());
}

/// DBCP's honest footprint = table resident + history storage; with the
/// unlimited table it must grow as signatures accumulate, and always
/// exceed the 5 B/signature hardware model.
#[test]
fn dbcp_memory_tracks_table_growth() {
    let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
    let cold = p.memory_bytes();
    drive(&mut p, 2_000);
    assert!(p.table_len() > 0, "drive loop must populate the table");
    assert!(p.memory_bytes() > cold, "unlimited table growth must show up");
    assert!(p.memory_bytes() > p.storage_bytes());
}

/// The sketch predictor's summary is budget-bounded up front, so its
/// honest footprint never exceeds the modelled budget+history storage,
/// and never moves however long the stream runs.
#[test]
fn sketch_dbcp_memory_stays_within_budget() {
    let mut p = SketchDbcp::new(64 << 10);
    let cold = p.memory_bytes();
    drive(&mut p, 3_000);
    assert_eq!(p.memory_bytes(), cold, "sketch allocation is up front");
    assert!(p.memory_bytes() <= p.storage_bytes(), "resident must fit the modelled budget");
}

/// The baseline holds nothing; the trait default ties memory to storage.
#[test]
fn null_prefetcher_holds_nothing() {
    let p = NullPrefetcher::new();
    assert_eq!(p.storage_bytes(), 0);
    assert_eq!(p.memory_bytes(), 0);
}
