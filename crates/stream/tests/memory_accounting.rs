//! Size-accounting audit (ISSUE 6 satellite d).
//!
//! `memory_bytes()` is the honest resident-footprint figure the budget
//! sweeps compare exact tables and sketches on — if it drifts from the
//! actual allocation layout, every "sketch X beats exact table at N KiB"
//! claim silently rots. These tests recompute each summary's footprint
//! from its public geometry and the documented per-slot packing and
//! assert exact agreement, plus the hard budget bound for any stream
//! length.

use ltc_stream::{ChhConfig, ChhSummary, CountMin, SpaceSaving};

/// CountMin holds `width × depth` u64 counters plus one u64 row seed per
/// row — nothing else scales with the stream.
#[test]
fn countmin_memory_matches_layout() {
    for (width, depth, seed) in [(64usize, 4usize, 1u64), (1 << 12, 2, 9), (1, 3, 7)] {
        let mut cm = CountMin::new(width, depth, seed);
        let padded_width = width.next_power_of_two() as u64;
        let expected = padded_width * depth as u64 * 8 + depth as u64 * 8;
        assert_eq!(cm.memory_bytes(), expected, "{width}x{depth}");
        // Observations never change the footprint.
        for key in 0..10_000u64 {
            cm.observe(key);
        }
        assert_eq!(cm.memory_bytes(), expected);
    }
}

/// `with_budget` must honour the counter budget it was given.
#[test]
fn countmin_budget_is_a_hard_bound() {
    for budget in [256u64, 4 << 10, 1 << 16, (1 << 16) + 999] {
        let cm = CountMin::with_budget(budget, 2, 1);
        let counters = cm.width() as u64 * cm.depth() as u64 * 8;
        assert!(counters <= budget.max(2 * 8 * 2), "counters {counters} exceed budget {budget}");
    }
}

/// CHH's resident bytes are exactly: packed outer entries + packed inline
/// inner slots (together `key_capacity × bytes_per_key`) + the nested
/// pair sketch, which gets a quarter of the budget. The layout constant
/// is pinned too: 16-byte outer entries and 16-byte inner slots.
#[test]
fn chh_memory_matches_layout() {
    for budget in [16u64 << 10, 64 << 10, 100_000] {
        let cfg = ChhConfig::with_budget(budget).with_seed(5);
        let mut chh = ChhSummary::new(cfg);
        assert_eq!(
            cfg.bytes_per_key(),
            16 + cfg.inner_capacity as u64 * 16,
            "packed entry/slot sizes changed — update the budget math docs"
        );
        let pairs = CountMin::with_budget(budget / 4, 2, cfg.seed);
        let expected = chh.key_capacity() as u64 * cfg.bytes_per_key() + pairs.memory_bytes();
        assert_eq!(chh.memory_bytes(), expected, "budget {budget}");
        assert!(chh.memory_bytes() <= budget, "resident exceeds budget {budget}");
        // The allocation is up front: a long stream moves nothing.
        for i in 0..50_000u64 {
            chh.observe(i % 999, i % 31);
        }
        assert_eq!(chh.memory_bytes(), expected);
    }
}

/// Space-Saving charges `entry_bytes()` per monitored key (entry payload
/// plus index/order bookkeeping), growing only until capacity.
#[test]
fn spacesaving_memory_matches_layout() {
    let mut ss: SpaceSaving<u64> = SpaceSaving::new(100);
    assert_eq!(ss.memory_bytes(), 0, "empty summary holds no entries");
    for key in 0..1_000u64 {
        ss.observe(key);
        assert_eq!(ss.memory_bytes(), ss.len() as u64 * SpaceSaving::<u64>::entry_bytes());
    }
    assert_eq!(ss.len(), 100, "capacity caps the entry count");
    let budgeted: SpaceSaving<u64> = SpaceSaving::with_budget(8 << 10);
    assert!(
        budgeted.capacity() as u64 * SpaceSaving::<u64>::entry_bytes() <= 8 << 10,
        "with_budget must fit the stated budget"
    );
}
