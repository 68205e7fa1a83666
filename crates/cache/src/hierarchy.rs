//! Two-level cache hierarchy (L1D + unified L2).

use ltc_trace::{AccessKind, Addr};

use crate::cache::{AccessOutcome, Cache, PrefetchOutcome};
use crate::config::CacheConfig;

/// Where a demand access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Hit in the L1 data cache (2 cycles in Table 1).
    L1,
    /// Hit in the unified L2 (20 cycles).
    L2,
    /// Served from main memory (200 cycles + transfer).
    Memory,
}

/// Configuration for a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's baseline hierarchy (Table 1).
    pub fn paper() -> Self {
        HierarchyConfig { l1: CacheConfig::l1d(), l2: CacheConfig::l2() }
    }

    /// The Table 3 "4MB L2" comparison hierarchy.
    pub fn paper_4mb_l2() -> Self {
        HierarchyConfig { l1: CacheConfig::l1d(), l2: CacheConfig::l2_4mb() }
    }
}

/// Outcome of one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyOutcome {
    /// Level that served the access.
    pub level: MemLevel,
    /// L1 access detail (always present).
    pub l1: AccessOutcome,
    /// L2 access detail (present only when L1 missed).
    pub l2: Option<AccessOutcome>,
    /// Dirty write-back from L1 to L2 occurred.
    pub l1_writeback: bool,
    /// Dirty write-back from L2 to memory occurred.
    pub l2_writeback: bool,
}

/// A write-back two-level hierarchy: 64 KB L1D backed by a unified L2.
///
/// The model is *non-inclusive, mostly-inclusive in practice*: L1 misses
/// always allocate in both levels, L2 evictions do not invalidate L1 (the
/// paper's SimpleScalar baseline behaves the same way). Dirty L1 victims are
/// written back into L2, keeping write-back traffic observable for the
/// bandwidth study (Figure 12).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::GeometryError`] message if either level's
    /// geometry is invalid; use [`Hierarchy::try_new`] for a typed error.
    pub fn new(cfg: HierarchyConfig) -> Self {
        match Hierarchy::try_new(cfg) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates an empty hierarchy, rejecting invalid geometry in either
    /// level as a typed [`crate::GeometryError`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (L1 checked before L2).
    pub fn try_new(cfg: HierarchyConfig) -> Result<Self, crate::GeometryError> {
        Ok(Hierarchy { l1: Cache::try_new(cfg.l1)?, l2: Cache::try_new(cfg.l2)? })
    }

    /// Assembles a hierarchy from already-restored levels (the image
    /// restore path; validation happened per level).
    pub(crate) fn from_levels(l1: Cache, l2: Cache) -> Self {
        Hierarchy { l1, l2 }
    }

    /// The L1 data cache.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Performs one demand access through both levels.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> HierarchyOutcome {
        let l1 = self.l1.access(addr, kind);
        let mut l1_writeback = false;
        let mut l2_writeback = false;
        if l1.hit {
            return HierarchyOutcome {
                level: MemLevel::L1,
                l1,
                l2: None,
                l1_writeback,
                l2_writeback,
            };
        }
        // L1 victim write-back allocates/updates in L2.
        if let Some(ev) = &l1.evicted {
            if ev.dirty {
                l1_writeback = true;
                let wb = self.l2.access(ev.addr, AccessKind::Store);
                if let Some(l2ev) = wb.evicted {
                    l2_writeback |= l2ev.dirty;
                }
            }
        }
        let l2 = self.l2.access(addr, kind);
        if let Some(l2ev) = &l2.evicted {
            l2_writeback |= l2ev.dirty;
        }
        let level = if l2.hit { MemLevel::L2 } else { MemLevel::Memory };
        HierarchyOutcome { level, l1, l2: Some(l2), l1_writeback, l2_writeback }
    }

    /// Installs a prefetch into the L1 (and L2, where the data necessarily
    /// passes through), optionally displacing a predicted-dead victim.
    /// Returns the L1 outcome and whether the data had to come from memory.
    pub fn prefetch_into_l1(
        &mut self,
        addr: Addr,
        intended_victim: Option<Addr>,
    ) -> (PrefetchOutcome, MemLevel) {
        let from = if self.l2.contains(addr) { MemLevel::L2 } else { MemLevel::Memory };
        if from == MemLevel::Memory {
            let _ = self.l2.fill_prefetch(addr, None);
        }
        let out = self.l1.fill_prefetch(addr, intended_victim);
        // A dirty victim displaced by the prefetch is written back to L2.
        if let PrefetchOutcome::Filled { evicted: Some(ev), .. } = &out {
            if ev.dirty {
                let _ = self.l2.access(ev.addr, AccessKind::Store);
            }
        }
        (out, from)
    }

    /// Installs a prefetch into the L2 only (the GHB policy; the paper notes
    /// GHB cannot prefetch into L1 without risking pollution, Section 5.7).
    pub fn prefetch_into_l2(&mut self, addr: Addr) -> (PrefetchOutcome, MemLevel) {
        let from = if self.l2.contains(addr) { MemLevel::L2 } else { MemLevel::Memory };
        (self.l2.fill_prefetch(addr, None), from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::paper())
    }

    #[test]
    fn try_new_rejects_bad_level_geometry() {
        let bad_l1 = HierarchyConfig {
            l1: CacheConfig { line_bytes: 48, ..CacheConfig::l1d() },
            l2: CacheConfig::l2(),
        };
        assert!(matches!(
            Hierarchy::try_new(bad_l1),
            Err(crate::GeometryError::LineSizeNotPowerOfTwo { line_bytes: 48 })
        ));
        let bad_l2 = HierarchyConfig {
            l1: CacheConfig::l1d(),
            l2: CacheConfig { total_bytes: 100_000, ..CacheConfig::l2() },
        };
        assert!(matches!(
            Hierarchy::try_new(bad_l2),
            Err(crate::GeometryError::CapacityNotDivisible { .. })
        ));
        assert!(Hierarchy::try_new(HierarchyConfig::paper()).is_ok());
    }

    #[test]
    fn cold_access_reaches_memory() {
        let mut hh = h();
        let out = hh.access(Addr(0x1000), AccessKind::Load);
        assert_eq!(out.level, MemLevel::Memory);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut hh = h();
        hh.access(Addr(0x1000), AccessKind::Load);
        let out = hh.access(Addr(0x1010), AccessKind::Load);
        assert_eq!(out.level, MemLevel::L1);
        assert!(out.l2.is_none());
    }

    #[test]
    fn l2_hit_when_evicted_from_l1_only() {
        let mut hh = h();
        // L1 is 2-way x 512 sets; create 3 conflicting lines in L1 set 0.
        let span = 512 * 64;
        hh.access(Addr(0), AccessKind::Load);
        hh.access(Addr(span), AccessKind::Load);
        hh.access(Addr(2 * span), AccessKind::Load); // evicts line 0 from L1
        let out = hh.access(Addr(0), AccessKind::Load);
        assert_eq!(out.level, MemLevel::L2, "L2 is big enough to retain line 0");
    }

    #[test]
    fn dirty_l1_victim_written_back_to_l2() {
        let mut hh = h();
        let span = 512 * 64;
        hh.access(Addr(0), AccessKind::Store);
        hh.access(Addr(span), AccessKind::Load);
        let out = hh.access(Addr(2 * span), AccessKind::Load);
        assert!(out.l1_writeback, "dirty LRU victim must write back");
    }

    #[test]
    fn prefetch_into_l1_satisfies_next_access() {
        let mut hh = h();
        hh.prefetch_into_l1(Addr(0x2000), None);
        let out = hh.access(Addr(0x2000), AccessKind::Load);
        assert_eq!(out.level, MemLevel::L1);
        assert!(out.l1.first_use_of_prefetch);
    }

    #[test]
    fn prefetch_into_l2_leaves_l1_cold() {
        let mut hh = h();
        hh.prefetch_into_l2(Addr(0x3000));
        let out = hh.access(Addr(0x3000), AccessKind::Load);
        assert_eq!(out.level, MemLevel::L2, "first touch still misses L1");
    }

    #[test]
    fn prefetch_source_level_reported() {
        let mut hh = h();
        let (_, from_mem) = hh.prefetch_into_l1(Addr(0x4000), None);
        assert_eq!(from_mem, MemLevel::Memory);
        // Once in L2, a later prefetch of the same line is L2-sourced.
        let span = 512 * 64;
        hh.access(Addr(0x4000 + span), AccessKind::Load);
        hh.access(Addr(0x4000 + 2 * span), AccessKind::Load); // push 0x4000 out of L1
        let (_, from) = hh.prefetch_into_l1(Addr(0x4000), None);
        assert_eq!(from, MemLevel::L2);
    }

    #[test]
    fn four_mb_l2_retains_more() {
        let mut small = Hierarchy::new(HierarchyConfig::paper());
        let mut big = Hierarchy::new(HierarchyConfig::paper_4mb_l2());
        // Touch 2 MB of lines, then re-touch: the 1 MB L2 has evicted the
        // early lines, the 4 MB L2 has not.
        for i in 0..(2 << 20) / 64 {
            small.access(Addr(i * 64), AccessKind::Load);
            big.access(Addr(i * 64), AccessKind::Load);
        }
        let small_l2_before = small.l2().stats().misses;
        let big_l2_before = big.l2().stats().misses;
        for i in 0..(2 << 20) / 64 {
            small.access(Addr(i * 64), AccessKind::Load);
            big.access(Addr(i * 64), AccessKind::Load);
        }
        let small_new = small.l2().stats().misses - small_l2_before;
        let big_new = big.l2().stats().misses - big_l2_before;
        assert!(big_new < small_new / 4, "4MB L2 re-touch should mostly hit");
    }
}
