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
    /// L1 access detail.
    pub l1: AccessOutcome,
    /// Dirty write-back from L1 to L2 occurred.
    pub l1_writeback: bool,
    /// Dirty write-back from L2 to memory occurred.
    pub l2_writeback: bool,
}

/// Which cache level a prefetch fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchLevel {
    /// Fill directly into the L1 data cache, replacing a predicted-dead
    /// block (the DBCP/LT-cords policy — safe because the victim is dead,
    /// paper Section 2).
    L1,
    /// Fill into the L2 only (the GHB/stride policy — L1 fills would risk
    /// pollution, Section 5.7).
    L2,
}

/// One prefetch fill: a predictor's request, applied by
/// [`Hierarchy::prefetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Line to fetch.
    pub target: Addr,
    /// Predicted-dead block to displace (L1 prefetches only).
    pub victim: Option<Addr>,
    /// Destination level.
    pub level: PrefetchLevel,
}

impl PrefetchRequest {
    /// An L1 prefetch replacing `victim` (last-touch style).
    pub fn into_l1(target: Addr, victim: Addr) -> Self {
        PrefetchRequest { target, victim: Some(victim), level: PrefetchLevel::L1 }
    }

    /// An L2 prefetch with policy-chosen placement.
    pub fn into_l2(target: Addr) -> Self {
        PrefetchRequest { target, victim: None, level: PrefetchLevel::L2 }
    }
}

/// A write-back two-level hierarchy: 64 KB L1D backed by a unified L2.
///
/// The model is *non-inclusive, mostly-inclusive in practice*: L1 misses
/// always allocate in both levels, L2 evictions do not invalidate L1 (the
/// paper's SimpleScalar baseline behaves the same way). Dirty L1 victims are
/// written back into L2, keeping write-back traffic observable for the
/// bandwidth study (Figure 12). Demand accesses go through
/// [`Hierarchy::access`] and prefetch fills through [`Hierarchy::prefetch`],
/// which every simulator shares.
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
            return HierarchyOutcome { level: MemLevel::L1, l1, l1_writeback, l2_writeback };
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
        HierarchyOutcome { level, l1, l1_writeback, l2_writeback }
    }

    /// Applies one prefetch fill, returning the fill's outcome at
    /// `req.level`, or `None` (with nothing changed) when the target
    /// already sits there.
    ///
    /// An L1 prefetch displaces `req.victim` when it is resident in the
    /// target's set. Data coming from memory passes through, and fills,
    /// the L2 on the way, and a dirty L1 victim is written back to the L2.
    /// An L2 prefetch fills the L2 only (the GHB/stride policy; the paper
    /// notes GHB cannot prefetch into L1 without risking pollution,
    /// Section 5.7).
    pub fn prefetch(&mut self, req: &PrefetchRequest) -> Option<PrefetchOutcome> {
        let addr = req.target;
        match req.level {
            PrefetchLevel::L1 => {
                if self.l1.contains(addr) {
                    return None;
                }
                if !self.l2.contains(addr) {
                    let _ = self.l2.fill_prefetch(addr, None);
                }
                let out = self.l1.fill_prefetch(addr, req.victim);
                if let PrefetchOutcome::Filled { evicted: Some(ev), .. } = &out {
                    if ev.dirty {
                        let _ = self.l2.access(ev.addr, AccessKind::Store);
                    }
                }
                Some(out)
            }
            PrefetchLevel::L2 => {
                if self.l2.contains(addr) {
                    return None;
                }
                Some(self.l2.fill_prefetch(addr, None))
            }
        }
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

    /// An L1 prefetch with policy-chosen placement.
    fn into_l1(target: Addr) -> PrefetchRequest {
        PrefetchRequest { target, victim: None, level: PrefetchLevel::L1 }
    }

    #[test]
    fn prefetch_into_l1_satisfies_next_access() {
        let mut hh = h();
        hh.prefetch(&into_l1(Addr(0x2000)));
        let out = hh.access(Addr(0x2000), AccessKind::Load);
        assert_eq!(out.level, MemLevel::L1);
        assert!(out.l1.first_use_of_prefetch);
    }

    #[test]
    fn prefetch_into_l2_leaves_l1_cold() {
        let mut hh = h();
        hh.prefetch(&PrefetchRequest::into_l2(Addr(0x3000)));
        let out = hh.access(Addr(0x3000), AccessKind::Load);
        assert_eq!(out.level, MemLevel::L2, "first touch still misses L1");
    }

    #[test]
    fn prefetch_fills_through_l2_and_skips_resident_targets() {
        let line = Addr(0x4000);
        let fills =
            |hh: &Hierarchy| (hh.l1().stats().prefetch_fills, hh.l2().stats().prefetch_fills);
        let mut hh = h();
        // From memory: the line fills both levels.
        assert!(matches!(hh.prefetch(&into_l1(line)), Some(PrefetchOutcome::Filled { .. })));
        assert!(hh.l1().contains(line) && hh.l2().contains(line));
        assert_eq!(fills(&hh), (1, 1));
        // Already at its level: `None`, and neither level's stats move.
        let before = (*hh.l1().stats(), *hh.l2().stats());
        assert_eq!(hh.prefetch(&into_l1(line)), None);
        assert_eq!(hh.prefetch(&PrefetchRequest::into_l2(line)), None);
        assert_eq!((*hh.l1().stats(), *hh.l2().stats()), before);
        // Pushed out of L1 but still in L2: the L1 fill comes from L2,
        // which takes no second prefetch fill.
        let span = 512 * 64;
        hh.access(Addr(line.0 + span), AccessKind::Load);
        hh.access(Addr(line.0 + 2 * span), AccessKind::Load);
        assert!(!hh.l1().contains(line) && hh.l2().contains(line));
        assert!(hh.prefetch(&into_l1(line)).is_some());
        assert_eq!(fills(&hh), (2, 1));
        assert_eq!(hh.l2().stats().prefetch_already_present, 0);
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
