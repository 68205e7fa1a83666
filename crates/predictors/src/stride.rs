//! A classic per-PC stride prefetcher (Baer & Chen style).

use ltc_cache::{HierarchyOutcome, PrefetchRequest};
use ltc_trace::{Addr, MemoryAccess, Pc};

use crate::prefetcher::Prefetcher;

/// Configuration for [`StridePrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Table entries (direct-mapped by PC).
    pub entries: usize,
    /// Consecutive equal strides required before prefetching.
    pub train_threshold: u8,
    /// Prefetch degree (blocks fetched ahead once trained).
    pub degree: u32,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig { entries: 256, train_threshold: 2, degree: 2 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    count: u8,
    valid: bool,
}

/// Detects constant-stride streams per PC and prefetches ahead into L2.
///
/// Included as the historical baseline that GHB PC/DC subsumes (the paper's
/// Section 1 lists strided-access prefetchers as the narrow-coverage
/// starting point of the lineage).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    table: Vec<StrideEntry>,
}

impl StridePrefetcher {
    /// Creates an empty stride table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(cfg.entries > 0, "stride table needs at least one entry");
        StridePrefetcher {
            cfg,
            table: vec![StrideEntry::default(); cfg.entries.next_power_of_two()],
        }
    }

    fn entry_mut(&mut self, pc: Pc) -> &mut StrideEntry {
        let idx = (pc.0 as usize) & (self.table.len() - 1);
        &mut self.table[idx]
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        // Train on every access; issue only on misses to bound traffic.
        let cfg = self.cfg;
        let e = self.entry_mut(access.pc);
        let addr = access.addr.0;
        if !e.valid || e.pc_tag != access.pc.0 {
            *e = StrideEntry {
                pc_tag: access.pc.0,
                last_addr: addr,
                stride: 0,
                count: 0,
                valid: true,
            };
            return;
        }
        let new_stride = addr as i64 - e.last_addr as i64;
        if new_stride == e.stride && new_stride != 0 {
            e.count = e.count.saturating_add(1);
        } else {
            e.stride = new_stride;
            e.count = 1;
        }
        e.last_addr = addr;
        if e.count >= cfg.train_threshold && !outcome.l1.hit {
            let stride = e.stride;
            for k in 1..=cfg.degree {
                let target = addr.wrapping_add_signed(stride * i64::from(k));
                out.push(PrefetchRequest::into_l2(Addr(target).line(64)));
            }
        }
    }

    fn storage_bytes(&self) -> u64 {
        // ~17 bytes per entry: tag + addr + stride + counter.
        self.table.len() as u64 * 17
    }

    fn memory_bytes(&self) -> u64 {
        // Fixed array: resident memory is the full-width entries.
        self.table.len() as u64 * std::mem::size_of::<StrideEntry>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::{Hierarchy, HierarchyConfig};
    use ltc_trace::AccessKind;

    fn run(accesses: &[(u64, u64)]) -> Vec<PrefetchRequest> {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        for &(pc, addr) in accesses {
            let a = MemoryAccess::load(Pc(pc), Addr(addr));
            let o = h.access(a.addr, AccessKind::Load);
            p.on_access(&a, &o, &mut out);
        }
        out
    }

    #[test]
    fn detects_constant_stride() {
        let seq: Vec<(u64, u64)> = (0..8).map(|i| (0x400, 0x1000 + i * 256)).collect();
        let reqs = run(&seq);
        assert!(!reqs.is_empty(), "trained stride stream must prefetch");
        // Targets run ahead of the stream at the detected stride.
        let last_addr = 0x1000 + 7 * 256;
        assert!(reqs.iter().any(|r| r.target.0 > last_addr));
    }

    #[test]
    fn irregular_stream_stays_quiet() {
        let seq: Vec<(u64, u64)> =
            vec![(0x400, 0x1000), (0x400, 0x5040), (0x400, 0x2980), (0x400, 0x7000)];
        assert!(run(&seq).is_empty());
    }

    #[test]
    fn different_pcs_train_independently() {
        // Interleaved streams from two PCs, each strided. (PCs chosen to
        // avoid aliasing in the 256-entry direct-mapped table.)
        let mut seq = Vec::new();
        for i in 0..8u64 {
            seq.push((0x401, 0x10_0000 + i * 128));
            seq.push((0x502, 0x90_0000 + i * 320));
        }
        let reqs = run(&seq);
        assert!(!reqs.is_empty(), "per-PC tables must see through interleaving");
    }

    #[test]
    fn prefetches_go_to_l2() {
        let seq: Vec<(u64, u64)> = (0..8).map(|i| (0x400, 0x1000 + i * 256)).collect();
        for r in run(&seq) {
            assert_eq!(r.level, ltc_cache::PrefetchLevel::L2);
        }
    }
}
