//! The Global History Buffer prefetcher, PC/DC variant (Nesbit & Smith).
//!
//! GHB PC/DC is the paper's strongest conventional baseline (Table 3): a
//! delta-correlating prefetcher that localizes the global miss stream by PC
//! and matches recurring *delta pairs* to predict upcoming misses. The paper
//! configures it with a 256-entry index table, a 256-entry history buffer
//! and prefetch depth 4 (Table 1), "as recommended for SPEC applications".

use ltc_cache::{HierarchyOutcome, PrefetchRequest};
use ltc_trace::{Addr, MemoryAccess};

use crate::prefetcher::Prefetcher;

/// Configuration for [`GhbPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhbConfig {
    /// Index table entries (PC-indexed).
    pub index_entries: usize,
    /// Global history buffer entries.
    pub ghb_entries: usize,
    /// Prefetch depth after a delta-pair match.
    pub depth: u32,
    /// Maximum per-PC chain length walked per miss.
    pub max_chain: usize,
}

impl Default for GhbConfig {
    fn default() -> Self {
        // Table 1: "GHB PC/DC, 4-deep, 256-entry IT, 256-entry GHB".
        GhbConfig { index_entries: 256, ghb_entries: 256, depth: 4, max_chain: 64 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ItEntry {
    pc_tag: u64,
    /// Absolute id of the most recent GHB entry for this PC.
    last_id: u64,
    valid: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct GhbEntry {
    addr: u64,
    /// Absolute id of the previous entry with the same PC (0 = none).
    prev_id: u64,
}

/// Delta-correlating prefetcher over a PC-localized global history buffer.
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    cfg: GhbConfig,
    index: Vec<ItEntry>,
    ring: Vec<GhbEntry>,
    /// Absolute id of the next entry to insert (ids start at 1).
    next_id: u64,
    /// Scratch for one miss's PC chain, oldest first, reused across
    /// misses so the hot path does not allocate.
    chain: Vec<u64>,
    /// Scratch for the chain's deltas, reused likewise.
    deltas: Vec<i64>,
}

impl GhbPrefetcher {
    /// Creates an empty GHB.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    pub fn new(cfg: GhbConfig) -> Self {
        assert!(cfg.index_entries > 0 && cfg.ghb_entries > 0, "GHB sizes must be non-zero");
        GhbPrefetcher {
            cfg,
            index: vec![ItEntry::default(); cfg.index_entries.next_power_of_two()],
            ring: vec![GhbEntry::default(); cfg.ghb_entries.next_power_of_two()],
            next_id: 1,
            chain: Vec::with_capacity(cfg.max_chain),
            deltas: Vec::with_capacity(cfg.max_chain),
        }
    }

    #[inline]
    fn ring_slot(&self, id: u64) -> usize {
        (id as usize) & (self.ring.len() - 1)
    }

    #[inline]
    fn id_live(&self, id: u64) -> bool {
        id != 0 && id + (self.ring.len() as u64) > self.next_id
    }

    /// Walks the per-PC chain into `self.chain`, miss addresses
    /// oldest-first (including the newest entry `head_id`).
    fn chain_oldest_first(&mut self, head_id: u64) {
        self.chain.clear();
        let mut id = head_id;
        while self.id_live(id) && self.chain.len() < self.cfg.max_chain {
            let e = self.ring[self.ring_slot(id)];
            self.chain.push(e.addr);
            id = e.prev_id;
            if id >= head_id {
                break; // stale pointer re-using a newer slot
            }
        }
        self.chain.reverse();
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        "ghb-pc/dc"
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if outcome.l1.hit {
            return; // GHB observes the L1D miss stream
        }
        let line = access.addr.line(64).0;
        // Index table lookup.
        let it_idx = (access.pc.0 as usize) & (self.index.len() - 1);
        let it = self.index[it_idx];
        let prev = if it.valid && it.pc_tag == access.pc.0 { it.last_id } else { 0 };
        // Insert the miss into the GHB.
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.ring_slot(id);
        self.ring[slot] = GhbEntry { addr: line, prev_id: prev };
        self.index[it_idx] = ItEntry { pc_tag: access.pc.0, last_id: id, valid: true };

        // Delta correlation over the PC-localized history.
        self.chain_oldest_first(id);
        if self.chain.len() < 3 {
            return;
        }
        let deltas = &mut self.deltas;
        deltas.clear();
        deltas.extend(self.chain.windows(2).map(|w| w[1] as i64 - w[0] as i64));
        let m = deltas.len();
        let key = (deltas[m - 2], deltas[m - 1]);
        // Search backwards (most recent occurrence first) for the key pair.
        let mut found = None;
        if m >= 3 {
            for j in (1..m - 2).rev() {
                if (deltas[j - 1], deltas[j]) == key {
                    found = Some(j);
                    break;
                }
            }
        }
        let Some(j) = found else { return };
        // Replay the deltas that followed the previous occurrence.
        let mut target = line as i64;
        let mut issued = 0;
        for &d in &deltas[j + 1..] {
            target += d;
            if target <= 0 {
                break;
            }
            out.push(PrefetchRequest::into_l2(Addr(target as u64).line(64)));
            issued += 1;
            if issued >= self.cfg.depth {
                break;
            }
        }
    }

    fn storage_bytes(&self) -> u64 {
        // IT entry ~10 B (tag + pointer), GHB entry ~12 B (addr + pointer).
        self.index.len() as u64 * 10 + self.ring.len() as u64 * 12
    }

    fn memory_bytes(&self) -> u64 {
        // Fixed arrays: resident memory is the full-width entries.
        self.index.len() as u64 * std::mem::size_of::<ItEntry>() as u64
            + self.ring.len() as u64 * std::mem::size_of::<GhbEntry>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::{Hierarchy, HierarchyConfig};
    use ltc_trace::{AccessKind, Pc};

    fn run(seq: &[(u64, u64)]) -> Vec<PrefetchRequest> {
        let mut p = GhbPrefetcher::new(GhbConfig::default());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        for &(pc, addr) in seq {
            let a = MemoryAccess::load(Pc(pc), Addr(addr));
            let o = h.access(a.addr, AccessKind::Load);
            p.on_access(&a, &o, &mut out);
        }
        out
    }

    #[test]
    fn constant_stride_is_a_special_case_of_delta_pairs() {
        let seq: Vec<(u64, u64)> = (0..12).map(|i| (0x400, 0x10_0000 + i * 4096)).collect();
        let reqs = run(&seq);
        assert!(!reqs.is_empty());
        // Predictions continue the stride lattice.
        assert!(reqs
            .iter()
            .all(|r| r.target.0 >= 0x10_0000 && (r.target.0 - 0x10_0000) % 4096 == 0));
    }

    #[test]
    fn recurring_delta_pattern_is_learned() {
        // Pattern of deltas: +64, +128, +4096 repeating (non-constant).
        let mut addr = 0x20_0000u64;
        let mut seq = Vec::new();
        for _ in 0..6 {
            for d in [64u64, 128, 4096] {
                seq.push((0x700, addr));
                addr += d;
            }
        }
        let reqs = run(&seq);
        assert!(!reqs.is_empty(), "repeating delta tuple must be predicted");
    }

    #[test]
    fn interleaved_pcs_do_not_confuse_localization() {
        // Two PCs with different strides, interleaved: PC localization must
        // keep the delta streams separate. (PCs chosen to avoid aliasing in
        // the 256-entry direct-mapped index table.)
        let mut seq = Vec::new();
        for i in 0..10u64 {
            seq.push((0x401, 0x10_0000 + i * 4096));
            seq.push((0x502, 0x80_0000 + i * 8192));
        }
        let reqs = run(&seq);
        assert!(!reqs.is_empty());
        for r in &reqs {
            let from_a = r.target.0 >= 0x10_0000 && r.target.0 < 0x50_0000;
            let from_b = r.target.0 >= 0x80_0000;
            assert!(from_a || from_b, "target {:#x} continues neither stream", r.target.0);
            if from_a {
                assert_eq!((r.target.0 - 0x10_0000) % 4096, 0);
            }
            if from_b {
                assert_eq!((r.target.0 - 0x80_0000) % 8192, 0);
            }
        }
    }

    #[test]
    fn random_misses_produce_no_predictions() {
        let seq: Vec<(u64, u64)> = vec![
            (0x400, 0x123_4000),
            (0x400, 0x87_1040),
            (0x400, 0x44_0080),
            (0x400, 0x99_20c0),
            (0x400, 0x15_3100),
            (0x400, 0x70_0140),
        ];
        assert!(run(&seq).is_empty());
    }

    #[test]
    fn hits_do_not_pollute_history() {
        // Misses at a stride with interleaved *hits* to an unrelated line.
        let mut p = GhbPrefetcher::new(GhbConfig::default());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        h.access(Addr(0x42_0000), AccessKind::Load); // warm one line
        for i in 0..10u64 {
            let miss = MemoryAccess::load(Pc(0x400), Addr(0x10_0000 + i * 4096));
            let o = h.access(miss.addr, AccessKind::Load);
            p.on_access(&miss, &o, &mut out);
            let hit = MemoryAccess::load(Pc(0x400), Addr(0x42_0000));
            let o = h.access(hit.addr, AccessKind::Load);
            p.on_access(&hit, &o, &mut out);
        }
        assert!(!out.is_empty(), "hits must not break the miss-delta stream");
    }

    #[test]
    fn ring_overwrite_invalidates_stale_chains() {
        // Fill the GHB far beyond capacity with one PC, then confirm the
        // chain walk stays bounded and alive.
        let seq: Vec<(u64, u64)> = (0..2000).map(|i| (0x400, 0x10_0000 + i * 4096)).collect();
        let reqs = run(&seq);
        assert!(!reqs.is_empty());
    }
}
