//! The Dead-Block Correlating Prefetcher (Lai & Falsafi, ISCA'01).
//!
//! DBCP keeps the full signature-to-replacement correlation table *on chip*.
//! With unlimited storage it is the coverage upper bound LT-cords is judged
//! against (Figure 8); with realistic storage (2 MB in Table 1) its coverage
//! collapses for applications whose signature working set exceeds the table
//! (Figure 4), which is the motivation for LT-cords.

use ltc_cache::{CacheConfig, HierarchyOutcome, PrefetchOutcome, PrefetchRequest};
use ltc_lasttouch::{HistoryTable, Signature, SignatureScheme};
use ltc_stream::hash::FoldMap;
use ltc_trace::{Addr, MemoryAccess};

use crate::prefetcher::Prefetcher;
use crate::table::{CorrelationTable, TableConfig};

/// Configuration for [`DbcpPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbcpConfig {
    /// Correlation table sizing.
    pub table: TableConfig,
    /// Signature scheme (32-bit trace mode by default).
    pub scheme: SignatureScheme,
    /// L1D geometry mirrored by the history table.
    pub l1: CacheConfig,
}

impl DbcpConfig {
    /// The "oracle" DBCP with unlimited correlation storage (Figure 8).
    pub fn unlimited() -> Self {
        DbcpConfig {
            table: TableConfig::unlimited(),
            scheme: SignatureScheme::trace_mode(),
            l1: CacheConfig::l1d(),
        }
    }

    /// The realistic DBCP with a 2 MB on-chip table (Tables 1 and 3).
    pub fn paper_2mb() -> Self {
        DbcpConfig { table: TableConfig::with_bytes(2 << 20), ..DbcpConfig::unlimited() }
    }

    /// DBCP with an arbitrary table byte budget (the Figure 4 sweep).
    pub fn with_table_bytes(bytes: u64) -> Self {
        DbcpConfig { table: TableConfig::with_bytes(bytes), ..DbcpConfig::unlimited() }
    }
}

/// Dead-block correlating prefetcher with an on-chip correlation table.
#[derive(Debug)]
pub struct DbcpPrefetcher {
    history: HistoryTable,
    table: CorrelationTable,
    /// In-flight prefetches: target line -> signature that produced them
    /// (for confidence feedback).
    inflight: FoldMap<Addr, Signature>,
    predictions: u64,
}

impl DbcpPrefetcher {
    /// Creates a DBCP instance.
    pub fn new(cfg: DbcpConfig) -> Self {
        DbcpPrefetcher {
            history: HistoryTable::new(cfg.l1, cfg.scheme),
            table: CorrelationTable::new(cfg.table),
            inflight: FoldMap::default(),
            predictions: 0,
        }
    }

    /// Number of last-touch predictions made so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Live correlation-table entries (diagnostics; grows without bound in
    /// the unlimited configuration).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    fn line(&self, addr: Addr) -> Addr {
        addr.line(64)
    }
}

impl Prefetcher for DbcpPrefetcher {
    fn name(&self) -> &'static str {
        "dbcp"
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let line = self.line(access.addr);
        // 1. Confidence feedback from the cache's prefetch provenance.
        if outcome.l1.first_use_of_prefetch {
            if let Some(sig) = self.inflight.remove(&line) {
                self.table.update_confidence(sig, true);
            }
        }
        if let Some(ev) = &outcome.l1.evicted {
            if ev.prefetched_unused {
                if let Some(sig) = self.inflight.remove(&ev.addr) {
                    self.table.update_confidence(sig, false);
                }
            }
        }
        // 2. Train on the demand eviction (the victim's last touch is now
        //    known, and the replacement is this very access).
        if let Some(ev) = &outcome.l1.evicted {
            if let Some(rec) = self.history.record_eviction(ev.addr, line) {
                self.table.train(rec.signature, rec.predicted);
            }
        }
        // 3. Update the history trace and look the signature up.
        let sig = self.history.record_access(access.addr, access.pc);
        if let Some((predicted, conf)) = self.table.lookup(sig) {
            if conf.is_confident() && predicted != line {
                self.predictions += 1;
                out.push(PrefetchRequest::into_l1(predicted, line));
            }
        }
    }

    fn on_prefetch_applied(&mut self, req: &PrefetchRequest, outcome: &PrefetchOutcome) {
        if let PrefetchOutcome::Filled { evicted, .. } = outcome {
            // Track for confidence feedback.
            if let Some(victim) = req.victim {
                // The signature that predicted this prefetch belongs to the
                // victim's frame; recover it from the history table before
                // the frame is retargeted.
                if let Some(sig) = self.history.peek_signature(victim) {
                    self.inflight.insert(req.target, sig);
                }
            }
            // Train on the prefetch-induced eviction exactly as on a demand
            // eviction: the displaced block's last touch is final.
            if let Some(ev) = evicted {
                if let Some(rec) = self.history.record_eviction(ev.addr, req.target) {
                    self.table.train(rec.signature, rec.predicted);
                }
            }
        }
    }

    fn storage_bytes(&self) -> u64 {
        self.table.storage_bytes() + self.history.storage_bytes()
    }

    fn memory_bytes(&self) -> u64 {
        self.table.memory_bytes() + self.history.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::{Hierarchy, HierarchyConfig};
    use ltc_trace::{AccessKind, Pc};

    /// Drives a small loop that cycles three conflicting lines through one
    /// L1 set, which is the canonical DBCP pattern of Figure 1.
    fn drive_conflict_loop(p: &mut DbcpPrefetcher, iterations: usize) -> (u64, u64) {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let span = 512 * 64; // L1 set span
        let lines = [0u64, span, 2 * span, 3 * span];
        let mut misses = 0;
        let mut accesses = 0;
        let mut out = Vec::new();
        for _ in 0..iterations {
            for (i, &l) in lines.iter().enumerate() {
                let a = MemoryAccess::load(Pc(0x400 + i as u64 * 8), Addr(l));
                let o = h.access(a.addr, AccessKind::Load);
                accesses += 1;
                misses += u64::from(!o.l1.hit);
                p.on_access(&a, &o, &mut out);
                for req in out.drain(..) {
                    if let Some(po) = h.prefetch(&req) {
                        p.on_prefetch_applied(&req, &po);
                    }
                }
            }
        }
        (accesses, misses)
    }

    #[test]
    fn learns_recurring_conflict_pattern() {
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let (_, misses_cold) = {
            let mut p2 = DbcpPrefetcher::new(DbcpConfig::unlimited());
            drive_conflict_loop(&mut p2, 2)
        };
        let (accesses, misses) = drive_conflict_loop(&mut p, 50);
        // After warm-up the prefetcher should eliminate most conflict misses.
        assert!(p.predictions() > 0, "predictions must fire");
        let warm_misses = misses.saturating_sub(misses_cold);
        let warm_accesses = accesses - 8;
        assert!(
            (warm_misses as f64) < 0.8 * (warm_accesses as f64),
            "DBCP should eliminate recurring conflict misses: {warm_misses}/{warm_accesses}"
        );
    }

    #[test]
    fn trains_signature_table_on_evictions() {
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        drive_conflict_loop(&mut p, 3);
        assert!(p.table_len() > 0, "evictions must create table entries");
    }

    #[test]
    fn tiny_table_underperforms_unlimited() {
        let mut small = DbcpPrefetcher::new(DbcpConfig::with_table_bytes(40)); // 8 entries
        let mut big = DbcpPrefetcher::new(DbcpConfig::unlimited());
        // A working set of many conflicting groups exceeds 8 entries.
        let mut h_small = Hierarchy::new(HierarchyConfig::paper());
        let mut h_big = Hierarchy::new(HierarchyConfig::paper());
        let span = 512 * 64;
        let mut out = Vec::new();
        let mut run = |p: &mut DbcpPrefetcher, h: &mut Hierarchy| {
            let mut misses = 0u64;
            for _ in 0..30 {
                for set in 0..64u64 {
                    // 4 aliases per 2-way set: every access misses without
                    // prefetching, and the predicted replacement is evicted
                    // (not resident) at prediction time, so prefetches help.
                    for alias in 0..4u64 {
                        let addr = Addr(set * 64 + alias * span);
                        let a = MemoryAccess::load(Pc(0x400 + alias), addr);
                        let o = h.access(a.addr, AccessKind::Load);
                        misses += u64::from(!o.l1.hit);
                        p.on_access(&a, &o, &mut out);
                        for req in out.drain(..) {
                            if let Some(po) = h.prefetch(&req) {
                                p.on_prefetch_applied(&req, &po);
                            }
                        }
                    }
                }
            }
            misses
        };
        let misses_small = run(&mut small, &mut h_small);
        let misses_big = run(&mut big, &mut h_big);
        assert!(
            misses_big < misses_small,
            "unlimited table must beat an 8-entry table ({misses_big} vs {misses_small})"
        );
    }

    #[test]
    fn storage_includes_table_and_history() {
        let p = DbcpPrefetcher::new(DbcpConfig::paper_2mb());
        assert!(p.storage_bytes() >= 2 << 20);
    }

    #[test]
    fn no_prediction_without_training() {
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        // First-touch misses only: nothing to correlate yet.
        for i in 0..100u64 {
            let a = MemoryAccess::load(Pc(0x400), Addr(i * 64));
            let o = h.access(a.addr, AccessKind::Load);
            p.on_access(&a, &o, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(p.predictions(), 0);
    }
}
