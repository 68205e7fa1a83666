//! A sketch-backed dead-block correlating prefetcher.
//!
//! `SketchDbcp` is DBCP with the exact correlation table replaced by a
//! bounded-memory [`ChhSummary`]: last-touch signatures are the keys,
//! observed replacement blocks the correlated values. Where the exact
//! table stores one `(signature → prediction, confidence)` entry per
//! distinct signature — megabytes that grow with the trace — the sketch
//! monitors only the heavy-hitter signatures and their dominant
//! replacements inside a byte budget fixed at construction, trading the
//! cold tail of the signature distribution for trace-length-independent
//! memory.
//!
//! Prediction plays the role of the table's 2-bit confidence: a
//! replacement is predicted once its pair estimate reaches
//! [`SketchDbcpConfig::min_count`] *and* dominates the runner-up by
//! [`SketchDbcpConfig::dominance`] — the sketch analogue of "confident
//! and not flapping between targets".

use ltc_cache::{CacheConfig, HierarchyOutcome, PrefetchOutcome, PrefetchRequest};
use ltc_lasttouch::{HistoryTable, SignatureScheme};
use ltc_stream::{ChhConfig, ChhSummary};
use ltc_trace::{Addr, MemoryAccess};

use crate::prefetcher::Prefetcher;

/// Configuration for [`SketchDbcp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchDbcpConfig {
    /// Byte budget for the correlation summary (the axis the sketch
    /// budget-sweep figure varies).
    pub budget_bytes: u64,
    /// Replacement candidates monitored per signature.
    pub inner_capacity: usize,
    /// Minimum pair estimate before a prediction fires.
    pub min_count: u64,
    /// The top candidate must reach `dominance ×` the runner-up's
    /// estimate (1 disables the check).
    pub dominance: u64,
    /// Signature scheme (32-bit trace mode by default).
    pub scheme: SignatureScheme,
    /// L1D geometry mirrored by the history table.
    pub l1: CacheConfig,
}

impl SketchDbcpConfig {
    /// A sketch predictor fitting `budget_bytes` of summary.
    ///
    /// `min_count` defaults to 1: real signature working sets exceed any
    /// interesting budget, so the summary churns and a monitored
    /// signature has typically been re-adopted since its last eviction.
    /// Demanding repeated confirmation would silence the predictor;
    /// instead a monitored signature predicts its dominant observed
    /// replacement immediately, and the Space-Saving outer summary is
    /// what concentrates the budget on signatures worth predicting.
    pub fn with_budget_bytes(budget_bytes: u64) -> Self {
        SketchDbcpConfig {
            budget_bytes,
            inner_capacity: 2,
            min_count: 1,
            dominance: 2,
            scheme: SignatureScheme::trace_mode(),
            l1: CacheConfig::l1d(),
        }
    }
}

/// DBCP over a correlated-heavy-hitter summary instead of an exact table.
#[derive(Debug)]
pub struct SketchDbcp {
    cfg: SketchDbcpConfig,
    history: HistoryTable,
    summary: ChhSummary,
    predictions: u64,
}

impl SketchDbcp {
    /// Creates a sketch predictor.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot hold a single signature (see
    /// [`ChhSummary::new`]).
    pub fn new(cfg: SketchDbcpConfig) -> Self {
        SketchDbcp {
            cfg,
            history: HistoryTable::new(cfg.l1, cfg.scheme),
            summary: ChhSummary::new(ChhConfig {
                budget_bytes: cfg.budget_bytes,
                inner_capacity: cfg.inner_capacity,
                ways: 8,
                seed: 0x17c5_723a,
            }),
            predictions: 0,
        }
    }

    /// Number of last-touch predictions made so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Signatures currently monitored by the summary (diagnostics).
    pub fn tracked_signatures(&self) -> usize {
        self.summary.keys()
    }

    fn line(&self, addr: Addr) -> Addr {
        addr.line(64)
    }
}

impl Prefetcher for SketchDbcp {
    fn name(&self) -> &'static str {
        "sketch-dbcp"
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let line = self.line(access.addr);
        // Train on the demand eviction, exactly like exact DBCP: the
        // victim's last-touch signature correlates with this replacement.
        if let Some(ev) = &outcome.l1.evicted {
            if let Some(rec) = self.history.record_eviction(ev.addr, line) {
                self.summary.observe(u64::from(rec.signature.0), rec.predicted.0);
            }
        }
        let sig = self.history.record_access(access.addr, access.pc);
        if let Some((best, second)) = self.summary.best_two(u64::from(sig.0)) {
            let runner_up = second.map_or(0, |s| s.estimate);
            let confident = best.estimate >= self.cfg.min_count
                && best.estimate >= self.cfg.dominance * runner_up;
            let predicted = Addr(best.value);
            if confident && predicted != line {
                self.predictions += 1;
                out.push(PrefetchRequest::into_l1(predicted, line));
            }
        }
    }

    fn on_prefetch_applied(&mut self, req: &PrefetchRequest, outcome: &PrefetchOutcome) {
        // Prefetch-induced evictions train the summary like demand ones;
        // there is no per-entry confidence to feed back — mispredictions
        // decay naturally because the true pairs outnumber them.
        if let PrefetchOutcome::Filled { evicted: Some(ev), .. } = outcome {
            if let Some(rec) = self.history.record_eviction(ev.addr, req.target) {
                self.summary.observe(u64::from(rec.signature.0), rec.predicted.0);
            }
        }
    }

    fn storage_bytes(&self) -> u64 {
        // The modelled hardware budget: the configured summary bytes plus
        // the history table DBCP also needs.
        self.cfg.budget_bytes + self.history.storage_bytes()
    }

    fn memory_bytes(&self) -> u64 {
        self.summary.memory_bytes() + self.history.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::{Hierarchy, HierarchyConfig};
    use ltc_trace::{AccessKind, Pc};

    fn drive_conflict_loop(p: &mut SketchDbcp, iterations: usize) -> (u64, u64) {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let span = 512 * 64;
        let lines = [0u64, span, 2 * span, 3 * span];
        let (mut accesses, mut misses) = (0u64, 0u64);
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
        let mut p = SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(64 << 10));
        let (accesses, misses) = drive_conflict_loop(&mut p, 50);
        assert!(p.predictions() > 0, "predictions must fire");
        assert!(
            (misses as f64) < 0.8 * (accesses as f64),
            "sketch DBCP should eliminate recurring conflict misses: {misses}/{accesses}"
        );
    }

    #[test]
    fn trains_summary_on_evictions() {
        let mut p = SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(64 << 10));
        drive_conflict_loop(&mut p, 3);
        assert!(p.tracked_signatures() > 0, "evictions must register signatures");
    }

    #[test]
    fn no_prediction_without_training() {
        let mut p = SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(64 << 10));
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        for i in 0..100u64 {
            let a = MemoryAccess::load(Pc(0x400), Addr(i * 64));
            let o = h.access(a.addr, AccessKind::Load);
            p.on_access(&a, &o, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(p.predictions(), 0);
    }

    #[test]
    fn resident_memory_respects_the_budget() {
        let budget = 32 << 10;
        let mut p = SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(budget));
        let history = p.history.storage_bytes();
        drive_conflict_loop(&mut p, 200);
        assert!(
            p.memory_bytes() - history <= budget,
            "summary resident {} exceeds budget {budget}",
            p.memory_bytes() - history
        );
        assert_eq!(p.storage_bytes(), budget + history);
    }

    #[test]
    fn storage_is_independent_of_training() {
        let cold = SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(16 << 10));
        let mut warm = SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(16 << 10));
        drive_conflict_loop(&mut warm, 20);
        assert_eq!(cold.storage_bytes(), warm.storage_bytes());
    }
}
