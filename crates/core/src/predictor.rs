//! The LT-cords predictor: history, streaming and prediction wired together.

use ltc_cache::{HierarchyOutcome, PrefetchOutcome};
use ltc_lasttouch::{HistoryTable, Signature};
use ltc_predictors::{FoldMap, PredictorTraffic, PrefetchRequest, Prefetcher};
use ltc_trace::{Addr, MemoryAccess};

use crate::config::LtCordsConfig;
use crate::metrics::LtCordsMetrics;
use crate::sigcache::SignatureCache;
use crate::storage::{SequenceStorage, SigPtr};
use crate::tag_array::SequenceTagArray;

/// Last-Touch Correlated Data Streaming (the paper's Section 4 design).
///
/// Per committed access, LT-cords:
///
/// 1. applies confidence feedback from the cache's prefetch provenance
///    (useful prefetch → strengthen, evicted-unused → weaken, written
///    through the entry's off-chip self-pointer, Section 4.4);
/// 2. trains on any eviction: the victim's final signature is appended to
///    the off-chip sequence storage in eviction order (Section 4.1);
/// 3. updates the history trace and looks the fresh signature up in the
///    on-chip signature cache — a confident hit identifies the access as a
///    last touch and prefetches the recorded replacement into L1D over the
///    dying block, and advances the owning fragment's sliding window
///    (Section 4.3);
/// 4. checks the signature against the sequence tag array heads — a match
///    activates streaming of the corresponding fragment (Section 4.2).
pub struct LtCords {
    cfg: LtCordsConfig,
    history: HistoryTable,
    storage: SequenceStorage,
    tags: SequenceTagArray,
    cache: SignatureCache,
    /// Prefetch target line -> (signature, off-chip location) that produced
    /// it, for confidence feedback.
    inflight: FoldMap<Addr, (Signature, SigPtr)>,
    metrics: LtCordsMetrics,
}

impl std::fmt::Debug for LtCords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LtCords")
            .field("config", &self.cfg)
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl LtCords {
    /// Creates an LT-cords instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`LtCordsConfig::validate`]).
    pub fn new(cfg: LtCordsConfig) -> Self {
        cfg.validate();
        LtCords {
            history: HistoryTable::new(cfg.l1, cfg.scheme),
            storage: SequenceStorage::new(cfg.frames, cfg.fragment_len, cfg.head_lookahead),
            tags: SequenceTagArray::new(cfg.frames),
            cache: SignatureCache::with_policy(
                cfg.sig_cache_entries,
                cfg.sig_cache_ways,
                cfg.sig_cache_policy,
            ),
            inflight: FoldMap::default(),
            metrics: LtCordsMetrics::default(),
            cfg,
        }
    }

    /// The paper's Section 5.6 configuration.
    pub fn paper() -> Self {
        LtCords::new(LtCordsConfig::paper())
    }

    /// Operation counters.
    pub fn metrics(&self) -> &LtCordsMetrics {
        &self.metrics
    }

    /// The configuration in use.
    pub fn config(&self) -> &LtCordsConfig {
        &self.cfg
    }

    /// The off-chip sequence store (diagnostics).
    pub fn storage(&self) -> &SequenceStorage {
        &self.storage
    }

    /// The on-chip signature cache (diagnostics).
    pub fn signature_cache(&self) -> &SignatureCache {
        &self.cache
    }

    fn feedback(&mut self, line: Addr, correct: bool) {
        if let Some((sig, ptr)) = self.inflight.remove(&line) {
            self.cache.update_confidence(sig, correct);
            self.storage.update_confidence(ptr, correct);
            self.metrics.confidence_updates += 1;
        }
    }

    fn train(&mut self, evicted: Addr, replacement: Addr) {
        if let Some(rec) = self.history.record_eviction(evicted, replacement) {
            let ptr = self.storage.append(rec);
            self.metrics.signatures_recorded += 1;
            if ptr.offset == 0 {
                // A new fragment opened: register its head on chip.
                if let Some(head) = self.storage.head_of(ptr.frame) {
                    self.tags.set_head(ptr.frame, head);
                }
            }
        }
    }

    /// Streams storage range `[from, to)` of `frame` into the signature
    /// cache, rounding `to` up to the transfer unit (Section 4.3).
    fn stream_range(&mut self, frame: u32, from: u32, to: u32) {
        if from >= to {
            return;
        }
        let unit = self.cfg.transfer_unit as u32;
        let rounded = to.div_ceil(unit) * unit;
        for (ptr, rec) in self.storage.stream(frame, from, rounded) {
            self.cache.insert(rec, ptr);
            self.metrics.signatures_streamed += 1;
        }
    }
}

impl Prefetcher for LtCords {
    fn name(&self) -> &'static str {
        "lt-cords"
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let line = access.addr.line(self.cfg.l1.line_bytes);
        // 1. Confidence feedback.
        if outcome.l1.first_use_of_prefetch {
            self.feedback(line, true);
        }
        if let Some(ev) = &outcome.l1.evicted {
            if ev.prefetched_unused {
                self.feedback(ev.addr, false);
            }
        }
        // 2. Train on the demand eviction.
        if let Some(ev) = outcome.l1.evicted {
            self.train(ev.addr, line);
        }
        // 3. History update + signature cache lookup.
        let sig = self.history.record_access(access.addr, access.pc);
        let now = self.cache.lookups();
        if let Some(hit) = self.cache.lookup(sig) {
            // Advance the owning fragment's sliding window regardless of
            // confidence: sequence tracking must continue.
            let (from, to) = self.tags.advance(
                hit.ptr.frame,
                hit.ptr.offset,
                self.cfg.stream_window as u32,
                now,
            );
            self.stream_range(hit.ptr.frame, from, to);
            let confident = hit.confidence.is_confident() || !self.cfg.use_confidence;
            if confident && hit.predicted != line {
                self.metrics.confident_hits += 1;
                self.metrics.predictions += 1;
                self.inflight.insert(hit.predicted, (sig, hit.ptr));
                out.push(PrefetchRequest::into_l1(hit.predicted, line));
            } else {
                self.metrics.low_confidence_hits += 1;
            }
        }
        // 4. Head check: does this signature start a recorded sequence?
        // Head values also occur mid-fragment, so a match only restarts the
        // stream when the fragment is not already being followed.
        let frame = self.storage.frame_of(sig);
        if self.tags.head_matches(frame, sig)
            && self.tags.should_activate(frame, now, (self.cfg.stream_window * 4) as u64)
        {
            let (from, to) = self.tags.activate(frame, self.cfg.stream_window as u32, now);
            self.metrics.head_activations += 1;
            self.stream_range(frame, from, to);
        }
    }

    fn on_prefetch_applied(&mut self, req: &PrefetchRequest, outcome: &PrefetchOutcome) {
        // Train on the prefetch-induced eviction: the displaced block's last
        // touch is final, and its replacement is the prefetched line.
        if let PrefetchOutcome::Filled { evicted: Some(ev), .. } = outcome {
            self.train(ev.addr, req.target);
        }
    }

    fn traffic(&self) -> PredictorTraffic {
        PredictorTraffic {
            sequence_write_bytes: self.storage.write_bytes(),
            sequence_read_bytes: self.storage.read_bytes(),
            confidence_update_bytes: self.storage.confidence_bytes(),
        }
    }

    fn storage_bytes(&self) -> u64 {
        self.cache.storage_bytes() + self.tags.storage_bytes() + self.history.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::{Hierarchy, HierarchyConfig};
    use ltc_trace::{AccessKind, Pc};

    /// A configuration scaled to unit-test workloads: the paper's 8 K-entry
    /// fragments assume millions of misses per program pass; these tests
    /// produce ~1 K misses per pass, so fragments are shrunk proportionally
    /// (the Figure 9 sensitivity study uses 512-signature fragments too).
    fn test_config() -> LtCordsConfig {
        LtCordsConfig {
            fragment_len: 512,
            frames: 1 << 12,
            head_lookahead: 128,
            ..LtCordsConfig::paper()
        }
    }

    /// Drives a cyclic conflict workload through LT-cords with immediate
    /// prefetch application, returning (accesses, misses).
    fn drive(
        lt: &mut LtCords,
        h: &mut Hierarchy,
        aliases: u64,
        sets: u64,
        iterations: usize,
    ) -> (u64, u64) {
        let span = 512 * 64;
        let mut out = Vec::new();
        let (mut accesses, mut misses) = (0u64, 0u64);
        for _ in 0..iterations {
            for set in 0..sets {
                for alias in 0..aliases {
                    let addr = Addr(set * 64 + alias * span);
                    let a = MemoryAccess::load(Pc(0x400 + alias * 8), addr);
                    let o = h.access(a.addr, AccessKind::Load);
                    accesses += 1;
                    misses += u64::from(!o.l1.hit);
                    lt.on_access(&a, &o, &mut out);
                    for req in out.drain(..) {
                        if let Some(po) = h.prefetch(&req) {
                            lt.on_prefetch_applied(&req, &po);
                        }
                    }
                }
            }
        }
        (accesses, misses)
    }

    #[test]
    fn records_signatures_on_evictions() {
        let mut lt = LtCords::new(test_config());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        drive(&mut lt, &mut h, 4, 16, 3);
        assert!(lt.metrics().signatures_recorded > 0);
        assert!(lt.storage().appended() > 0);
    }

    #[test]
    fn recurring_sequence_activates_streams_and_predicts() {
        let mut lt = LtCords::new(test_config());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        // A long recurring conflict pattern: 4 aliases x 256 sets = 1024
        // distinct miss signatures per pass, well beyond one fragment.
        drive(&mut lt, &mut h, 4, 256, 12);
        let m = lt.metrics();
        assert!(m.head_activations > 0, "recurring heads must activate streams");
        assert!(m.signatures_streamed > 0, "streams must load signatures on chip");
        assert!(m.predictions > 0, "streamed signatures must predict");
    }

    #[test]
    fn predictions_eliminate_misses_on_recurrence() {
        let mut lt = LtCords::new(test_config());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let (_, cold) = drive(&mut lt, &mut h, 4, 256, 3);
        let (warm_acc, warm_miss) = drive(&mut lt, &mut h, 4, 256, 10);
        let cold_rate = cold as f64 / (3.0 * 4.0 * 256.0);
        let warm_rate = warm_miss as f64 / warm_acc as f64;
        assert!(
            warm_rate < cold_rate * 0.8,
            "warm miss rate {warm_rate:.3} should undercut cold rate {cold_rate:.3}"
        );
    }

    #[test]
    fn random_stream_never_predicts() {
        let mut lt = LtCords::new(test_config());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        // Non-recurring addresses: nothing to correlate.
        let mut x = 0x12345u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = Addr((x >> 20) & 0xfff_ffc0);
            let a = MemoryAccess::load(Pc(0x400), addr);
            let o = h.access(a.addr, AccessKind::Load);
            lt.on_access(&a, &o, &mut out);
        }
        let m = lt.metrics();
        assert_eq!(m.predictions, 0, "random traffic must not produce predictions");
    }

    #[test]
    fn traffic_counters_flow_through() {
        let mut lt = LtCords::new(test_config());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        drive(&mut lt, &mut h, 4, 256, 6);
        let t = lt.traffic();
        assert!(t.sequence_write_bytes > 0);
        assert!(t.sequence_read_bytes > 0);
        assert_eq!(t.sequence_write_bytes, lt.metrics().signatures_recorded * 5);
    }

    #[test]
    fn on_chip_budget_matches_paper() {
        let lt = LtCords::paper();
        let bytes = lt.storage_bytes();
        // Signature cache 168 KB + tag array 10 KB + history ~6 KB ≈ 184 KB;
        // the paper quotes 214 KB for a slightly richer entry encoding.
        // Either way it must sit far below the 80 MB an on-chip DBCP needs.
        assert!(bytes > 150 * 1024 && bytes < 256 * 1024, "budget {bytes} out of range");
    }

    #[test]
    fn wrong_predictions_lose_confidence() {
        let mut lt = LtCords::new(test_config());
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        // Train a recurring pattern, then permanently change it: stale
        // signatures must stop predicting after feedback.
        drive(&mut lt, &mut h, 4, 64, 8);
        let preds_before = lt.metrics().predictions;
        assert!(preds_before > 0);
        // Now run a different alias rotation through the same sets.
        let span = 512 * 64;
        let mut out = Vec::new();
        for it in 0..8 {
            for set in 0..64u64 {
                for alias in [6u64, 9, 5, 7] {
                    let addr = Addr(set * 64 + alias * span);
                    let a = MemoryAccess::load(Pc(0x900 + alias), addr);
                    let o = h.access(a.addr, AccessKind::Load);
                    lt.on_access(&a, &o, &mut out);
                    for req in out.drain(..) {
                        if let Some(po) = h.prefetch(&req) {
                            lt.on_prefetch_applied(&req, &po);
                        }
                    }
                }
            }
            let _ = it;
        }
        // Confidence machinery must have engaged (weaken events recorded).
        assert!(lt.metrics().confidence_updates > 0);
    }
}
