//! The prefetcher interface shared by all predictors.

use ltc_cache::{HierarchyOutcome, MemLevel, PrefetchOutcome};
use ltc_trace::{Addr, MemoryAccess};
use serde::{Deserialize, Serialize};

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

/// One prefetch the predictor wants performed.
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

/// Off-chip metadata traffic generated by a predictor, in bytes.
///
/// Only LT-cords moves predictor metadata over the memory bus; its three
/// components match the Figure 12 breakdown (sequence creation, sequence
/// fetch, confidence updates are folded into creation by the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorTraffic {
    /// Bytes written recording new signature sequences.
    pub sequence_write_bytes: u64,
    /// Bytes read streaming signature sequences on chip.
    pub sequence_read_bytes: u64,
    /// Bytes written updating stored confidence counters.
    pub confidence_update_bytes: u64,
}

impl PredictorTraffic {
    /// Total metadata bytes moved.
    pub fn total(&self) -> u64 {
        self.sequence_write_bytes + self.sequence_read_bytes + self.confidence_update_bytes
    }
}

/// A hardware prefetcher driven by committed memory accesses.
///
/// The driver (coverage simulator or timing model) calls
/// [`Prefetcher::on_access`] after every demand access with the hierarchy's
/// outcome. The predictor pushes any desired prefetches into `out`; the
/// driver decides when to apply them (immediately in trace-driven mode,
/// through the request queue and busses in timing mode) and reports each
/// applied fill back via [`Prefetcher::on_prefetch_applied`].
pub trait Prefetcher {
    /// Short stable identifier (`"dbcp"`, `"ghb"`, `"lt-cords"`, ...).
    fn name(&self) -> &'static str;

    /// Observes one committed access and optionally requests prefetches.
    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    );

    /// Observes the completion of a previously requested prefetch.
    fn on_prefetch_applied(
        &mut self,
        req: &PrefetchRequest,
        outcome: &PrefetchOutcome,
        source: MemLevel,
    ) {
        let _ = (req, outcome, source);
    }

    /// Metadata traffic accumulated so far.
    fn traffic(&self) -> PredictorTraffic {
        PredictorTraffic::default()
    }

    /// Estimated on-chip storage in bytes.
    fn storage_bytes(&self) -> u64;

    /// Actual resident simulator memory in bytes.
    ///
    /// [`Prefetcher::storage_bytes`] is the *modelled hardware* budget
    /// (e.g. the paper's 5 bytes per DBCP signature); this is what the
    /// predictor's data structures really hold right now, so budget-sweep
    /// figures can compare exact tables against sketches on honest byte
    /// counts. Defaults to the hardware model for predictors whose state
    /// is a fixed array either way.
    fn memory_bytes(&self) -> u64 {
        self.storage_bytes()
    }

    /// Whether this predictor never issues prefetch requests.
    ///
    /// A passive predictor's shadow hierarchy is provably identical to
    /// the baseline, so the coverage simulator runs one hierarchy
    /// instead of two and mirrors the fields — roughly halving baseline
    /// run cost. Only return `true` when `on_access` can never push a
    /// request; the simulator debug-asserts the promise.
    fn is_passive(&self) -> bool {
        false
    }
}

/// A boxed prefetcher, as handled by the experiment runner.
pub type BoxedPrefetcher = Box<dyn Prefetcher + Send>;

impl Prefetcher for BoxedPrefetcher {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        (**self).on_access(access, outcome, out)
    }

    fn on_prefetch_applied(
        &mut self,
        req: &PrefetchRequest,
        outcome: &PrefetchOutcome,
        source: MemLevel,
    ) {
        (**self).on_prefetch_applied(req, outcome, source)
    }

    fn traffic(&self) -> PredictorTraffic {
        (**self).traffic()
    }

    fn storage_bytes(&self) -> u64 {
        (**self).storage_bytes()
    }

    fn memory_bytes(&self) -> u64 {
        (**self).memory_bytes()
    }

    fn is_passive(&self) -> bool {
        (**self).is_passive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors_set_levels() {
        let r = PrefetchRequest::into_l1(Addr(64), Addr(128));
        assert_eq!(r.level, PrefetchLevel::L1);
        assert_eq!(r.victim, Some(Addr(128)));
        let r2 = PrefetchRequest::into_l2(Addr(64));
        assert_eq!(r2.level, PrefetchLevel::L2);
        assert!(r2.victim.is_none());
    }

    #[test]
    fn traffic_total_sums_components() {
        let t = PredictorTraffic {
            sequence_write_bytes: 1,
            sequence_read_bytes: 2,
            confidence_update_bytes: 4,
        };
        assert_eq!(t.total(), 7);
    }
}
