//! The prefetcher interface shared by all predictors.

use ltc_cache::{HierarchyOutcome, PrefetchOutcome, PrefetchRequest};
use ltc_trace::MemoryAccess;
use serde::{Deserialize, Serialize};

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
/// when the data arrives in timing mode), applies each through
/// [`ltc_cache::Hierarchy::prefetch`], and reports every fill that changed
/// the hierarchy back via [`Prefetcher::on_prefetch_applied`]. A request
/// whose target already sits at its level is dropped unreported.
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

    /// Observes a previously requested prefetch being filled, with the
    /// fill's outcome at the request's level.
    fn on_prefetch_applied(&mut self, req: &PrefetchRequest, outcome: &PrefetchOutcome) {
        let _ = (req, outcome);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::PrefetchLevel;
    use ltc_trace::Addr;

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
