//! The do-nothing predictor (the paper's baseline configuration).

use ltc_cache::{HierarchyOutcome, PrefetchRequest};
use ltc_trace::MemoryAccess;

use crate::prefetcher::Prefetcher;

/// A predictor that never prefetches: the baseline processor of Table 1.
///
/// # Example
///
/// ```
/// use ltc_predictors::{NullPrefetcher, Prefetcher};
///
/// let p = NullPrefetcher::new();
/// assert_eq!(p.storage_bytes(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the baseline (non-)predictor.
    pub fn new() -> Self {
        NullPrefetcher
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn on_access(
        &mut self,
        _access: &MemoryAccess,
        _outcome: &HierarchyOutcome,
        _out: &mut Vec<PrefetchRequest>,
    ) {
    }

    fn storage_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::{Hierarchy, HierarchyConfig};
    use ltc_trace::{AccessKind, Addr, Pc};

    #[test]
    fn never_requests_prefetches() {
        let mut p = NullPrefetcher::new();
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let mut out = Vec::new();
        for i in 0..100u64 {
            let a = MemoryAccess::load(Pc(1), Addr(i * 64));
            let o = h.access(a.addr, AccessKind::Load);
            p.on_access(&a, &o, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(p.traffic().total(), 0);
    }
}
