//! Summary statistics over a trace prefix.

use std::collections::HashSet;

use crate::record::MemoryAccess;
use crate::source::TraceSource;

/// Aggregate statistics describing a trace prefix.
///
/// # Example
///
/// ```
/// use ltc_trace::{Replay, TraceStats, MemoryAccess, Pc, Addr};
///
/// let trace = vec![
///     MemoryAccess::load(Pc(1), Addr(0)).with_gap(3),
///     MemoryAccess::store(Pc(2), Addr(64)),
/// ];
/// let stats = TraceStats::measure(&mut Replay::once(trace), 10);
/// assert_eq!(stats.accesses, 2);
/// assert_eq!(stats.instructions, 5); // (1 access + gap 3) + 1 access
/// assert_eq!(stats.stores, 1);
/// assert_eq!(stats.distinct_lines, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Memory references observed.
    pub accesses: u64,
    /// Total instructions represented (accesses plus gaps).
    pub instructions: u64,
    /// Store count.
    pub stores: u64,
    /// Accesses flagged address-dependent on their predecessor.
    pub dependent: u64,
    /// Distinct 64-byte lines touched.
    pub distinct_lines: u64,
}

impl TraceStats {
    /// Measures up to `limit` accesses from `source`.
    pub fn measure<S: TraceSource>(source: &mut S, limit: u64) -> Self {
        let mut stats = TraceStats::default();
        let mut lines: HashSet<u64> = HashSet::new();
        for _ in 0..limit {
            let Some(a) = source.next_access() else { break };
            stats.record(&a, &mut lines);
        }
        stats.distinct_lines = lines.len() as u64;
        stats
    }

    fn record(&mut self, a: &MemoryAccess, lines: &mut HashSet<u64>) {
        self.accesses += 1;
        self.instructions += a.instructions();
        if !a.kind.is_load() {
            self.stores += 1;
        }
        if a.dependent {
            self.dependent += 1;
        }
        lines.insert(a.addr.line_number(64));
    }

    /// Footprint in bytes implied by the distinct lines touched.
    pub fn footprint_bytes(&self) -> u64 {
        self.distinct_lines * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Addr, Pc};
    use crate::source::Replay;

    #[test]
    fn measures_empty_source() {
        let mut r = Replay::once(vec![]);
        let s = TraceStats::measure(&mut r, 100);
        assert_eq!(s, TraceStats::default());
    }

    #[test]
    fn limit_truncates() {
        let mut r = Replay::cycle(vec![MemoryAccess::load(Pc(1), Addr(0))]);
        let s = TraceStats::measure(&mut r, 5);
        assert_eq!(s.accesses, 5);
    }

    #[test]
    fn distinct_lines_dedupe_within_line() {
        let mut r = Replay::once(vec![
            MemoryAccess::load(Pc(1), Addr(0)),
            MemoryAccess::load(Pc(1), Addr(32)),
            MemoryAccess::load(Pc(1), Addr(64)),
        ]);
        let s = TraceStats::measure(&mut r, 10);
        assert_eq!(s.distinct_lines, 2);
        assert_eq!(s.footprint_bytes(), 128);
    }

    #[test]
    fn dependent_accesses_counted() {
        let mut r = Replay::once(vec![
            MemoryAccess::load(Pc(1), Addr(0)).with_dependent(true),
            MemoryAccess::load(Pc(1), Addr(64)),
        ]);
        let s = TraceStats::measure(&mut r, 10);
        assert_eq!(s.dependent, 1);
    }
}
