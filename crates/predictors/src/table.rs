//! A set-associative correlation table (the on-chip DBCP store).

use ltc_lasttouch::{Confidence, Signature};
use ltc_stream::hash::FoldMap;
use ltc_trace::Addr;

/// Capacity configuration for a [`CorrelationTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Maximum entries, or `None` for the unlimited "oracle" table the paper
    /// uses as DBCP's upper bound (Figure 8).
    pub capacity: Option<usize>,
    /// Associativity of the finite organization (ignored when unlimited).
    pub ways: usize,
}

impl TableConfig {
    /// An unlimited table.
    pub const fn unlimited() -> Self {
        TableConfig { capacity: None, ways: 8 }
    }

    /// A finite table with the given entry count (8-way set-associative,
    /// LRU — a realistic hardware organization; the paper does not specify
    /// DBCP's table organization beyond its byte size).
    pub const fn with_entries(entries: usize) -> Self {
        TableConfig { capacity: Some(entries), ways: 8 }
    }

    /// Entry count corresponding to a byte budget at the paper's 5 bytes per
    /// signature (Section 5.4).
    pub const fn with_bytes(bytes: u64) -> Self {
        TableConfig::with_entries((bytes / 5) as usize)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    sig: Signature,
    predicted: Addr,
    confidence: Confidence,
    last_use: u64,
    valid: bool,
}

/// Maps last-touch signatures to predicted replacement addresses.
///
/// The finite variant is organized as a set-associative structure with LRU
/// replacement; the unlimited variant stores every signature ever seen
/// (the paper's "DBCP with unlimited storage" upper bound).
#[derive(Debug, Clone)]
pub struct CorrelationTable {
    cfg: TableConfig,
    /// Finite mode: sets x ways entries.
    sets: Vec<Entry>,
    set_count: usize,
    /// Unlimited mode: a plain map.
    map: FoldMap<Signature, (Addr, Confidence)>,
    clock: u64,
    insertions: u64,
}

impl CorrelationTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if a finite capacity is zero or smaller than one set.
    pub fn new(cfg: TableConfig) -> Self {
        let (sets, set_count) = match cfg.capacity {
            Some(cap) => {
                assert!(cap > 0, "finite table needs capacity > 0");
                let ways = cfg.ways.max(1);
                let set_count = (cap / ways).max(1).next_power_of_two();
                let empty = Entry {
                    sig: Signature(0),
                    predicted: Addr(0),
                    confidence: Confidence::new(0),
                    last_use: 0,
                    valid: false,
                };
                (vec![empty; set_count * ways], set_count)
            }
            None => (Vec::new(), 0),
        };
        CorrelationTable { cfg, sets, set_count, map: FoldMap::default(), clock: 0, insertions: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match self.cfg.capacity {
            Some(_) => self.sets.iter().filter(|e| e.valid).count(),
            None => self.map.len(),
        }
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total insertions performed (diagnostics).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Storage estimate at the paper's 5 bytes per signature.
    pub fn storage_bytes(&self) -> u64 {
        match self.cfg.capacity {
            Some(cap) => cap as u64 * 5,
            None => self.map.len() as u64 * 5,
        }
    }

    /// Actual resident simulator memory: the entry array for the finite
    /// organization, the hash map (entry payload plus the modelled ~48
    /// bytes of bucket/allocator overhead per entry) for the unlimited
    /// one. This is what an honest budget comparison against sketch
    /// summaries must charge, not the 5-byte hardware model.
    pub fn memory_bytes(&self) -> u64 {
        const MAP_NODE_OVERHEAD: u64 = 48;
        let entry = std::mem::size_of::<Entry>() as u64;
        match self.cfg.capacity {
            Some(_) => self.sets.len() as u64 * entry,
            None => {
                let payload = std::mem::size_of::<(Signature, (Addr, Confidence))>() as u64;
                self.map.len() as u64 * (payload + MAP_NODE_OVERHEAD)
            }
        }
    }

    #[inline]
    fn set_range(&self, sig: Signature) -> std::ops::Range<usize> {
        let set = (sig.0 as usize) & (self.set_count - 1);
        let ways = self.cfg.ways;
        set * ways..set * ways + ways
    }

    /// Looks up the prediction for `sig`, if present and regardless of
    /// confidence (callers check [`Confidence::is_confident`]).
    pub fn lookup(&mut self, sig: Signature) -> Option<(Addr, Confidence)> {
        self.clock += 1;
        match self.cfg.capacity {
            None => self.map.get(&sig).copied(),
            Some(_) => {
                let range = self.set_range(sig);
                let clock = self.clock;
                self.sets[range].iter_mut().find(|e| e.valid && e.sig == sig).map(|e| {
                    e.last_use = clock;
                    (e.predicted, e.confidence)
                })
            }
        }
    }

    /// Trains the table with an observed `(signature, replacement)` pair.
    ///
    /// A matching entry with the same target is strengthened; a matching
    /// entry with a different target is weakened and, once its confidence
    /// reaches zero, retargeted (the classic 2-bit update). New signatures
    /// are inserted with the paper's initial confidence of 2.
    pub fn train(&mut self, sig: Signature, predicted: Addr) {
        self.clock += 1;
        self.insertions += 1;
        match self.cfg.capacity {
            None => match self.map.entry(sig) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((predicted, Confidence::initial()));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let entry = o.get_mut();
                    if entry.0 == predicted {
                        entry.1 = entry.1.strengthen();
                    } else {
                        entry.1 = entry.1.weaken();
                        if entry.1.value() == 0 {
                            *entry = (predicted, Confidence::initial());
                        }
                    }
                }
            },
            Some(_) => {
                let range = self.set_range(sig);
                let clock = self.clock;
                let slice = &mut self.sets[range];
                if let Some(e) = slice.iter_mut().find(|e| e.valid && e.sig == sig) {
                    e.last_use = clock;
                    if e.predicted == predicted {
                        e.confidence = e.confidence.strengthen();
                    } else {
                        e.confidence = e.confidence.weaken();
                        if e.confidence.value() == 0 {
                            e.predicted = predicted;
                            e.confidence = Confidence::initial();
                        }
                    }
                    return;
                }
                // Insert: invalid way first, else LRU.
                let victim =
                    slice.iter_mut().min_by_key(|e| (e.valid, e.last_use)).expect("ways >= 1");
                *victim = Entry {
                    sig,
                    predicted,
                    confidence: Confidence::initial(),
                    last_use: clock,
                    valid: true,
                };
            }
        }
    }

    /// Adjusts the confidence of an existing entry (feedback from prefetch
    /// outcomes). Missing entries are ignored.
    pub fn update_confidence(&mut self, sig: Signature, correct: bool) {
        match self.cfg.capacity {
            None => {
                if let Some(e) = self.map.get_mut(&sig) {
                    e.1 = if correct { e.1.strengthen() } else { e.1.weaken() };
                }
            }
            Some(_) => {
                let range = self.set_range(sig);
                if let Some(e) = self.sets[range].iter_mut().find(|e| e.valid && e.sig == sig) {
                    e.confidence =
                        if correct { e.confidence.strengthen() } else { e.confidence.weaken() };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_table_never_forgets() {
        let mut t = CorrelationTable::new(TableConfig::unlimited());
        for i in 0..10_000u32 {
            t.train(Signature(i), Addr(u64::from(i) * 64));
        }
        assert_eq!(t.len(), 10_000);
        for i in (0..10_000u32).step_by(997) {
            let (addr, _) = t.lookup(Signature(i)).expect("entry must persist");
            assert_eq!(addr, Addr(u64::from(i) * 64));
        }
    }

    #[test]
    fn finite_table_bounds_entries() {
        let mut t = CorrelationTable::new(TableConfig::with_entries(64));
        for i in 0..10_000u32 {
            t.train(Signature(i), Addr(64));
        }
        assert!(t.len() <= 64);
    }

    #[test]
    fn retrain_same_target_strengthens() {
        let mut t = CorrelationTable::new(TableConfig::unlimited());
        t.train(Signature(5), Addr(64));
        t.train(Signature(5), Addr(64));
        let (_, conf) = t.lookup(Signature(5)).unwrap();
        assert_eq!(conf.value(), 3);
    }

    #[test]
    fn conflicting_target_weakens_then_replaces() {
        let mut t = CorrelationTable::new(TableConfig::unlimited());
        t.train(Signature(5), Addr(64)); // conf 2
        t.train(Signature(5), Addr(128)); // conf 1, still old target
        let (addr, conf) = t.lookup(Signature(5)).unwrap();
        assert_eq!(addr, Addr(64));
        assert_eq!(conf.value(), 1);
        t.train(Signature(5), Addr(128)); // conf 0 -> retarget
        let (addr, conf) = t.lookup(Signature(5)).unwrap();
        assert_eq!(addr, Addr(128));
        assert_eq!(conf.value(), 2);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // One set (8 ways): fill 8 entries, touch the first 7, insert a 9th.
        let mut t = CorrelationTable::new(TableConfig { capacity: Some(8), ways: 8 });
        for i in 0..8u32 {
            t.train(Signature(i << 4), Addr(64)); // same set (low bits 0)
        }
        for i in 0..7u32 {
            let _ = t.lookup(Signature(i << 4));
        }
        t.train(Signature(9 << 4), Addr(64));
        assert!(t.lookup(Signature(7 << 4)).is_none(), "LRU way was replaced");
        assert!(t.lookup(Signature(0)).is_some());
    }

    #[test]
    fn confidence_feedback_updates_entry() {
        let mut t = CorrelationTable::new(TableConfig::unlimited());
        t.train(Signature(1), Addr(64));
        t.update_confidence(Signature(1), false);
        let (_, conf) = t.lookup(Signature(1)).unwrap();
        assert!(!conf.is_confident());
        t.update_confidence(Signature(1), true);
        let (_, conf) = t.lookup(Signature(1)).unwrap();
        assert!(conf.is_confident());
    }

    #[test]
    fn with_bytes_matches_paper_density() {
        let cfg = TableConfig::with_bytes(2 << 20); // the paper's 2 MB DBCP
        assert_eq!(cfg.capacity, Some((2 << 20) / 5));
    }

    #[test]
    fn storage_bytes_reports_budget() {
        let t = CorrelationTable::new(TableConfig::with_entries(100));
        assert_eq!(t.storage_bytes(), 500);
    }
}
