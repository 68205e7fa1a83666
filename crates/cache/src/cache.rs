//! The set-associative cache model.

use ltc_trace::{AccessKind, Addr};

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::image::{CacheImage, ImageError};
use crate::stats::CacheStats;

/// A block evicted by a fill.
///
/// Evictions drive last-touch training: the eviction of `addr` means its
/// most recent access was that block's *last touch*, and the address that
/// replaced it is the prediction target (paper Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Line base address of the evicted block.
    pub addr: Addr,
    /// Whether the block was dirty (write-back traffic).
    pub dirty: bool,
    /// Whether the block was filled by a prefetch and never demand-touched
    /// (a useless prefetch).
    pub prefetched_unused: bool,
    /// Cache access sequence number at which the block was filled.
    pub fill_seq: u64,
    /// Sequence number of the block's last demand access (its last touch).
    pub last_touch_seq: u64,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Hit on a prefetched block that had not been demand-touched yet —
    /// i.e. this access is the one that makes the prefetch *useful*.
    pub first_use_of_prefetch: bool,
    /// Block evicted by the fill, if the access missed and displaced a
    /// valid block.
    pub evicted: Option<EvictedBlock>,
}

/// Result of a prefetch fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The block was already resident; nothing changed.
    AlreadyPresent,
    /// The block was installed.
    Filled {
        /// Block displaced by the prefetch, if any.
        evicted: Option<EvictedBlock>,
        /// Whether the displaced block was the predictor's intended victim.
        replaced_intended_victim: bool,
    },
}

/// Block state bits packed into one byte per way.
const VALID: u8 = 1;
const DIRTY: u8 = 2;
/// Filled by prefetch and not yet demand-accessed.
const PENDING: u8 = 4;

/// Per-way replacement timestamps, packed so an 8-way set's entire
/// replacement metadata spans one 64-byte cache line.
///
/// Stamps are stored as `u32`: the cache's sequence counter panics before
/// it would truncate (4.29 billion accesses per cache instance), so LRU
/// order can never silently wrap.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    fill: u32,
    touch: u32,
}

/// A set-associative cache with LRU or FIFO replacement.
///
/// The cache maintains an internal access sequence counter used for LRU
/// ordering and for dead-time measurement (Figure 2 of the paper measures
/// the time between a block's last touch and its eviction).
///
/// Block state is a struct-of-arrays *tag array*: tags, state bytes, and
/// the two sequence timestamps live in four parallel flat vectors indexed
/// by `set * ways + way`. The hit path therefore scans one densely packed
/// 64-byte tag line per 8-way set (plus one state byte per way) instead
/// of striding through 40-byte block structs — the dominant cost of the
/// coverage kernel is exactly this scan.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    state: Vec<u8>,
    stamps: Vec<Stamps>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    set_shift: u32,
    seq: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::GeometryError`] message if the
    /// configuration is invalid. Use [`Cache::try_new`] to surface the
    /// typed error instead.
    pub fn new(cfg: CacheConfig) -> Self {
        match Cache::try_new(cfg) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates an empty cache, rejecting invalid geometry as a typed
    /// [`crate::GeometryError`].
    ///
    /// # Errors
    ///
    /// Returns the violated invariant (zero dimension, non-power-of-two
    /// line size or set count, capacity not dividing evenly).
    pub fn try_new(cfg: CacheConfig) -> Result<Self, crate::GeometryError> {
        let g = cfg.try_validate()?;
        let ways = cfg.ways as usize;
        let slots = (g.sets as usize) * ways;
        Ok(Cache {
            cfg,
            tags: vec![0; slots],
            state: vec![0; slots],
            stamps: vec![Stamps::default(); slots],
            ways,
            set_mask: g.set_mask,
            line_shift: g.line_shift,
            set_shift: g.set_bits,
            seq: 0,
            stats: CacheStats::default(),
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Current access sequence number (advances on every demand access).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (u64, u64) {
        let line = addr.0 >> self.line_shift;
        (line & self.set_mask, line >> self.set_shift)
    }

    /// Index of the way holding `tag` in the set starting at `start`, if
    /// resident — the tag-array scan every access begins with.
    #[inline]
    fn find_way(&self, start: usize, tag: u64) -> Option<usize> {
        let tags = &self.tags[start..start + self.ways];
        let state = &self.state[start..start + self.ways];
        (0..tags.len()).find(|&w| tags[w] == tag && state[w] & VALID != 0)
    }

    /// Claims the next sequence stamp, refusing to let it truncate.
    #[inline]
    fn next_seq(&mut self) -> u32 {
        self.seq += 1;
        assert!(self.seq <= u64::from(u32::MAX), "cache sequence counter exceeded 2^32-1 accesses");
        self.seq as u32
    }

    /// Performs a demand access, filling on miss.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessOutcome {
        let seq = self.next_seq();
        let (set, tag) = self.set_and_tag(addr);
        let is_store = !kind.is_load();
        let start = (set as usize) * self.ways;

        // Hit path.
        if let Some(w) = self.find_way(start, tag) {
            let i = start + w;
            let first_use = self.state[i] & PENDING != 0;
            self.state[i] = (self.state[i] & !PENDING) | if is_store { DIRTY } else { 0 };
            self.stamps[i].touch = seq;
            self.stats.accesses += 1;
            self.stats.stores += u64::from(is_store);
            self.stats.prefetch_hits += u64::from(first_use);
            return AccessOutcome { hit: true, first_use_of_prefetch: first_use, evicted: None };
        }
        // Miss: select a victim and fill.
        let i = start + self.select_victim(start);
        let evicted = self.evicted_info(i, set);
        self.tags[i] = tag;
        self.state[i] = VALID | if is_store { DIRTY } else { 0 };
        self.stamps[i] = Stamps { fill: seq, touch: seq };
        self.stats.accesses += 1;
        self.stats.stores += u64::from(is_store);
        self.stats.misses += 1;
        self.stats.evictions += u64::from(evicted.is_some());
        if let Some(ev) = &evicted {
            self.stats.useless_prefetches += u64::from(ev.prefetched_unused);
        }
        AccessOutcome { hit: false, first_use_of_prefetch: false, evicted }
    }

    /// Picks the way a fill of the set starting at `start` replaces:
    /// first invalid way, else the policy's oldest timestamp (first way
    /// on ties, matching the original block-struct implementation).
    fn select_victim(&self, start: usize) -> usize {
        let state = &self.state[start..start + self.ways];
        if let Some(w) = state.iter().position(|s| s & VALID == 0) {
            return w;
        }
        let stamps = &self.stamps[start..start + self.ways];
        let mut best = 0;
        match self.cfg.policy {
            ReplacementPolicy::Lru => {
                for w in 1..stamps.len() {
                    if stamps[w].touch < stamps[best].touch {
                        best = w;
                    }
                }
            }
            ReplacementPolicy::Fifo => {
                for w in 1..stamps.len() {
                    if stamps[w].fill < stamps[best].fill {
                        best = w;
                    }
                }
            }
        }
        best
    }

    /// The [`EvictedBlock`] record for displacing slot `i` of `set`, or
    /// `None` when the slot is invalid.
    fn evicted_info(&self, i: usize, set: u64) -> Option<EvictedBlock> {
        let s = self.state[i];
        if s & VALID == 0 {
            return None;
        }
        Some(EvictedBlock {
            addr: self.line_addr(set, self.tags[i]),
            dirty: s & DIRTY != 0,
            prefetched_unused: s & PENDING != 0,
            fill_seq: u64::from(self.stamps[i].fill),
            last_touch_seq: u64::from(self.stamps[i].touch),
        })
    }

    /// Installs `addr` as a prefetched block.
    ///
    /// If `intended_victim` names a resident block in the same set, that
    /// block is displaced (the DBCP/LT-cords policy of replacing the
    /// predicted-dead block, Section 2); otherwise the normal replacement
    /// policy chooses. Returns what happened.
    pub fn fill_prefetch(&mut self, addr: Addr, intended_victim: Option<Addr>) -> PrefetchOutcome {
        let (set, tag) = self.set_and_tag(addr);
        let seq = self.seq as u32;
        let start = (set as usize) * self.ways;

        let victim_tag = intended_victim.and_then(|v| {
            let (vset, vtag) = self.set_and_tag(v);
            (vset == set).then_some(vtag)
        });
        if self.find_way(start, tag).is_some() {
            self.stats.prefetch_already_present += 1;
            return PrefetchOutcome::AlreadyPresent;
        }
        let (victim_way, replaced_intended) = match victim_tag {
            Some(vt) => match self.find_way(start, vt) {
                Some(w) => (w, true),
                None => (self.select_victim(start), false),
            },
            None => (self.select_victim(start), false),
        };
        let i = start + victim_way;
        let evicted = self.evicted_info(i, set);
        self.tags[i] = tag;
        self.state[i] = VALID | PENDING;
        // A prefetched block should not look freshly used to LRU: it
        // inherits the current sequence as its fill time.
        self.stamps[i] = Stamps { fill: seq, touch: seq };
        self.stats.prefetch_fills += 1;
        if let Some(ev) = &evicted {
            self.stats.useless_prefetches += u64::from(ev.prefetched_unused);
        }
        PrefetchOutcome::Filled { evicted, replaced_intended_victim: replaced_intended }
    }

    /// Whether the line containing `addr` is resident (non-perturbing).
    pub fn contains(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag_ref(addr);
        self.find_way((set as usize) * self.ways, tag).is_some()
    }

    /// Whether `addr` is resident as a never-demand-touched prefetch.
    pub fn is_pending_prefetch(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag_ref(addr);
        let start = (set as usize) * self.ways;
        match self.find_way(start, tag) {
            Some(w) => self.state[start + w] & PENDING != 0,
            None => false,
        }
    }

    /// The address the replacement policy would evict for a fill of `addr`,
    /// if the set is full (non-perturbing).
    pub fn peek_victim(&self, addr: Addr) -> Option<Addr> {
        let (set, _) = self.set_and_tag_ref(addr);
        let start = (set as usize) * self.ways;
        if self.state[start..start + self.ways].iter().any(|s| s & VALID == 0) {
            return None;
        }
        let way = self.select_victim(start);
        Some(self.line_addr(set, self.tags[start + way]))
    }

    /// Enumerates resident line addresses (diagnostics and invariants).
    pub fn resident_lines(&self) -> Vec<Addr> {
        let mut v = Vec::new();
        for set in 0..=self.set_mask {
            let start = (set as usize) * self.ways;
            for w in 0..self.ways {
                if self.state[start + w] & VALID != 0 {
                    v.push(self.line_addr(set, self.tags[start + w]));
                }
            }
        }
        v
    }

    /// Snapshots the cache's complete mutable state (the replacement
    /// stamps are private to this module, so their split into parallel
    /// vectors happens here).
    pub fn to_image(&self) -> CacheImage {
        CacheImage {
            config: self.cfg,
            tags: self.tags.clone(),
            state: self.state.clone(),
            fill: self.stamps.iter().map(|s| s.fill).collect(),
            touch: self.stamps.iter().map(|s| s.touch).collect(),
            seq: self.seq,
            stats: self.stats,
        }
    }

    /// Rebuilds a cache from `image`, validating geometry, vector shapes
    /// and the sequence counter.
    ///
    /// # Errors
    ///
    /// [`ImageError::Geometry`] when the embedded config cannot build;
    /// [`ImageError::Shape`] when a state vector's length disagrees with
    /// the slot count; [`ImageError::Invalid`] when the sequence counter
    /// is outside the stamp range.
    pub fn from_image(image: &CacheImage) -> Result<Cache, ImageError> {
        let mut c = Cache::try_new(image.config).map_err(ImageError::Geometry)?;
        image.check_slots(c.tags.len())?;
        if image.seq > u64::from(u32::MAX) {
            return Err(ImageError::Invalid(format!(
                "sequence counter {} exceeds the u32 stamp range",
                image.seq
            )));
        }
        c.tags.copy_from_slice(&image.tags);
        c.state.copy_from_slice(&image.state);
        for (slot, (&fill, &touch)) in
            c.stamps.iter_mut().zip(image.fill.iter().zip(image.touch.iter()))
        {
            *slot = Stamps { fill, touch };
        }
        c.seq = image.seq;
        c.stats = image.stats;
        Ok(c)
    }

    #[inline]
    fn set_and_tag_ref(&self, addr: Addr) -> (u64, u64) {
        let line = addr.0 >> self.line_shift;
        (line & self.set_mask, line >> self.set_shift)
    }

    #[inline]
    fn line_addr(&self, set: u64, tag: u64) -> Addr {
        Addr(((tag << self.set_shift) | set) << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64-byte lines = 256 bytes.
        Cache::new(CacheConfig {
            total_bytes: 256,
            ways: 2,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        })
    }

    /// Addresses mapping to set 0 of the tiny cache: multiples of 128.
    fn set0(n: u64) -> Addr {
        Addr(n * 128)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(Addr(0), AccessKind::Load).hit);
        assert!(c.access(Addr(8), AccessKind::Load).hit, "same line hits");
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load);
        c.access(set0(1), AccessKind::Load);
        c.access(set0(0), AccessKind::Load); // 0 is now MRU
        let out = c.access(set0(2), AccessKind::Load);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev.addr, set0(1), "LRU victim is block 1");
        assert!(c.contains(set0(0)));
        assert!(c.contains(set0(2)));
        assert!(!c.contains(set0(1)));
    }

    #[test]
    fn eviction_reports_last_touch_seq() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load); // seq 1
        c.access(set0(1), AccessKind::Load); // seq 2
        c.access(set0(0), AccessKind::Load); // seq 3: last touch of block 0
        c.access(set0(2), AccessKind::Load); // seq 4: evicts block 1 (LRU)
        let out = c.access(set0(3), AccessKind::Load); // seq 5: evicts block 0
        let ev = out.evicted.unwrap();
        assert_eq!(ev.addr, set0(0));
        assert_eq!(ev.last_touch_seq, 3);
        assert_eq!(ev.fill_seq, 1);
    }

    #[test]
    fn store_marks_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Store);
        c.access(set0(1), AccessKind::Load);
        c.access(set0(2), AccessKind::Load); // evicts 0 (LRU)
                                             // block 0 was LRU (accessed at seq 1).
        let resident = c.resident_lines();
        assert!(!resident.contains(&set0(0)));
        // Re-fill and check the dirty bit came through the eviction.
        let mut c = tiny();
        c.access(set0(0), AccessKind::Store);
        c.access(set0(1), AccessKind::Load);
        let ev = c.access(set0(2), AccessKind::Load).evicted.unwrap();
        assert_eq!(ev.addr, set0(0));
        assert!(ev.dirty);
    }

    #[test]
    fn prefetch_fill_replaces_intended_victim() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load);
        c.access(set0(1), AccessKind::Load);
        // Predict block 1 dead; bring in block 2 over it even though block 0
        // is the LRU choice.
        let out = c.fill_prefetch(set0(2), Some(set0(1)));
        match out {
            PrefetchOutcome::Filled { evicted, replaced_intended_victim } => {
                assert!(replaced_intended_victim);
                assert_eq!(evicted.unwrap().addr, set0(1));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(c.contains(set0(0)), "the non-victim way is untouched");
        assert!(c.contains(set0(2)));
    }

    #[test]
    fn prefetch_fill_falls_back_to_policy_when_victim_absent() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load);
        c.access(set0(1), AccessKind::Load);
        let out = c.fill_prefetch(set0(3), Some(set0(7)));
        match out {
            PrefetchOutcome::Filled { evicted, replaced_intended_victim } => {
                assert!(!replaced_intended_victim);
                assert_eq!(evicted.unwrap().addr, set0(0), "LRU fallback victim");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn prefetch_of_resident_block_is_noop() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load);
        assert_eq!(c.fill_prefetch(set0(0), None), PrefetchOutcome::AlreadyPresent);
        assert_eq!(c.stats().prefetch_fills, 0);
        assert_eq!(c.stats().prefetch_already_present, 1);
    }

    #[test]
    fn first_demand_touch_of_prefetch_is_flagged_once() {
        let mut c = tiny();
        c.fill_prefetch(set0(2), None);
        assert!(c.is_pending_prefetch(set0(2)));
        let first = c.access(set0(2), AccessKind::Load);
        assert!(first.hit && first.first_use_of_prefetch);
        assert!(!c.is_pending_prefetch(set0(2)));
        let second = c.access(set0(2), AccessKind::Load);
        assert!(second.hit && !second.first_use_of_prefetch);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn useless_prefetch_counted_on_eviction() {
        let mut c = tiny();
        c.fill_prefetch(set0(9), None);
        c.access(set0(0), AccessKind::Load);
        c.access(set0(1), AccessKind::Load); // evicts the pending prefetch (it is LRU-oldest)
        assert!(c.stats().useless_prefetches >= 1);
    }

    #[test]
    fn peek_victim_matches_next_eviction() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load);
        c.access(set0(1), AccessKind::Load);
        let predicted = c.peek_victim(set0(5)).unwrap();
        let ev = c.access(set0(5), AccessKind::Load).evicted.unwrap();
        assert_eq!(predicted, ev.addr);
    }

    #[test]
    fn peek_victim_none_when_set_has_room() {
        let mut c = tiny();
        c.access(set0(0), AccessKind::Load);
        assert!(c.peek_victim(set0(5)).is_none());
    }

    #[test]
    fn fifo_policy_ignores_recency() {
        let mut c = Cache::new(CacheConfig {
            total_bytes: 256,
            ways: 2,
            line_bytes: 64,
            policy: ReplacementPolicy::Fifo,
        });
        c.access(set0(0), AccessKind::Load);
        c.access(set0(1), AccessKind::Load);
        c.access(set0(0), AccessKind::Load); // touch 0 again — FIFO does not care
        let ev = c.access(set0(2), AccessKind::Load).evicted.unwrap();
        assert_eq!(ev.addr, set0(0), "FIFO evicts the oldest fill");
    }

    #[test]
    fn resident_lines_counts_valid_blocks() {
        let mut c = tiny();
        assert!(c.resident_lines().is_empty());
        c.access(Addr(0), AccessKind::Load);
        c.access(Addr(64), AccessKind::Load);
        let mut lines = c.resident_lines();
        lines.sort();
        assert_eq!(lines, vec![Addr(0), Addr(64)]);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        c.access(Addr(0), AccessKind::Load); // set 0
        c.access(Addr(64), AccessKind::Load); // set 1
        c.access(Addr(128), AccessKind::Load); // set 0
        c.access(Addr(192), AccessKind::Load); // set 1
        assert_eq!(c.stats().evictions, 0, "4 blocks fit in 2 sets x 2 ways");
    }
}
