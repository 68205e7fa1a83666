//! Correlated heavy hitters over a two-dimensional stream.
//!
//! Mines `(key, value)` pairs — here: last-touch signature → next missed
//! block — for keys that are frequent *and* values that are frequent
//! conditioned on their key, following the nested-summary construction of
//! Lahiri et al. ("Identifying Correlated Heavy-Hitters in a
//! Two-Dimensional Data Stream") with the sketch-assisted refinement of
//! Epicoco et al. ("Fast and Accurate Mining of Correlated Heavy
//! Hitters"): an outer key summary whose entries each carry a nested
//! inner summary over that key's values, plus a [`CountMin`] sketch over
//! whole pairs that persists across outer replacements and caps the
//! inner estimates.
//!
//! Unlike the global [`crate::SpaceSaving`], whose key→slot hash index
//! and min-tree cost 48 modelled bytes per key on top of the entry, the
//! outer summary is *set-associative*: keys hash (seeded) into sets of
//! [`ChhConfig::ways`] packed 16-byte entries, replacement is
//! Space-Saving's min-count-inheritance restricted to the set, and the
//! inner summaries are inline arrays in one flat allocation. That keeps
//! the never-undercount property and the deterministic state while
//! monitoring 5–10x more keys per budget byte — the difference between a
//! sketch predictor that can hold a signature working set and one that
//! churns.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::countmin::{CountMin, CountMinState};
use crate::hash::{self, HASH_CODE};
use crate::merge::{MergeError, SketchShape};
use crate::spacesaving::Estimate;

/// Mixes a `(key, value)` pair into the Count-Min key domain.
#[inline]
fn pair_key(key: u64, value: u64) -> u64 {
    key.rotate_left(32) ^ value.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Sizing and seeding of a [`ChhSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChhConfig {
    /// Total byte budget for the summary (outer + inners + pair sketch).
    pub budget_bytes: u64,
    /// Values monitored per key (the inner summary capacity).
    pub inner_capacity: usize,
    /// Outer set associativity.
    pub ways: usize,
    /// Seed for the set hash and the pair sketch's row hashes.
    pub seed: u64,
}

impl ChhConfig {
    /// A summary fitting `budget_bytes` with the default shape: two
    /// correlated values per key, 8-way sets, a quarter of the budget on
    /// the pair sketch.
    pub fn with_budget(budget_bytes: u64) -> Self {
        ChhConfig { budget_bytes, inner_capacity: 2, ways: 8, seed: 0x17c5_723a }
    }

    /// Same budget, different seed (the trace seed in engine runs, so a
    /// spec's seed fully determines the summary).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Modelled bytes per monitored key: one packed outer entry plus the
    /// inline inner slots.
    pub fn bytes_per_key(&self) -> u64 {
        (std::mem::size_of::<OuterEntry>() + self.inner_capacity * std::mem::size_of::<InnerSlot>())
            as u64
    }
}

/// One correlated value of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChhPair {
    /// The correlated value.
    pub value: u64,
    /// Best pair-count estimate: the inner counter capped by the pair
    /// sketch (both overcount, so the minimum is the tighter bound).
    pub estimate: u64,
    /// Upper bound on the estimate's overshoot within the inner summary.
    pub overestimate: u64,
}

/// Packed outer entry: 16 bytes. `count == 0` marks an empty way.
#[derive(Debug, Clone, Copy, Default)]
struct OuterEntry {
    key: u64,
    count: u32,
    overestimate: u32,
}

/// Packed inner slot: 16 bytes. `count == 0` marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct InnerSlot {
    value: u64,
    count: u32,
    overestimate: u32,
}

/// Bounded-memory summary of correlated `(key → value)` heavy hitters.
///
/// # Example
///
/// ```
/// use ltc_stream::{ChhConfig, ChhSummary};
///
/// let mut chh = ChhSummary::new(ChhConfig::with_budget(64 << 10));
/// for _ in 0..8 {
///     chh.observe(0xbeef, 0x1000); // signature 0xbeef's misses lead to 0x1000
///     chh.observe(0xbeef, 0x2000);
///     chh.observe(0xbeef, 0x1000);
/// }
/// let top = chh.correlated(0xbeef).unwrap()[0];
/// assert_eq!(top.value, 0x1000);
/// assert!(chh.memory_bytes() <= 64 << 10);
/// ```
#[derive(Debug, Clone)]
pub struct ChhSummary {
    cfg: ChhConfig,
    /// `sets * ways` outer entries.
    outer: Vec<OuterEntry>,
    /// `sets * ways * inner_capacity` inner slots, parallel to `outer`.
    inners: Vec<InnerSlot>,
    pairs: CountMin,
    sets: usize,
    hash_seed: u64,
    total: u64,
}

impl ChhSummary {
    /// Creates a summary whose resident memory never exceeds
    /// `cfg.budget_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small for one set of keys plus the
    /// minimum pair sketch (a few hundred bytes), or if `inner_capacity`
    /// or `ways` is zero.
    pub fn new(cfg: ChhConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(summary) => summary,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`ChhSummary::new`]: the single home of the
    /// budget-to-layout computation, shared with
    /// [`ChhSummary::from_state`] so a snapshot's configuration is
    /// validated by exactly the rules construction enforces — a bad
    /// state from across a process boundary is a typed error, never a
    /// panic.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError::State`] when `inner_capacity` or `ways`
    /// is zero or the budget cannot hold one set of keys beside the
    /// minimum pair sketch.
    pub fn try_new(cfg: ChhConfig) -> Result<Self, MergeError> {
        let invalid = |reason: String| MergeError::State { summary: "chh", reason };
        if cfg.inner_capacity == 0 || cfg.ways == 0 {
            return Err(invalid("CHH needs inner_capacity and ways >= 1".to_string()));
        }
        let pairs = CountMin::with_budget(cfg.budget_bytes / 4, 2, cfg.seed);
        let remaining = cfg.budget_bytes.saturating_sub(pairs.memory_bytes());
        let capacity = (remaining / cfg.bytes_per_key()) as usize;
        // Any set count works (set selection is a multiply-shift range
        // reduction, not a mask), so none of the budget is rounded away.
        let sets = capacity / cfg.ways;
        if sets == 0 {
            return Err(invalid(format!(
                "CHH budget of {} bytes cannot hold a {}-way set of keys",
                cfg.budget_bytes, cfg.ways
            )));
        }
        let entries = sets * cfg.ways;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let hash_seed = rng.next_u64();
        Ok(ChhSummary {
            cfg,
            outer: vec![OuterEntry::default(); entries],
            inners: vec![InnerSlot::default(); entries * cfg.inner_capacity],
            pairs,
            sets,
            hash_seed,
            total: 0,
        })
    }

    /// The configuration the summary was built with.
    pub fn config(&self) -> &ChhConfig {
        &self.cfg
    }

    /// Keys currently monitored.
    pub fn keys(&self) -> usize {
        self.outer.iter().filter(|e| e.count > 0).count()
    }

    /// Maximum monitored keys.
    pub fn key_capacity(&self) -> usize {
        self.outer.len()
    }

    /// Pairs observed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The nested Count-Min pair sketch (read-only), so telemetry can
    /// sample its occupancy alongside the outer table's.
    pub fn pair_sketch(&self) -> &CountMin {
        &self.pairs
    }

    /// Expected-case bound on key-frequency overestimates under uniform
    /// set hashing (the per-set Space-Saving bound is `set
    /// observations / ways`; summed over sets that is `N / capacity` on
    /// average).
    pub fn max_key_error(&self) -> u64 {
        self.total / self.key_capacity() as u64
    }

    /// Resident bytes: the packed outer/inner arrays plus the pair
    /// sketch. A constant for a given configuration — the allocation
    /// happens up front, so the bound holds for any stream length.
    pub fn memory_bytes(&self) -> u64 {
        self.outer.len() as u64 * std::mem::size_of::<OuterEntry>() as u64
            + self.inners.len() as u64 * std::mem::size_of::<InnerSlot>() as u64
            + self.pairs.memory_bytes()
    }

    #[inline]
    fn way_range(&self, key: u64) -> std::ops::Range<usize> {
        // Range reduction `(h * sets) >> 64`: uniform over any set count,
        // weighted by the hashed value's high bits.
        let h = hash::spread(key, self.hash_seed);
        let set = ((u128::from(h) * self.sets as u128) >> 64) as usize;
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    #[inline]
    fn inner_range(&self, entry_idx: usize) -> std::ops::Range<usize> {
        entry_idx * self.cfg.inner_capacity..(entry_idx + 1) * self.cfg.inner_capacity
    }

    /// Records one `(key, value)` observation.
    pub fn observe(&mut self, key: u64, value: u64) {
        self.total += 1;
        self.pairs.observe(pair_key(key, value));
        let range = self.way_range(key);
        // Hit, or adopt: an empty way first, else the set's min-count way
        // (lowest index on ties), inheriting its count per Space-Saving.
        let idx = match self.outer[range.clone()].iter().position(|e| e.count > 0 && e.key == key) {
            Some(offset) => {
                let idx = range.start + offset;
                self.outer[idx].count += 1;
                idx
            }
            None => {
                let offset = (range.clone())
                    .map(|i| self.outer[i])
                    .enumerate()
                    .min_by_key(|(i, e)| (e.count, *i))
                    .map(|(i, _)| i)
                    .expect("ways >= 1");
                let idx = range.start + offset;
                let inherited = self.outer[idx].count;
                self.outer[idx] = OuterEntry { key, count: inherited + 1, overestimate: inherited };
                // The way now tracks a different key; its value history
                // must not leak into the new one.
                let inner = self.inner_range(idx);
                self.inners[inner].iter_mut().for_each(|s| *s = InnerSlot::default());
                idx
            }
        };
        // Inner summary: same Space-Saving discipline over the values.
        let inner = self.inner_range(idx);
        match self.inners[inner.clone()].iter().position(|s| s.count > 0 && s.value == value) {
            Some(offset) => self.inners[inner.start + offset].count += 1,
            None => {
                let offset = (inner.clone())
                    .map(|i| self.inners[i])
                    .enumerate()
                    .min_by_key(|(i, s)| (s.count, *i))
                    .map(|(i, _)| i)
                    .expect("inner_capacity >= 1");
                let slot = &mut self.inners[inner.start + offset];
                *slot = InnerSlot { value, count: slot.count + 1, overestimate: slot.count };
            }
        }
    }

    /// The key-frequency estimate, if `key` is monitored.
    pub fn key_estimate(&self, key: u64) -> Option<Estimate> {
        let range = self.way_range(key);
        self.outer[range].iter().find(|e| e.count > 0 && e.key == key).map(|e| Estimate {
            count: u64::from(e.count),
            overestimate: u64::from(e.overestimate),
        })
    }

    /// Iterates every monitored key with its frequency estimate.
    pub fn key_estimates(&self) -> impl Iterator<Item = (u64, Estimate)> + '_ {
        self.outer.iter().filter(|e| e.count > 0).map(|e| {
            (e.key, Estimate { count: u64::from(e.count), overestimate: u64::from(e.overestimate) })
        })
    }

    /// The monitored values correlated with `key`, most frequent first
    /// (value breaks ties), or `None` if the key is not monitored.
    pub fn correlated(&self, key: u64) -> Option<Vec<ChhPair>> {
        let idx = self.index_of(key)?;
        let inner = self.inner_range(idx);
        let mut pairs: Vec<ChhPair> = self.inners[inner]
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| self.refine(key, s))
            .collect();
        pairs.sort_by_key(|p| (std::cmp::Reverse(p.estimate), p.value));
        Some(pairs)
    }

    /// The strongest correlated value and (optionally) the runner-up,
    /// without allocating — the per-access hot path of `SketchDbcp`.
    pub fn best_two(&self, key: u64) -> Option<(ChhPair, Option<ChhPair>)> {
        fn better(a: &ChhPair, b: &ChhPair) -> bool {
            (a.estimate, std::cmp::Reverse(a.value)) > (b.estimate, std::cmp::Reverse(b.value))
        }
        let idx = self.index_of(key)?;
        let inner = self.inner_range(idx);
        let mut best: Option<ChhPair> = None;
        let mut second: Option<ChhPair> = None;
        for slot in self.inners[inner].iter().filter(|s| s.count > 0) {
            let p = self.refine(key, slot);
            if best.as_ref().map_or(true, |b| better(&p, b)) {
                second = best;
                best = Some(p);
            } else if second.as_ref().map_or(true, |s| better(&p, s)) {
                second = Some(p);
            }
        }
        best.map(|b| (b, second))
    }

    fn index_of(&self, key: u64) -> Option<usize> {
        let range = self.way_range(key);
        let offset = self.outer[range.clone()].iter().position(|e| e.count > 0 && e.key == key)?;
        Some(range.start + offset)
    }

    fn refine(&self, key: u64, slot: &InnerSlot) -> ChhPair {
        ChhPair {
            value: slot.value,
            estimate: u64::from(slot.count).min(self.pairs.estimate(pair_key(key, slot.value))),
            overestimate: u64::from(slot.overestimate),
        }
    }

    /// This summary's construction shape (merge precondition): the full
    /// [`ChhConfig`], since budget, associativity and seed together
    /// determine the set geometry, the hash seed and the pair-sketch
    /// layout.
    pub fn shape(&self) -> SketchShape {
        SketchShape::new(
            "chh",
            vec![
                ("budget_bytes", self.cfg.budget_bytes),
                ("inner_capacity", self.cfg.inner_capacity as u64),
                ("ways", self.cfg.ways as u64),
                ("seed", self.cfg.seed),
            ],
        )
    }

    /// Folds `other` into `self`, set by set.
    ///
    /// Identical configurations hash every key to the same set, so each
    /// set merges independently under the Space-Saving combine (matched
    /// keys sum counts and overestimates; a key monitored on only one
    /// side adds the other set's minimum count — it may have been
    /// displaced there — when that set is full; top [`ChhConfig::ways`]
    /// kept, ties broken by key). Matched keys additionally merge their
    /// inner value summaries under the same discipline at
    /// [`ChhConfig::inner_capacity`], and the pair sketch merges exactly
    /// (cell-wise, see [`CountMin::merge`]), which keeps the
    /// sketch-capped estimates of [`ChhSummary::correlated`] sound.
    ///
    /// # Merged error bounds
    ///
    /// Per set the bounds are the Space-Saving merge bounds
    /// ([`crate::SpaceSaving::merge`]) at the set's observation count:
    /// key estimates never undercount, and a key's error stays within
    /// the two sides' per-set bounds summed. Aggregated uniformly over
    /// sets that is the usual expected-case
    /// [`ChhSummary::max_key_error`] with the summed `N`; survival of a
    /// truly hot key is guaranteed above twice its set's bound. Inner
    /// estimates stay capped by the exactly-merged pair sketch.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] when the configurations differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.shape().ensure_matches(&other.shape())?;
        self.pairs.merge(&other.pairs)?;
        for set in 0..self.sets {
            self.merge_set(set, other);
        }
        self.total += other.total;
        Ok(())
    }

    /// Merges one set of `other` into the same set of `self`.
    fn merge_set(&mut self, set: usize, other: &Self) {
        let ways = self.cfg.ways;
        let range = set * ways..(set + 1) * ways;
        let mine: Vec<(OuterEntry, Vec<InnerSlot>)> = range
            .clone()
            .filter(|&i| self.outer[i].count > 0)
            .map(|i| (self.outer[i], self.inners[self.inner_range(i)].to_vec()))
            .collect();
        let theirs: Vec<(OuterEntry, Vec<InnerSlot>)> = range
            .clone()
            .filter(|&i| other.outer[i].count > 0)
            .map(|i| (other.outer[i], other.inners[other.inner_range(i)].to_vec()))
            .collect();
        let m_mine = absent_bound(mine.iter().map(|(e, _)| u64::from(e.count)), ways);
        let m_theirs = absent_bound(theirs.iter().map(|(e, _)| u64::from(e.count)), ways);

        // The Space-Saving combine over this set's keys, inner summaries
        // riding along.
        let mut combined: Vec<(u64, u64, u64, Vec<InnerSlot>)> = Vec::new();
        for (entry, inner) in &mine {
            match theirs.iter().find(|(e, _)| e.key == entry.key) {
                Some((peer, peer_inner)) => combined.push((
                    entry.key,
                    u64::from(entry.count) + u64::from(peer.count),
                    u64::from(entry.overestimate) + u64::from(peer.overestimate),
                    merge_inner(inner, peer_inner, self.cfg.inner_capacity),
                )),
                None => combined.push((
                    entry.key,
                    u64::from(entry.count) + m_theirs,
                    u64::from(entry.overestimate) + m_theirs,
                    bump_inner(inner, m_theirs),
                )),
            }
        }
        for (entry, inner) in &theirs {
            if !mine.iter().any(|(e, _)| e.key == entry.key) {
                combined.push((
                    entry.key,
                    u64::from(entry.count) + m_mine,
                    u64::from(entry.overestimate) + m_mine,
                    bump_inner(inner, m_mine),
                ));
            }
        }
        combined.sort_by_key(|&(key, count, _, _)| (std::cmp::Reverse(count), key));
        combined.truncate(ways);

        for (offset, idx) in range.enumerate() {
            let inner_range = self.inner_range(idx);
            match combined.get(offset) {
                Some((key, count, overestimate, inner)) => {
                    self.outer[idx] = OuterEntry {
                        key: *key,
                        count: clamp32(*count),
                        overestimate: clamp32(*overestimate),
                    };
                    for (slot, filled) in self.inners[inner_range]
                        .iter_mut()
                        .zip(inner.iter().copied().chain(std::iter::repeat(InnerSlot::default())))
                    {
                        *slot = filled;
                    }
                }
                None => {
                    self.outer[idx] = OuterEntry::default();
                    self.inners[inner_range].iter_mut().for_each(|s| *s = InnerSlot::default());
                }
            }
        }
    }

    /// The serializable snapshot of this summary: the configuration
    /// (everything else regenerates from it), sparse occupied
    /// outer/inner slots, and the pair sketch.
    pub fn to_state(&self) -> ChhState {
        let mut state = ChhState {
            budget_bytes: self.cfg.budget_bytes,
            inner_capacity: self.cfg.inner_capacity as u64,
            ways: self.cfg.ways as u64,
            seed: self.cfg.seed,
            hash: HASH_CODE,
            total: self.total,
            pairs: self.pairs.to_state(),
            ..ChhState::default()
        };
        for (idx, e) in self.outer.iter().enumerate().filter(|(_, e)| e.count > 0) {
            state.outer_index.push(idx as u64);
            state.outer_keys.push(e.key);
            state.outer_counts.push(u64::from(e.count));
            state.outer_overestimates.push(u64::from(e.overestimate));
        }
        for (idx, s) in self.inners.iter().enumerate().filter(|(_, s)| s.count > 0) {
            state.inner_index.push(idx as u64);
            state.inner_values.push(s.value);
            state.inner_counts.push(u64::from(s.count));
            state.inner_overestimates.push(u64::from(s.overestimate));
        }
        state
    }

    /// Rebuilds a summary from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError::State`] when the snapshot is inconsistent:
    /// a configuration too small to construct, a hash family code other
    /// than 2, ragged or out-of-range slot arrays, counts beyond
    /// `u32`, or a pair sketch whose shape disagrees with the
    /// configuration.
    pub fn from_state(state: &ChhState) -> Result<Self, MergeError> {
        let cfg = ChhConfig {
            budget_bytes: state.budget_bytes,
            inner_capacity: state.inner_capacity as usize,
            ways: state.ways as usize,
            seed: state.seed,
        };
        if state.hash != HASH_CODE {
            return Err(MergeError::State {
                summary: "chh",
                reason: format!("unknown hash family code {}", state.hash),
            });
        }
        let mut chh = ChhSummary::try_new(cfg)?;
        let pairs = CountMin::from_state(&state.pairs)?;
        chh.pairs.shape().ensure_matches(&pairs.shape())?;
        chh.pairs = pairs;
        chh.total = state.total;
        fill_sparse(
            &mut chh.outer,
            &state.outer_index,
            &state.outer_keys,
            &state.outer_counts,
            &state.outer_overestimates,
            |key, count, overestimate| OuterEntry { key, count, overestimate },
            "outer",
        )?;
        fill_sparse(
            &mut chh.inners,
            &state.inner_index,
            &state.inner_values,
            &state.inner_counts,
            &state.inner_overestimates,
            |value, count, overestimate| InnerSlot { value, count, overestimate },
            "inner",
        )?;
        Ok(chh)
    }
}

/// The Space-Saving absent bound for a set: the minimum monitored count
/// when every way is occupied, zero otherwise.
fn absent_bound(counts: impl Iterator<Item = u64> + Clone, capacity: usize) -> u64 {
    if counts.clone().count() == capacity {
        counts.min().unwrap_or(0)
    } else {
        0
    }
}

/// Clamps a merged 64-bit count back into the packed 32-bit field.
fn clamp32(count: u64) -> u32 {
    count.min(u64::from(u32::MAX)) as u32
}

/// Merges two keys' inner value summaries under the Space-Saving combine
/// at `capacity` slots.
fn merge_inner(mine: &[InnerSlot], theirs: &[InnerSlot], capacity: usize) -> Vec<InnerSlot> {
    let occupied_mine: Vec<&InnerSlot> = mine.iter().filter(|s| s.count > 0).collect();
    let occupied_theirs: Vec<&InnerSlot> = theirs.iter().filter(|s| s.count > 0).collect();
    let m_mine = absent_bound(occupied_mine.iter().map(|s| u64::from(s.count)), capacity);
    let m_theirs = absent_bound(occupied_theirs.iter().map(|s| u64::from(s.count)), capacity);
    let mut combined: Vec<InnerSlot> = Vec::new();
    for slot in &occupied_mine {
        let (count, overestimate) = match occupied_theirs.iter().find(|s| s.value == slot.value) {
            Some(peer) => (
                u64::from(slot.count) + u64::from(peer.count),
                u64::from(slot.overestimate) + u64::from(peer.overestimate),
            ),
            None => (u64::from(slot.count) + m_theirs, u64::from(slot.overestimate) + m_theirs),
        };
        combined.push(InnerSlot {
            value: slot.value,
            count: clamp32(count),
            overestimate: clamp32(overestimate),
        });
    }
    for slot in &occupied_theirs {
        if !occupied_mine.iter().any(|s| s.value == slot.value) {
            combined.push(InnerSlot {
                value: slot.value,
                count: clamp32(u64::from(slot.count) + m_mine),
                overestimate: clamp32(u64::from(slot.overestimate) + m_mine),
            });
        }
    }
    combined.sort_by_key(|s| (std::cmp::Reverse(s.count), s.value));
    combined.truncate(capacity);
    combined
}

/// A single-side key's inner slots carried into the merge: every slot
/// absorbs the other set's absent bound (the key — and so any of its
/// values — may have counted up to that much there), preserving the
/// never-undercount property the pair-sketch cap relies on.
fn bump_inner(slots: &[InnerSlot], bound: u64) -> Vec<InnerSlot> {
    slots
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| InnerSlot {
            value: s.value,
            count: clamp32(u64::from(s.count) + bound),
            overestimate: clamp32(u64::from(s.overestimate) + bound),
        })
        .collect()
}

/// Writes sparse `(index, payload, count, overestimate)` arrays into a
/// zeroed slot array, validating shape as it goes.
fn fill_sparse<T>(
    slots: &mut [T],
    index: &[u64],
    payloads: &[u64],
    counts: &[u64],
    overestimates: &[u64],
    build: impl Fn(u64, u32, u32) -> T,
    what: &str,
) -> Result<(), MergeError> {
    let invalid = |reason: String| MergeError::State { summary: "chh", reason };
    if index.len() != payloads.len()
        || index.len() != counts.len()
        || index.len() != overestimates.len()
    {
        return Err(invalid(format!("ragged {what} arrays")));
    }
    let mut prev: Option<u64> = None;
    for (((&idx, &payload), &count), &overestimate) in
        index.iter().zip(payloads).zip(counts).zip(overestimates)
    {
        if prev.is_some_and(|p| idx <= p) {
            return Err(invalid(format!("{what} indices must be strictly increasing")));
        }
        prev = Some(idx);
        if idx as usize >= slots.len() {
            return Err(invalid(format!("{what} index {idx} out of range {}", slots.len())));
        }
        if count == 0 || count > u64::from(u32::MAX) || overestimate > u64::from(u32::MAX) {
            return Err(invalid(format!("{what} count {count} out of range")));
        }
        slots[idx as usize] = build(payload, count as u32, overestimate as u32);
    }
    Ok(())
}

/// Serializable snapshot of a [`ChhSummary`] (the wire form of a
/// segmented worker's partial summary): configuration + sparse occupied
/// slots + the pair sketch.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChhState {
    /// Total byte budget ([`ChhConfig::budget_bytes`]).
    pub budget_bytes: u64,
    /// Inner summary capacity ([`ChhConfig::inner_capacity`]).
    pub inner_capacity: u64,
    /// Outer set associativity ([`ChhConfig::ways`]).
    pub ways: u64,
    /// Hash seed ([`ChhConfig::seed`]).
    pub seed: u64,
    /// Hash family wire code: always 2 (multiply-shift), so a snapshot
    /// bucketed by another family is refused.
    pub hash: u64,
    /// Pairs observed.
    pub total: u64,
    /// Occupied outer entry indices, strictly increasing.
    pub outer_index: Vec<u64>,
    /// Monitored keys, parallel to `outer_index`.
    pub outer_keys: Vec<u64>,
    /// Key counts, parallel to `outer_index`.
    pub outer_counts: Vec<u64>,
    /// Key overestimates, parallel to `outer_index`.
    pub outer_overestimates: Vec<u64>,
    /// Occupied inner slot indices, strictly increasing.
    pub inner_index: Vec<u64>,
    /// Monitored values, parallel to `inner_index`.
    pub inner_values: Vec<u64>,
    /// Value counts, parallel to `inner_index`.
    pub inner_counts: Vec<u64>,
    /// Value overestimates, parallel to `inner_index`.
    pub inner_overestimates: Vec<u64>,
    /// The whole-pair sketch.
    pub pairs: CountMinState,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChhSummary {
        ChhSummary::new(ChhConfig::with_budget(32 << 10))
    }

    #[test]
    fn tracks_dominant_correlation() {
        let mut chh = small();
        for _ in 0..100 {
            chh.observe(1, 0xaa);
            chh.observe(1, 0xaa);
            chh.observe(1, 0xbb);
            chh.observe(2, 0xcc);
        }
        let top = chh.correlated(1).unwrap();
        assert_eq!(top[0].value, 0xaa);
        assert!(top[0].estimate >= 200);
        assert_eq!(chh.correlated(2).unwrap()[0].value, 0xcc);
    }

    #[test]
    fn best_two_matches_correlated() {
        let mut chh = small();
        for _ in 0..50 {
            chh.observe(7, 0x10);
            chh.observe(7, 0x10);
            chh.observe(7, 0x20);
        }
        let (best, second) = chh.best_two(7).unwrap();
        let sorted = chh.correlated(7).unwrap();
        assert_eq!(best, sorted[0]);
        assert_eq!(second, sorted.get(1).copied());
        assert!(chh.best_two(999).is_none());
    }

    #[test]
    fn replacement_resets_inner_history() {
        // One-way sets make displacement directly observable: find a key
        // that collides with key 1's set, displace it, and check the old
        // value history did not leak.
        let mut chh = ChhSummary::new(ChhConfig {
            budget_bytes: 8 << 10,
            inner_capacity: 2,
            ways: 1,
            seed: 1,
        });
        for _ in 0..10 {
            chh.observe(1, 0xaa);
        }
        let collider = (2u64..).find(|&k| {
            let mut probe = chh.clone();
            probe.observe(k, 0xff);
            probe.key_estimate(1).is_none()
        });
        let collider = collider.expect("some key collides with key 1's set");
        chh.observe(collider, 0xff);
        let top = chh.correlated(collider).unwrap();
        assert_eq!(top.len(), 1, "old key's values must not leak");
        assert_eq!(top[0].value, 0xff);
        // The inner summary restarted for the fresh key, and the pair
        // sketch (which persists) caps the estimate at its true count.
        assert_eq!(top[0].estimate, 1);
        // The inherited outer count is recorded as overestimate.
        assert_eq!(chh.key_estimate(collider).unwrap().overestimate, 10);
    }

    #[test]
    fn memory_bounded_by_budget_for_any_stream_length() {
        let budget = 48 << 10;
        let mut chh = ChhSummary::new(ChhConfig::with_budget(budget));
        let cold = chh.memory_bytes();
        for i in 0..200_000u64 {
            chh.observe(i % 10_000, i % 97);
        }
        assert!(chh.memory_bytes() <= budget, "resident {} > budget {budget}", chh.memory_bytes());
        assert_eq!(chh.memory_bytes(), cold, "allocation is up front and constant");
    }

    #[test]
    fn holds_a_working_set_that_fits() {
        // 4k distinct keys recurring uniformly, capacity comfortably
        // above: every key must stay monitored with an exact count.
        let mut chh = ChhSummary::new(ChhConfig::with_budget(512 << 10));
        assert!(chh.key_capacity() >= 8_000, "512 KiB must hold ~8k keys");
        for pass in 1..=5u64 {
            for k in 0..4_000u64 {
                chh.observe(k, k + 1);
            }
            let _ = pass;
        }
        let monitored = (0..4_000u64).filter(|&k| chh.key_estimate(k).is_some()).count();
        assert!(monitored > 3_600, "only {monitored}/4000 keys retained");
        // A stable monitored key sees every pass: most estimates reach 5.
        let full_count =
            (0..4_000u64).filter(|&k| chh.key_estimate(k).is_some_and(|e| e.count >= 5)).count();
        assert!(full_count > 3_000, "only {full_count}/4000 keys counted all passes");
    }

    #[test]
    fn same_seed_same_summary() {
        let cfg = ChhConfig::with_budget(16 << 10).with_seed(99);
        let mut a = ChhSummary::new(cfg);
        let mut b = ChhSummary::new(cfg);
        for i in 0..5_000u64 {
            a.observe(i % 37, i % 11);
            b.observe(i % 37, i % 11);
        }
        assert_eq!(a.correlated(5), b.correlated(5));
        assert_eq!(a.memory_bytes(), b.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn impossible_budget_rejected() {
        let _ =
            ChhSummary::new(ChhConfig { budget_bytes: 64, inner_capacity: 4, ways: 8, seed: 0 });
    }

    #[test]
    fn merge_combines_split_streams() {
        let cfg = ChhConfig::with_budget(64 << 10).with_seed(3);
        let mut whole = ChhSummary::new(cfg);
        let mut left = ChhSummary::new(cfg);
        let mut right = ChhSummary::new(cfg);
        for i in 0..4_000u64 {
            // Two values per key: both the outer keys (23 « capacity) and
            // the inner values (2 = inner_capacity) fit, so no entry is
            // ever displaced and the merge must be exact.
            let (key, value) = (i % 23, (i % 23) * 2 + i % 2);
            whole.observe(key, value);
            if i < 2_000 {
                left.observe(key, value);
            } else {
                right.observe(key, value);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left.total(), whole.total());
        for key in 0..23u64 {
            assert_eq!(
                left.key_estimate(key),
                whole.key_estimate(key),
                "merged key estimate diverged for {key}"
            );
            assert_eq!(left.correlated(key), whole.correlated(key));
        }
        assert_eq!(left.memory_bytes(), whole.memory_bytes());
    }

    #[test]
    fn merge_is_commutative() {
        let cfg = ChhConfig { budget_bytes: 8 << 10, inner_capacity: 2, ways: 2, seed: 5 };
        let mut a = ChhSummary::new(cfg);
        let mut b = ChhSummary::new(cfg);
        for i in 0..3_000u64 {
            a.observe(i % 41, i % 7);
            b.observe(i % 53, i % 5);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab.total(), ba.total());
        for key in 0..60u64 {
            assert_eq!(ab.key_estimate(key), ba.key_estimate(key), "key {key}");
            assert_eq!(ab.correlated(key), ba.correlated(key), "key {key}");
        }
    }

    #[test]
    fn merge_rejects_config_mismatches() {
        use crate::MergeError;
        let mut base = ChhSummary::new(ChhConfig::with_budget(16 << 10));
        let budget = ChhSummary::new(ChhConfig::with_budget(32 << 10));
        let err = base.merge(&budget).unwrap_err();
        assert!(matches!(err, MergeError::Shape { summary: "chh", field: "budget_bytes", .. }));
        let seeded = ChhSummary::new(ChhConfig::with_budget(16 << 10).with_seed(9));
        assert!(matches!(
            base.merge(&seeded).unwrap_err(),
            MergeError::Shape { field: "seed", .. }
        ));
        let mut cfg = ChhConfig::with_budget(16 << 10);
        cfg.ways = 4;
        assert!(matches!(
            base.merge(&ChhSummary::new(cfg)).unwrap_err(),
            MergeError::Shape { field: "ways", .. }
        ));
    }

    #[test]
    fn merge_and_state_respect_hash_family() {
        let mut chh = ChhSummary::new(ChhConfig::with_budget(16 << 10));
        for i in 0..3_000u64 {
            chh.observe(i % 31, i % 7);
        }
        let state = chh.to_state();
        assert_eq!((state.hash, state.pairs.hash), (2, 2));
        let revived = ChhSummary::from_state(&state).unwrap();
        for key in 0..31u64 {
            assert_eq!(revived.key_estimate(key), chh.key_estimate(key));
            assert_eq!(revived.correlated(key), chh.correlated(key));
        }
        // A foreign family is refused on the outer table and on the
        // nested pair sketch alike.
        for code in [1, 99] {
            let outer = ChhState { hash: code, ..state.clone() };
            assert!(ChhSummary::from_state(&outer).is_err(), "hash code {code} must be refused");
            let mut pairs = state.clone();
            pairs.pairs.hash = code;
            assert!(ChhSummary::from_state(&pairs).is_err(), "pair code {code} must be refused");
        }
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut chh = ChhSummary::new(ChhConfig::with_budget(16 << 10).with_seed(11));
        for i in 0..5_000u64 {
            chh.observe(i % 67, i % 13);
        }
        let revived = ChhSummary::from_state(&chh.to_state()).unwrap();
        assert_eq!(revived.total(), chh.total());
        assert_eq!(revived.memory_bytes(), chh.memory_bytes());
        for key in 0..67u64 {
            assert_eq!(revived.key_estimate(key), chh.key_estimate(key));
            assert_eq!(revived.correlated(key), chh.correlated(key));
        }
    }

    #[test]
    fn invalid_states_are_typed_errors() {
        use crate::MergeError;
        let good = ChhSummary::new(ChhConfig::with_budget(16 << 10)).to_state();

        let mut tiny = good.clone();
        tiny.budget_bytes = 64;
        assert!(matches!(
            ChhSummary::from_state(&tiny),
            Err(MergeError::State { summary: "chh", .. })
        ));

        let mut chh = ChhSummary::new(ChhConfig::with_budget(16 << 10));
        chh.observe(1, 2);
        let mut ragged = chh.to_state();
        ragged.outer_counts.pop();
        assert!(ChhSummary::from_state(&ragged).is_err());

        let mut out_of_range = chh.to_state();
        out_of_range.inner_index[0] = u64::MAX;
        assert!(ChhSummary::from_state(&out_of_range).is_err());

        let mut alien_pairs = chh.to_state();
        alien_pairs.pairs.seed ^= 1;
        assert!(ChhSummary::from_state(&alien_pairs).is_err(), "pair sketch shape must match");
    }
}
