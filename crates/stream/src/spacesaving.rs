//! The Space-Saving top-k frequency summary (Metwally et al.).
//!
//! Tracks at most `capacity` distinct keys. A monitored key's counter is
//! exact plus at most its recorded `overestimate`; an unmonitored key has
//! been observed at most `max_error()` times. Both bounds follow from the
//! classic guarantee: with capacity `k` over a stream of `N` observations,
//! every estimation error is at most `N / k` (the ε·N bound with
//! ε = 1/k). The summary is deterministic: identical observation sequences
//! produce identical states (min-replacement ties break by slot index).
//! Its count step and its merge are the crate's one pair (see the crate
//! docs); over thousands of counters, a hash index finds the key and a
//! min-tree the minimum counter.

use serde::{Deserialize, Serialize};

use crate::hash::FoldMap;
use crate::merge::{combine, MergeError, SketchShape};

/// A monitored key's estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Estimated count (never below the true count).
    pub count: u64,
    /// Upper bound on the overestimation (the displaced minimum at
    /// adoption time; 0 for keys monitored since their first occurrence).
    pub overestimate: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    key: u64,
    count: u64,
    overestimate: u64,
}

impl Entry {
    fn estimate(&self) -> Estimate {
        Estimate { count: self.count, overestimate: self.overestimate }
    }
}

/// Modelled bookkeeping bytes per monitored key beyond the entry payload:
/// the key→slot index entry and the key's share of the min-tree (a leaf
/// and an inner node of 16 bytes each), including allocator/container
/// overhead. Every summary is sized by [`SpaceSaving::entry_bytes`], so
/// this stays fixed whatever the layout it models.
const NODE_BYTES: u64 = 48;

/// A min-tree node: `count << 32 | slot`, so comparing two ranks orders
/// by count and breaks ties by the lower slot.
type Rank = u128;

#[inline]
fn rank(count: u64, slot: u32) -> Rank {
    Rank::from(count) << 32 | Rank::from(slot)
}

/// Deterministic Space-Saving summary over `u64` keys.
///
/// # Example
///
/// ```
/// use ltc_stream::SpaceSaving;
///
/// let mut ss = SpaceSaving::new(2);
/// for key in [7u64, 7, 7, 9, 9, 4] {
///     ss.observe(key);
/// }
/// let est = ss.estimate(&7).unwrap();
/// assert!(est.count >= 3, "estimates never undercount");
/// assert!(ss.memory_bytes() <= SpaceSaving::entry_bytes() * 2);
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    /// Monitored keys, indexed by slot.
    entries: Vec<Entry>,
    /// Key → slot.
    index: FoldMap<u64, u32>,
    /// Min-tree over the slots' ranks: node `i` holds the least rank of
    /// nodes `2i` and `2i + 1`, slot `s`'s leaf is node `capacity + s`,
    /// and node 1 is the minimum. Empty until the summary first fills,
    /// the only state in which the minimum is read.
    tree: Vec<Rank>,
    total: u64,
    /// Replacements performed by this instance (telemetry only — not
    /// part of the logical sketch state, so excluded from
    /// [`SpaceSavingState`] and [`SpaceSaving::merge`]).
    evictions: u64,
}

impl SpaceSaving {
    /// Creates a summary monitoring at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Space-Saving needs capacity >= 1");
        SpaceSaving {
            capacity,
            entries: Vec::new(),
            index: FoldMap::default(),
            tree: Vec::new(),
            total: 0,
            evictions: 0,
        }
    }

    /// Modelled resident bytes per monitored key (entry payload plus
    /// index and min-tree bookkeeping) — the unit
    /// [`SpaceSaving::with_budget`] divides a byte budget by.
    pub fn entry_bytes() -> u64 {
        std::mem::size_of::<Entry>() as u64 + NODE_BYTES
    }

    /// Creates a summary sized to fit `budget_bytes`
    /// (at least one entry).
    pub fn with_budget(budget_bytes: u64) -> Self {
        SpaceSaving::new((budget_bytes / Self::entry_bytes()).max(1) as usize)
    }

    /// Maximum monitored keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Monitored keys right now.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Observations so far (`N`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Min-key replacements performed by this instance since
    /// construction (or the last [`SpaceSaving::clear`]): how often a
    /// full summary displaced its minimum-count key. High eviction
    /// rates relative to [`SpaceSaving::total`] signal the capacity is
    /// too small for the stream's churn. Telemetry-only: snapshots and
    /// merges neither carry nor combine it.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The ε·N error bound: any estimate is within `total / capacity` of
    /// the true count, and any unmonitored key occurred at most this often.
    pub fn max_error(&self) -> u64 {
        self.total / self.capacity as u64
    }

    /// Modelled resident bytes (entry payloads + per-key bookkeeping).
    /// Bounded by `capacity * entry_bytes()` regardless of stream length.
    pub fn memory_bytes(&self) -> u64 {
        self.entries.len() as u64 * Self::entry_bytes()
    }

    /// Records `n` occurrences of `key`.
    pub fn observe_n(&mut self, key: u64, n: u64) {
        self.total += n;
        if let Some(&slot) = self.index.get(&key) {
            let e = &mut self.entries[slot as usize];
            e.count += n;
            let count = e.count;
            if !self.tree.is_empty() {
                self.raise(slot, rank(count - n, slot), rank(count, slot));
            }
            return;
        }
        if self.entries.len() < self.capacity {
            let slot = self.entries.len() as u32;
            self.entries.push(Entry { key, count: n, overestimate: 0 });
            self.index.insert(key, slot);
            self.build_tree_if_full();
            return;
        }
        // Displace the minimum-count key (deterministic: lowest slot on
        // count ties) and inherit its counter as the overestimate.
        let min = self.tree[1];
        let (min_count, slot) = ((min >> 32) as u64, min as u32);
        let e = &mut self.entries[slot as usize];
        self.index.remove(&e.key);
        *e = Entry { key, count: min_count + n, overestimate: min_count };
        self.index.insert(key, slot);
        self.raise(slot, min, rank(min_count + n, slot));
        self.evictions += 1;
    }

    /// Records one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.observe_n(key, 1);
    }

    /// The estimate for `key`, or `None` if it is not monitored (its true
    /// count is then at most [`SpaceSaving::max_error`]).
    pub fn estimate(&self, key: &u64) -> Option<Estimate> {
        self.index.get(key).map(|&slot| self.entries[slot as usize].estimate())
    }

    /// Iterates monitored `(key, estimate)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Estimate)> + '_ {
        self.entries.iter().map(|e| (e.key, e.estimate()))
    }

    /// Monitored keys sorted by descending estimated count (slot index
    /// breaks ties, so the order is deterministic).
    pub fn top(&self) -> Vec<(u64, Estimate)> {
        let mut top: Vec<(u64, Estimate)> = self.iter().collect();
        top.sort_by_key(|(_, e)| std::cmp::Reverse(e.count)); // stable: slot order on ties
        top
    }

    /// Forgets everything (capacity is retained).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.tree.clear();
        self.total = 0;
        self.evictions = 0;
    }

    /// Builds the min-tree once every slot is taken.
    fn build_tree_if_full(&mut self) {
        if self.entries.len() < self.capacity {
            return;
        }
        let k = self.capacity;
        self.tree = vec![0; 2 * k];
        for (slot, e) in self.entries.iter().enumerate() {
            self.tree[k + slot] = rank(e.count, slot as u32);
        }
        for node in (1..k).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// Rewrites `slot`'s leaf from rank `old` to the larger `new`. Only
    /// ancestors whose minimum was `old` can change, and they form an
    /// unbroken path up from the leaf, so the walk stops at the first
    /// ancestor with another minimum.
    fn raise(&mut self, slot: u32, old: Rank, new: Rank) {
        let mut node = self.capacity + slot as usize;
        self.tree[node] = new;
        while node > 1 && self.tree[node / 2] == old {
            self.tree[node / 2] = self.tree[node].min(self.tree[node ^ 1]);
            node /= 2;
        }
    }

    /// This summary's construction shape (merge precondition).
    pub fn shape(&self) -> SketchShape {
        SketchShape::new("space-saving", vec![("capacity", self.capacity as u64)])
    }

    /// Folds `other` into `self` through the crate's one combine (the
    /// parallel Space-Saving combine of Cafaro et al., see
    /// [`crate::merge`]): matched keys sum their estimates and
    /// overestimates; a key monitored on only one side adds the other
    /// side's absent bound — its minimum counter when full, zero below
    /// capacity — to both (the key may have been displaced there), and
    /// the combined entries are cut back to the top
    /// `capacity` by count (ties broken by key, so merging is
    /// deterministic and commutative).
    ///
    /// # Merged error bounds
    ///
    /// Over the combined stream of `N = N₁ + N₂` observations:
    /// estimates still never undercount; a monitored key's error stays
    /// within `N₁/k + N₂/k` = [`SpaceSaving::max_error`] of the merged
    /// summary (each side's per-entry overestimate and absent bound is at
    /// most `Nᵢ/k`); any key whose true count exceeds `2·max_error()`
    /// is guaranteed to stay monitored. The last bound is `2ε·N` rather
    /// than the single-pass `ε·N` because the combined counters can sum
    /// to `2N` before truncation — the price of merging, documented so
    /// callers can size capacity accordingly.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] when the capacities differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.shape().ensure_matches(&other.shape())?;
        let entries =
            |ss: &Self| ss.entries.iter().map(|e| (e.key, e.count, e.overestimate, ())).collect();
        let merged = combine(entries(self), entries(other), self.capacity, |(), ()| (), |(), _| ());
        let total = self.total + other.total;
        self.clear();
        self.total = total;
        for (slot, (key, count, overestimate, ())) in merged.into_iter().enumerate() {
            self.entries.push(Entry { key, count, overestimate });
            self.index.insert(key, slot as u32);
        }
        self.build_tree_if_full();
        Ok(())
    }

    /// The serializable snapshot of this summary (slot order preserved,
    /// so [`SpaceSaving::from_state`] reproduces the exact state —
    /// including [`SpaceSaving::top`]'s tie-breaking).
    pub fn to_state(&self) -> SpaceSavingState {
        SpaceSavingState {
            capacity: self.capacity as u64,
            total: self.total,
            keys: self.entries.iter().map(|e| e.key).collect(),
            counts: self.entries.iter().map(|e| e.count).collect(),
            overestimates: self.entries.iter().map(|e| e.overestimate).collect(),
        }
    }

    /// Rebuilds a summary from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError::State`] when the snapshot is inconsistent
    /// (mismatched array lengths, more entries than capacity, duplicate
    /// keys, zero capacity) — states cross process boundaries, so bad
    /// data must be an error, not a panic.
    pub fn from_state(state: &SpaceSavingState) -> Result<Self, MergeError> {
        let invalid = |reason: String| MergeError::State { summary: "space-saving", reason };
        if state.capacity == 0 {
            return Err(invalid("capacity 0".to_string()));
        }
        if state.keys.len() != state.counts.len() || state.keys.len() != state.overestimates.len() {
            return Err(invalid(format!(
                "mismatched array lengths {}/{}/{}",
                state.keys.len(),
                state.counts.len(),
                state.overestimates.len()
            )));
        }
        if state.keys.len() as u64 > state.capacity {
            return Err(invalid(format!(
                "{} entries exceed capacity {}",
                state.keys.len(),
                state.capacity
            )));
        }
        let mut ss = SpaceSaving::new(state.capacity as usize);
        ss.total = state.total;
        for (slot, &key) in state.keys.iter().enumerate() {
            let (count, overestimate) = (state.counts[slot], state.overestimates[slot]);
            if ss.index.insert(key, slot as u32).is_some() {
                return Err(invalid(format!("duplicate key {key:#x}")));
            }
            ss.entries.push(Entry { key, count, overestimate });
        }
        ss.build_tree_if_full();
        Ok(ss)
    }
}

/// Serializable snapshot of a [`SpaceSaving`] summary: parallel
/// slot-ordered arrays (the wire form of a segmented worker's partial
/// summary).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceSavingState {
    /// Maximum monitored keys.
    pub capacity: u64,
    /// Observations summarized (`N`).
    pub total: u64,
    /// Monitored keys in slot order.
    pub keys: Vec<u64>,
    /// Estimated counts, parallel to `keys`.
    pub counts: Vec<u64>,
    /// Overestimation bounds, parallel to `keys`.
    pub overestimates: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut ss = SpaceSaving::new(8);
        for i in 0..5u64 {
            ss.observe_n(i, i + 1);
        }
        for i in 0..5u64 {
            let e = ss.estimate(&i).unwrap();
            assert_eq!(e.count, i + 1);
            assert_eq!(e.overestimate, 0);
        }
        assert_eq!(ss.total(), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn replacement_inherits_min_count() {
        let mut ss = SpaceSaving::new(2);
        ss.observe_n(1u64, 5);
        ss.observe_n(2, 3);
        ss.observe(9); // displaces key 2 (count 3), taking its slot
        assert_eq!(ss.to_state().keys, [1, 9]);
        let e = ss.estimate(&9).unwrap();
        assert_eq!(e.count, 4);
        assert_eq!(e.overestimate, 3);
        assert!(ss.estimate(&2).is_none());
    }

    #[test]
    fn evictions_count_replacements_only() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(1u64);
        ss.observe(2);
        ss.observe(1);
        assert_eq!(ss.evictions(), 0, "inserts and increments are not evictions");
        ss.observe(3); // displaces the min key
        ss.observe(4); // displaces again
        assert_eq!(ss.evictions(), 2);
        // Telemetry-only: the counter survives neither snapshots nor clear.
        let revived = SpaceSaving::from_state(&ss.to_state()).unwrap();
        assert_eq!(revived.evictions(), 0);
        ss.clear();
        assert_eq!(ss.evictions(), 0);
    }

    #[test]
    fn error_stays_within_bound() {
        // Skewed stream: key k occurs 2^(10-k) times, shuffled deterministically.
        let mut stream = Vec::new();
        for k in 0..10u64 {
            stream.extend(std::iter::repeat(k).take(1 << (10 - k)));
        }
        // Interleave by striding.
        let mut ss = SpaceSaving::new(4);
        let mut truth = std::collections::HashMap::new();
        for i in 0..stream.len() {
            let key = stream[(i * 7919) % stream.len()];
            ss.observe(key);
            *truth.entry(key).or_insert(0u64) += 1;
        }
        for (key, est) in ss.iter() {
            let t = truth[&key];
            assert!(est.count >= t, "never undercounts");
            assert!(est.count - t <= ss.max_error(), "ε·N bound");
        }
    }

    #[test]
    fn memory_is_bounded_by_capacity() {
        let mut ss = SpaceSaving::new(16);
        for i in 0..100_000u64 {
            ss.observe(i);
        }
        assert_eq!(ss.len(), 16);
        assert_eq!(ss.memory_bytes(), 16 * SpaceSaving::entry_bytes());
    }

    #[test]
    fn with_budget_fits_the_budget() {
        let budget = 4096;
        let ss = SpaceSaving::with_budget(budget);
        assert!(ss.capacity() as u64 * SpaceSaving::entry_bytes() <= budget);
        assert!(ss.capacity() >= 1);
    }

    #[test]
    fn top_is_sorted_and_deterministic() {
        let mut ss = SpaceSaving::new(8);
        for (k, n) in [(3u64, 9u64), (1, 4), (2, 9), (5, 1)] {
            ss.observe_n(k, n);
        }
        let top: Vec<u64> = ss.top().into_iter().map(|(k, _)| k).collect();
        assert_eq!(top, vec![3, 2, 1, 5], "count desc, slot order on ties");
    }

    #[test]
    fn clear_resets_state() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(1u64);
        ss.clear();
        assert!(ss.is_empty());
        assert_eq!(ss.total(), 0);
        assert!(ss.estimate(&1).is_none());
        ss.observe(2);
        assert_eq!(ss.estimate(&2).unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = SpaceSaving::new(0);
    }

    #[test]
    fn merge_sums_matched_keys_and_totals() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        a.observe_n(1u64, 5);
        a.observe_n(2, 3);
        b.observe_n(1, 7);
        b.observe_n(3, 2);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 17);
        // Neither side is full, so absent bounds are zero and every
        // combined count is exact.
        assert_eq!(a.estimate(&1).unwrap().count, 12);
        assert_eq!(a.estimate(&2).unwrap().count, 3);
        assert_eq!(a.estimate(&3).unwrap().count, 2);
        assert_eq!(a.estimate(&1).unwrap().overestimate, 0);
    }

    #[test]
    fn merge_never_undercounts_displaced_keys() {
        // Key 9 is hot in `b` but got displaced from `a`: its merged
        // estimate must still cover the occurrences `a` may have seen.
        let mut a = SpaceSaving::new(2);
        a.observe_n(1u64, 10);
        a.observe_n(2, 6);
        a.observe_n(9, 1); // displaces 2, inherits count 6
        a.observe_n(2, 9); // displaces 9 again — 9's true count in a is 1
        let mut b = SpaceSaving::new(2);
        b.observe_n(9u64, 20);
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        // True combined count of 9 is 21; the estimate must not be below.
        assert!(merged.estimate(&9).is_some_and(|e| e.count >= 21));
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = SpaceSaving::new(3);
        let mut b = SpaceSaving::new(3);
        for (k, n) in [(1u64, 9u64), (2, 4), (3, 7), (4, 2)] {
            a.observe_n(k, n);
        }
        for (k, n) in [(2u64, 5u64), (5, 8), (6, 1)] {
            b.observe_n(k, n);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab.total(), ba.total());
        assert_eq!(ab.top(), ba.top(), "deterministic tie-breaking makes merge commutative");
    }

    #[test]
    fn merge_rejects_capacity_mismatch() {
        let mut a = SpaceSaving::new(4);
        let b = SpaceSaving::new(8);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(
            err,
            crate::MergeError::Shape {
                summary: "space-saving",
                field: "capacity",
                left: 4,
                right: 8
            }
        );
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut ss = SpaceSaving::new(3);
        for key in [7u64, 7, 9, 4, 4, 4, 1] {
            ss.observe(key);
        }
        let revived = SpaceSaving::from_state(&ss.to_state()).unwrap();
        assert_eq!(revived.total(), ss.total());
        assert_eq!(revived.top(), ss.top());
        assert_eq!(revived.memory_bytes(), ss.memory_bytes());
        // The revived summary keeps evolving identically.
        let (mut a, mut b) = (ss, revived);
        for key in [9u64, 9, 2] {
            a.observe(key);
            b.observe(key);
        }
        assert_eq!(a.top(), b.top());
    }

    #[test]
    fn invalid_states_are_typed_errors() {
        let mut state = SpaceSaving::new(2).to_state();
        state.capacity = 0;
        assert!(matches!(
            SpaceSaving::from_state(&state),
            Err(crate::MergeError::State { summary: "space-saving", .. })
        ));
        let mut over = SpaceSavingState {
            capacity: 1,
            total: 2,
            keys: vec![1, 2],
            counts: vec![1, 1],
            overestimates: vec![0, 0],
        };
        assert!(SpaceSaving::from_state(&over).is_err(), "entries beyond capacity");
        over.capacity = 2;
        over.counts.pop();
        assert!(SpaceSaving::from_state(&over).is_err(), "ragged arrays");
        let dup = SpaceSavingState {
            capacity: 4,
            total: 2,
            keys: vec![5, 5],
            counts: vec![1, 1],
            overestimates: vec![0, 0],
        };
        assert!(SpaceSaving::from_state(&dup).is_err(), "duplicate keys");
    }
}
