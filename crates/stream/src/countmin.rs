//! The Count-Min sketch (Cormode & Muthukrishnan).
//!
//! A `depth × width` grid of counters. Each row hashes the key with an
//! independent seed; an estimate is the minimum over the key's counters,
//! so it never undercounts and overcounts by at most `e·N / width` with
//! probability `1 − exp(−depth)`. Unlike [`crate::SpaceSaving`] it
//! answers for *any* key, at the cost of never knowing which keys are hot.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::hash::{self, HASH_CODE};
use crate::merge::{MergeError, SketchShape};

/// Count-Min sketch over `u64` keys with deterministic seeding.
///
/// Row seeds are drawn from the workspace's [`StdRng`] stream, so two
/// sketches built with the same `(width, depth, seed)` are byte-for-byte
/// interchangeable — a property the artifact cache relies on.
///
/// # Example
///
/// ```
/// use ltc_stream::CountMin;
///
/// let mut cm = CountMin::new(1 << 10, 4, 42);
/// for _ in 0..5 {
///     cm.observe(7);
/// }
/// assert!(cm.estimate(7) >= 5, "estimates never undercount");
/// ```
#[derive(Debug, Clone)]
pub struct CountMin {
    width: usize,
    depth: usize,
    seed: u64,
    row_seeds: Vec<u64>,
    counters: Vec<u64>,
    total: u64,
}

impl CountMin {
    /// Creates a sketch of `depth` rows of `width` counters (width is
    /// rounded up to a power of two for mask indexing).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "Count-Min needs width >= 1 and depth >= 1");
        let width = width.next_power_of_two();
        let mut rng = StdRng::seed_from_u64(seed);
        let row_seeds = (0..depth).map(|_| rng.next_u64()).collect();
        CountMin { width, depth, seed, row_seeds, counters: vec![0; width * depth], total: 0 }
    }

    /// Creates the widest power-of-two sketch of the given depth that fits
    /// `budget_bytes` of counters (at least one counter per row).
    pub fn with_budget(budget_bytes: u64, depth: usize, seed: u64) -> Self {
        assert!(depth > 0, "Count-Min needs depth >= 1");
        let per_row = (budget_bytes / 8 / depth as u64).max(1);
        // next_power_of_two rounds up; halve back down if that overshoots.
        let mut width = per_row.next_power_of_two();
        if width > per_row {
            width /= 2;
        }
        CountMin::new(width.max(1) as usize, depth, seed)
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Observations so far (`N`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Resident bytes: the counter grid plus row seeds.
    pub fn memory_bytes(&self) -> u64 {
        (self.counters.len() as u64 + self.row_seeds.len() as u64) * 8
    }

    /// Non-zero counters in the grid — the occupancy telemetry samples.
    /// Approaching `width * depth` means rows are saturating and
    /// estimates degrade toward `total`; an O(width·depth) scan, so
    /// sample it, don't call it per observation.
    pub fn occupancy(&self) -> u64 {
        self.counters.iter().filter(|&&c| c > 0).count() as u64
    }

    #[inline]
    fn slot(&self, row: usize, key: u64) -> usize {
        row * self.width + hash::index(key, self.row_seeds[row], self.width - 1)
    }

    /// Records `n` occurrences of `key`.
    pub fn observe_n(&mut self, key: u64, n: u64) {
        self.total += n;
        for row in 0..self.depth {
            let slot = self.slot(row, key);
            self.counters[slot] += n;
        }
    }

    /// Records one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.observe_n(key, 1);
    }

    /// The (never undercounting) estimate for `key`.
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth).map(|row| self.counters[self.slot(row, key)]).min().unwrap_or(0)
    }

    /// This sketch's construction shape (merge precondition): width,
    /// depth and the seed the row hashes derive from.
    pub fn shape(&self) -> SketchShape {
        SketchShape::new(
            "count-min",
            vec![("width", self.width as u64), ("depth", self.depth as u64), ("seed", self.seed)],
        )
    }

    /// Adds `other`'s counters into `self`, cell by cell.
    ///
    /// # Merged error bounds
    ///
    /// Counter grids of identical geometry and row seeds are linear in
    /// the stream: the merged grid equals the grid a single sketch would
    /// have built over the concatenated stream, so the merge is *exact* —
    /// estimates still never undercount and the overcount bound is
    /// `e·N/width` with the summed `N = N₁ + N₂`. Merging is therefore
    /// associative and commutative with no extra error.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] when width, depth or seed differ (with a
    /// different seed the rows hash differently, so cell-wise addition
    /// would be meaningless).
    pub fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.shape().ensure_matches(&other.shape())?;
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        self.total += other.total;
        Ok(())
    }

    /// The serializable snapshot of this sketch (row seeds regenerate
    /// from the stored seed).
    pub fn to_state(&self) -> CountMinState {
        CountMinState {
            width: self.width as u64,
            depth: self.depth as u64,
            seed: self.seed,
            hash: HASH_CODE,
            total: self.total,
            counters: self.counters.clone(),
        }
    }

    /// Rebuilds a sketch from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError::State`] when the counter array does not
    /// match the stated geometry, the geometry is degenerate, or the
    /// state was bucketed by a hash family other than code 2.
    pub fn from_state(state: &CountMinState) -> Result<Self, MergeError> {
        let invalid = |reason: String| MergeError::State { summary: "count-min", reason };
        if state.width == 0 || state.depth == 0 {
            return Err(invalid(format!("degenerate geometry {}x{}", state.width, state.depth)));
        }
        if !state.width.is_power_of_two() {
            return Err(invalid(format!("width {} is not a power of two", state.width)));
        }
        if state.hash != HASH_CODE {
            return Err(invalid(format!("unknown hash family code {}", state.hash)));
        }
        let mut cm = CountMin::new(state.width as usize, state.depth as usize, state.seed);
        if cm.counters.len() != state.counters.len() {
            return Err(invalid(format!(
                "{} counters for a {}x{} grid",
                state.counters.len(),
                state.width,
                state.depth
            )));
        }
        cm.counters.clone_from(&state.counters);
        cm.total = state.total;
        Ok(cm)
    }
}

/// Serializable snapshot of a [`CountMin`] sketch (the wire form of a
/// segmented worker's partial summary).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountMinState {
    /// Counters per row (a power of two).
    pub width: u64,
    /// Number of rows.
    pub depth: u64,
    /// Seed the row hashes derive from.
    pub seed: u64,
    /// Hash family wire code: always 2 (multiply-shift), so a snapshot
    /// bucketed by another family is refused.
    pub hash: u64,
    /// Observations summarized (`N`).
    pub total: u64,
    /// The `depth × width` counter grid, row-major.
    pub counters: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_counts_nonzero_counters() {
        let mut cm = CountMin::new(64, 4, 1);
        assert_eq!(cm.occupancy(), 0);
        cm.observe(42);
        // One distinct key touches exactly one counter per row (hash
        // collisions across rows land in different rows' slots).
        assert_eq!(cm.occupancy(), cm.depth() as u64);
        for key in 0..10_000u64 {
            cm.observe(key);
        }
        let occ = cm.occupancy();
        assert!(occ > 0 && occ <= (cm.width() * cm.depth()) as u64);
    }

    #[test]
    fn never_undercounts() {
        let mut cm = CountMin::new(64, 4, 1);
        for key in 0..1000u64 {
            cm.observe_n(key, key % 7 + 1);
        }
        for key in 0..1000u64 {
            assert!(cm.estimate(key) > key % 7);
        }
    }

    #[test]
    fn unseen_keys_stay_small() {
        let mut cm = CountMin::new(1 << 12, 4, 9);
        for key in 0..100u64 {
            cm.observe(key);
        }
        // A wide sketch over a tiny stream rarely collides on all rows.
        let ghosts = (10_000..10_100u64).filter(|&k| cm.estimate(k) > 0).count();
        assert!(ghosts < 5, "too many phantom counts: {ghosts}");
    }

    #[test]
    fn same_seed_is_identical() {
        let mut a = CountMin::new(128, 3, 7);
        let mut b = CountMin::new(128, 3, 7);
        for key in 0..500u64 {
            a.observe(key * 31);
            b.observe(key * 31);
        }
        for key in 0..500u64 {
            assert_eq!(a.estimate(key * 31), b.estimate(key * 31));
        }
    }

    #[test]
    fn different_seeds_hash_differently() {
        let a = CountMin::new(1 << 10, 2, 1);
        let b = CountMin::new(1 << 10, 2, 2);
        let differs = (0..64u64).any(|k| a.slot(0, k) != b.slot(0, k));
        assert!(differs, "row seeds must change the hash");
    }

    #[test]
    fn budget_bounds_memory() {
        for budget in [64u64, 1 << 10, 1 << 16, (1 << 16) + 123] {
            let cm = CountMin::with_budget(budget, 2, 1);
            assert!(
                cm.counters.len() as u64 * 8 <= budget.max(2 * 8 * 2),
                "counter grid must fit {budget}"
            );
        }
    }

    #[test]
    fn merge_equals_single_pass() {
        // Linearity: sketching two halves and merging is byte-identical
        // to sketching the concatenation.
        let mut whole = CountMin::new(128, 3, 7);
        let mut left = CountMin::new(128, 3, 7);
        let mut right = CountMin::new(128, 3, 7);
        for key in 0..400u64 {
            whole.observe(key % 37);
            if key < 200 {
                left.observe(key % 37);
            } else {
                right.observe(key % 37);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left.total(), whole.total());
        assert_eq!(left.counters, whole.counters);
    }

    #[test]
    fn merge_rejects_shape_mismatches() {
        use crate::MergeError;
        let mut base = CountMin::new(64, 2, 1);
        let err = base.merge(&CountMin::new(128, 2, 1)).unwrap_err();
        assert!(matches!(err, MergeError::Shape { summary: "count-min", field: "width", .. }));
        let err = base.merge(&CountMin::new(64, 3, 1)).unwrap_err();
        assert!(matches!(err, MergeError::Shape { field: "depth", .. }));
        let err = base.merge(&CountMin::new(64, 2, 2)).unwrap_err();
        assert!(matches!(err, MergeError::Shape { field: "seed", .. }));
    }

    #[test]
    fn states_pin_their_hash_family() {
        let mut cm = CountMin::new(128, 3, 5);
        for key in 0..400u64 {
            cm.observe(key * 13);
        }
        let state = cm.to_state();
        assert_eq!(state.hash, 2);
        let revived = CountMin::from_state(&state).unwrap();
        assert_eq!(revived.counters, cm.counters);
        for key in 0..400u64 {
            assert_eq!(revived.estimate(key * 13), cm.estimate(key * 13));
        }
        for code in [1, 99] {
            let bad = CountMinState { hash: code, ..state.clone() };
            assert!(CountMin::from_state(&bad).is_err(), "hash code {code} must be refused");
        }
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut cm = CountMin::new(64, 3, 9);
        for key in 0..300u64 {
            cm.observe(key * 17);
        }
        let revived = CountMin::from_state(&cm.to_state()).unwrap();
        assert_eq!(revived.total(), cm.total());
        assert_eq!(revived.counters, cm.counters);
        for key in 0..300u64 {
            assert_eq!(revived.estimate(key * 17), cm.estimate(key * 17));
        }
    }

    #[test]
    fn invalid_states_are_typed_errors() {
        use crate::MergeError;
        let mut state = CountMin::new(64, 2, 1).to_state();
        state.counters.pop();
        assert!(matches!(
            CountMin::from_state(&state),
            Err(MergeError::State { summary: "count-min", .. })
        ));
        let mut degenerate = CountMin::new(64, 2, 1).to_state();
        degenerate.depth = 0;
        assert!(CountMin::from_state(&degenerate).is_err());
        let mut odd = CountMin::new(64, 2, 1).to_state();
        odd.width = 65;
        assert!(CountMin::from_state(&odd).is_err());
    }
}
