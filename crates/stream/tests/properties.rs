//! Property tests for the sketch guarantees: the Space-Saving ε·N bound,
//! CHH recall on skewed synthetic streams (driven by the `trace::gen`
//! workload generators), seed-determinism of every summary — and the
//! merge guarantees: summaries built over stream segments and merged
//! must match a single-pass summary over the concatenated stream within
//! the documented merged error bounds, commutatively, and associatively
//! up to those bounds. Space-Saving is also checked step by step against
//! a linear-scan reference model.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};

use ltc_stream::{ChhConfig, ChhSummary, CountMin, FoldHasher, SpaceSaving, SpaceSavingState};
use ltc_trace::gen::{ChaseConfig, ChaseGen};
use ltc_trace::TraceSource;
use proptest::prelude::*;

/// Minimum fraction of the true top correlated pairs the CHH summary must
/// recover on a skewed recurring stream (the summary's configured
/// recall target for this budget).
const RECALL_THRESHOLD: f64 = 0.8;

/// The recall floor after a segmented merge. Each segment summarizes in
/// isolation, so locally-hot noise earns counters that survive into the
/// merged truncation and the absent-bound inflation (the price of never
/// undercounting) further crowds borderline true pairs — a documented
/// step down from the single-pass target, recovered in practice by the
/// pair-sketch cap when budgets are sized for the merged stream.
const MERGED_RECALL_THRESHOLD: f64 = 0.6;

/// A deterministic skewed miss-like stream: consecutive line-address
/// pairs from a pointer chase with a hot subset (the `trace::gen`
/// workload model for mcf-style codes).
fn chase_pairs(seed: u64, len: usize) -> Vec<(u64, u64)> {
    let mut gen = ChaseGen::new(ChaseConfig {
        nodes: 512,
        hot_fraction: 0.7,
        hot_set_fraction: 0.05,
        seed,
        ..ChaseConfig::default()
    });
    let lines: Vec<u64> = gen.collect_accesses(len + 1).iter().map(|a| a.addr.line(64).0).collect();
    lines.windows(2).map(|w| (w[0], w[1])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Space-Saving never undercounts and overcounts by at most ε·N
    /// (ε = 1/capacity), for arbitrary streams and capacities.
    #[test]
    fn space_saving_stays_within_epsilon_n(
        capacity in 1usize..24,
        stream in prop::collection::vec((0u64..40, 1u64..6), 1..300),
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(key, reps) in &stream {
            ss.observe_n(key, reps);
            *truth.entry(key).or_insert(0) += reps;
        }
        let n: u64 = truth.values().sum();
        prop_assert_eq!(ss.total(), n);
        let bound = ss.max_error();
        prop_assert_eq!(bound, n / capacity as u64);
        for (key, est) in ss.iter() {
            let t = truth[&key];
            prop_assert!(est.count >= t, "undercounted {key}: {} < {t}", est.count);
            prop_assert!(est.count - t <= bound, "ε·N violated for {key}");
            prop_assert!(est.count - t <= est.overestimate, "per-entry bound violated");
        }
        // Completeness half of the guarantee: anything truly above ε·N is
        // monitored.
        for (key, &t) in &truth {
            if t > bound {
                prop_assert!(ss.estimate(key).is_some(), "hot key {key} ({t} > {bound}) evicted");
            }
        }
    }

    /// The CHH summary recalls the dominant correlated pairs of a skewed
    /// recurring stream produced by the workload generators.
    #[test]
    fn chh_recall_meets_threshold_on_skewed_stream(seed in 0u64..12) {
        let pairs = chase_pairs(seed, 40_000);
        let mut chh = ChhSummary::new(ChhConfig::with_budget(96 << 10).with_seed(seed));
        let mut truth: HashMap<(u64, u64), u64> = HashMap::new();
        for &(k, v) in &pairs {
            chh.observe(k, v);
            *truth.entry((k, v)).or_insert(0) += 1;
        }
        // The true top-20 pairs, most frequent first.
        let mut ranked: Vec<(&(u64, u64), &u64)> = truth.iter().collect();
        ranked.sort_by_key(|&(pair, count)| (std::cmp::Reverse(*count), *pair));
        let top: Vec<(u64, u64)> = ranked.iter().take(20).map(|&(p, _)| *p).collect();
        let recalled = top
            .iter()
            .filter(|(k, v)| {
                chh.correlated(*k).is_some_and(|c| c.iter().any(|p| p.value == *v))
            })
            .count();
        let recall = recalled as f64 / top.len() as f64;
        prop_assert!(
            recall >= RECALL_THRESHOLD,
            "recall {recall:.2} below {RECALL_THRESHOLD} at seed {seed}"
        );
    }

    /// Summaries are pure functions of (configuration, stream): replaying
    /// the same generator stream into same-seeded summaries reproduces
    /// every estimate and the exact memory footprint.
    #[test]
    fn summaries_are_deterministic_for_a_fixed_seed(seed in 0u64..1000) {
        let pairs = chase_pairs(seed, 5_000);
        let mut cm_a = CountMin::with_budget(8 << 10, 3, seed);
        let mut cm_b = CountMin::with_budget(8 << 10, 3, seed);
        let cfg = ChhConfig::with_budget(32 << 10).with_seed(seed);
        let mut chh_a = ChhSummary::new(cfg);
        let mut chh_b = ChhSummary::new(cfg);
        for &(k, v) in &pairs {
            cm_a.observe(k);
            cm_b.observe(k);
            chh_a.observe(k, v);
            chh_b.observe(k, v);
        }
        for &(k, _) in pairs.iter().take(200) {
            prop_assert_eq!(cm_a.estimate(k), cm_b.estimate(k));
            prop_assert_eq!(chh_a.correlated(k), chh_b.correlated(k));
        }
        prop_assert_eq!(cm_a.memory_bytes(), cm_b.memory_bytes());
        prop_assert_eq!(chh_a.memory_bytes(), chh_b.memory_bytes());
    }
}

/// Splits a generated stream into `k` contiguous segments at
/// proptest-chosen cut points (uneven on purpose — real segment splits
/// are only near-even).
fn cut<T: Clone>(stream: &[T], cuts: &[usize]) -> Vec<Vec<T>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
    bounds.sort_unstable();
    let mut out = Vec::new();
    let mut prev = 0;
    for b in bounds {
        out.push(stream[prev..b].to_vec());
        prev = b;
    }
    out.push(stream[prev..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merging per-segment Space-Saving summaries matches a single-pass
    /// summary over the concatenated stream within the merged bounds:
    /// the total is the summed N, estimates never undercount the true
    /// counts, per-entry error stays within the summed ε·Nᵢ (= the
    /// merged `max_error`), and keys truly hotter than twice that bound
    /// always survive the merge.
    #[test]
    fn merged_space_saving_bounds_hold_with_summed_n(
        capacity in 2usize..16,
        stream in prop::collection::vec((0u64..40, 1u64..6), 4..300),
        cuts in prop::collection::vec(0usize..300, 1..4),
    ) {
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(key, reps) in &stream {
            *truth.entry(key).or_insert(0) += reps;
        }
        let segments = cut(&stream, &cuts);
        let mut merged: Option<SpaceSaving<u64>> = None;
        for seg in &segments {
            let mut ss = SpaceSaving::new(capacity);
            for &(key, reps) in seg {
                ss.observe_n(key, reps);
            }
            match merged.as_mut() {
                Some(m) => m.merge(&ss).expect("same capacity"),
                None => merged = Some(ss),
            }
        }
        let merged = merged.expect("at least one segment");
        let n: u64 = truth.values().sum();
        prop_assert_eq!(merged.total(), n, "total must be the summed N");
        let bound = merged.max_error();
        for (key, est) in merged.iter() {
            let t = truth.get(&key).copied().unwrap_or(0);
            prop_assert!(est.count >= t, "undercounted {key}: {} < {t}", est.count);
            prop_assert!(est.count - t <= bound, "merged ε·N violated for {key}");
            prop_assert!(est.count - t <= est.overestimate, "per-entry bound violated");
        }
        // Merged completeness: anything truly above 2·ε·N is monitored
        // (the documented post-merge survival bound).
        for (key, &t) in &truth {
            if t > 2 * bound {
                prop_assert!(merged.estimate(key).is_some(), "hot key {key} ({t}) evicted");
            }
        }
    }

    /// Space-Saving merging is commutative (exactly — deterministic
    /// tie-breaks) and associative up to the estimate bounds.
    #[test]
    fn space_saving_merge_is_commutative_and_associative(
        capacity in 2usize..12,
        stream in prop::collection::vec((0u64..30, 1u64..5), 6..200),
        cuts in prop::collection::vec(0usize..200, 2..3),
    ) {
        let segments = cut(&stream, &cuts);
        let summaries: Vec<SpaceSaving<u64>> = segments
            .iter()
            .map(|seg| {
                let mut ss = SpaceSaving::new(capacity);
                for &(key, reps) in seg {
                    ss.observe_n(key, reps);
                }
                ss
            })
            .collect();
        let [a, b, c] = &summaries[..] else { panic!("three segments") };

        let mut ab = a.clone();
        ab.merge(b).unwrap();
        let mut ba = b.clone();
        ba.merge(a).unwrap();
        prop_assert_eq!(ab.total(), ba.total());
        prop_assert_eq!(ab.top(), ba.top(), "merge must be commutative");

        let mut left = ab;
        left.merge(c).unwrap();
        let mut bc = b.clone();
        bc.merge(c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.total(), right.total());
        // Association order may shuffle which borderline keys survive,
        // but surviving estimates agree within the merged error bound.
        let bound = left.max_error();
        for (key, l) in left.iter() {
            if let Some(r) = right.estimate(&key) {
                prop_assert!(
                    l.count.abs_diff(r.count) <= bound,
                    "association moved {key} by more than ε·N"
                );
            }
        }
    }

    /// Merged Count-Min sketches never underestimate — and in fact equal
    /// the single-pass sketch exactly (counter grids are linear).
    #[test]
    fn merged_count_min_never_underestimates(
        seed in 0u64..64,
        stream in prop::collection::vec(0u64..200, 4..400),
        cuts in prop::collection::vec(0usize..400, 1..4),
    ) {
        let mut single = CountMin::with_budget(4 << 10, 3, seed);
        for &key in &stream {
            single.observe(key);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &key in &stream {
            *truth.entry(key).or_insert(0) += 1;
        }
        let mut merged: Option<CountMin> = None;
        for seg in cut(&stream, &cuts) {
            let mut cm = CountMin::with_budget(4 << 10, 3, seed);
            for &key in &seg {
                cm.observe(key);
            }
            match merged.as_mut() {
                Some(m) => m.merge(&cm).expect("same shape"),
                None => merged = Some(cm),
            }
        }
        let merged = merged.expect("at least one segment");
        prop_assert_eq!(merged.total(), single.total());
        for (&key, &t) in &truth {
            let est = merged.estimate(key);
            prop_assert!(est >= t, "merged sketch undercounted {key}: {est} < {t}");
            prop_assert_eq!(est, single.estimate(key), "linearity: merge must be exact");
        }
    }

    /// Merging per-segment CHH summaries keeps the recall guarantee on
    /// the skewed generator streams (within tolerance of the single-pass
    /// threshold) and is commutative.
    #[test]
    fn merged_chh_recall_stays_within_tolerance(seed in 0u64..8, segments in 2u64..5) {
        let pairs = chase_pairs(seed, 40_000);
        let cfg = ChhConfig::with_budget(96 << 10).with_seed(seed);
        let mut truth: HashMap<(u64, u64), u64> = HashMap::new();
        for &(k, v) in &pairs {
            *truth.entry((k, v)).or_insert(0) += 1;
        }
        let per = pairs.len() / segments as usize;
        let mut summaries: Vec<ChhSummary> = pairs
            .chunks(per.max(1))
            .map(|seg| {
                let mut chh = ChhSummary::new(cfg);
                for &(k, v) in seg {
                    chh.observe(k, v);
                }
                chh
            })
            .collect();
        let mut merged = summaries.remove(0);
        for s in &summaries {
            merged.merge(s).expect("same config");
        }
        prop_assert_eq!(merged.total(), pairs.len() as u64);

        let mut ranked: Vec<(&(u64, u64), &u64)> = truth.iter().collect();
        ranked.sort_by_key(|&(pair, count)| (std::cmp::Reverse(*count), *pair));
        let top: Vec<(u64, u64)> = ranked.iter().take(20).map(|&(p, _)| *p).collect();
        let recalled = top
            .iter()
            .filter(|(k, v)| {
                merged.correlated(*k).is_some_and(|c| c.iter().any(|p| p.value == *v))
            })
            .count();
        let recall = recalled as f64 / top.len() as f64;
        prop_assert!(
            recall >= MERGED_RECALL_THRESHOLD,
            "merged recall {recall:.2} below tolerance at seed {seed}, {segments} segments"
        );

        // Fold-order robustness: merging the segments back-to-front
        // keeps every hot key's estimate within the combined bound.
        let mut chunks: Vec<ChhSummary> = pairs
            .chunks(per.max(1))
            .map(|seg| {
                let mut chh = ChhSummary::new(cfg);
                for &(k, v) in seg {
                    chh.observe(k, v);
                }
                chh
            })
            .collect();
        let mut backward = chunks.pop().expect("nonempty");
        for s in chunks.iter().rev() {
            backward.merge(s).expect("same config");
        }
        prop_assert_eq!(backward.total(), merged.total());
        for (pair, _) in ranked.iter().take(10) {
            let k = pair.0;
            let a = merged.key_estimate(k).map(|e| e.count);
            let b = backward.key_estimate(k).map(|e| e.count);
            // Hot keys survive either fold with estimates within the
            // combined error bound.
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert!(
                    a.abs_diff(b) <= 2 * merged.max_key_error(),
                    "fold order moved key {k}: {a} vs {b}"
                );
            }
        }
    }
}

/// Merging a sketch with a differently-shaped peer is a typed error at
/// every level, and the receiver is left untouched.
#[test]
fn shape_mismatches_are_typed_errors_not_panics() {
    use ltc_stream::MergeError;

    let mut ss = SpaceSaving::new(4);
    ss.observe(1u64);
    let before = ss.top();
    assert!(matches!(
        ss.merge(&SpaceSaving::new(5)),
        Err(MergeError::Shape { summary: "space-saving", .. })
    ));
    assert_eq!(ss.top(), before, "failed merge must not disturb the receiver");

    let mut cm = CountMin::new(64, 2, 1);
    cm.observe(9);
    assert!(matches!(
        cm.merge(&CountMin::new(64, 2, 2)),
        Err(MergeError::Shape { summary: "count-min", field: "seed", .. })
    ));
    assert_eq!(cm.estimate(9), 1);

    let mut chh = ChhSummary::new(ChhConfig::with_budget(16 << 10));
    chh.observe(1, 2);
    let err = chh.merge(&ChhSummary::new(ChhConfig::with_budget(32 << 10))).unwrap_err();
    assert!(matches!(err, MergeError::Shape { summary: "chh", field: "budget_bytes", .. }));
    assert!(err.to_string().contains("budget_bytes"), "{err}");
    assert_eq!(chh.total(), 1, "failed merge must not disturb the receiver");
}

/// Resident memory is a function of the budget, not the stream: a 25x
/// longer stream leaves `memory_bytes()` under the same bound.
#[test]
fn chh_memory_is_independent_of_stream_length() {
    let budget = 64 << 10;
    let mut footprints = Vec::new();
    for len in [20_000usize, 500_000] {
        let mut chh = ChhSummary::new(ChhConfig::with_budget(budget));
        for (k, v) in chase_pairs(3, len) {
            chh.observe(k, v);
        }
        assert!(
            chh.memory_bytes() <= budget,
            "resident {} exceeds budget {budget} at len {len}",
            chh.memory_bytes()
        );
        footprints.push(chh.memory_bytes());
    }
    assert_eq!(footprints[0], footprints[1], "both lengths saturate the same summary size");
}

/// The linear-scan Space-Saving reference: slots in insertion order as
/// `(key, count, overestimate)`, evicting the least `(count, slot)` by
/// scanning them all.
#[derive(Debug, Clone)]
struct ScanModel {
    capacity: usize,
    total: u64,
    slots: Vec<(u64, u64, u64)>,
}

impl ScanModel {
    fn new(capacity: usize) -> Self {
        ScanModel { capacity, total: 0, slots: Vec::new() }
    }

    fn observe_n(&mut self, key: u64, n: u64) {
        self.total += n;
        if let Some(slot) = self.slots.iter().position(|s| s.0 == key) {
            self.slots[slot].1 += n;
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push((key, n, 0));
            return;
        }
        let slot = (0..self.slots.len()).min_by_key(|&s| (self.slots[s].1, s)).unwrap();
        let min = self.slots[slot].1;
        self.slots[slot] = (key, min + n, min);
    }

    /// The minimum count when full, else zero.
    fn absent_bound(&self) -> u64 {
        let min = self.slots.iter().map(|s| s.1).min().unwrap_or(0);
        if self.slots.len() == self.capacity {
            min
        } else {
            0
        }
    }

    /// The documented combine: matched keys sum, a one-sided key adds
    /// the other side's absent bound, the top `capacity` by count (ties
    /// by key) survive in that order.
    fn merge(&mut self, other: &ScanModel) {
        let find = |slots: &[(u64, u64, u64)], key: u64| slots.iter().find(|s| s.0 == key).copied();
        let (m_self, m_other) = (self.absent_bound(), other.absent_bound());
        let mut combined: Vec<(u64, u64, u64)> = self
            .slots
            .iter()
            .map(|&(key, count, over)| match find(&other.slots, key) {
                Some((_, c, o)) => (key, count + c, over + o),
                None => (key, count + m_other, over + m_other),
            })
            .collect();
        for &(key, count, over) in &other.slots {
            if find(&self.slots, key).is_none() {
                combined.push((key, count + m_self, over + m_self));
            }
        }
        combined.sort_by_key(|&(key, count, _)| (Reverse(count), key));
        combined.truncate(self.capacity);
        self.total += other.total;
        self.slots = combined;
    }

    fn state(&self) -> SpaceSavingState {
        SpaceSavingState {
            capacity: self.capacity as u64,
            total: self.total,
            keys: self.slots.iter().map(|s| s.0).collect(),
            counts: self.slots.iter().map(|s| s.1).collect(),
            overestimates: self.slots.iter().map(|s| s.2).collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Step for step, `SpaceSaving` does what the linear-scan model does:
    /// the same state, and so the same slot for every key, after every
    /// `observe`, `observe_n`, `merge` and snapshot round trip. Keys are
    /// drawn from barely more than `capacity` values, so counts tie often
    /// and the lowest-slot tie-break decides most evictions.
    #[test]
    fn space_saving_matches_a_linear_scan_model(
        capacity in prop_oneof![1usize..10, Just(64usize)],
        steps in prop::collection::vec((0u8..10, 0u64..1_000, 1u64..4), 1..400),
    ) {
        let keys = capacity as u64 + 3;
        let (mut ss, mut model) = (SpaceSaving::new(capacity), ScanModel::new(capacity));
        // A partner summary that steps 6 and 9 feed and step 7 merges in.
        let (mut peer, mut peer_model) = (SpaceSaving::new(capacity), ScanModel::new(capacity));
        for (op, key, n) in steps {
            let key = key % keys;
            match op {
                0..=3 => {
                    ss.observe(key);
                    model.observe_n(key, 1);
                }
                4 | 5 => {
                    ss.observe_n(key, n);
                    model.observe_n(key, n);
                }
                6 => {
                    peer.observe_n(key, n);
                    peer_model.observe_n(key, n);
                }
                7 => {
                    ss.merge(&peer).expect("same capacity");
                    model.merge(&peer_model);
                }
                8 => ss = SpaceSaving::from_state(&ss.to_state()).expect("own state"),
                _ => {
                    peer.observe(key);
                    peer_model.observe_n(key, 1);
                }
            }
            prop_assert_eq!(ss.to_state(), model.state());
            prop_assert_eq!(peer.to_state(), peer_model.state());
        }
    }
}

/// The hot maps' hasher spreads line addresses (multiples of 64) over
/// both the low bits a `HashMap` picks buckets with and the top 7 bits
/// it tags entries with.
#[test]
fn fold_hasher_spreads_line_addresses() {
    let build = BuildHasherDefault::<FoldHasher>::default();
    let (mut low, mut top) = (HashSet::new(), HashSet::new());
    for line in 0..65_536u64 {
        let hash = build.hash_one(line * 64);
        low.insert(hash & 0xffff);
        top.insert(hash >> 57);
    }
    assert!(low.len() >= 32_768, "low 16 bits: {} of 65 536 values", low.len());
    assert!(top.len() >= 100, "top 7 bits: {} of 128 values", top.len());
}
