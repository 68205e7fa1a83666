//! One-pass bounded-memory miss analysis (`ltsim stream`).
//!
//! Replays a trace through the baseline L1D exactly once and mines its
//! miss stream with the `ltc_stream` summaries instead of exact tables:
//! a [`SpaceSaving`] summary of heavy-hitter miss lines and a
//! [`ChhSummary`] of correlated `(last miss → next miss)` pairs — the
//! streamed form of the last-touch correlation data the exact analyses
//! materialize in full. Resident summary memory is bounded by the
//! configured byte budget regardless of trace length, which is the
//! property that lets this analysis serve traces the exact tables cannot.
//!
//! Only the L1D is simulated: the stream reads nothing but L1D hits, and
//! in the paper's non-inclusive hierarchy the L1D's state never depends
//! on the L2 (an L1D miss allocates in the L1D whether the L2 hits or
//! not, and L2 evictions leave the L1D alone), so the L1D alone misses
//! exactly where the whole [`ltc_cache::Hierarchy`] would.

use ltc_cache::{Cache, CacheConfig, HierarchyConfig, HierarchyImage};
use ltc_stream::{ChhConfig, ChhState, ChhSummary, MergeError, SpaceSaving, SpaceSavingState};
use ltc_trace::{Checkpoint, TraceSegment, TraceSource};
use serde::{Deserialize, Serialize};

/// Configuration of a [`StreamAnalysis`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Total byte budget across both summaries (half each).
    pub budget_bytes: u64,
    /// Hash seed for the pair sketch (engine runs pass the trace seed so
    /// the `RunSpec` fully determines the report).
    pub seed: u64,
    /// Uncounted accesses a segment worker replays through its L1D
    /// before its slice begins (defaults to [`SEGMENT_WARMUP`]). Changing
    /// it changes segmented results, so engine runs key their artifact
    /// cache on it.
    pub warmup: u64,
}

/// Heavy hitters reported per summary (fixed so the report — and with it
/// the artifact format — does not depend on presentation flags).
pub const REPORT_TOP: usize = 8;

/// Default for [`StreamConfig::warmup`]: uncounted accesses a segment
/// worker replays through its L1D before its slice begins, so the cache
/// state at the boundary approximates the single-pass state (the classic
/// warm-up of sampled simulation). Sized when workers warmed the whole
/// paper hierarchy, to refill its 16 K L2 lines several times over for
/// any access pattern the suite generates; the L1D's 1 K lines refill
/// far sooner. Slices starting within this window warm on their whole
/// prefix and match the single pass exactly. The value stays because it
/// keys every segmented artifact: the engine caches a run with a
/// non-default warm-up separately instead of colliding.
pub const SEGMENT_WARMUP: u64 = 150_000;

/// Misses between the sketch-occupancy gauge samples the stream loop
/// emits when telemetry is enabled. Occupancy scans are O(sketch size),
/// so the interval keeps sampling cost far below the replay itself; one
/// final sample is always emitted per segment regardless. Telemetry
/// only: it never affects the report, so it is part of no artifact
/// cache key. A power of two, so the per-miss check is a mask.
pub const SKETCH_SAMPLE_EVERY: u64 = 1 << 16;

impl StreamConfig {
    /// A run with the given summary budget.
    pub fn with_budget(budget_bytes: u64) -> Self {
        StreamConfig { budget_bytes, seed: 1, warmup: SEGMENT_WARMUP }
    }

    /// Same budget, explicit seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same budget, explicit segment warm-up length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }
}

/// A warm hierarchy image pinned to a trace position: the serialized
/// cache state a replay of the warm-up window reaches right before
/// access `pos`.
///
/// Recorded once per (benchmark, seed, warm-up) by the engine's
/// checkpoint pre-pass and handed to segment workers, it replaces the
/// [`StreamConfig::warmup`]-access warm-up replay in
/// [`StreamAnalysis::run_segment_with`]: restoring its L1D half yields
/// the byte-identical L1D the replay would have built, for O(1) work
/// instead of O(warm-up) simulated accesses. The image keeps both
/// levels, and the pre-pass records the L2 half too, because the
/// benchmark harness restores whole hierarchies from these images.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmImage {
    /// The trace position the image is warm *for*: the worker's slice
    /// must start exactly here for the image to apply.
    pub pos: u64,
    /// The paper hierarchy's state after replaying the warm-up window
    /// ending at `pos`; workers restore its `l1` half.
    pub image: HierarchyImage,
}

/// One heavy-hitter miss line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeavyLine {
    /// Line address.
    pub line: u64,
    /// Estimated miss count (never below the true count).
    pub estimate: u64,
    /// Upper bound on the estimate's overshoot.
    pub overestimate: u64,
}

/// One correlated miss transition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorrelatedMiss {
    /// The miss line acting as the correlation key.
    pub last_line: u64,
    /// The line whose miss follows it.
    pub next_line: u64,
    /// Estimated pair count.
    pub estimate: u64,
    /// Estimated occurrences of the key line among misses.
    pub key_estimate: u64,
}

/// Result of a one-pass streaming miss analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Accesses replayed.
    pub accesses: u64,
    /// Baseline L1D misses observed.
    pub misses: u64,
    /// Configured summary budget (bytes).
    pub budget_bytes: u64,
    /// Resident summary memory at end of run (bytes, ≤ budget).
    pub memory_bytes: u64,
    /// The ε·N guarantee on heavy-hitter estimates: any line's estimate
    /// is within this many misses of its true count.
    pub error_bound: u64,
    /// Top heavy-hitter miss lines, most frequent first.
    pub heavy: Vec<HeavyLine>,
    /// Strongest correlated miss transitions, most frequent first.
    pub correlated: Vec<CorrelatedMiss>,
}

impl StreamReport {
    /// Baseline L1D miss ratio.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of all misses attributed to the reported heavy hitters
    /// (by estimate, so it can slightly overcount).
    pub fn heavy_fraction(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            let sum: u64 = self.heavy.iter().map(|h| h.estimate).sum();
            sum as f64 / self.misses as f64
        }
    }
}

/// One worker's summary of one trace segment: the serializable sketch
/// states plus the counts and boundary misses the reduce step needs.
///
/// This is the unit that crosses the worker protocol in segmented runs
/// (`ltsim stream --segments N`): each worker replays only its
/// [`TraceSegment`] and returns a `StreamPartial`;
/// [`merge_partials`] combines them — in segment order — into the same
/// [`StreamReport`] shape a single-pass run produces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamPartial {
    /// Accesses this segment replayed.
    pub accesses: u64,
    /// Baseline L1D misses this segment observed.
    pub misses: u64,
    /// Configured summary budget (bytes) — a shape parameter.
    pub budget_bytes: u64,
    /// Hash seed — a shape parameter.
    pub seed: u64,
    /// This worker's resident summary memory (bytes, ≤ budget).
    pub memory_bytes: u64,
    /// First missed line of the segment (stitches the boundary pair with
    /// the previous segment's `last_miss` at reduce time).
    pub first_miss: Option<u64>,
    /// Last missed line of the segment.
    pub last_miss: Option<u64>,
    /// The heavy-hitter Space-Saving summary.
    pub heavy: SpaceSavingState,
    /// The correlated-pair CHH summary.
    pub pairs: ChhState,
}

/// Combines per-segment partial summaries — in segment order — into one
/// [`StreamReport`].
///
/// Heavy-hitter and pair summaries merge under their documented merged
/// error bounds ([`SpaceSaving::merge`], [`ChhSummary::merge`]); the
/// boundary miss transition between consecutive segments (last miss of
/// segment `i` → first miss of segment `i+1`) is re-observed here so the
/// pair stream loses nothing to the cuts. The report's `memory_bytes` is
/// the **maximum** resident footprint over the workers — the honest
/// per-worker bound a segmented run guarantees (no single worker ever
/// holds more than the budget; the partials exist sequentially at the
/// reducer only as serialized state).
///
/// # Errors
///
/// Returns a [`MergeError`] when `parts` is empty or the partials were
/// built with different budgets or seeds — summaries of different shape
/// cannot be combined (checked per sketch, surfaced as a typed error all
/// the way up through the engine and the worker protocol).
pub fn merge_partials(parts: &[StreamPartial]) -> Result<StreamReport, MergeError> {
    let first = parts.first().ok_or_else(|| MergeError::State {
        summary: "stream-partial",
        reason: "no partial summaries to merge".to_string(),
    })?;
    let mut heavy = SpaceSaving::from_state(&first.heavy)?;
    let mut pairs = ChhSummary::from_state(&first.pairs)?;
    let mut report = StreamReport {
        accesses: first.accesses,
        misses: first.misses,
        budget_bytes: first.budget_bytes,
        memory_bytes: first.memory_bytes,
        ..StreamReport::default()
    };
    let mut last_miss = first.last_miss;
    for part in &parts[1..] {
        heavy.merge(&SpaceSaving::from_state(&part.heavy)?)?;
        pairs.merge(&ChhSummary::from_state(&part.pairs)?)?;
        if let (Some(prev), Some(next)) = (last_miss, part.first_miss) {
            pairs.observe(prev, next);
        }
        if part.last_miss.is_some() {
            last_miss = part.last_miss;
        }
        report.accesses += part.accesses;
        report.misses += part.misses;
        report.memory_bytes = report.memory_bytes.max(part.memory_bytes);
    }
    finalize(report, &heavy, &pairs)
}

/// Builds the reported tables from the (merged or single-pass) summaries.
fn finalize(
    mut report: StreamReport,
    heavy: &SpaceSaving,
    pairs: &ChhSummary,
) -> Result<StreamReport, MergeError> {
    report.error_bound = heavy.max_error();
    report.heavy = heavy
        .top()
        .into_iter()
        .take(REPORT_TOP)
        .map(|(line, e)| HeavyLine { line, estimate: e.count, overestimate: e.overestimate })
        .collect();

    // Rank every monitored (key → value) transition by pair estimate.
    let mut correlated: Vec<CorrelatedMiss> = Vec::new();
    for (key, key_est) in pairs.key_estimates() {
        for p in pairs.correlated(key).unwrap_or_default() {
            correlated.push(CorrelatedMiss {
                last_line: key,
                next_line: p.value,
                estimate: p.estimate,
                key_estimate: key_est.count,
            });
        }
    }
    correlated.sort_by_key(|c| (std::cmp::Reverse(c.estimate), c.last_line, c.next_line));
    correlated.truncate(REPORT_TOP);
    report.correlated = correlated;
    Ok(report)
}

/// The one-pass analysis driver.
#[derive(Debug)]
pub struct StreamAnalysis;

impl StreamAnalysis {
    /// Replays up to `limit` accesses from `source` and summarizes the
    /// miss stream within `cfg.budget_bytes` of summary memory.
    pub fn run<S: TraceSource + ?Sized>(
        source: &mut S,
        limit: u64,
        cfg: StreamConfig,
    ) -> StreamReport {
        let whole = TraceSegment { index: 0, segments: 1, start: 0, len: limit };
        let partial = Self::run_segment(source, whole, cfg);
        merge_partials(&[partial]).expect("a single partial always merges")
    }

    /// Replays only `segment` of the trace and returns the partial
    /// summary for later merging.
    ///
    /// The worker generates (but does not simulate) the prefix before
    /// its slice, then replays the last [`StreamConfig::warmup`] of
    /// those prefix accesses through its L1D — uncounted — so the
    /// cache state at the slice boundary approximates the single-pass
    /// state. A slice whose `start` is within the warm-up window
    /// replays the *whole* prefix and its miss counts match a single
    /// pass exactly; deeper slices keep a small residual cold-start
    /// drift (misses the warmed window could not re-create), the
    /// documented approximation of segmented streaming. The boundary
    /// pair into the segment is deferred to [`merge_partials`] via
    /// [`StreamPartial::first_miss`]/[`StreamPartial::last_miss`].
    pub fn run_segment<S: TraceSource + ?Sized>(
        source: &mut S,
        segment: TraceSegment,
        cfg: StreamConfig,
    ) -> StreamPartial {
        Self::run_segment_with(source, segment, cfg, None, None)
    }

    /// [`run_segment`](Self::run_segment) starting from a recorded
    /// segment start: a generator [`Checkpoint`] and a [`WarmImage`] of
    /// the hierarchy, both taken at exactly `segment.start`.
    ///
    /// When both are offered at that position and both restore, the
    /// worker resumes the source at its slice and its L1D in the state
    /// the warm-up replay would have built, so its setup costs one
    /// restore instead of O(start) generated and O(warm-up) simulated
    /// accesses. The image's L1D half was snapshotted from a hierarchy
    /// that replayed the same window, so the partial — and every report
    /// built from it — is byte-identical to the replay path.
    ///
    /// Anything else replays from access 0 on the untouched source: a
    /// missing half, a position other than `segment.start`, an image
    /// captured under any hierarchy but [`HierarchyConfig::paper`], or a
    /// state the source refuses ([`TraceSource::restore`] leaves the
    /// source unchanged on error).
    pub fn run_segment_with<S: TraceSource + ?Sized>(
        source: &mut S,
        segment: TraceSegment,
        cfg: StreamConfig,
        checkpoint: Option<&Checkpoint>,
        warm_image: Option<&WarmImage>,
    ) -> StreamPartial {
        let (restored, outcome, reason) = match (checkpoint, warm_image) {
            _ if segment.start == 0 => (None, "cold_start", None),
            (Some(c), Some(w)) => match restore_start(source, segment.start, c, w) {
                Some(l1) => (Some(l1), "warm_image", None),
                None => (None, "replay", Some("restore_failed")),
            },
            _ => (None, "replay", Some("missing")),
        };
        let (skip, warm) = match restored {
            Some(_) => (0, 0),
            None => {
                let warm = segment.start.min(cfg.warmup);
                (segment.start - warm, warm)
            }
        };
        if ltc_telemetry::enabled() {
            // The restore-outcome histogram: which setup path this
            // worker took, and why a replay happened. A slice at the
            // trace start has nothing to restore or replay.
            let mut fields = vec![("outcome".to_string(), outcome.into())];
            if let Some(reason) = reason {
                fields.push(("reason".to_string(), reason.into()));
            }
            fields.extend([
                ("index".to_string(), u64::from(segment.index).into()),
                ("start".to_string(), segment.start.into()),
                ("warm".to_string(), warm.into()),
            ]);
            ltc_telemetry::point("segment_restore", fields);
        }
        for _ in 0..skip {
            if source.next_access().is_none() {
                break;
            }
        }
        let mut l1 = restored.unwrap_or_else(|| Cache::new(CacheConfig::l1d()));
        for _ in 0..warm {
            let Some(a) = source.next_access() else { break };
            l1.access(a.addr, a.kind);
        }
        let mut heavy = SpaceSaving::with_budget(cfg.budget_bytes / 2);
        let mut pairs =
            ChhSummary::new(ChhConfig::with_budget(cfg.budget_bytes / 2).with_seed(cfg.seed));
        let mut partial = StreamPartial {
            budget_bytes: cfg.budget_bytes,
            seed: cfg.seed,
            ..StreamPartial::default()
        };
        let mut last_miss: Option<u64> = None;
        // Captured once: the hot loop pays one branch per miss when
        // telemetry is off, never a hub probe.
        let telemetry = ltc_telemetry::enabled();
        let mut sampled_evictions = 0u64;

        for _ in 0..segment.len {
            let Some(a) = source.next_access() else { break };
            partial.accesses += 1;
            if l1.access(a.addr, a.kind).hit {
                continue;
            }
            partial.misses += 1;
            let line = a.addr.line(64).0;
            heavy.observe(line);
            if let Some(prev) = last_miss {
                pairs.observe(prev, line);
            } else {
                partial.first_miss = Some(line);
            }
            last_miss = Some(line);
            if telemetry && partial.misses % SKETCH_SAMPLE_EVERY == 0 {
                sample_sketches(&heavy, &pairs, &mut sampled_evictions);
            }
        }
        if telemetry {
            // Always close with one sample so short segments still
            // report occupancy (and the eviction counter total lands).
            sample_sketches(&heavy, &pairs, &mut sampled_evictions);
        }

        partial.memory_bytes = heavy.memory_bytes() + pairs.memory_bytes();
        partial.last_miss = last_miss;
        partial.heavy = heavy.to_state();
        partial.pairs = pairs.to_state();
        partial
    }
}

/// Restores `source` and the L1D from a checkpoint and a paper-hierarchy
/// warm image recorded at exactly `start`, or returns `None` with
/// `source` left untouched. The L1D is rebuilt first, so a rejected
/// image never reaches the source.
fn restore_start<S: TraceSource + ?Sized>(
    source: &mut S,
    start: u64,
    checkpoint: &Checkpoint,
    warm_image: &WarmImage,
) -> Option<Cache> {
    if checkpoint.pos != start
        || warm_image.pos != start
        || warm_image.image.config() != HierarchyConfig::paper()
    {
        return None;
    }
    let l1 = Cache::from_image(&warm_image.image.l1).ok()?;
    source.restore(&checkpoint.state).ok()?;
    Some(l1)
}

/// Emits one sketch-occupancy telemetry sample: resident bytes, the
/// Space-Saving and CHH fill levels, the nested Count-Min's non-zero
/// counters, and the eviction count accumulated since the last sample
/// (as a counter delta). Occupancy scans are O(sketch size) — callers
/// rate-limit to one sample every [`SKETCH_SAMPLE_EVERY`] misses.
fn sample_sketches(heavy: &SpaceSaving, pairs: &ChhSummary, sampled_evictions: &mut u64) {
    let field = |name: &str, v: u64| (name.to_string(), ltc_telemetry::FieldValue::U64(v));
    ltc_telemetry::gauge(
        "sketch.memory_bytes",
        heavy.memory_bytes() + pairs.memory_bytes(),
        Vec::new(),
    );
    ltc_telemetry::gauge(
        "sketch.heavy_occupancy",
        heavy.len() as u64,
        vec![field("capacity", heavy.capacity() as u64)],
    );
    ltc_telemetry::gauge(
        "sketch.chh_keys",
        pairs.keys() as u64,
        vec![field("capacity", pairs.key_capacity() as u64)],
    );
    let cm = pairs.pair_sketch();
    ltc_telemetry::gauge(
        "sketch.cm_occupancy",
        cm.occupancy(),
        vec![field("cells", (cm.width() * cm.depth()) as u64)],
    );
    let evictions = heavy.evictions();
    if evictions > *sampled_evictions {
        ltc_telemetry::counter("sketch.evictions", evictions - *sampled_evictions);
        *sampled_evictions = evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_cache::Hierarchy;
    use ltc_trace::{Addr, MemoryAccess, Pc, Replay, SourceState};

    /// A recurring conflict loop whose misses alternate over a fixed line
    /// cycle, so the transition structure is fully predictable.
    fn conflict_loop(aliases: u64, passes: usize) -> Replay {
        let span = 512 * 64;
        let mut v = Vec::new();
        for _ in 0..passes {
            for alias in 0..aliases {
                v.push(MemoryAccess::load(Pc(0x400 + alias * 8), Addr(alias * span)));
            }
        }
        Replay::once(v)
    }

    #[test]
    fn finds_the_recurring_miss_cycle() {
        let mut t = conflict_loop(4, 200);
        let r = StreamAnalysis::run(&mut t, u64::MAX, StreamConfig::with_budget(64 << 10));
        assert_eq!(r.accesses, 800);
        assert!(r.misses >= 790, "4 aliases in a 2-way set miss every time");
        assert_eq!(r.heavy.len(), 4, "exactly four lines miss");
        assert!(r.heavy_fraction() > 0.95, "the cycle is the whole miss stream");
        // Every transition in the cycle is a -> a+span (mod 4 aliases).
        let span = 512 * 64;
        let top = &r.correlated[0];
        assert_eq!((top.next_line + 4 * span - top.last_line) % (4 * span), span);
        assert!(top.estimate > 100);
    }

    #[test]
    fn memory_bounded_for_any_trace_length() {
        let budget = 32 << 10;
        for passes in [50usize, 2000] {
            let mut t = conflict_loop(8, passes);
            let r = StreamAnalysis::run(&mut t, u64::MAX, StreamConfig::with_budget(budget));
            assert!(
                r.memory_bytes <= budget,
                "resident {} exceeds budget {budget} at {passes} passes",
                r.memory_bytes
            );
        }
    }

    #[test]
    fn report_round_trips_through_serde() {
        let mut t = conflict_loop(4, 50);
        let r = StreamAnalysis::run(&mut t, u64::MAX, StreamConfig::with_budget(32 << 10));
        let json = serde_json::to_string(&r);
        let parsed: StreamReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = StreamConfig::with_budget(32 << 10).with_seed(7);
        let mut a = conflict_loop(6, 100);
        let mut b = conflict_loop(6, 100);
        let ra = StreamAnalysis::run(&mut a, u64::MAX, cfg);
        let rb = StreamAnalysis::run(&mut b, u64::MAX, cfg);
        assert_eq!(ra, rb);
    }

    #[test]
    fn merged_segments_match_single_pass_within_bounds() {
        let cfg = StreamConfig::with_budget(64 << 10).with_seed(1);
        let accesses = 1_600u64;
        let mut whole = conflict_loop(4, 400);
        let single = StreamAnalysis::run(&mut whole, accesses, cfg);

        for segments in [2u32, 4] {
            let partials: Vec<StreamPartial> = ltc_trace::TraceSegment::split(accesses, segments)
                .into_iter()
                .map(|seg| {
                    let mut src = conflict_loop(4, 400);
                    let partial = StreamAnalysis::run_segment(&mut src, seg, cfg);
                    assert!(
                        partial.memory_bytes <= cfg.budget_bytes,
                        "worker resident {} exceeds budget",
                        partial.memory_bytes
                    );
                    partial
                })
                .collect();
            let merged = merge_partials(&partials).unwrap();
            assert_eq!(merged.accesses, single.accesses);
            // Segment boundaries restart the hierarchy cold; this trace
            // misses on essentially every access anyway, so the counts
            // must agree almost exactly.
            assert!(merged.misses >= single.misses);
            assert!(merged.misses - single.misses <= u64::from(segments) * 8);
            // The same four lines dominate both reports, within the
            // merged ε·N bound.
            assert_eq!(merged.heavy.len(), single.heavy.len());
            for (m, s) in merged.heavy.iter().zip(&single.heavy) {
                assert_eq!(m.line, s.line);
                assert!(m.estimate.abs_diff(s.estimate) <= merged.error_bound + single.error_bound);
            }
            // The boundary stitching preserves the miss cycle's dominant
            // transitions.
            assert_eq!(merged.correlated[0].last_line, single.correlated[0].last_line);
            assert_eq!(merged.correlated[0].next_line, single.correlated[0].next_line);
        }
    }

    #[test]
    fn merge_partials_rejects_mismatched_shapes() {
        let mut a = conflict_loop(4, 50);
        let mut b = conflict_loop(4, 50);
        let whole = ltc_trace::TraceSegment { index: 0, segments: 1, start: 0, len: 200 };
        let pa = StreamAnalysis::run_segment(&mut a, whole, StreamConfig::with_budget(32 << 10));
        let pb = StreamAnalysis::run_segment(&mut b, whole, StreamConfig::with_budget(64 << 10));
        let err = merge_partials(&[pa.clone(), pb]).unwrap_err();
        assert!(matches!(err, ltc_stream::MergeError::Shape { .. }), "typed error, not a panic");

        let mut c = conflict_loop(4, 50);
        let pc = StreamAnalysis::run_segment(
            &mut c,
            whole,
            StreamConfig::with_budget(32 << 10).with_seed(9),
        );
        assert!(merge_partials(&[pa, pc]).is_err(), "seed mismatch must be refused");
        assert!(merge_partials(&[]).is_err(), "empty partials are an error");
    }

    /// Records a generator checkpoint `pos` accesses into `source`.
    fn record_checkpoint(mut source: Replay, pos: u64) -> Checkpoint {
        for _ in 0..pos {
            source.next_access();
        }
        Checkpoint { pos, state: source.checkpoint().unwrap() }
    }

    /// Records a warm image the way the engine's pre-pass does: replay
    /// the warm-up window ending at `pos` through a cold hierarchy.
    fn record_warm_image(mut source: Replay, pos: u64, warmup: u64) -> WarmImage {
        let warm = pos.min(warmup);
        for _ in 0..pos - warm {
            source.next_access();
        }
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        for _ in 0..warm {
            let Some(a) = source.next_access() else { break };
            h.access(a.addr, a.kind);
        }
        WarmImage { pos, image: h.to_image() }
    }

    #[test]
    fn warm_image_replaces_the_warmup_replay_byte_identically() {
        let cfg = StreamConfig::with_budget(32 << 10);
        let seg = TraceSegment { index: 1, segments: 2, start: SEGMENT_WARMUP + 10_000, len: 500 };
        let passes = ((seg.start + seg.len) / 4 + 1) as usize;
        let expected = StreamAnalysis::run_segment(&mut conflict_loop(4, passes), seg, cfg);

        // A checkpoint and an image at the slice start: zero generated
        // prefix, zero warm-up replay, and still the identical partial.
        let c = record_checkpoint(conflict_loop(4, passes), seg.start);
        let warm = record_warm_image(conflict_loop(4, passes), seg.start, cfg.warmup);
        let via = StreamAnalysis::run_segment_with(
            &mut conflict_loop(4, passes),
            seg,
            cfg,
            Some(&c),
            Some(&warm),
        );
        assert_eq!(via, expected);
    }

    #[test]
    fn checkpointed_segment_matches_plain_skip_exactly() {
        // Every offer short of a matching pair replays from access 0 on
        // an untouched source, so the partial is the plain skip's.
        let cfg = StreamConfig::with_budget(32 << 10);
        let seg = TraceSegment { index: 1, segments: 2, start: SEGMENT_WARMUP + 10_000, len: 500 };
        let passes = ((seg.start + seg.len) / 4 + 1) as usize;
        let expected = StreamAnalysis::run_segment(&mut conflict_loop(4, passes), seg, cfg);
        let at_start = record_checkpoint(conflict_loop(4, passes), seg.start);
        let before_warmup = record_checkpoint(conflict_loop(4, passes), 8_000);
        let refused = Checkpoint { pos: seg.start, state: SourceState::Replay { pos: u64::MAX } };
        let warm = record_warm_image(conflict_loop(4, passes), seg.start, cfg.warmup);
        let misplaced = WarmImage { pos: seg.start - 1, image: warm.image.clone() };
        let big_l2 = Hierarchy::new(HierarchyConfig::paper_4mb_l2()).to_image();
        let misshapen = WarmImage { pos: seg.start, image: big_l2 };
        let offers = [
            (Some(&at_start), None),
            (None, Some(&warm)),
            (Some(&before_warmup), Some(&warm)),
            (Some(&at_start), Some(&misplaced)),
            (Some(&at_start), Some(&misshapen)),
            (Some(&refused), Some(&warm)),
        ];
        for (i, (checkpoint, image)) in offers.into_iter().enumerate() {
            let partial = StreamAnalysis::run_segment_with(
                &mut conflict_loop(4, passes),
                seg,
                cfg,
                checkpoint,
                image,
            );
            assert_eq!(partial, expected, "offer {i}");
        }
    }

    #[test]
    fn warm_image_round_trips_through_serde() {
        let warm = record_warm_image(conflict_loop(4, 60_000), 120_000, SEGMENT_WARMUP);
        let parsed: WarmImage =
            serde_json::from_str(&serde_json::to_string(&warm)).expect("parses");
        assert_eq!(parsed, warm);
    }

    #[test]
    fn configured_warmup_changes_deep_segment_results() {
        // A working set that fits in L1: warmed, the slice hits; cold,
        // it re-misses the whole set. A shorter configured warm-up must
        // therefore show up in the partial.
        let resident_loop = |passes: usize| {
            let mut v = Vec::new();
            for _ in 0..passes {
                for i in 0..64u64 {
                    v.push(MemoryAccess::load(Pc(0x400), Addr(i * 64)));
                }
            }
            Replay::once(v)
        };
        let seg = TraceSegment { index: 1, segments: 2, start: 6_016, len: 800 };
        let full = StreamAnalysis::run_segment(
            &mut resident_loop(110),
            seg,
            StreamConfig::with_budget(32 << 10),
        );
        let short = StreamAnalysis::run_segment(
            &mut resident_loop(110),
            seg,
            StreamConfig::with_budget(32 << 10).with_warmup(0),
        );
        assert_eq!(full.accesses, short.accesses);
        assert!(short.misses >= full.misses + 64, "cold boundary re-misses the working set");
        assert_ne!(full, short, "warm-up length must reach the hierarchy state");
    }

    #[test]
    fn segment_runs_emit_restore_outcomes_and_sketch_samples() {
        use ltc_telemetry::{Capture, EventKind, FieldValue};
        use std::sync::Arc;

        let cfg = StreamConfig::with_budget(32 << 10);
        let seg = TraceSegment { index: 1, segments: 2, start: SEGMENT_WARMUP + 10_000, len: 500 };
        let passes = ((seg.start + seg.len) / 4 + 1) as usize;

        // (outcome, reason) of the one restore point a segment run emits.
        let outcome_of = |capture: &Capture| {
            let points = capture.named("segment_restore");
            assert_eq!(points.len(), 1, "exactly one restore outcome per segment run");
            let text = |name: &str| match points[0].field(name) {
                Some(FieldValue::Str(s)) => Some(s.clone()),
                None => None,
                other => panic!("{name} field is not a string: {other:?}"),
            };
            (text("outcome").expect("outcome field"), text("reason"))
        };

        let run = |checkpoint: Option<&Checkpoint>, image: Option<&WarmImage>| {
            let capture = Arc::new(Capture::new());
            ltc_telemetry::with_subscriber(capture.clone(), || {
                StreamAnalysis::run_segment_with(
                    &mut conflict_loop(4, passes),
                    seg,
                    cfg,
                    checkpoint,
                    image,
                )
            });
            capture
        };

        // Replay fallback: no pair offered.
        let capture = run(None, None);
        assert_eq!(outcome_of(&capture), ("replay".to_string(), Some("missing".to_string())));
        let points = capture.named("segment_restore");
        assert_eq!(points[0].field("warm"), Some(&FieldValue::U64(SEGMENT_WARMUP)));
        assert!(points[0].field("checkpoint").is_none(), "no checkpoint-only outcome remains");
        // The final sketch sample always lands, even for short segments.
        assert!(!capture.named("sketch.memory_bytes").is_empty());
        assert!(!capture.named("sketch.cm_occupancy").is_empty());
        assert!(capture
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Gauge)
            .all(|e| e.field("value").and_then(FieldValue::as_u64).is_some()));

        // Half a pair is still missing.
        let c = record_checkpoint(conflict_loop(4, passes), seg.start);
        let capture = run(Some(&c), None);
        assert_eq!(outcome_of(&capture), ("replay".to_string(), Some("missing".to_string())));

        // A pair the worker rejects: the checkpoint sits before the start.
        let warm = record_warm_image(conflict_loop(4, passes), seg.start, cfg.warmup);
        let early = record_checkpoint(conflict_loop(4, passes), 8_000);
        let capture = run(Some(&early), Some(&warm));
        assert_eq!(
            outcome_of(&capture),
            ("replay".to_string(), Some("restore_failed".to_string()))
        );

        // Warm-image outcome: the pair restores, nothing is replayed.
        let capture = run(Some(&c), Some(&warm));
        assert_eq!(outcome_of(&capture), ("warm_image".to_string(), None));
        let points = capture.named("segment_restore");
        assert_eq!(points[0].field("warm"), Some(&FieldValue::U64(0)));

        // A slice at the trace start restores and replays nothing.
        let first = TraceSegment { index: 0, segments: 2, start: 0, len: 500 };
        let capture = Arc::new(Capture::new());
        ltc_telemetry::with_subscriber(capture.clone(), || {
            StreamAnalysis::run_segment(&mut conflict_loop(4, passes), first, cfg)
        });
        assert_eq!(outcome_of(&capture), ("cold_start".to_string(), None));
    }

    #[test]
    fn sketch_sampling_interval_rate_limits_gauges() {
        use ltc_telemetry::Capture;
        use std::sync::Arc;

        // The conflict loop misses on every access, so 2.5 intervals of
        // accesses are 2.5 intervals of misses: 2 periodic samples plus
        // the final one.
        let len = SKETCH_SAMPLE_EVERY * 5 / 2;
        let seg = TraceSegment { index: 0, segments: 1, start: 0, len };
        let capture = Arc::new(Capture::new());
        let cfg = StreamConfig::with_budget(32 << 10);
        let report = ltc_telemetry::with_subscriber(capture.clone(), || {
            StreamAnalysis::run_segment(&mut conflict_loop(4, len as usize / 4), seg, cfg)
        });
        assert_eq!(report.misses, len);
        assert_eq!(capture.named("sketch.memory_bytes").len(), 3);
    }

    #[test]
    fn telemetry_never_changes_the_partial() {
        use ltc_telemetry::Capture;
        use std::sync::Arc;

        // Two sampling intervals, so periodic samples fire mid-run.
        let cfg = StreamConfig::with_budget(32 << 10);
        let len = 2 * SKETCH_SAMPLE_EVERY;
        let seg = TraceSegment { index: 0, segments: 1, start: 0, len };
        let passes = len as usize / 4;
        let quiet = StreamAnalysis::run_segment(&mut conflict_loop(4, passes), seg, cfg);
        let observed = ltc_telemetry::with_subscriber(Arc::new(Capture::new()), || {
            StreamAnalysis::run_segment(&mut conflict_loop(4, passes), seg, cfg)
        });
        assert_eq!(quiet, observed);
    }

    #[test]
    fn partial_round_trips_through_serde() {
        let mut t = conflict_loop(4, 100);
        let seg = ltc_trace::TraceSegment::nth(400, 2, 1);
        let p = StreamAnalysis::run_segment(&mut t, seg, StreamConfig::with_budget(32 << 10));
        let parsed: StreamPartial =
            serde_json::from_str(&serde_json::to_string(&p)).expect("parses");
        assert_eq!(parsed, p);
        // A revived partial merges identically to the original.
        assert_eq!(merge_partials(&[parsed]).unwrap(), merge_partials(&[p]).unwrap());
    }
}
