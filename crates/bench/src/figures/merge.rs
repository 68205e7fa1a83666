//! Merge scaling sweep — segmented streaming vs the single-pass report.
//!
//! Not a paper artifact: the mergeable-sketch subsystem's accuracy axis.
//! Every benchmark runs the bounded-memory stream analysis single-pass
//! (`--segments 1`) and segmented across a ladder of worker counts; the
//! figure reports how much of the single-pass picture survives the
//! split-and-merge — miss-count drift from the residual cold state at
//! segment boundaries, the fraction of reported heavy hitters whose
//! merged estimates stay consistent with the single pass within the
//! documented sketch bounds, the heavy-hitter miss share — and the
//! maximum per-worker resident summary bytes, which must stay under
//! the budget no matter how many ways the trace is cut. (Plain top-k
//! recall is not reported: on the suite's flat, cache-exceeding
//! streams every line sits at the ε·N noise floor, so *which* eight
//! lines a summary reports is arbitrary; consistency-within-bounds is
//! the property the merge actually guarantees.)

use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::report::Table;
use ltc_sim::trace::suite;

use crate::scale::Scale;

/// Summary byte budget every run uses (the `ltsim stream` default:
/// 256 KiB).
pub const BUDGET: u64 = 256 << 10;

/// Worker counts swept; 1 is the single-pass reference.
pub const SEGMENTS: [u32; 4] = [1, 2, 4, 8];

/// One segment count's aggregate comparison across the suite.
#[derive(Debug, Clone, Copy)]
pub struct MergePoint {
    /// Segments (parallel workers) the trace was split into.
    pub segments: u32,
    /// Average relative miss-count drift vs the single pass (fractional;
    /// positive = segmented counts more misses, from residual cold
    /// state past the warm-up window).
    pub miss_drift: f64,
    /// Average fraction of single-pass heavy-hitter lines whose merged
    /// story is consistent within the combined sketch bounds: present
    /// with an estimate inside the tolerance, or absent while never
    /// having exceeded it (1.0 = nothing the bounds could distinguish
    /// was lost).
    pub heavy_consistency: f64,
    /// Average fraction of misses attributed to the reported heavy
    /// hitters.
    pub heavy_fraction: f64,
    /// Worst per-worker resident summary bytes across the suite.
    pub worker_memory: u64,
}

fn spec_for(name: &str, segments: u32, scale: Scale) -> RunSpec {
    let accesses = scale.coverage_accesses / 2;
    if segments == 1 {
        RunSpec::stream(name, BUDGET, accesses, 1)
    } else {
        RunSpec::stream_segmented(name, BUDGET, segments, accesses, 1)
    }
}

/// The sweep is one wave: every benchmark at every segment count.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for e in suite::benchmarks() {
        specs.extend(SEGMENTS.iter().map(|&s| spec_for(e.name, s, scale)));
    }
    specs
}

/// Aggregates the sweep into one [`MergePoint`] per segment count.
pub fn points(scale: Scale, results: &ResultSet) -> Vec<MergePoint> {
    let benchmarks: Vec<&str> = suite::benchmarks().iter().map(|e| e.name).collect();
    let n = benchmarks.len() as f64;
    SEGMENTS
        .iter()
        .map(|&segments| {
            let mut p = MergePoint {
                segments,
                miss_drift: 0.0,
                heavy_consistency: 0.0,
                heavy_fraction: 0.0,
                worker_memory: 0,
            };
            for name in &benchmarks {
                let single = results.stream(&spec_for(name, 1, scale));
                let merged = results.stream(&spec_for(name, segments, scale));
                if single.misses > 0 {
                    p.miss_drift += (merged.misses as f64 / single.misses as f64 - 1.0) / n;
                }
                let tolerance =
                    merged.error_bound + single.error_bound + merged.misses.abs_diff(single.misses);
                let consistent = single
                    .heavy
                    .iter()
                    .filter(|s| match merged.heavy.iter().find(|m| m.line == s.line) {
                        Some(m) => m.estimate.abs_diff(s.estimate) <= tolerance,
                        None => s.estimate <= tolerance,
                    })
                    .count();
                p.heavy_consistency += consistent as f64 / single.heavy.len().max(1) as f64 / n;
                p.heavy_fraction += merged.heavy_fraction() / n;
                p.worker_memory = p.worker_memory.max(merged.memory_bytes);
            }
            p
        })
        .collect()
}

/// Renders the merge-scaling table plus a summary line.
pub fn render(points: &[MergePoint]) -> String {
    let mut t = Table::new(vec![
        "segments",
        "miss drift vs 1-pass",
        "heavy hitters within bounds",
        "heavy share of misses",
        "worker resident bytes",
    ]);
    for p in points {
        t.row(vec![
            p.segments.to_string(),
            format!("{:+.2}%", p.miss_drift * 100.0),
            format!("{:.1}%", p.heavy_consistency * 100.0),
            format!("{:.1}%", p.heavy_fraction * 100.0),
            ltc_sim::report::bytes(p.worker_memory),
        ]);
    }
    let mut out = t.render();
    if let Some(p) = points.iter().max_by_key(|p| p.segments) {
        out.push_str(&format!(
            "\nat {} segments: every worker held ≤ {} of summary state ({} budget), miss \
             counts drifted {:+.2}%, and {:.1}% of reported heavy hitters stayed within the \
             documented sketch bounds of the single pass\n",
            p.segments,
            ltc_sim::report::bytes(p.worker_memory),
            ltc_sim::report::bytes(BUDGET),
            p.miss_drift * 100.0,
            p.heavy_consistency * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_starts_at_the_single_pass_reference() {
        assert_eq!(SEGMENTS[0], 1);
        assert!(SEGMENTS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn specs_cover_every_benchmark_and_segment_count() {
        let scale = Scale::bench();
        let specs = specs(scale, &ResultSet::new());
        assert_eq!(specs.len(), suite::benchmarks().len() * SEGMENTS.len());
        // Exactly one single-pass reference per benchmark.
        let plain =
            specs.iter().filter(|s| matches!(s.mode, ltc_sim::engine::Mode::Stream { .. })).count();
        assert_eq!(plain, suite::benchmarks().len());
    }

    #[test]
    fn merged_reports_track_the_single_pass() {
        // One benchmark at bench scale through the real engine path:
        // the merged report must stay close to the single pass and every
        // worker must respect the budget.
        let scale = Scale::bench();
        let mut sched = ltc_sim::engine::Scheduler::new();
        let single = spec_for("mcf", 1, scale);
        let merged = spec_for("mcf", 4, scale);
        sched.request(single.clone());
        sched.request(merged.clone());
        let results = sched
            .execute(&ltc_sim::engine::EngineOptions::in_memory(4))
            .expect("in-memory execution");
        let s = results.stream(&single);
        let m = results.stream(&merged);
        assert!(m.memory_bytes <= BUDGET, "worker resident {} over budget", m.memory_bytes);
        assert!(m.misses >= s.misses, "segmenting can only add cold misses");
        assert!(
            (m.misses as f64) < s.misses as f64 * 1.1,
            "cold-start drift too large: {} vs {}",
            m.misses,
            s.misses
        );
        // Any line that left the reported top set must have been
        // indistinguishable from the field within the sketch bounds
        // (the suite's streams are flat at this scale; skewed-stream
        // exact recall is asserted in `ltc_analysis::stream`).
        let tolerance = m.error_bound + s.error_bound + (m.misses - s.misses);
        for h in &s.heavy {
            if !m.heavy.iter().any(|x| x.line == h.line) {
                assert!(
                    h.estimate <= tolerance,
                    "genuinely heavy line {:#x} (est {}) lost in the merge",
                    h.line,
                    h.estimate
                );
            }
        }
    }
}
