//! `ltsim stream` engine contract: stream runs are ordinary `RunSpec`s,
//! so they dedupe and cache like any figure run, and the analysis's
//! resident summary memory is bounded by the configured budget no matter
//! how long the trace is.

use ltc_sim::engine::{EngineOptions, RunSpec, Scheduler};

/// The acceptance property of the sketch subsystem: doubling, or
/// octupling, the trace length leaves the summary's resident bytes
/// untouched — the budget is the bound, the trace length is irrelevant.
#[test]
fn resident_summary_memory_is_bounded_by_budget_independent_of_trace_length() {
    let budget = 96 << 10;
    let mut footprints = Vec::new();
    for accesses in [50_000u64, 400_000] {
        let spec = RunSpec::stream("swim", budget, accesses, 1);
        let mut sched = Scheduler::new();
        sched.request(spec.clone());
        let results = sched.execute(&EngineOptions::in_memory(2)).unwrap();
        let report = results.stream(&spec);
        assert_eq!(report.accesses, accesses);
        assert!(report.misses > 0, "swim must miss");
        assert!(
            report.memory_bytes <= budget,
            "resident {} exceeds budget {budget} at {accesses} accesses",
            report.memory_bytes
        );
        footprints.push(report.memory_bytes);
    }
    assert_eq!(footprints[0], footprints[1], "summary allocation is budget-, not trace-, sized");
}

/// Stream runs participate in the engine exactly like figure runs:
/// duplicates collapse, artifacts round-trip through the cache, and a
/// second pass simulates nothing.
#[test]
fn stream_specs_dedupe_and_cache_through_the_engine() {
    let dir = std::env::temp_dir().join(format!("ltc-stream-engine-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = RunSpec::stream("mcf", 64 << 10, 30_000, 1);
    let opts = EngineOptions::cached(2, &dir);

    let mut sched = Scheduler::new();
    sched.request(spec.clone());
    sched.request(spec.clone()); // duplicate request collapses
    let first = sched.execute(&opts).unwrap();
    assert_eq!(first.simulated(), 1, "duplicates must dedupe");

    let second = sched.execute(&opts).unwrap();
    assert_eq!(second.simulated(), 0, "second pass must be pure cache");
    assert_eq!(second.cache_hits(), 1);
    assert_eq!(
        first.stream(&spec),
        second.stream(&spec),
        "cached stream report must round-trip losslessly"
    );

    // Budget is part of the key: a different budget is a different run.
    let other = RunSpec::stream("mcf", 128 << 10, 30_000, 1);
    assert_ne!(spec.key(), other.key());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The segmented-streaming acceptance property: whatever the in-process
/// pool's worker count, `--segments N` produces a merged report that
/// matches the single-pass `--segments 1` report within the documented
/// sketch bounds, and no worker's resident summary exceeds the byte
/// budget. (The subprocess backend asserts the same through the real
/// binary in `crates/bench/tests/worker_protocol.rs`.)
#[test]
fn merged_segment_reports_match_single_pass_within_documented_bounds() {
    let budget = 96 << 10;
    let accesses = 60_000u64;
    let single_spec = RunSpec::stream("swim", budget, accesses, 1);
    let segmented_spec = RunSpec::stream_segmented("swim", budget, 4, accesses, 1);
    let mut sched = Scheduler::new();
    sched.request(single_spec.clone());
    sched.request(segmented_spec.clone());

    for threads in [1, 4] {
        let results = sched.execute(&EngineOptions::in_memory(threads)).unwrap();
        let single = results.stream(&single_spec);
        let merged = results.stream(&segmented_spec);

        // Same trace, same budget, same access count.
        assert_eq!(merged.accesses, single.accesses);
        assert_eq!(merged.budget_bytes, single.budget_bytes);
        // Per-worker resident memory respects the budget.
        assert!(
            merged.memory_bytes <= budget,
            "worker resident {} exceeds budget {budget}",
            merged.memory_bytes
        );
        // Misses only grow (cold hierarchies at segment boundaries), and
        // only a little.
        assert!(merged.misses >= single.misses);
        assert!(
            (merged.misses - single.misses) as f64 <= single.misses as f64 * 0.05,
            "cold-start drift too large: {} vs {}",
            merged.misses,
            single.misses
        );
        // Heavy-hitter estimates agree within the two reports' combined
        // ε·N bounds (plus the boundary drift already bounded above).
        // A line may drop out of the reported top-8 only if its estimate
        // never exceeded that tolerance in the first place — i.e. the
        // sketch bounds could not distinguish it from the field (the
        // suite's working sets are cache-exceeding sweeps, so most lines
        // sit exactly at the noise floor; the skewed-stream case where
        // the top set must match exactly is asserted in
        // `ltc_analysis::stream`'s unit tests).
        let tolerance = merged.error_bound + single.error_bound + (merged.misses - single.misses);
        for s in &single.heavy {
            match merged.heavy.iter().find(|m| m.line == s.line) {
                Some(m) => assert!(
                    m.estimate.abs_diff(s.estimate) <= tolerance,
                    "estimate for {:#x} drifted {} > {tolerance}",
                    s.line,
                    m.estimate.abs_diff(s.estimate)
                ),
                None => assert!(
                    s.estimate <= tolerance,
                    "genuinely heavy line {:#x} (est {} > {tolerance}) lost in the merge",
                    s.line,
                    s.estimate
                ),
            }
        }
    }
}
