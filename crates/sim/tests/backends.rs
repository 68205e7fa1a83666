//! Backend parity and robustness: the thread pool must produce the same
//! `ResultSet` for the same plan whatever its worker count, a warm
//! artifact cache must serve every backend, and the pool must complete
//! every spec no matter how adversarially the spec list is ordered.
//!
//! (The subprocess backend joins the parity matrix in
//! `crates/bench/tests/worker_protocol.rs`, which can locate the built
//! `ltsim` binary.)

use ltc_sim::engine::{BackendKind, EngineOptions, ResultSet, RunSpec, Scheduler};
use ltc_sim::experiment::PredictorKind;
use proptest::prelude::*;

/// A mode mix small enough to run many times: coverage, timing,
/// analysis-only and multi-programmed specs.
fn mixed_specs() -> Vec<RunSpec> {
    vec![
        RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1),
        RunSpec::coverage("mesa", PredictorKind::LtCords, 4_000, 1),
        RunSpec::timing("mcf", PredictorKind::Baseline, 3_000, 1),
        RunSpec::timing("art", PredictorKind::LtCords, 3_000, 1),
        RunSpec::dead_time("swim", 4_000, 1),
        RunSpec::correlation("gcc", 4_000, 1),
        RunSpec::multiprog("gcc", Some("mcf"), PredictorKind::LtCords, 3_000, 1),
        RunSpec::stream("mcf", 64 << 10, 4_000, 1),
        RunSpec::coverage("art", PredictorKind::SketchDbcp(64 << 10), 4_000, 1),
    ]
}

fn run_with(specs: &[RunSpec], threads: usize) -> ResultSet {
    let mut sched = Scheduler::new();
    sched.request_all(specs.iter().cloned());
    sched
        .execute(&EngineOptions::in_memory(threads))
        .expect("in-process execution cannot hit I/O errors")
}

/// A subprocess pool whose worker can never spawn: a plan it completes
/// was served entirely from the artifact cache.
fn unspawnable() -> BackendKind {
    BackendKind::Subprocess { command: vec!["/nonexistent/ltc-worker-binary".to_string()] }
}

/// A cache warmed by one backend serves another byte-for-byte, without
/// the second ever starting a worker.
#[test]
fn backends_share_one_artifact_cache() {
    let dir = std::env::temp_dir().join(format!("ltc-backend-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = mixed_specs();
    let opts = EngineOptions::cached(3, &dir);

    let mut sched = Scheduler::new();
    sched.request_all(specs.iter().cloned());
    let warm = sched.execute(&opts).unwrap();
    assert_eq!(warm.simulated(), specs.len() as u64);

    let served = sched.execute(&opts.clone().with_backend(unspawnable())).unwrap();
    assert_eq!(served.simulated(), 0, "a warm cache must satisfy every backend");
    assert_eq!(served.cache_hits(), specs.len() as u64);
    for spec in &specs {
        assert_eq!(warm.get(spec), served.get(spec));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Segmented streaming parity: one worker and a three-thread pool
/// produce the same merged report — byte-for-byte as canonical JSON —
/// for the same segmented plan, and it matches executing the parent spec
/// sequentially. (The subprocess backend joins this matrix in
/// `crates/bench/tests/worker_protocol.rs`.)
#[test]
fn segmented_streaming_is_backend_invariant() {
    let specs = vec![
        RunSpec::stream_segmented("mcf", 64 << 10, 4, 6_000, 1),
        RunSpec::stream_segmented("swim", 64 << 10, 3, 6_000, 1),
    ];
    let one = run_with(&specs, 1);
    let pool = run_with(&specs, 3);
    // 4 + 3 segment children simulate; the parents are reduced, not run.
    assert_eq!(one.simulated(), 7);
    assert_eq!(pool.simulated(), 7);
    for spec in &specs {
        let a = one.get(spec).expect("one-worker merged report");
        let b = pool.get(spec).expect("pooled merged report");
        assert_eq!(
            ltc_sim::serde_json::to_string(a),
            ltc_sim::serde_json::to_string(b),
            "canonical JSON differs across worker counts for {}",
            spec.key()
        );
        assert_eq!(a, b);
        // The fan-out/reduce path equals sequential execution of the
        // parent — the backend is purely a performance choice.
        assert_eq!(a, &spec.execute(), "scheduler reduce diverged for {}", spec.key());
    }
}

/// A segmented run and its per-segment children share one artifact
/// cache: after a segmented pass, both the parent's merged report and
/// each child's partial summary are served without simulation, across
/// backends.
#[test]
fn segmented_runs_cache_parent_and_children() {
    let dir = std::env::temp_dir().join(format!("ltc-segmented-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let parent = RunSpec::stream_segmented("mcf", 64 << 10, 4, 6_000, 1);
    let opts = EngineOptions::cached(3, &dir);

    let mut sched = Scheduler::new();
    sched.request(parent.clone());
    let warm = sched.execute(&opts).unwrap();
    assert_eq!(warm.simulated(), 4, "each segment simulates once");

    // Second pass: the parent artifact alone satisfies the plan.
    let served = sched.execute(&opts.clone().with_backend(unspawnable())).unwrap();
    assert_eq!(served.simulated(), 0, "warm cache must satisfy the parent");
    assert_eq!(served.cache_hits(), 1);
    assert_eq!(warm.get(&parent), served.get(&parent));

    // The children were persisted too: requesting one directly is a pure
    // cache hit with the partial summary intact.
    let child = RunSpec::stream_segment("mcf", 64 << 10, 4, 2, 6_000, 1);
    let mut direct = Scheduler::new();
    direct.request(child.clone());
    let results = direct.execute(&opts).unwrap();
    assert_eq!(results.simulated(), 0, "child artifacts must be reusable");
    assert_eq!(results.cache_hits(), 1);
    assert!(results.stream_partial(&child).accesses > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cache provenance stays honest when a parent's expansion satisfies a
/// directly-requested child mid-plan: the child's artifact is loaded
/// once, not once per mention.
#[test]
fn expansion_served_children_count_one_cache_hit() {
    let dir = std::env::temp_dir().join(format!("ltc-segmented-hits-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = EngineOptions::cached(2, &dir);
    let parent = RunSpec::stream_segmented("gzip", 64 << 10, 2, 4_000, 1);
    let children = [
        RunSpec::stream_segment("gzip", 64 << 10, 2, 0, 4_000, 1),
        RunSpec::stream_segment("gzip", 64 << 10, 2, 1, 4_000, 1),
    ];
    // Persist only the children (a run that died before its reduce).
    let mut warm = Scheduler::new();
    warm.request_all(children.iter().cloned());
    assert_eq!(warm.execute(&opts).unwrap().simulated(), 2);

    // Parent first, then a direct request for one of its children: the
    // expansion serves both children from cache; the direct mention must
    // not reload (or recount) the already-satisfied child.
    let mut sched = Scheduler::new();
    sched.request(parent.clone());
    sched.request(children[0].clone());
    let results = sched.execute(&opts).unwrap();
    assert_eq!(results.simulated(), 0);
    assert_eq!(results.cache_hits(), 2, "one hit per child artifact, no double count");
    assert!(results.get(&parent).is_some(), "parent reduced from cached children");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Requesting a parent alongside its own children (or the children of a
/// differently-cut run) never double-executes a slice, and every key
/// stays distinct.
#[test]
fn parent_and_direct_children_dedupe() {
    let parent = RunSpec::stream_segmented("gzip", 64 << 10, 2, 4_000, 1);
    let child = RunSpec::stream_segment("gzip", 64 << 10, 2, 0, 4_000, 1);
    let other_cut = RunSpec::stream_segment("gzip", 64 << 10, 4, 0, 4_000, 1);
    let mut sched = Scheduler::new();
    sched.request(child.clone());
    sched.request(parent.clone());
    sched.request(other_cut.clone());
    let results = sched.execute(&EngineOptions::in_memory(3)).unwrap();
    // 2 parent children (one shared with the direct request) + the
    // 4-way slice: the shared child runs once.
    assert_eq!(results.simulated(), 3);
    assert!(results.get(&parent).is_some());
    assert_eq!(
        results.stream_partial(&child),
        &*match child.execute() {
            ltc_sim::engine::RunResult::StreamPartial(p) => p,
            other => panic!("unexpected result kind {}", other.kind()),
        },
    );
    assert_ne!(
        results.stream_partial(&child),
        results.stream_partial(&other_cut),
        "different segment counts cover different slices"
    );
}

/// Builds an adversarial spec list from proptest-chosen shape parameters:
/// duplicates allowed, expensive timing runs salted anywhere in the
/// order, benchmark/seed variety to defeat dedup.
fn adversarial_specs(raw: &[(usize, usize, u64)]) -> Vec<RunSpec> {
    let benches = ["gzip", "mesa", "art", "mcf", "swim", "gcc"];
    raw.iter()
        .map(|&(bench, mode, seed)| {
            let name = benches[bench % benches.len()];
            match mode % 4 {
                // Timing is the expensive straggler the thread pool
                // schedules first; everything else is cheap filler.
                0 => RunSpec::timing(name, PredictorKind::Baseline, 2_000, seed),
                1 => RunSpec::coverage(name, PredictorKind::Baseline, 1_500, seed),
                2 => RunSpec::dead_time(name, 1_500, seed),
                _ => RunSpec::multiprog(name, Some("gzip"), PredictorKind::Baseline, 1_000, seed),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The thread pool completes every spec — results for the whole
    /// plan, in request order, none lost to a straggling run or a
    /// starved worker — under adversarial orderings and worker counts.
    #[test]
    fn threads_backend_completes_adversarial_orderings(
        raw in prop::collection::vec((0usize..6, 0usize..4, 1u64..4), 1..14),
        threads in 1usize..5,
    ) {
        let specs = adversarial_specs(&raw);
        let mut sched = Scheduler::new();
        sched.request_all(specs.iter().cloned());
        let unique = sched.unique();
        let results = sched
            .execute(&EngineOptions::in_memory(threads).with_backend(BackendKind::Threads))
            .expect("in-memory execution cannot fail");
        prop_assert_eq!(results.simulated(), unique.len() as u64);
        prop_assert_eq!(results.len(), unique.len());
        for spec in &unique {
            prop_assert!(results.get(spec).is_some(), "missing result for {}", spec.key());
        }
    }
}
