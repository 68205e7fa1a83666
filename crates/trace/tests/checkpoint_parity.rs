//! Checkpoint/restore parity property tests.
//!
//! A checkpoint taken mid-stream and restored into a *fresh*
//! identically-configured source must resume element-identically to the
//! uninterrupted stream — that is the whole byte-identity guarantee the
//! segmented-streaming fast path rests on. Proptest drives every
//! generator family (including the phase composition and recorded
//! replays) to an arbitrary cut point with arbitrary seeds, snapshots,
//! restores, and compares; the snapshot also round-trips through its
//! JSON serialization first, so the on-disk checkpoint store is covered
//! by the same parity bar.

use proptest::prelude::*;

use ltc_trace::gen::{
    ChaseConfig, ChaseGen, GapModel, HashWindowConfig, HashWindowGen, IndirectConfig, IndirectGen,
    Layout, PhaseMix, RandomConfig, RandomGen, SweepConfig, SweepGen, Traversal, TreeConfig,
    TreeGen, TreeLayout,
};
use ltc_trace::{suite, Addr, BoxedSource, MemoryAccess, Pc, Replay, SourceState, TraceSource};

type Builder = fn(u64) -> BoxedSource;

/// One builder per generator family and composition, deliberately
/// configured onto the stateful paths (jittered gaps so the RNG words
/// matter, mutation/churn so the mutable tables travel with the state).
fn builders() -> Vec<(&'static str, Builder)> {
    vec![
        ("sweep", |seed| {
            Box::new(SweepGen::new(SweepConfig {
                arrays: vec![1 << 14, 1 << 13],
                strides: vec![64, 128],
                store_every: 4,
                gap: GapModel::jittered(3, 2),
                seed,
                ..SweepConfig::default()
            }))
        }),
        ("chase-static", |seed| {
            Box::new(ChaseGen::new(ChaseConfig {
                nodes: 256,
                fields_per_node: 2,
                gap: GapModel::jittered(2, 1),
                seed,
                ..ChaseConfig::default()
            }))
        }),
        ("chase-mutating-hot", |seed| {
            Box::new(ChaseGen::new(ChaseConfig {
                nodes: 128,
                layout: Layout::Sequential,
                mutation_rate: 0.1,
                chain_serialization: 0.5,
                hot_fraction: 0.3,
                gap: GapModel::fixed(1),
                seed,
                ..ChaseConfig::default()
            }))
        }),
        ("tree", |seed| {
            Box::new(TreeGen::new(TreeConfig {
                depth: 6,
                traversal: Traversal::Paths { count: 5 },
                layout: TreeLayout::DfsOrder,
                accesses_per_node: 2,
                gap: GapModel::jittered(4, 3),
                seed,
                ..TreeConfig::default()
            }))
        }),
        ("random", |seed| {
            Box::new(RandomGen::new(RandomConfig {
                footprint: 1 << 16,
                run_lines: 3,
                touches_per_line: 2,
                gap: GapModel::jittered(2, 2),
                seed,
                ..RandomConfig::default()
            }))
        }),
        ("hash-window", |seed| {
            Box::new(HashWindowGen::new(HashWindowConfig {
                window_bytes: 4096,
                table_bytes: 8192,
                window_per_probe: 3,
                gap: GapModel::jittered(1, 1),
                seed,
                ..HashWindowConfig::default()
            }))
        }),
        ("indirect-churning", |seed| {
            Box::new(IndirectGen::new(IndirectConfig {
                gathers_per_pass: 64,
                data_elems: 128,
                churn: 0.25,
                store_result: true,
                gap: GapModel::jittered(2, 1),
                seed,
                ..IndirectConfig::default()
            }))
        }),
        ("phase-mix", |seed| {
            Box::new(PhaseMix::new(vec![
                (
                    Box::new(SweepGen::new(SweepConfig {
                        arrays: vec![1 << 12],
                        gap: GapModel::jittered(2, 2),
                        seed,
                        ..SweepConfig::default()
                    })),
                    100,
                ),
                (
                    Box::new(RandomGen::new(RandomConfig {
                        footprint: 1 << 14,
                        seed,
                        ..RandomConfig::default()
                    })),
                    70,
                ),
            ]))
        }),
        ("replay", |seed| {
            let v: Vec<MemoryAccess> =
                (0..1_200u64).map(|i| MemoryAccess::load(Pc(seed ^ i), Addr(i * 64))).collect();
            Box::new(Replay::once(v))
        }),
    ]
}

/// Snapshot `source` after `cut` accesses, restore into `fresh`, and
/// assert the resumed stream matches the uninterrupted one for `tail`
/// further accesses. The state goes through JSON on the way.
fn assert_resumes(
    mut source: BoxedSource,
    mut fresh: BoxedSource,
    cut: usize,
    tail: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..cut {
        prop_assert!(source.next_access().is_some(), "sources must outlast the cut");
    }
    let state = source.checkpoint().expect("every built-in source checkpoints");
    let revived: SourceState =
        serde::Deserialize::from_value(&serde_json::parse(&serde_json::to_string(&state)).unwrap())
            .expect("state survives its JSON form");
    prop_assert_eq!(&revived, &state);
    fresh.restore(&revived).expect("fresh same-config source accepts the state");
    for i in 0..tail {
        prop_assert_eq!(
            fresh.next_access(),
            source.next_access(),
            "restored stream diverges {} accesses after the cut",
            i
        );
    }
    Ok(())
}

/// A suite state with one mismatched sub-state is refused, and the
/// refused source then streams exactly what a fresh one does: composite
/// restores are all or nothing. gcc's checkpoint at 12 000 nests sweep,
/// chase and sweep states; the last one becomes a chase state here, so
/// the restore fails after the first two phases were restored.
#[test]
fn composite_restores_are_all_or_nothing_across_the_suite() {
    let mut nested = Vec::new();
    for entry in suite::benchmarks() {
        let mut recorder = entry.build(1);
        recorder.collect_accesses(12_000);
        let Some(SourceState::Phase { current, emitted, mut phases }) = recorder.checkpoint()
        else {
            continue;
        };
        let last = phases.len() - 1;
        phases[last] = phases
            .iter()
            .find(|p| p.kind() != phases[last].kind())
            .cloned()
            .unwrap_or(SourceState::Replay { pos: 0 });
        let mut source = entry.build(1);
        assert!(
            source.restore(&SourceState::Phase { current, emitted, phases }).is_err(),
            "{} accepted a mismatched sub-state",
            entry.name
        );
        assert!(
            source.collect_accesses(5_000) == entry.build(1).collect_accesses(5_000),
            "a refused restore changed {}",
            entry.name
        );
        nested.push(entry.name);
    }
    assert!(nested.contains(&"gcc"), "suite composites: {nested:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generator family resumes element-identically from a
    /// mid-stream snapshot restored into a fresh source.
    #[test]
    fn generators_resume_identically_after_restore(
        which in 0usize..builders().len(),
        cut in 0usize..800,
        seed in 0u64..1_000,
    ) {
        let (name, build) = builders()[which];
        let _ = name;
        assert_resumes(build(seed), build(seed), cut, 200)?;
    }

    /// The shipped benchmark suite (the compositions the engine actually
    /// runs) upholds the same parity bar.
    #[test]
    fn suite_benchmarks_resume_identically_after_restore(
        which in 0usize..suite::benchmarks().len(),
        cut in 0usize..600,
        seed in 1u64..64,
    ) {
        let entry = &suite::benchmarks()[which];
        assert_resumes(entry.build(seed), entry.build(seed), cut, 150)?;
    }

    /// A snapshot restored into a *differently* configured source is
    /// refused (never silently misapplied): seeds differ, so derived
    /// tables differ, and states that carry positions beyond the smaller
    /// configuration's ranges must error rather than corrupt.
    #[test]
    fn restore_refuses_or_stays_consistent_across_configs(
        cut in 1usize..400,
        seed in 0u64..100,
    ) {
        let mut big = ChaseGen::new(ChaseConfig { nodes: 4096, seed, ..ChaseConfig::default() });
        for _ in 0..cut + 3000 {
            big.next_access();
        }
        let state = big.checkpoint().unwrap();
        let mut small =
            ChaseGen::new(ChaseConfig { nodes: 8, seed, ..ChaseConfig::default() });
        // 4096-node positions exceed the 8-node generator's range for
        // almost every cut; whenever restore *does* accept, the stream
        // must still be well-formed (produce accesses, not panic).
        if small.restore(&state).is_ok() {
            for _ in 0..16 {
                prop_assert!(small.next_access().is_some());
            }
        }
    }
}
