//! Segment-start parity: a segmented stream run through the [`Scheduler`]
//! — whose pre-pass records a checkpoint and a warm image at every slice
//! start, and whose workers restore them — must produce, child by child,
//! exactly the partial a fresh source replayed from access 0 produces.
//! The warm-up is shorter than the deeper slice starts, so the replay
//! really skips a prefix before it warms the hierarchy.

use std::sync::Arc;

use ltc_sim::analysis::{StreamAnalysis, StreamConfig};
use ltc_sim::engine::{segmented, EngineOptions, Mode, RunSpec, Scheduler};
use ltc_sim::trace::{suite, TraceSegment};
use ltc_telemetry::{Capture, FieldValue};

#[test]
fn restored_segment_starts_match_a_replay_from_zero_across_the_suite() {
    let (budget, segments, accesses, warmup, seed) = (64 << 10, 4, 24_000, 2_000, 1);
    let parents: Vec<RunSpec> = suite::benchmarks()
        .iter()
        .map(|entry| {
            RunSpec::stream_segmented(entry.name, budget, segments, accesses, seed)
                .with_stream_warmup(warmup)
        })
        .collect();
    assert_eq!(parents.len(), 28);
    let mut sched = Scheduler::new();
    sched.request_all(parents.iter().cloned());
    // Workers run on backend threads, so the capture installs globally;
    // this binary holds no other test.
    let capture = Arc::new(Capture::new());
    let token = ltc_telemetry::install(capture.clone());
    let results = sched.execute(&EngineOptions::in_memory(2));
    ltc_telemetry::uninstall(token);
    let results = results.unwrap();

    let cfg = StreamConfig::with_budget(budget).with_seed(seed).with_warmup(warmup);
    for parent in &parents {
        let entry = suite::by_name(&parent.benchmark).unwrap();
        for child in segmented::children(parent).unwrap() {
            let Mode::StreamSegment { segment, .. } = child.mode else {
                panic!("a segmented parent has segment children")
            };
            let slice = TraceSegment::nth(accesses, segments, segment);
            let replayed = StreamAnalysis::run_segment(&mut entry.build(seed), slice, cfg);
            assert!(
                *results.stream_partial(&child) == replayed,
                "{} differs from its replay from access 0",
                child.label()
            );
        }
    }

    // Parity alone cannot tell a fast path that stopped firing from a
    // replay: every non-zero slice must have restored its pair.
    let restores = capture.named("segment_restore");
    assert_eq!(restores.len(), parents.len() * segments as usize);
    for point in &restores {
        let expected = match point.field("index") {
            Some(FieldValue::U64(0)) => "cold_start",
            _ => "warm_image",
        };
        assert_eq!(point.field("outcome"), Some(&FieldValue::Str(expected.into())), "{point:?}");
    }
}
