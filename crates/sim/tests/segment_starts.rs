//! Segment-start parity: a segmented stream run through the [`Scheduler`]
//! — whose pre-pass records a checkpoint and a warm image at every slice
//! start, and whose workers restore them — must produce, child by child,
//! exactly the partial a fresh source replayed from access 0 produces.
//! The warm-up is shorter than the deeper slice starts, so the replay
//! really skips a prefix before it warms the hierarchy.
//!
//! The tests here install global telemetry captures, so they take
//! [`serial`] to keep each other's events out of their counts.

use std::sync::{Arc, Mutex, MutexGuard};

use ltc_sim::analysis::{StreamAnalysis, StreamConfig, WarmImage};
use ltc_sim::cache::{Hierarchy, HierarchyConfig, HierarchyImage};
use ltc_sim::engine::spec::fnv1a64;
use ltc_sim::engine::{checkpoints, segmented, EngineOptions, Mode, RunSpec, Scheduler};
use ltc_sim::trace::{suite, TraceSegment};
use ltc_telemetry::{Capture, FieldValue};

/// One test at a time: each counts `segment_restore` events, which every
/// thread of the binary emits into a globally installed capture.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn restored_segment_starts_match_a_replay_from_zero_across_the_suite() {
    let _serial = serial();
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
    // Workers run on backend threads, so the capture installs globally.
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

/// FNV-1a 64 of a value's `serde_json` text.
fn digest<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a64(ltc_sim::serde_json::to_string(value).as_bytes())
}

/// Runs one segment and returns its partial with the `segment_restore`
/// outcome it reported.
fn run_segment(
    benchmark: &str,
    slice: TraceSegment,
    cfg: StreamConfig,
    pair: Option<(&ltc_sim::trace::Checkpoint, &WarmImage)>,
) -> (ltc_sim::analysis::StreamPartial, String) {
    let entry = suite::by_name(benchmark).unwrap();
    let capture = Arc::new(Capture::new());
    let partial = ltc_telemetry::with_subscriber(capture.clone(), || {
        StreamAnalysis::run_segment_with(
            &mut entry.build(cfg.seed),
            slice,
            cfg,
            pair.map(|(c, _)| c),
            pair.map(|(_, w)| w),
        )
    });
    let points = capture.named("segment_restore");
    assert_eq!(points.len(), 1, "one restore outcome per segment run");
    let Some(FieldValue::Str(outcome)) = points[0].field("outcome") else {
        panic!("segment_restore without an outcome: {:?}", points[0])
    };
    (partial, outcome.clone())
}

/// `(benchmark, digest of its four partials' JSON, digest of its
/// single-pass report's JSON)` at 1 200 000 accesses × 4 segments, the
/// `ltsim stream` default budget, seed 1 and the default warm-up. gcc,
/// mcf, swim and em3d miss alike from a cold or a warm L1D at these
/// slice starts; gzip and perlbmk do not, so a restore that loses the
/// warm L1D changes their digests.
const PINS: [(&str, u64, u64); 6] = [
    ("gcc", 0x4732_2d05_e681_e59f, 0x75b8_c81b_7329_cd17),
    ("mcf", 0x651e_f3f6_558a_c045, 0x3899_4d21_bc42_f557),
    ("swim", 0xcccd_6158_3096_2fc5, 0x8a42_eb7a_ca76_4f8c),
    ("em3d", 0x79ef_e507_1bfc_640b, 0x3978_97b7_9aa0_3983),
    ("gzip", 0xdc2c_91bf_e24b_12e0, 0x0342_bd87_4779_490e),
    ("perlbmk", 0xad81_6fd2_9719_0f1b, 0xbbd3_3855_7870_b6e8),
];

/// Pins what the stream loop computes, byte for byte: each slice's
/// partial by replay from access 0 and by restoring the pair the
/// pre-pass records, and the single pass over the whole trace. Every
/// slice past the first starts deeper than the warm-up, so the replay
/// really skips a prefix and the restore really replaces a warm-up.
#[test]
fn segment_partials_and_single_pass_reports_match_pinned_digests() {
    let _serial = serial();
    let (accesses, segments, seed) = (1_200_000, 4, 1);
    let cfg = StreamConfig::with_budget(256 << 10).with_seed(seed);
    let starts = checkpoints::segment_starts(accesses, segments);
    for (benchmark, partials_digest, report_digest) in PINS {
        let entry = suite::by_name(benchmark).unwrap();
        let stores = checkpoints::record_stores(&mut entry.build(seed), cfg.warmup, &starts);
        let mut partials = Vec::new();
        for slice in TraceSegment::split(accesses, segments) {
            let (replayed, outcome) = run_segment(benchmark, slice, cfg, None);
            let expected = if slice.start == 0 { "cold_start" } else { "replay" };
            assert_eq!(outcome, expected, "{benchmark} slice {}", slice.index);
            let (restored, outcome) = run_segment(benchmark, slice, cfg, stores.at(slice.start));
            let expected = if slice.start == 0 { "cold_start" } else { "warm_image" };
            assert_eq!(outcome, expected, "{benchmark} slice {}", slice.index);
            assert!(restored == replayed, "{benchmark} slice {}: restore != replay", slice.index);
            partials.push(replayed);
        }
        let report = StreamAnalysis::run(&mut entry.build(seed), accesses, cfg);
        assert_eq!(
            (digest(&partials), digest(&report)),
            (partials_digest, report_digest),
            "{benchmark}: (partials, report) digests"
        );
    }
}

/// The stream reads only L1D hits, and the L1D never depends on the L2:
/// an image whose L2 half is cold restores the same partial as the
/// recorded one. An image captured under any hierarchy other than the
/// paper's is still refused, and its segment replays.
#[test]
fn only_the_l1d_half_of_a_paper_image_reaches_the_partial() {
    let _serial = serial();
    // gzip misses differently from a cold L1D at this slice start.
    let (accesses, segments, seed, benchmark) = (800_000, 4, 1, "gzip");
    let cfg = StreamConfig::with_budget(256 << 10).with_seed(seed);
    let slice = TraceSegment::nth(accesses, segments, 2);
    assert!(slice.start > cfg.warmup, "the slice skips a prefix before its warm-up");
    let entry = suite::by_name(benchmark).unwrap();
    let stores = checkpoints::record_stores(&mut entry.build(seed), cfg.warmup, &[slice.start]);
    let (checkpoint, recorded) = stores.at(slice.start).expect("pair recorded");
    let (replayed, _) = run_segment(benchmark, slice, cfg, None);

    let cold_l2 = Hierarchy::new(HierarchyConfig::paper()).to_image().l2;
    assert_ne!(cold_l2, recorded.image.l2, "the recorded L2 half is warm");
    let l2_cold = WarmImage {
        pos: slice.start,
        image: HierarchyImage { l1: recorded.image.l1.clone(), l2: cold_l2 },
    };
    let (partial, outcome) = run_segment(benchmark, slice, cfg, Some((checkpoint, &l2_cold)));
    assert_eq!(outcome, "warm_image");
    assert!(partial == replayed, "a cold L2 half changed the partial");

    let big_l2 = Hierarchy::new(HierarchyConfig::paper_4mb_l2()).to_image().l2;
    let foreign = WarmImage {
        pos: slice.start,
        image: HierarchyImage { l1: recorded.image.l1.clone(), l2: big_l2 },
    };
    let (partial, outcome) = run_segment(benchmark, slice, cfg, Some((checkpoint, &foreign)));
    assert_eq!(outcome, "replay", "a 4 MB-L2 image is not the paper hierarchy's");
    assert!(partial == replayed, "the refused image's segment replays");
}
