//! The `ltsim run --out` contract: a second pass over the same figures
//! and cache directory produces identical tables while performing zero
//! simulations (everything is served from the `results/` artifacts).

use std::path::PathBuf;

use ltc_bench::harness;
use ltc_bench::Scale;
use ltc_sim::engine::{artifact, EngineOptions, ResultSet, RunSpec, Scheduler};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltc-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A test-sized scale: big enough for every figure to have misses to
/// classify, small enough to keep the suite fast.
fn tiny_scale() -> Scale {
    Scale { coverage_accesses: 60_000, timing_accesses: 30_000 }
}

#[test]
fn second_run_is_pure_cache_and_byte_identical() {
    let dir = tmp_dir("double-run");
    let scale = tiny_scale();
    // A mode mix: coverage pairs (fig08), baseline timing (table2), and
    // the staged two-wave figure (fig04).
    let figures = [
        harness::by_name("fig08").unwrap(),
        harness::by_name("table2").unwrap(),
        harness::by_name("fig04").unwrap(),
    ];
    let opts = EngineOptions::cached(4, &dir);

    let mut first = ResultSet::new();
    harness::collect(&figures, scale, &opts, &mut first).unwrap();
    assert!(first.simulated() > 0, "first pass must simulate");
    assert_eq!(first.cache_hits(), 0, "cold cache has nothing to offer");
    let tables_first: Vec<String> = figures.iter().map(|def| (def.render)(scale, &first)).collect();

    let mut second = ResultSet::new();
    harness::collect(&figures, scale, &opts, &mut second).unwrap();
    assert_eq!(second.simulated(), 0, "second pass must perform no simulations");
    assert_eq!(second.cache_hits(), first.simulated(), "every run must come from the cache");
    let tables_second: Vec<String> =
        figures.iter().map(|def| (def.render)(scale, &second)).collect();
    assert_eq!(tables_first, tables_second, "cached tables must be byte-identical");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn render_path_reads_cache_without_simulating() {
    let dir = tmp_dir("render");
    let scale = tiny_scale();
    let figures = [harness::by_name("fig02").unwrap()];

    // Rendering from an empty cache must report what is missing rather
    // than quietly recomputing.
    let mut empty = ResultSet::new();
    let missing = harness::load_cached(&figures, scale, &dir, &mut empty).unwrap();
    assert!(!missing.is_empty(), "an empty cache cannot satisfy fig02");

    let mut computed = ResultSet::new();
    harness::collect(&figures, scale, &EngineOptions::cached(4, &dir), &mut computed).unwrap();

    let mut rendered = ResultSet::new();
    let missing = harness::load_cached(&figures, scale, &dir, &mut rendered).unwrap();
    assert!(missing.is_empty(), "everything fig02 needs is now cached");
    assert_eq!(rendered.simulated(), 0);
    assert_eq!(
        (figures[0].render)(scale, &rendered),
        (figures[0].render)(scale, &computed),
        "render-from-cache must match render-from-simulation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Segmented-run cache-key regression: `--segments 4` and `--segments 8`
/// runs of the same benchmark/budget must occupy disjoint artifact
/// slots — parents and every per-segment child — so neither pass can
/// serve (or clobber) the other's files, while a repeat of either pass
/// is pure cache.
#[test]
fn segment_counts_never_collide_in_the_artifact_cache() {
    let dir = tmp_dir("segments");
    let opts = EngineOptions::cached(4, &dir);
    let four = RunSpec::stream_segmented("mcf", 64 << 10, 4, 8_000, 1);
    let eight = RunSpec::stream_segmented("mcf", 64 << 10, 8, 8_000, 1);

    let mut sched = Scheduler::new();
    sched.request(four.clone());
    let first = sched.execute(&opts).unwrap();
    assert_eq!(first.simulated(), 4);

    // The 8-way run shares nothing with the 4-way artifacts: all eight
    // slices (and the parent) must simulate fresh.
    let mut sched8 = Scheduler::new();
    sched8.request(eight.clone());
    let second = sched8.execute(&opts).unwrap();
    assert_eq!(second.simulated(), 8, "a different segment count is a different experiment");
    assert_eq!(second.cache_hits(), 0);

    // Both parents now stand side by side in the cache, each serving its
    // own repeat pass untouched by the other.
    for parent in [&four, &eight] {
        assert!(artifact::load(&dir, parent).unwrap().is_some());
        let mut again = Scheduler::new();
        again.request(parent.clone());
        let repeat = again.execute(&opts).unwrap();
        assert_eq!(repeat.simulated(), 0, "repeat pass must be pure cache");
        assert_eq!(repeat.cache_hits(), 1);
    }
    // Every artifact file is distinct: 4 + 8 children plus 2 parents.
    // (The shared checkpoint/warm-image store is a subdirectory, not an
    // artifact — only plain files are artifact slots.)
    let files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_type().unwrap().is_file())
        .count();
    assert_eq!(files, 14, "parents and children must all key separately");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn staged_figure_converges_through_cache_rounds() {
    let dir = tmp_dir("staged");
    let scale = tiny_scale();
    let fig04 = [harness::by_name("fig04").unwrap()];
    let opts = EngineOptions::cached(4, &dir);

    let mut results = ResultSet::new();
    harness::collect(&fig04, scale, &opts, &mut results).unwrap();
    let first_total = results.simulated();
    assert!(first_total > 28, "wave two (finite tables) must have run");

    // The cached render path walks the same two waves.
    let mut cached = ResultSet::new();
    let missing = harness::load_cached(&fig04, scale, &dir, &mut cached).unwrap();
    assert!(missing.is_empty());
    assert_eq!(cached.len(), results.len());
    std::fs::remove_dir_all(&dir).unwrap();
}
