//! The golden-report regression wall.
//!
//! Canonical-JSON snapshots of representative reports — a `fig08`-style
//! coverage slice, a `table2`-style baseline slice, and one `stream`
//! report — are committed under `tests/golden/` and asserted
//! **byte-identical** on every run. The snapshots were captured before
//! the hot-path optimizations (batched trace decode, mask/shift cache
//! geometry), so any behavioural drift those changes introduce fails
//! here: a speedup must be provably behaviour-preserving. The `table2`
//! slice runs the baseline through the same two-hierarchy coverage loop
//! as every predictor, so it also pins that loop's baseline bytes.
//!
//! Golden lines serialize `{label, result}` — deliberately *not* the
//! full spec key — so a `MODEL_VERSION` bump alone does not invalidate
//! them: the wall asserts *results*, and `MODEL_VERSION` bumps exactly
//! when results legitimately change. When that happens (e.g. the sketch
//! hash family changed under MODEL_VERSION 4; a future family change
//! edits `ltc_stream::hash::index`/`spread` and bumps both `HASH_CODE`
//! and `MODEL_VERSION`), regenerate the affected snapshot in the same
//! change as the bump:
//!
//! ```text
//! LTC_UPDATE_GOLDEN=1 cargo test -p ltc_bench --test golden_reports
//! ```
//!
//! and say so in the commit. A regeneration without a version bump (or
//! vice versa) is a review red flag — see EXPERIMENTS.md "Benchmarking
//! & perf trajectory".

use std::path::PathBuf;

use ltc_sim::engine::{BackendKind, EngineOptions, ResultSet, RunSpec, Scheduler};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::serde_json;
use serde::{Serialize, Value};

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ltsim").to_string(), "worker".to_string()]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// The fig08-style slice: two benchmarks × two predictors, coverage.
fn fig08_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for bench in ["gcc", "mcf"] {
        for kind in [PredictorKind::LtCords, PredictorKind::DbcpUnlimited] {
            specs.push(RunSpec::coverage(bench, kind, 30_000, 1));
        }
    }
    specs
}

/// The table2-style slice: the baseline machine, coverage + timing.
fn table2_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for bench in ["gcc", "mcf", "art"] {
        specs.push(RunSpec::coverage(bench, PredictorKind::Baseline, 30_000, 1));
        specs.push(RunSpec::timing(bench, PredictorKind::Baseline, 15_000, 1));
    }
    specs
}

/// One stream/sketch report (the bounded-memory analysis path).
fn stream_specs() -> Vec<RunSpec> {
    vec![RunSpec::stream("mcf", 64 << 10, 60_000, 1)]
}

fn execute(specs: &[RunSpec], backend: BackendKind) -> ResultSet {
    let mut sched = Scheduler::new();
    sched.request_all(specs.iter().cloned());
    sched.execute(&EngineOptions::in_memory(3).with_backend(backend)).expect("engine execution")
}

/// Canonical serialized form of a spec set's results: one
/// `{"label":…,"result":…}` JSON line per spec, in the given order.
/// Labels (not full spec keys) keep the snapshot stable across
/// `MODEL_VERSION` bumps — see the module docs for the invalidation
/// rule.
fn canonical(specs: &[RunSpec], results: &ResultSet) -> String {
    let mut out = String::new();
    for spec in specs {
        let result = results.get(spec).unwrap_or_else(|| panic!("missing {}", spec.label()));
        let line = Value::Map(vec![
            ("label".to_string(), Value::Str(spec.label())),
            ("result".to_string(), result.to_value()),
        ]);
        out.push_str(&serde_json::to_string(&line));
        out.push('\n');
    }
    out
}

/// Asserts `specs`' results (threads backend) match the committed
/// golden byte for byte, or rewrites it under `LTC_UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, specs: &[RunSpec]) {
    let results = execute(specs, BackendKind::Threads);
    let actual = canonical(specs, &results);
    let path = golden_path(name);
    if std::env::var_os("LTC_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); regenerate with LTC_UPDATE_GOLDEN=1 \
             cargo test -p ltc_bench --test golden_reports",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden report {name} drifted — a kernel change altered simulation results. \
         If the change is intentional, bump MODEL_VERSION and regenerate with \
         LTC_UPDATE_GOLDEN=1 (see tests/golden_reports.rs module docs)."
    );
}

#[test]
fn fig08_coverage_matches_golden() {
    assert_golden("fig08_coverage.json", &fig08_specs());
}

#[test]
fn table2_baseline_matches_golden() {
    assert_golden("table2_baseline.json", &table2_specs());
}

#[test]
fn stream_report_matches_golden() {
    assert_golden("stream.json", &stream_specs());
}

/// Every golden spec set serializes byte-identically whichever backend
/// executed it — the thread pool or subprocess workers over the JSON
/// protocol. Combined with the snapshot asserts above, this pins the
/// whole matrix: optimized kernels × both backends × committed bytes.
#[test]
fn golden_reports_identical_across_all_backends() {
    let sets: Vec<Vec<RunSpec>> = vec![fig08_specs(), table2_specs(), stream_specs()];
    for specs in &sets {
        let reference = canonical(specs, &execute(specs, BackendKind::Threads));
        let subprocess = canonical(
            specs,
            &execute(specs, BackendKind::Subprocess { command: worker_command() }),
        );
        assert_eq!(reference, subprocess, "threads vs subprocess bytes differ for {specs:?}");
    }
}
