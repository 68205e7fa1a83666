//! The `results/` artifact cache and serialized export formats.
//!
//! Layout: one file per run at `<dir>/<fnv1a64(spec key)>.json`, holding a
//! single JSON line `{"spec": ..., "result": ...}`. The spec is stored
//! alongside the result so a load can verify the file really belongs to
//! the requested spec (hash collisions or stale files degrade to cache
//! misses, never to wrong data), and so the directory is self-describing:
//! `cat results/*.json` is a valid JSON-lines dump of every run.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Value};

use crate::engine::fsutil;
use crate::engine::result::RunResult;
use crate::engine::spec::RunSpec;

/// The artifact path for a spec.
pub fn path_for(dir: &Path, spec: &RunSpec) -> PathBuf {
    dir.join(format!("{}.json", spec.hash_hex()))
}

/// One `{"spec": ..., "result": ...}` JSON line.
pub fn json_line(spec: &RunSpec, result: &RunResult) -> String {
    serde_json::to_string(&Value::Map(vec![
        ("spec".to_string(), serde_json::to_value(spec)),
        ("result".to_string(), serde_json::to_value(result)),
    ]))
}

/// Writes the artifact for one run (creates `dir` as needed).
///
/// The write is atomic and durable ([`fsutil::write_atomic`]): a worker
/// killed mid-store — a crash, a chaos-test injection, a timeout kill —
/// can never leave a truncated `results/*.json` behind, only a staging
/// file the next startup sweeps.
///
/// # Errors
///
/// Returns any filesystem error.
pub fn store(dir: &Path, spec: &RunSpec, result: &RunResult) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut line = json_line(spec, result);
    line.push('\n');
    fsutil::write_atomic(&path_for(dir, spec), line.as_bytes())
}

/// Loads the artifact for `spec`, verifying the stored spec matches.
///
/// Returns `Ok(None)` when the file is absent, unparsable (malformed
/// JSON or not UTF-8), or belongs to a different spec — all degrade to a
/// cache miss so the engine re-simulates and overwrites.
///
/// # Errors
///
/// Returns filesystem errors other than "not found".
pub fn load(dir: &Path, spec: &RunSpec) -> io::Result<Option<RunResult>> {
    let text = match fs::read_to_string(path_for(dir, spec)) {
        Ok(text) => text,
        // `read_to_string` reports non-UTF-8 content as `InvalidData`.
        Err(e) if matches!(e.kind(), io::ErrorKind::NotFound | io::ErrorKind::InvalidData) => {
            return Ok(None)
        }
        Err(e) => return Err(e),
    };
    let Ok(value) = serde_json::parse(text.trim()) else { return Ok(None) };
    let stored_spec = value.get("spec").map(RunSpec::from_value);
    if !matches!(stored_spec, Some(Ok(s)) if s == *spec) {
        return Ok(None);
    }
    match value.get("result").map(RunResult::from_value) {
        Some(Ok(result)) => Ok(Some(result)),
        _ => Ok(None),
    }
}

/// Flattens `(spec, result)` pairs into CSV.
///
/// Nested maps flatten to dot-joined column names (`result.traffic.
/// sequence_read_bytes`); the column set is the first-seen union across
/// rows, so heterogeneous modes can share one file with blanks where a
/// column does not apply. Sequences (histogram buckets) serialize as a
/// quoted JSON array in their cell.
pub fn to_csv<'a>(rows: impl IntoIterator<Item = (&'a RunSpec, &'a RunResult)>) -> String {
    let mut columns: Vec<String> = Vec::new();
    let mut flat_rows: Vec<Vec<(String, String)>> = Vec::new();
    for (spec, result) in rows {
        let mut cells = Vec::new();
        flatten("spec", &serde_json::to_value(spec), &mut cells);
        flatten("result", &serde_json::to_value(result), &mut cells);
        for (name, _) in &cells {
            if !columns.contains(name) {
                columns.push(name.clone());
            }
        }
        flat_rows.push(cells);
    }
    let mut out = String::new();
    out.push_str(&columns.iter().map(|c| csv_cell(c)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for cells in flat_rows {
        let row: Vec<String> = columns
            .iter()
            .map(|col| {
                cells
                    .iter()
                    .find(|(name, _)| name == col)
                    .map(|(_, v)| csv_cell(v))
                    .unwrap_or_default()
            })
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn flatten(prefix: &str, value: &Value, out: &mut Vec<(String, String)>) {
    match value {
        Value::Map(entries) => {
            for (k, v) in entries {
                flatten(&format!("{prefix}.{k}"), v, out);
            }
        }
        Value::Null => out.push((prefix.to_string(), String::new())),
        Value::Str(s) => out.push((prefix.to_string(), s.clone())),
        scalar_or_seq => out.push((prefix.to_string(), serde_json::to_string(scalar_or_seq))),
    }
}

fn csv_cell(raw: &str) -> String {
    if raw.contains([',', '"', '\n']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MultiProgReport, PredictorKind};
    use ltc_analysis::CoverageReport;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ltc-artifact-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (RunSpec, RunResult) {
        let spec = RunSpec::coverage("gzip", PredictorKind::LtCords, 10_000, 1);
        let result = RunResult::Coverage(CoverageReport {
            predictor: "lt-cords".into(),
            accesses: 7_500,
            base_l1_misses: 100,
            correct: 42,
            ..Default::default()
        });
        (spec, result)
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let (spec, result) = sample();
        store(&dir, &spec, &result).unwrap();
        assert_eq!(load(&dir, &spec).unwrap(), Some(result));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_and_corrupt_artifacts_are_misses() {
        let dir = tmp_dir("corrupt");
        let (spec, result) = sample();
        assert_eq!(load(&dir, &spec).unwrap(), None);
        store(&dir, &spec, &result).unwrap();
        fs::write(path_for(&dir, &spec), "not json").unwrap();
        assert_eq!(load(&dir, &spec).unwrap(), None);
        fs::write(path_for(&dir, &spec), b"\xff\xfe\x00garbage").unwrap();
        assert_eq!(load(&dir, &spec).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_of_a_real_partial_artifact_is_a_miss() {
        let dir = tmp_dir("truncated");
        let spec = RunSpec::stream_segment("gzip", 4 << 10, 2, 1, 2_000, 1);
        let result = spec.execute();
        assert_eq!(result.kind(), "stream-partial");
        let line = json_line(&spec, &result);
        store(&dir, &spec, &result).unwrap();
        assert_eq!(load(&dir, &spec).unwrap(), Some(result));
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            fs::write(path_for(&dir, &spec), &line[..end]).unwrap();
            assert_eq!(load(&dir, &spec).unwrap(), None, "prefix of {end} bytes");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_spec_in_file_is_a_miss() {
        let dir = tmp_dir("mismatch");
        let (spec, result) = sample();
        let other = RunSpec::coverage("mcf", PredictorKind::LtCords, 10_000, 1);
        store(&dir, &spec, &result).unwrap();
        // Copy gzip's artifact over mcf's slot: the stored spec disagrees.
        fs::copy(path_for(&dir, &spec), path_for(&dir, &other)).unwrap();
        assert_eq!(load(&dir, &other).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_flattens_nested_reports() {
        let (spec, result) = sample();
        let mspec = RunSpec::multiprog("gcc", Some("mcf"), PredictorKind::LtCords, 10_000, 1);
        let mresult = RunResult::MultiProg(MultiProgReport { focus_misses: 10, eliminated: 5 });
        let csv = to_csv([(&spec, &result), (&mspec, &mresult)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("spec.model_version,spec.benchmark"));
        assert!(lines[0].contains("result.data.correct"));
        assert!(lines[0].contains("result.data.eliminated"));
        let version = crate::engine::spec::MODEL_VERSION;
        assert!(lines[1].starts_with(&format!("{version},gzip,")));
        assert!(lines[2].starts_with(&format!("{version},gcc,")));
    }
}
