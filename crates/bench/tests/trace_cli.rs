//! `ltsim record`, `ltsim replay` and `ltsim stream`'s outside inputs
//! against the real built binary: a recording into a directory that does
//! not exist yet round-trips, every file failure exits 1 with an error
//! that names the file, and an out-of-range `--budget` exits 1 with an
//! error that names the bound.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ltsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ltsim")).args(args).output().expect("run ltsim")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltc-trace-cli-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Asserts `out` is a failure (exit 1) whose stderr names `path` and
/// contains `message`.
fn assert_fails(out: &Output, path: &Path, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(path_str(path)), "error does not name {}: {stderr}", path.display());
    assert!(stderr.contains(message), "expected {message:?} in: {stderr}");
}

#[test]
fn record_creates_missing_directories_and_replay_reads_the_file() {
    let dir = tmp_dir("round-trip");
    let trace = dir.join("nested").join("gcc.ltct");
    let out = ltsim(&["record", "gcc", path_str(&trace), "2000", "7"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("recorded 2000 accesses of gcc"));
    assert_eq!(fs::metadata(&trace).unwrap().len(), 16 + 2000 * 21);

    let out = ltsim(&["replay", path_str(&trace), "lt-cords"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("under lt-cords"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_errors_name_the_file() {
    let dir = tmp_dir("bad-inputs");
    fs::create_dir_all(&dir).unwrap();

    let missing = dir.join("missing.ltct");
    assert_fails(&ltsim(&["replay", path_str(&missing)]), &missing, "No such file");

    let truncated = dir.join("truncated.ltct");
    assert!(ltsim(&["record", "gzip", path_str(&truncated), "100"]).status.success());
    let mut bytes = fs::read(&truncated).unwrap();
    bytes.pop();
    fs::write(&truncated, bytes).unwrap();
    assert_fails(&ltsim(&["replay", path_str(&truncated)]), &truncated, "trace ends mid-record");

    let garbage = dir.join("garbage.ltct");
    fs::write(&garbage, vec![0x5a; 64]).unwrap();
    assert_fails(&ltsim(&["replay", path_str(&garbage)]), &garbage, "not an LT-cords trace file");

    let short = dir.join("short.ltct");
    fs::write(&short, b"LTC").unwrap();
    assert_fails(&ltsim(&["replay", path_str(&short)]), &short, "truncated trace header");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn record_errors_name_the_file() {
    let dir = tmp_dir("blocked");
    fs::create_dir_all(&dir).unwrap();
    // A regular file where the output's parent directory should be.
    let blocker = dir.join("file");
    fs::write(&blocker, b"").unwrap();
    let out = ltsim(&["record", "gzip", path_str(&blocker.join("t.ltct")), "100"]);
    assert_fails(&out, &blocker, "error:");
    let _ = fs::remove_dir_all(&dir);
}

/// `/dev/full` accepts the open and fails every write: the error must
/// reach the exit status instead of vanishing when the buffered writer
/// is dropped.
#[cfg(target_os = "linux")]
#[test]
fn record_into_a_full_device_fails() {
    let full = Path::new("/dev/full");
    assert_fails(&ltsim(&["record", "gzip", "/dev/full", "100"]), full, "No space left");
}

/// An event log that cannot be written fails the run, naming the log,
/// and the run reports no events as written.
#[cfg(target_os = "linux")]
#[test]
fn stream_events_into_a_full_device_fail() {
    let out = ltsim(&["stream", "mcf", "--accesses", "20000", "--events", "/dev/full"]);
    assert_fails(&out, Path::new("/dev/full"), "No space left");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("events:"));
}

/// `--budget` stops at 1 GiB, and a suffix that overflows the byte count
/// is refused against the same bound instead of wrapping.
#[test]
fn stream_budget_above_one_gib_fails() {
    for budget in ["99999999999m", "17592186044417m", "1025m"] {
        let out = ltsim(&["stream", "mcf", "--budget", budget, "--accesses", "1000"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--budget {budget}: {stderr}");
        assert!(stderr.contains("1073741824"), "--budget {budget} names no bound: {stderr}");
    }
}
