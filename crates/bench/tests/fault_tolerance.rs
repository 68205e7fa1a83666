//! End-to-end fault-tolerance checks against the real built binary:
//! a chaos run (`LTC_FAULT_INJECT=exit-after:N`) must complete through
//! supervision with artifacts byte-identical to a fault-free pass, and
//! a hung worker must surface as a typed timeout error once the retry
//! budget is spent — never a panic, never silent truncation.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

fn ltsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ltsim"))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ltc-fault-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The artifact files under `dir` as `name -> bytes` (deterministic
/// order so two runs compare directly).
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("artifact dir") {
        let entry = entry.unwrap();
        if entry.path().extension().is_some_and(|e| e == "json") {
            out.insert(
                entry.file_name().to_string_lossy().into_owned(),
                fs::read(entry.path()).unwrap(),
            );
        }
    }
    out
}

/// Stdout with the timing-dependent trailer lines (`summary: ... in
/// 1.2s`, `events: ... bytes`) stripped; everything else is
/// deterministic simulation output.
fn stable_stdout(raw: &[u8]) -> String {
    String::from_utf8_lossy(raw)
        .lines()
        .filter(|l| !l.starts_with("summary:") && !l.starts_with("events:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Workers killed mid-batch (`exit-after:2` makes every child die after
/// its second answer) are respawned and their in-flight specs requeued:
/// the run still succeeds, prints the same tables, and stores
/// byte-identical artifacts — the paper's figures cannot depend on
/// whether the batch hit faults.
#[test]
fn chaos_run_matches_a_fault_free_run_byte_for_byte() {
    let clean_dir = tmp_dir("clean");
    let fault_dir = tmp_dir("fault");
    let events_path = tmp_dir("events-log").with_extension("jsonl");
    let stream_args = |dir: &Path| {
        vec![
            "stream".to_string(),
            "all".to_string(),
            "--accesses".to_string(),
            "6000".to_string(),
            "--threads".to_string(),
            "2".to_string(),
            "--backend".to_string(),
            "subprocess".to_string(),
            "--progress".to_string(),
            "off".to_string(),
            "--out".to_string(),
            dir.display().to_string(),
        ]
    };

    let clean = ltsim()
        .args(stream_args(&clean_dir))
        .env_remove("LTC_FAULT_INJECT")
        .output()
        .expect("run ltsim stream");
    assert!(clean.status.success(), "clean run failed: {}", String::from_utf8_lossy(&clean.stderr));

    let mut fault_args = stream_args(&fault_dir);
    fault_args.extend(["--events".to_string(), events_path.display().to_string()]);
    // The env propagates to the spawned `ltsim worker` children; each
    // one exits abruptly (status 17, no EOF handshake) after answering
    // two specs, so the batch only finishes through respawn + requeue.
    let fault = ltsim()
        .args(fault_args)
        .env("LTC_FAULT_INJECT", "exit-after:2")
        .output()
        .expect("run ltsim stream under fault injection");
    assert!(
        fault.status.success(),
        "fault-injected run failed: {}",
        String::from_utf8_lossy(&fault.stderr)
    );

    assert_eq!(
        stable_stdout(&clean.stdout),
        stable_stdout(&fault.stdout),
        "tables must not depend on faults"
    );
    let clean_artifacts = artifacts(&clean_dir);
    let fault_artifacts = artifacts(&fault_dir);
    assert!(!clean_artifacts.is_empty(), "the run must store artifacts");
    assert_eq!(clean_artifacts, fault_artifacts, "artifacts must be byte-identical");
    // No staging leftovers: every tmp file was renamed or cleaned up.
    let leftovers: Vec<_> = fs::read_dir(&fault_dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "stale staging files: {leftovers:?}");

    // The fault paths left their telemetry trail, and `ltsim events
    // summarize` renders it as the fault histogram.
    let log = fs::read_to_string(&events_path).expect("event log");
    assert!(log.contains("\"worker.respawn\""), "respawns must be recorded");
    assert!(log.contains("\"spec.retry\""), "retries must be recorded");
    let summary = ltsim()
        .args(["events", "summarize", &events_path.display().to_string()])
        .output()
        .expect("run ltsim events summarize");
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout).into_owned();
    assert!(text.contains("worker.respawn"), "fault histogram missing:\n{text}");
    assert!(text.contains("spec.retry"), "fault histogram missing:\n{text}");

    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&fault_dir);
    let _ = fs::remove_file(&events_path);
}

/// A worker that hangs forever is killed at the `--spec-timeout`
/// deadline; with the retry budget exhausted the run fails with a typed
/// timeout error naming the spec — instead of blocking the batch
/// indefinitely. The failed run still flushes its event log, timeout
/// point included, and prints no end-of-run summary.
#[test]
fn hung_worker_times_out_with_a_typed_error() {
    let out_dir = tmp_dir("hang");
    let events = out_dir.join("events.jsonl");
    let output = ltsim()
        .args([
            "stream",
            "gzip",
            "--accesses",
            "4000",
            "--threads",
            "1",
            "--backend",
            "subprocess",
            "--progress",
            "off",
            "--spec-timeout",
            "0.5",
            "--retries",
            "0",
            "--out",
            &out_dir.display().to_string(),
            "--events",
            &events.display().to_string(),
        ])
        .env("LTC_FAULT_INJECT", "hang-before:1")
        .output()
        .expect("run ltsim stream with a hung worker");
    assert!(!output.status.success(), "a hung batch must fail, not hang");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("timed out"), "error must name the timeout: {stderr}");
    assert!(stderr.contains("gzip"), "error must name the lost spec: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("summary:"), "a failed run prints no summary: {stdout}");

    let log = fs::read_to_string(&events).expect("the failed run's event log");
    let timeouts: Vec<_> = log
        .lines()
        .map(|line| ltc_sim::engine::eventlog::decode(line).expect("event line decodes"))
        .filter(|e| e.name == "spec.timeout")
        .collect();
    assert_eq!(timeouts.len(), 1, "the log holds the timeout point:\n{log}");
    let label = timeouts[0].field("label").and_then(|l| l.as_str()).unwrap_or_default();
    assert!(label.contains("gzip"), "{label}");
    let summary = ltsim().args(["events", "summarize"]).arg(&events).output().unwrap();
    assert!(summary.status.success());
    let summary = String::from_utf8_lossy(&summary.stdout);
    let row = summary.lines().find(|l| l.starts_with("spec.timeout"));
    assert!(row.is_some_and(|r| r.ends_with(" 1")), "fault histogram lists it:\n{summary}");
    let _ = fs::remove_dir_all(&out_dir);
}

/// The worst chaos schedule still converges with a zero retry budget:
/// before a spec's last permitted attempt the supervisor recycles to a
/// fresh child (final-attempt isolation), and a fresh `exit-after:1`
/// child always answers once before dying — so serial worker deaths
/// between every pair of specs cannot exhaust the budget. The engine's
/// `--progress plain` renderer counts each completion once.
#[test]
fn final_attempt_isolation_converges_with_zero_retries() {
    let out_dir = tmp_dir("budget");
    let output = ltsim()
        .args([
            "stream",
            "gzip",
            "--accesses",
            "4000",
            "--segments",
            "3",
            "--threads",
            "1",
            "--backend",
            "subprocess",
            "--progress",
            "plain",
            "--retries",
            "0",
            "--out",
            &out_dir.display().to_string(),
        ])
        // Every child dies right after its first answer: each of the
        // three segment specs costs one respawn, none gets a retry.
        .env("LTC_FAULT_INJECT", "exit-after:1")
        .output()
        .expect("run ltsim stream with a zero retry budget");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "isolation must carry the batch: {stderr}");
    assert!(!stderr.contains("panicked"), "no panics on the fault path: {stderr}");
    assert_eq!(stderr.matches("/3] stream[").count(), 3, "one progress line per spec: {stderr}");
    assert!(!artifacts(&out_dir).is_empty(), "the run must store artifacts");
    let _ = fs::remove_dir_all(&out_dir);
}
