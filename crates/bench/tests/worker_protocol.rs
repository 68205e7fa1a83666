//! End-to-end checks of the `ltsim worker` protocol and of backend
//! parity (threads vs subprocess), using the real built binary via
//! `CARGO_BIN_EXE_ltsim`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Mutex;

use ltc_bench::harness;
use ltc_bench::Scale;
use ltc_sim::engine::{
    eventlog, BackendKind, EngineOptions, FaultPolicy, ResultSet, RunObserver, RunResult, RunSpec,
    Scheduler,
};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::serde_json;
use ltc_telemetry::{Event, EventKind, FieldValue};

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ltsim").to_string(), "worker".to_string()]
}

/// `ltsim worker` round-trips `RunSpec` JSON lines from stdin to
/// `RunResult` JSON lines on stdout — one answer per request, matching
/// in-process execution exactly — and exits cleanly when stdin closes.
#[test]
fn worker_round_trips_spec_lines() {
    let specs = [
        RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1),
        RunSpec::timing("mesa", PredictorKind::LtCords, 3_000, 2),
        RunSpec::dead_time("swim", 4_000, 1),
        RunSpec::stream("mcf", 64 << 10, 4_000, 1),
        // A segment child: the partial sketch summaries travel back over
        // the protocol as a `stream-partial` result line.
        RunSpec::stream_segment("mcf", 64 << 10, 4, 1, 4_000, 1),
    ];
    let cmd = worker_command();
    let mut child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ltsim worker");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    for spec in &specs {
        writeln!(stdin, "{}", spec.key()).unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "worker must answer every spec");
        let result: RunResult = serde_json::from_str(line.trim()).expect("RunResult JSON line");
        assert_eq!(result, spec.execute(), "worker diverged on {}", spec.key());
    }

    drop(stdin);
    let status = child.wait().unwrap();
    assert!(status.success(), "worker must exit cleanly at EOF, got {status}");
}

/// With `LTC_TELEMETRY_WIRE` set, the worker interleaves plain event
/// lines with its one result line: every other stdout line decodes with
/// the shared event decoder, the `worker.spec` span balances, and a
/// non-zero segment reports how it placed itself (a replay here: no
/// slice-start stores are offered).
#[test]
fn worker_wire_interleaves_decodable_event_lines() {
    let spec = RunSpec::stream_segment("mcf", 64 << 10, 4, 2, 4_000, 1);
    let cmd = worker_command();
    let mut child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .env(eventlog::WIRE_ENV, "1")
        .env_remove("LTC_CHECKPOINT_DIR")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ltsim worker");
    writeln!(child.stdin.take().unwrap(), "{}", spec.key()).unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "worker must exit cleanly at EOF");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let (results, events): (Vec<&str>, Vec<&str>) =
        stdout.lines().partition(|line| !eventlog::is_event_line(line));
    assert_eq!(results.len(), 1, "exactly one result line:\n{stdout}");
    let result: RunResult = serde_json::from_str(results[0]).expect("RunResult JSON line");
    assert_eq!(result, spec.execute());
    let events: Vec<Event> =
        events.iter().map(|line| eventlog::decode(line).expect("event line decodes")).collect();
    let spans: Vec<_> = events.iter().filter(|e| e.name == "worker.spec").collect();
    assert_eq!(spans.len(), 2, "one worker.spec span: {spans:?}");
    assert_eq!((spans[0].kind, spans[1].kind), (EventKind::SpanBegin, EventKind::SpanEnd));
    assert!(spans[0].span.is_some() && spans[0].span == spans[1].span, "{spans:?}");
    assert_eq!(spans[0].field("label"), Some(&FieldValue::from(spec.label())));
    let restore = events.iter().find(|e| e.name == "segment_restore").expect("a restore point");
    assert_eq!(restore.kind, EventKind::Point);
    assert_eq!(restore.field("index").and_then(FieldValue::as_u64), Some(2));
    assert_eq!(restore.field("outcome").and_then(FieldValue::as_str), Some("replay"));
    assert_eq!(restore.field("reason").and_then(FieldValue::as_str), Some("missing"));
    // The result line is the last one: the span ends before it is written.
    assert!(!eventlog::is_event_line(stdout.lines().last().unwrap()));
}

/// A malformed spec line is a protocol error: the worker reports it on
/// stderr and exits 1 instead of guessing. A line nested far past the
/// JSON parser's depth limit is the same error, not a stack overflow.
#[test]
fn worker_rejects_garbage_lines() {
    let cmd = worker_command();
    for line in ["this is not a spec".to_string(), "[".repeat(200_000)] {
        let mut child = Command::new(&cmd[0])
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ltsim worker");
        writeln!(child.stdin.take().unwrap(), "{line}").unwrap();
        let output = child.wait_with_output().unwrap();
        assert_eq!(output.status.code(), Some(1), "garbage must not be answered");
        assert!(output.stdout.is_empty(), "no result line may be emitted");
        assert!(String::from_utf8_lossy(&output.stderr).contains("bad RunSpec line"));
    }
}

/// Every strict prefix of a real spec line and of a real result line —
/// what a reader sees when the other end dies mid-write — fails to parse
/// as its type; it never panics or yields a value.
#[test]
fn truncated_protocol_lines_are_errors() {
    let spec = RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1);
    let spec_line = spec.key();
    let result_line = serde_json::to_string(&spec.execute());
    assert_eq!(serde_json::from_str::<RunSpec>(&spec_line).unwrap(), spec);
    assert_eq!(serde_json::from_str::<RunResult>(&result_line).unwrap(), spec.execute());
    for (cut, _) in spec_line.char_indices() {
        assert!(serde_json::from_str::<RunSpec>(&spec_line[..cut]).is_err(), "spec cut at {cut}");
    }
    for (cut, _) in result_line.char_indices() {
        assert!(
            serde_json::from_str::<RunResult>(&result_line[..cut]).is_err(),
            "result cut at {cut}"
        );
    }
}

/// A spec from a different model version is refused, not simulated: a
/// worker built from other model code answering under the new version's
/// cache key would be exactly the stale-model aliasing `model_version`
/// exists to prevent.
#[test]
fn worker_rejects_model_version_mismatch() {
    let mut spec = RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1);
    spec.model_version += 1;
    let cmd = worker_command();
    let mut child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ltsim worker");
    writeln!(child.stdin.take().unwrap(), "{}", spec.key()).unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(!output.status.success(), "mismatched model_version must not be answered");
    assert!(output.stdout.is_empty(), "no result line may be emitted");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("model_version"), "diagnostic should name the field: {stderr}");
}

/// Both backends seed the pool's one queue longest-first: one worker,
/// whether it runs specs in process or through its child, completes the
/// timing runs first, the longer one leading, and the equal-cost
/// coverage runs in request order.
#[test]
fn one_subprocess_worker_runs_specs_longest_first() {
    #[derive(Default)]
    struct Order(Mutex<Vec<String>>);
    impl RunObserver for Order {
        fn finished(&self, spec: &RunSpec, _: &RunResult) {
            self.0.lock().unwrap().push(spec.key());
        }
    }
    let specs = [
        RunSpec::coverage("gzip", PredictorKind::Baseline, 1_000, 1),
        RunSpec::timing("mcf", PredictorKind::Baseline, 1_000, 1),
        RunSpec::coverage("art", PredictorKind::Baseline, 1_000, 1),
        RunSpec::timing("mesa", PredictorKind::Baseline, 2_000, 1),
    ];
    let expected: Vec<String> = [3, 1, 0, 2].iter().map(|&i| specs[i].key()).collect();
    for backend in [BackendKind::Threads, BackendKind::Subprocess { command: worker_command() }] {
        let order = Order::default();
        backend.execute(1, &FaultPolicy::default(), &specs, &order).unwrap();
        assert_eq!(order.0.into_inner().unwrap(), expected, "{}", backend.name());
    }
}

/// The same plan through all three execution configurations — a
/// one-thread pool, a three-thread pool and three subprocess workers —
/// yields identical `ResultSet`s and, therefore, byte-identical rendered
/// tables.
#[test]
fn all_three_backends_render_identical_tables() {
    let scale = Scale { coverage_accesses: 20_000, timing_accesses: 10_000 };
    let figures = [harness::by_name("fig08").unwrap(), harness::by_name("table2").unwrap()];
    // A one-thread pool runs strictly longest-first; the three-thread
    // pool and the subprocess workers interleave.
    let configs = [
        (1, BackendKind::Threads),
        (3, BackendKind::Threads),
        (3, BackendKind::Subprocess { command: worker_command() }),
    ];

    let mut rendered: Vec<Vec<String>> = Vec::new();
    let mut simulated = Vec::new();
    for (threads, backend) in configs {
        let opts = EngineOptions::in_memory(threads).with_backend(backend);
        let mut results = ResultSet::new();
        harness::collect(&figures, scale, &opts, &mut results).expect("backend execution");
        simulated.push(results.simulated());
        rendered.push(figures.iter().map(|def| (def.render)(scale, &results)).collect());
    }
    assert_eq!(simulated[0], simulated[1]);
    assert_eq!(simulated[1], simulated[2]);
    assert_eq!(rendered[0], rendered[1], "one vs three threads tables differ");
    assert_eq!(rendered[1], rendered[2], "threads vs subprocess tables differ");
}

/// Segmented streaming across both backends: the per-segment
/// partial summaries — serialized sketch state — round-trip over the
/// worker protocol, and the merged reports are byte-for-byte identical
/// canonical JSON whichever backend ran the segments (completing the
/// parity matrix started in `crates/sim/tests/backends.rs`).
#[test]
fn segmented_stream_reports_identical_across_all_backends() {
    let specs = [
        RunSpec::stream_segmented("mcf", 64 << 10, 4, 8_000, 1),
        RunSpec::stream_segmented("swim", 64 << 10, 3, 8_000, 1),
    ];
    let backends = [BackendKind::Threads, BackendKind::Subprocess { command: worker_command() }];
    let mut rendered: Vec<Vec<String>> = Vec::new();
    for backend in backends {
        let mut sched = Scheduler::new();
        sched.request_all(specs.iter().cloned());
        let results = sched.execute(&EngineOptions::in_memory(3).with_backend(backend)).unwrap();
        assert_eq!(results.simulated(), 7, "4 + 3 segment children, parents reduced");
        rendered.push(
            specs
                .iter()
                .map(|spec| serde_json::to_string(results.get(spec).expect("merged report")))
                .collect(),
        );
    }
    assert_eq!(rendered[0], rendered[1], "threads vs subprocess merged reports differ");
}

/// Shape checking survives the worker protocol: partial summaries that
/// crossed the subprocess boundary still carry their construction shape,
/// so merging two workers' partials from differently-configured runs is
/// the same typed `MergeError` it would be in process — not a panic, not
/// silent corruption.
#[test]
fn worker_partials_keep_their_shape_across_the_protocol() {
    let small = RunSpec::stream_segment("mcf", 64 << 10, 2, 0, 4_000, 1);
    let large = RunSpec::stream_segment("mcf", 128 << 10, 2, 1, 4_000, 1);
    let opts = EngineOptions::in_memory(2)
        .with_backend(BackendKind::Subprocess { command: worker_command() });
    let mut sched = Scheduler::new();
    sched.request(small.clone());
    sched.request(large.clone());
    let results = sched.execute(&opts).unwrap();
    let a = results.stream_partial(&small).clone();
    let b = results.stream_partial(&large).clone();
    let err = ltc_sim::analysis::merge_partials(&[a, b]).unwrap_err();
    assert!(
        matches!(err, ltc_sim::stream::MergeError::Shape { .. }),
        "expected a typed shape error, got {err}"
    );
    assert!(err.to_string().contains("cannot merge"), "{err}");
}

/// Every file under `dir`, keyed by its path relative to `root`.
fn tree(root: &Path, dir: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
    for entry in std::fs::read_dir(dir).expect("readable output dir") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            tree(root, &path, files);
        } else {
            let name = path.strip_prefix(root).unwrap().display().to_string();
            files.insert(name, std::fs::read(&path).unwrap());
        }
    }
}

/// The checkpoint/warm-image pre-pass records traces in parallel on
/// `--threads` workers, yet one and three threads leave byte-identical
/// output trees, the stores under `checkpoints/` included. Each run's
/// event log goes into a directory that does not exist yet.
#[test]
fn segmented_runs_write_identical_trees_at_any_thread_count() {
    let root = std::env::temp_dir().join(format!("ltc-prepass-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |threads: &str| {
        let out = root.join(format!("out-{threads}"));
        let events = root.join(format!("new-{threads}")).join("dir").join("ev.jsonl");
        let status = Command::new(env!("CARGO_BIN_EXE_ltsim"))
            .args(["stream", "all", "--accesses", "8000", "--segments", "4"])
            .args(["--threads", threads, "--progress", "off", "--out"])
            .arg(&out)
            .arg("--events")
            .arg(&events)
            .env_remove("LTC_CHECKPOINT_DIR")
            .stdout(Stdio::null())
            .status()
            .expect("run ltsim stream");
        assert!(status.success(), "ltsim stream --threads {threads} failed: {status}");
        assert!(events.is_file(), "--events creates the missing directories");
        let mut files = BTreeMap::new();
        tree(&out, &out, &mut files);
        files
    };
    let one = run("1");
    assert!(one.keys().any(|name| name.starts_with("checkpoints")), "the pre-pass wrote stores");
    assert!(one == run("3"), "output trees differ between 1 and 3 threads");
    let _ = std::fs::remove_dir_all(&root);
}

/// Subprocess workers restore every non-zero segment from the slice-start
/// pair the pre-pass recorded. Byte identity alone cannot tell a fast
/// path that has silently stopped firing from the replay it replaces.
#[test]
fn subprocess_segments_restore_their_slice_starts() {
    let root = std::env::temp_dir().join(format!("ltc-restore-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let events = root.join("events.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_ltsim"))
        .args(["stream", "all", "--accesses", "8000", "--segments", "4"])
        .args(["--backend", "subprocess", "--threads", "2", "--progress", "off", "--out"])
        .arg(root.join("out"))
        .arg("--events")
        .arg(&events)
        .env_remove("LTC_CHECKPOINT_DIR")
        .stdout(Stdio::null())
        .status()
        .expect("run ltsim stream");
    assert!(status.success(), "ltsim stream failed: {status}");
    let text = std::fs::read_to_string(&events).expect("event log written");
    let mut restores = 0;
    for line in text.lines() {
        let event = eventlog::decode(line).expect("event line decodes");
        if event.name != "segment_restore" {
            continue;
        }
        let expected = match event.field("index").and_then(FieldValue::as_u64) {
            Some(0) => "cold_start",
            _ => "warm_image",
        };
        assert_eq!(event.field("outcome").and_then(FieldValue::as_str), Some(expected), "{line}");
        restores += 1;
    }
    assert_eq!(restores, 28 * 4, "one restore outcome per segment worker");
    let _ = std::fs::remove_dir_all(&root);
}

/// The subprocess transport honours the scheduler contract end to end:
/// dedup before dispatch, results keyed back to the right specs.
#[test]
fn subprocess_backend_dedupes_and_keys_results() {
    let mut sched = Scheduler::new();
    let shared = RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1);
    sched.request(shared.clone());
    sched.request(RunSpec::coverage("art", PredictorKind::Baseline, 4_000, 1));
    sched.request(shared.clone());
    let opts = EngineOptions::in_memory(2)
        .with_backend(BackendKind::Subprocess { command: worker_command() });
    let results = sched.execute(&opts).unwrap();
    assert_eq!(results.simulated(), 2, "duplicates must collapse before dispatch");
    assert!(results.coverage(&shared).base_l1_misses > 0);
}
