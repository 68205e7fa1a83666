//! The supervised worker pool that executes planned specs.
//!
//! The [`crate::engine::Scheduler`] *plans* — collects specs, dedupes
//! them, probes the artifact cache — and hands whatever must actually be
//! simulated to [`BackendKind::execute`]. That is one pool for both
//! backends: one shared queue, seeded with the estimated-longest specs
//! (timing runs) first so a straggler claimed late cannot serialize the
//! tail of the run, drained by `threads` copies of one claim loop. Only
//! how a worker runs one attempt differs:
//!
//! * [`BackendKind::Threads`] — the spec executes on the worker's own
//!   thread.
//! * [`BackendKind::Subprocess`] — each worker owns one `ltsim worker`
//!   child process speaking newline-delimited JSON ([`RunSpec`] in on
//!   stdin, [`RunResult`] out on stdout). This proves the spec wire
//!   format end to end; pointing the same protocol at a remote transport
//!   is the multi-machine path the ROADMAP names.
//!
//! Every worker runs under the same supervision discipline, governed by
//! a [`FaultPolicy`]: a spec whose attempt dies — a panic in process, or
//! a child that exits, breaks the protocol, or exceeds
//! [`FaultPolicy::spec_timeout`] — is requeued until its retry budget is
//! spent. Dead children are respawned with exponential backoff. Because
//! artifacts persist through the [`RunObserver`] as each spec completes
//! and segment partials are mergeable summaries, re-executing a lost
//! spec is idempotent by construction; the supervisor only supplies the
//! retry mechanics. When the budget is exhausted (or every worker has
//! retired) execution fails with a typed [`BackendError`] naming the
//! specs involved instead of panicking the pool. Fault paths emit
//! structured telemetry — `spec.retry` / `spec.timeout` points,
//! `worker.respawn` points, and `outcome`-tagged `spec` span ends — so
//! `ltsim events summarize` can report a fault histogram.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::panic::AssertUnwindSafe;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::eventlog;
use crate::engine::result::RunResult;
use crate::engine::spec::{Mode, RunSpec};

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// panicking. A worker that panicked mid-spec must not cascade into
/// every thread that later touches the same slot or queue — the
/// protected data here is always a write-once result slot, a spec
/// queue, or an insert-only registry, all safe to observe after a
/// peer's panic.
pub(crate) fn lock_recover<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Environment variable holding a fault-injection directive for tests
/// and chaos runs (`panic-once:<label substring>`, `exit-after:<n>`,
/// `hang-before:<n>`). See [`FaultInject::parse`].
pub const FAULT_INJECT_ENV: &str = "LTC_FAULT_INJECT";

/// Delay before the first respawn of a failed worker child; it doubles
/// per consecutive failure up to [`BACKOFF_CAP`], so a crash-looping
/// worker cannot hot-spin the pool.
const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Ceiling on the exponential respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Backoff before the `consecutive`-th (1-based) respawn in a row:
/// `BACKOFF_BASE * 2^(consecutive-1)`, capped at [`BACKOFF_CAP`].
fn backoff_for(consecutive: u32) -> Duration {
    let factor = 1u32 << consecutive.saturating_sub(1).min(16);
    BACKOFF_BASE.checked_mul(factor).map_or(BACKOFF_CAP, |d| d.min(BACKOFF_CAP))
}

/// How a run behaves when workers fail. Threaded from the `ltsim` CLI
/// (`--retries`, `--spec-timeout`) through
/// [`crate::engine::EngineOptions`] into the pool.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Extra attempts a spec gets after its first failed one (so a spec
    /// runs at most `retries + 1` times). Also bounds the *consecutive*
    /// failures one worker slot tolerates — spawn failures included —
    /// before it retires. `0` fails fast on the first fault.
    pub retries: u32,
    /// Wall-clock budget per spec attempt. Enforced on subprocess
    /// workers, whose children can be killed; an in-process worker runs
    /// trusted library code on a thread that cannot be safely
    /// interrupted, so it ignores it. `None` (the default) never times a
    /// spec out.
    pub spec_timeout: Option<Duration>,
    /// Injected fault for tests and chaos runs (see [`FaultInject`]).
    pub inject: Option<FaultInject>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { retries: 2, spec_timeout: None, inject: None }
    }
}

impl FaultPolicy {
    /// The default policy plus any [`FAULT_INJECT_ENV`] directive from
    /// the environment. Called by the CLI at startup — deliberately not
    /// by `Default`, so library tests running in parallel cannot race on
    /// process-global environment mutations.
    pub fn from_env() -> Self {
        let inject = std::env::var(FAULT_INJECT_ENV).ok().as_deref().and_then(FaultInject::parse);
        FaultPolicy { inject, ..FaultPolicy::default() }
    }
}

/// A deliberately injected fault, for exercising the supervision paths.
#[derive(Debug, Clone)]
pub enum FaultInject {
    /// In-process backend: panic inside the first executed spec whose
    /// label contains the substring — exactly once per policy (the
    /// `fired` flag is shared by every clone), so the retry must
    /// succeed.
    PanicOnce {
        /// Label substring selecting the victim spec.
        label: String,
        /// Set by the attempt that fires, making the injection one-shot.
        fired: Arc<AtomicBool>,
    },
    /// `ltsim worker`: exit abruptly (no EOF handshake) after answering
    /// this many specs. Every respawned child inherits the directive,
    /// so a chaos run kills workers continuously, not once.
    ExitAfter(u64),
    /// `ltsim worker`: hang instead of answering the n-th (1-based)
    /// spec, for exercising `--spec-timeout`.
    HangBefore(u64),
}

impl FaultInject {
    /// Parses a [`FAULT_INJECT_ENV`] directive: `panic-once:<substr>`,
    /// `exit-after:<n>`, or `hang-before:<n>` (`n` ≥ 1). Anything else
    /// is `None` — an unrecognized directive must not fail real runs.
    pub fn parse(directive: &str) -> Option<FaultInject> {
        let (kind, arg) = directive.split_once(':')?;
        match kind {
            "panic-once" => Some(FaultInject::PanicOnce {
                label: arg.to_string(),
                fired: Arc::new(AtomicBool::new(false)),
            }),
            "exit-after" => arg.parse().ok().filter(|&n| n >= 1).map(FaultInject::ExitAfter),
            "hang-before" => arg.parse().ok().filter(|&n| n >= 1).map(FaultInject::HangBefore),
            _ => None,
        }
    }
}

/// A typed execution failure: what was lost and why, instead of a
/// panicking pool or a stringly `io::Error`.
#[derive(Debug)]
pub enum BackendError {
    /// Transport-level failure outside any one spec's attempt (an empty
    /// worker command, protocol setup).
    Io(io::Error),
    /// One spec kept failing until its retry budget ran out.
    RetriesExhausted {
        /// The spec's canonical key.
        key: String,
        /// Attempts made (budget + 1).
        attempts: u32,
        /// The final attempt's failure.
        last_error: String,
    },
    /// One spec exceeded [`FaultPolicy::spec_timeout`] on its final
    /// permitted attempt.
    Timeout {
        /// The spec's canonical key.
        key: String,
        /// Attempts made (budget + 1).
        attempts: u32,
        /// The per-attempt budget that was exceeded.
        timeout: Duration,
    },
    /// Every worker retired (died faster than it could be respawned)
    /// with these specs never completed.
    LostSpecs {
        /// Canonical keys of the specs that never produced a result.
        keys: Vec<String>,
        /// Why the pool collapsed (e.g. the spawn error).
        reason: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Io(e) => write!(f, "backend transport error: {e}"),
            BackendError::RetriesExhausted { key, attempts, last_error } => write!(
                f,
                "spec {key} failed {attempts} attempt(s); retry budget exhausted: {last_error}"
            ),
            BackendError::Timeout { key, attempts, timeout } => write!(
                f,
                "spec {key} timed out on each of {attempts} attempt(s) of {:.3}s",
                timeout.as_secs_f64()
            ),
            BackendError::LostSpecs { keys, reason } => {
                write!(f, "{} spec(s) lost — {reason}: {}", keys.len(), keys.join(", "))
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BackendError {
    fn from(e: io::Error) -> Self {
        BackendError::Io(e)
    }
}

impl From<BackendError> for io::Error {
    /// Lets the scheduler keep its `io::Result` boundary: transport
    /// errors unwrap to their original kind, typed failures wrap as the
    /// error's source so callers can still downcast.
    fn from(e: BackendError) -> io::Error {
        match e {
            BackendError::Io(e) => e,
            other => io::Error::other(other),
        }
    }
}

/// Observes per-spec completions from inside backend workers.
/// Implementations must be `Sync`: completions arrive concurrently.
pub trait RunObserver: Sync {
    /// A worker finished `spec` with `result`. Fires exactly once per
    /// completed spec, however many attempts it took.
    fn finished(&self, spec: &RunSpec, result: &RunResult);
}

/// The no-op observer (tests, library callers without a cache).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn finished(&self, _: &RunSpec, _: &RunResult) {}
}

/// Which worker an [`crate::engine::EngineOptions`] selects: how
/// [`BackendKind::execute`] runs one attempt of a spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// On the pool's own threads.
    #[default]
    Threads,
    /// Through one `command` child process per worker.
    Subprocess {
        /// Worker argv, e.g. `["/path/to/ltsim", "worker"]`.
        command: Vec<String>,
    },
}

impl BackendKind {
    /// Short name for logs: the `--backend` value that selects it.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Threads => "threads",
            BackendKind::Subprocess { .. } => "subprocess",
        }
    }

    /// Executes every spec on `threads` workers (at least one, at most
    /// one per spec) supervised under `fault`, returning results in
    /// `specs` order.
    ///
    /// Every spec *completes* exactly once (failed attempts may precede
    /// the completion), and [`RunObserver::finished`] fires for each
    /// completed spec from the worker that produced it
    /// (`crates/sim/tests/backends.rs` checks this contract).
    ///
    /// # Errors
    ///
    /// Returns a typed [`BackendError`] when a spec's retry budget is
    /// exhausted, a spec times out, every worker retires, or the
    /// subprocess command is empty. Specs completed before the failure
    /// have already been persisted through the observer.
    pub fn execute(
        &self,
        threads: usize,
        fault: &FaultPolicy,
        specs: &[RunSpec],
        observer: &dyn RunObserver,
    ) -> Result<Vec<RunResult>, BackendError> {
        if matches!(self, BackendKind::Subprocess { command } if command.is_empty()) {
            return Err(BackendError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "subprocess backend needs a worker command",
            )));
        }
        let n = specs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let sup = Supervisor::new(specs, fault);
        // Longest first, so every worker starts on a long run and the
        // cheap tail fills the gaps. The sort is stable, so equal-cost
        // specs keep request order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cost_estimate(&specs[i])));
        let queue = Mutex::new(VecDeque::from(order));
        let queued = Instant::now();
        std::thread::scope(|scope| {
            for me in 0..threads.max(1).min(n) {
                let (sup, queue) = (&sup, &queue);
                scope.spawn(move || drive(me, self, sup, queue, observer, queued));
            }
        });
        sup.into_outcome()
    }
}

/// Opens the per-spec telemetry span every worker emits around an attempt.
fn spec_span(spec: &RunSpec) -> ltc_telemetry::Span {
    if !ltc_telemetry::enabled() {
        return ltc_telemetry::span("spec", Vec::new());
    }
    ltc_telemetry::span(
        "spec",
        vec![
            ("label".to_string(), spec.label().into()),
            ("benchmark".to_string(), spec.benchmark.clone().into()),
        ],
    )
}

/// Closes a per-spec span with the queue-wait / run-time split. The label
/// repeats on the end event so stream consumers (the progress adapter,
/// `ltsim events summarize`) need not correlate begin/end pairs. A
/// failed attempt still closes its span — the CI log validator checks
/// begin/end balance — but is tagged with an `outcome` field
/// (`"retry"`, `"timeout"`, `"panic"`) so progress counting and
/// per-spec statistics skip it; completions carry no `outcome`.
fn end_spec_span(
    span: ltc_telemetry::Span,
    spec: &RunSpec,
    queue_wait: Duration,
    run: Duration,
    outcome: Option<&'static str>,
) {
    if !ltc_telemetry::enabled() {
        return;
    }
    let mut fields = vec![
        ("label".to_string(), spec.label().into()),
        ("queue_wait_us".to_string(), (queue_wait.as_micros() as u64).into()),
        ("run_us".to_string(), (run.as_micros() as u64).into()),
    ];
    if let Some(outcome) = outcome {
        fields.push(("outcome".to_string(), outcome.into()));
    }
    span.end_with(fields);
}

/// Supervision state shared by one `execute` call's workers: result
/// slots, per-spec attempt counts, and the first fatal error. The
/// requeue policy lives here, so every worker applies the same one.
struct Supervisor<'a> {
    specs: &'a [RunSpec],
    policy: &'a FaultPolicy,
    slots: Vec<Mutex<Option<RunResult>>>,
    attempts: Vec<AtomicU32>,
    completed: AtomicUsize,
    fatal: Mutex<Option<BackendError>>,
    abort: AtomicBool,
}

impl<'a> Supervisor<'a> {
    fn new(specs: &'a [RunSpec], policy: &'a FaultPolicy) -> Self {
        Supervisor {
            specs,
            policy,
            slots: (0..specs.len()).map(|_| Mutex::new(None)).collect(),
            attempts: (0..specs.len()).map(|_| AtomicU32::new(0)).collect(),
            completed: AtomicUsize::new(0),
            fatal: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    fn done(&self) -> bool {
        self.completed.load(Ordering::Relaxed) >= self.specs.len()
    }

    /// Records the first fatal error and tells every worker to stop
    /// claiming new specs: the execution is doomed to return the error
    /// anyway, and without a cache the remaining simulations would be
    /// wasted wall time.
    fn fail(&self, err: BackendError) {
        lock_recover(&self.fatal).get_or_insert(err);
        self.abort.store(true, Ordering::Relaxed);
    }

    /// Stores a completed result in input order.
    fn complete(&self, idx: usize, result: RunResult) {
        *lock_recover(&self.slots[idx]) = Some(result);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a failed attempt of `specs[idx]`, emitting the
    /// `spec.retry` / `spec.timeout` telemetry point. Returns `true`
    /// when the spec should be requeued, `false` when its budget is
    /// spent and the corresponding fatal error has been recorded.
    fn spec_failed(&self, idx: usize, failure: &Failure) -> bool {
        let attempt = self.attempts[idx].fetch_add(1, Ordering::Relaxed) + 1;
        let spec = &self.specs[idx];
        let timed_out = failure.outcome == "timeout";
        if ltc_telemetry::enabled() {
            ltc_telemetry::point(
                if timed_out { "spec.timeout" } else { "spec.retry" },
                vec![
                    ("label".to_string(), spec.label().into()),
                    ("attempt".to_string(), attempt.into()),
                    ("reason".to_string(), failure.reason.as_str().into()),
                ],
            );
        }
        if attempt > self.policy.retries {
            self.fail(if timed_out {
                BackendError::Timeout {
                    key: spec.key(),
                    attempts: attempt,
                    timeout: self.policy.spec_timeout.unwrap_or_default(),
                }
            } else {
                BackendError::RetriesExhausted {
                    key: spec.key(),
                    attempts: attempt,
                    last_error: failure.reason.clone(),
                }
            });
            return false;
        }
        true
    }

    /// Whether the next attempt of `specs[idx]` is its last permitted
    /// one.
    fn last_chance(&self, idx: usize) -> bool {
        self.attempts[idx].load(Ordering::Relaxed) >= self.policy.retries
    }

    /// Collects the final outcome: the recorded fatal error, a
    /// [`BackendError::LostSpecs`] naming the specs that retired workers
    /// left behind, or the results in input order.
    fn into_outcome(self) -> Result<Vec<RunResult>, BackendError> {
        if let Some(err) = lock_recover(&self.fatal).take() {
            return Err(err);
        }
        let mut out = Vec::with_capacity(self.specs.len());
        let mut lost = Vec::new();
        for (spec, slot) in self.specs.iter().zip(self.slots) {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(result) => out.push(result),
                None => lost.push(spec.key()),
            }
        }
        if lost.is_empty() {
            Ok(out)
        } else {
            Err(BackendError::LostSpecs {
                keys: lost,
                reason: "every worker retired before executing them".to_string(),
            })
        }
    }
}

/// A failed attempt: why it failed, and the `outcome` its `spec` span
/// end carries (`"panic"`, `"retry"` or `"timeout"`).
struct Failure {
    reason: String,
    outcome: &'static str,
}

/// One in-process attempt on the calling thread: a panic (the
/// `panic-once` injection included) becomes a [`Failure`] instead of
/// unwinding the pool.
fn run_in_process(policy: &FaultPolicy, spec: &RunSpec) -> Result<RunResult, Failure> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(FaultInject::PanicOnce { label, fired }) = &policy.inject {
            if spec.label().contains(label.as_str()) && !fired.swap(true, Ordering::Relaxed) {
                panic!("injected fault ({FAULT_INJECT_ENV}) in {}", spec.label());
            }
        }
        spec.execute()
    }))
    .map_err(|payload| Failure {
        reason: payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked with a non-string payload".to_string()),
        outcome: "panic",
    })
}

/// Relative cost estimate used to seed the pool's queue longest-first.
/// Timing runs simulate a full out-of-order machine per access and
/// dominate real sweeps; a multi-programmed run with a partner doubles
/// its access budget and runs two hierarchies.
fn cost_estimate(spec: &RunSpec) -> u64 {
    let weight = match &spec.mode {
        Mode::Timing => 10,
        Mode::MultiProg { partner: Some(_) } => 4,
        // A segmented parent executed directly replays every segment
        // sequentially (the scheduler normally expands it instead).
        Mode::MultiProg { partner: None } | Mode::StreamSegmented { .. } => 2,
        Mode::Coverage
        | Mode::DeadTime
        | Mode::Correlation
        | Mode::Ordering
        | Mode::Stream { .. } => 1,
        // One slice: simulate `accesses / segments`, but generate up to
        // the slice's end to skip there — later slices cost more
        // generation, earlier ones more simulation; call it one unit of
        // the *slice* budget so a many-segment fan-out seeds fairly.
        Mode::StreamSegment { segments, .. } => {
            return (spec.accesses / u64::from(*segments).max(1)).max(1);
        }
    };
    spec.accesses.saturating_mul(weight).max(1)
}

/// One worker of the pool: claims specs from the shared queue, runs one
/// attempt of each — in process, or through its own child when `kind`
/// is [`BackendKind::Subprocess`] — and requeues any spec whose attempt
/// failed. A child is spawned on demand and respawned with backoff; the
/// worker retires after more consecutive child failures (spawn failures
/// included) than the retry budget.
fn drive(
    me: usize,
    kind: &BackendKind,
    sup: &Supervisor<'_>,
    queue: &Mutex<VecDeque<usize>>,
    observer: &dyn RunObserver,
    queued: Instant,
) {
    if ltc_telemetry::enabled() {
        ltc_telemetry::set_worker(me as u64 + 1);
    }
    let command = match kind {
        BackendKind::Threads => None,
        BackendKind::Subprocess { command } => Some(command.as_slice()),
    };
    let mut child: Option<WorkerProcess> = None;
    let mut consecutive: u32 = 0;
    while !sup.aborted() && !sup.done() {
        let Some(idx) = lock_recover(queue).pop_front() else {
            if command.is_none() {
                // An in-process worker requeues its own failures, so
                // whatever is left of the batch is in flight on peers
                // that will finish it.
                break;
            }
            // A peer may still fail, requeue its in-flight spec and
            // retire; wait for the batch to settle rather than leaving
            // that spec stranded.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let spec = &sup.specs[idx];
        if let Some(command) = command {
            // Final-attempt isolation: run a spec's last permitted
            // attempt on a fresh child, so a child that deterministically
            // dies after N answers (or any accumulated protocol damage)
            // cannot doom the spec.
            if sup.last_chance(idx) && child.as_ref().is_some_and(|c| c.answered > 0) {
                child = None;
            }
            if child.is_none() {
                match WorkerProcess::spawn(command) {
                    Ok(fresh) => child = Some(fresh),
                    Err(e) => {
                        lock_recover(queue).push_front(idx);
                        consecutive += 1;
                        if !respawn_or_retire(me, sup.policy.retries, consecutive, &e.to_string()) {
                            return;
                        }
                        continue;
                    }
                }
            }
        }
        let queue_wait = queued.elapsed();
        let span = spec_span(spec);
        let start = Instant::now();
        let attempt = match child.as_mut() {
            Some(child) => child.round_trip(spec, sup.policy.spec_timeout),
            None => run_in_process(sup.policy, spec),
        };
        let elapsed = start.elapsed();
        match attempt {
            Ok(result) => {
                end_spec_span(span, spec, queue_wait, elapsed, None);
                observer.finished(spec, &result);
                sup.complete(idx, result);
                consecutive = 0;
            }
            Err(failure) => {
                end_spec_span(span, spec, queue_wait, elapsed, Some(failure.outcome));
                // A failed child is dead, hung or out of step with the
                // protocol: dropping it kills and reaps it. Rerunning
                // the spec is idempotent.
                let lost_child = child.take().is_some();
                if !sup.spec_failed(idx, &failure) {
                    return;
                }
                lock_recover(queue).push_back(idx);
                if lost_child {
                    consecutive += 1;
                    if !respawn_or_retire(me, sup.policy.retries, consecutive, &failure.reason) {
                        return;
                    }
                }
            }
        }
    }
    // Normal exit: the batch finished (or a peer aborted it). A healthy
    // child gets the EOF handshake; one that already died mid-batch
    // only costs a warning here — its specs were requeued and completed
    // elsewhere, so a dirty exit must not fail the run.
    if let Some(mut child) = child {
        if let Err(e) = child.shutdown() {
            ltc_telemetry::warning(
                "worker_shutdown",
                &format!("worker {} exited uncleanly after the batch: {e}", me + 1),
                vec![("worker".to_string(), (me as u64 + 1).into())],
            );
        }
    }
}

/// Handles worker `me`'s `consecutive`-th child failure in a row: past
/// the `retries` budget the worker retires (`false`); otherwise this
/// emits the `worker.respawn` point and sleeps the exponential backoff
/// before the next spawn (`true`).
fn respawn_or_retire(me: usize, retries: u32, consecutive: u32, reason: &str) -> bool {
    if consecutive > retries {
        ltc_telemetry::warning(
            "worker_retired",
            &format!("worker {} retired: {reason}", me + 1),
            vec![("worker".to_string(), (me as u64 + 1).into())],
        );
        return false;
    }
    let delay = backoff_for(consecutive);
    if ltc_telemetry::enabled() {
        ltc_telemetry::point(
            "worker.respawn",
            vec![
                ("worker".to_string(), (me as u64 + 1).into()),
                ("consecutive_failures".to_string(), consecutive.into()),
                ("backoff_ms".to_string(), (delay.as_millis() as u64).into()),
                ("reason".to_string(), reason.into()),
            ],
        );
    }
    std::thread::sleep(delay);
    true
}

/// A spawned worker child with its protocol pipes. Stderr is inherited,
/// so worker panics surface in the parent's output.
struct WorkerProcess {
    child: Child,
    /// `Option` so shutdown (and `Drop`) can close stdin to signal EOF.
    stdin: Option<ChildStdin>,
    /// The child's stdout lines, read on a reader thread that ends at
    /// the child's EOF, so an attempt can wait for its answer with a
    /// deadline.
    lines: Receiver<io::Result<String>>,
    /// The reader thread, joined once the child is reaped.
    reader: Option<JoinHandle<()>>,
    /// Child telemetry span ids → parent span ids. Children number spans
    /// from their own counters, so forwarded events are remapped into the
    /// parent's id space to stay collision-free across workers.
    span_map: HashMap<u64, u64>,
    /// Specs this child has answered (fresh children are preferred for
    /// final attempts).
    answered: u64,
}

impl WorkerProcess {
    fn spawn(command: &[String]) -> io::Result<Self> {
        let mut cmd = Command::new(&command[0]);
        cmd.args(&command[1..]).stdin(Stdio::piped()).stdout(Stdio::piped());
        if ltc_telemetry::enabled() {
            // Asks `ltsim worker` to interleave event lines with its
            // result lines; without the variable children stay silent.
            cmd.env(eventlog::WIRE_ENV, "1");
        }
        let mut child = cmd.spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("spawning worker `{}`: {e}", command[0]))
        })?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let mut worker = WorkerProcess {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: None,
            span_map: HashMap::new(),
            answered: 0,
        };
        // Should the thread fail to start, `worker` drops: the child is
        // killed and reaped.
        let reader =
            std::thread::Builder::new().name("ltc-worker-stdout".to_string()).spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let failed = line.is_err();
                    if tx.send(line).is_err() || failed {
                        return;
                    }
                }
            })?;
        worker.reader = Some(reader);
        Ok(worker)
    }

    /// Sends one spec line, then waits for the result line — at most
    /// `timeout`, when set — forwarding any interleaved event lines into
    /// the parent's event stream.
    fn round_trip(
        &mut self,
        spec: &RunSpec,
        timeout: Option<Duration>,
    ) -> Result<RunResult, Failure> {
        let retry = |reason: String| Failure { reason, outcome: "retry" };
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        writeln!(stdin, "{}", spec.key())
            .and_then(|()| stdin.flush())
            .map_err(|e| retry(e.to_string()))?;
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let line = match deadline {
                Some(at) => self.lines.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => self.lines.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let line = match line {
                Ok(line) => line.map_err(|e| retry(e.to_string()))?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(retry(format!(
                        "worker exited before answering spec {}",
                        spec.key()
                    )))
                }
                // The caller drops this worker, which kills the child.
                Err(RecvTimeoutError::Timeout) => {
                    return Err(Failure {
                        reason: format!(
                            "no answer to spec {} within {:.3}s",
                            spec.key(),
                            timeout.unwrap_or_default().as_secs_f64()
                        ),
                        outcome: "timeout",
                    })
                }
            };
            let trimmed = line.trim();
            if eventlog::is_event_line(trimmed) {
                forward_event_line(&mut self.span_map, trimmed);
                continue;
            }
            let result = serde_json::from_str(trimmed).map_err(|e| {
                retry(format!("bad RunResult line from worker for spec {}: {e}", spec.key()))
            })?;
            self.answered += 1;
            return Ok(result);
        }
    }

    /// Closes stdin (the protocol's end-of-work signal), drains any
    /// telemetry the child flushes on exit, and reaps it, surfacing a
    /// non-zero exit as an error.
    fn shutdown(&mut self) -> io::Result<()> {
        drop(self.stdin.take());
        for line in self.lines.iter() {
            let line = line?;
            let trimmed = line.trim();
            if eventlog::is_event_line(trimmed) {
                forward_event_line(&mut self.span_map, trimmed);
            }
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("worker exited with {status}")))
        }
    }
}

/// Re-emits one child event line into this process's event stream: the
/// timestamp is restamped on the parent clock, the span id remapped
/// through `span_map`, and the worker id replaced with the driving
/// thread's id (children don't know which pool slot they occupy). A
/// line that fails to decode is dropped — telemetry must never fail a
/// run.
fn forward_event_line(span_map: &mut HashMap<u64, u64>, line: &str) {
    let Ok(mut event) = eventlog::decode(line) else { return };
    event.t_micros = ltc_telemetry::now_micros();
    event.worker = ltc_telemetry::current_worker();
    event.span =
        event.span.map(|id| *span_map.entry(id).or_insert_with(ltc_telemetry::next_span_id));
    ltc_telemetry::emit(&event);
}

impl Drop for WorkerProcess {
    /// Kills and reaps the child if `shutdown` was never reached (after
    /// a successful `shutdown` both calls are no-ops), then joins the
    /// reader, which the reaped child's closed stdout has sent to EOF.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PredictorKind;
    use ltc_telemetry::{EventKind, FieldValue};

    fn tiny(bench: &str, accesses: u64) -> RunSpec {
        RunSpec::coverage(bench, PredictorKind::Baseline, accesses, 1)
    }

    fn policy(retries: u32) -> FaultPolicy {
        FaultPolicy { retries, ..FaultPolicy::default() }
    }

    #[test]
    fn timing_runs_cost_more_than_coverage() {
        let coverage = tiny("gzip", 10_000);
        let timing = RunSpec::timing("gzip", PredictorKind::Baseline, 10_000, 1);
        assert!(cost_estimate(&timing) > cost_estimate(&coverage));
        let paired = RunSpec::multiprog("gzip", Some("mcf"), PredictorKind::Baseline, 10_000, 1);
        let alone = RunSpec::multiprog("gzip", None, PredictorKind::Baseline, 10_000, 1);
        assert!(cost_estimate(&paired) > cost_estimate(&alone));
    }

    #[test]
    fn one_thread_runs_specs_longest_first() {
        #[derive(Default)]
        struct Order(Mutex<Vec<String>>);
        impl RunObserver for Order {
            fn finished(&self, spec: &RunSpec, _: &RunResult) {
                self.0.lock().unwrap().push(spec.key());
            }
        }
        let specs = vec![
            tiny("gzip", 1_000),
            RunSpec::timing("mcf", PredictorKind::Baseline, 1_000, 1),
            tiny("art", 1_000),
            RunSpec::timing("mesa", PredictorKind::Baseline, 2_000, 1),
        ];
        let order = Order::default();
        BackendKind::Threads.execute(1, &FaultPolicy::default(), &specs, &order).unwrap();
        // The timing runs go first, the longer one leading; the
        // equal-cost coverage runs keep their request order.
        let expected: Vec<String> = [3, 1, 0, 2].iter().map(|&i| specs[i].key()).collect();
        assert_eq!(order.0.into_inner().unwrap(), expected);
    }

    #[test]
    fn backends_preserve_input_order() {
        // Different budgets, so the longest-first queue runs them in
        // reverse; results still come back in input order.
        let specs = vec![tiny("gzip", 2_000), tiny("mesa", 3_000), tiny("art", 4_000)];
        let fault = FaultPolicy::default();
        for threads in [1, 2] {
            let results =
                BackendKind::Threads.execute(threads, &fault, &specs, &NullObserver).unwrap();
            assert_eq!(results.len(), specs.len(), "{threads} threads");
            for (spec, result) in specs.iter().zip(&results) {
                // run_coverage reserves a quarter of the budget as warmup.
                assert_eq!(
                    result.as_coverage().expect("coverage result").accesses,
                    spec.accesses - spec.accesses / 4,
                    "{threads} threads: result out of order for {}",
                    spec.key()
                );
            }
        }
    }

    #[test]
    fn observer_sees_every_spec_once() {
        #[derive(Default)]
        struct Counter(AtomicUsize);
        impl RunObserver for Counter {
            fn finished(&self, _: &RunSpec, _: &RunResult) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let specs: Vec<RunSpec> =
            ["gzip", "mesa", "art", "mcf", "swim"].iter().map(|b| tiny(b, 2_000)).collect();
        let counter = Counter::default();
        BackendKind::Threads.execute(3, &FaultPolicy::default(), &specs, &counter).unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), specs.len());
    }

    #[test]
    fn fault_inject_directives_parse() {
        match FaultInject::parse("panic-once:mesa") {
            Some(FaultInject::PanicOnce { label, fired }) => {
                assert_eq!(label, "mesa");
                assert!(!fired.load(Ordering::Relaxed));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(FaultInject::parse("exit-after:3"), Some(FaultInject::ExitAfter(3))));
        assert!(matches!(FaultInject::parse("hang-before:1"), Some(FaultInject::HangBefore(1))));
        assert!(FaultInject::parse("exit-after:0").is_none(), "zero guarantees no progress");
        assert!(FaultInject::parse("exit-after:x").is_none());
        assert!(FaultInject::parse("unknown:1").is_none());
        assert!(FaultInject::parse("panic-once").is_none());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_for(1), Duration::from_millis(100));
        assert_eq!(backoff_for(2), Duration::from_millis(200));
        assert_eq!(backoff_for(3), Duration::from_millis(400));
        assert_eq!(backoff_for(10), BACKOFF_CAP);
    }

    #[test]
    fn in_process_backends_survive_an_injected_panic() {
        let specs = vec![tiny("gzip", 2_000), tiny("mesa", 2_000), tiny("art", 2_000)];
        let clean = BackendKind::Threads
            .execute(2, &FaultPolicy::default(), &specs, &NullObserver)
            .unwrap();
        for threads in [1, 2] {
            let fault = FaultPolicy { inject: FaultInject::parse("panic-once:mesa"), ..policy(1) };
            let results =
                BackendKind::Threads.execute(threads, &fault, &specs, &NullObserver).unwrap();
            // The retried run completes and the results are identical to
            // a fault-free pass (simulation is deterministic per spec).
            assert_eq!(results, clean, "{threads} threads");
        }
    }

    #[test]
    fn exhausted_retry_budget_names_the_spec() {
        let specs = vec![tiny("gzip", 2_000), tiny("mesa", 2_000)];
        let fault = FaultPolicy { inject: FaultInject::parse("panic-once:mesa"), ..policy(0) };
        let err = BackendKind::Threads.execute(2, &fault, &specs, &NullObserver).unwrap_err();
        match err {
            BackendError::RetriesExhausted { key, attempts, .. } => {
                assert!(key.contains("mesa"), "{key}");
                assert_eq!(attempts, 1);
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn retried_attempts_emit_fault_telemetry() {
        use ltc_telemetry::Capture;
        // 5k accesses renders as a "/5k/" label — unique among the fault
        // tests, which matters because install() is process-global and
        // sibling tests inject panics on "mesa" labels too.
        let specs = vec![tiny("gzip", 5_000), tiny("mesa", 5_000)];
        let fault = FaultPolicy { inject: FaultInject::parse("panic-once:mesa"), ..policy(1) };
        // Global install: backend workers run on their own threads.
        let capture = Arc::new(Capture::new());
        let token = ltc_telemetry::install(capture.clone());
        let results = BackendKind::Threads.execute(2, &fault, &specs, &NullObserver).unwrap();
        ltc_telemetry::uninstall(token);
        assert_eq!(results.len(), 2);
        let mine: Vec<_> = capture
            .named("spec.retry")
            .into_iter()
            .filter(|e| {
                e.field("label").and_then(|f| f.as_str()).is_some_and(|l| l.contains("/5k/"))
            })
            .collect();
        assert_eq!(mine.len(), 1, "one retry point for the injected panic");
        assert_eq!(mine[0].field("attempt"), Some(&FieldValue::U64(1)));
        // The failed attempt's span still closes (balance) but carries
        // the outcome tag; the completion's span end does not.
        let ends: Vec<_> = capture
            .events()
            .into_iter()
            .filter(|e| {
                e.kind == EventKind::SpanEnd
                    && e.name == "spec"
                    && e.field("label")
                        .and_then(|f| f.as_str())
                        .is_some_and(|l| l.contains("/5k/") && l.contains("mesa"))
            })
            .collect();
        assert_eq!(ends.len(), 2, "failed attempt + completion: {ends:?}");
        let tagged = ends.iter().filter(|e| e.field("outcome").is_some()).count();
        assert_eq!(tagged, 1, "{ends:?}");
    }

    #[test]
    fn backend_errors_render_their_specifics() {
        let err = BackendError::Timeout {
            key: "k".into(),
            attempts: 3,
            timeout: Duration::from_millis(1500),
        };
        assert!(err.to_string().contains("timed out"), "{err}");
        assert!(err.to_string().contains("1.500s"), "{err}");
        let err = BackendError::LostSpecs {
            keys: vec!["a".into(), "b".into()],
            reason: "every subprocess worker retired".into(),
        };
        assert!(err.to_string().contains("2 spec(s) lost"), "{err}");
        assert!(err.to_string().contains("a, b"), "{err}");
        // The io::Error conversion keeps transport kinds and wraps the
        // rest with the typed error as source.
        let io_err: io::Error =
            BackendError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "pipe")).into();
        assert_eq!(io_err.kind(), io::ErrorKind::BrokenPipe);
        let io_err: io::Error = BackendError::RetriesExhausted {
            key: "k".into(),
            attempts: 2,
            last_error: "boom".into(),
        }
        .into();
        assert!(io_err.to_string().contains("retry budget"), "{io_err}");
    }

    #[test]
    fn subprocess_backend_rejects_an_empty_command() {
        let backend = BackendKind::Subprocess { command: Vec::new() };
        let err = backend
            .execute(2, &FaultPolicy::default(), &[tiny("gzip", 1_000)], &NullObserver)
            .unwrap_err();
        match err {
            BackendError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected Io, got {other}"),
        }
    }

    #[test]
    fn subprocess_backend_surfaces_spawn_failure() {
        let backend = BackendKind::Subprocess {
            command: vec!["/nonexistent/ltc-worker-binary".to_string(), "worker".to_string()],
        };
        let err =
            backend.execute(1, &policy(0), &[tiny("gzip", 1_000)], &NullObserver).unwrap_err();
        // The pool collapses before any spec executes: a LostSpecs error
        // carrying the spawn failure and naming the unexecuted spec.
        match &err {
            BackendError::LostSpecs { keys, reason } => {
                assert_eq!(keys.len(), 1);
                assert!(reason.contains("retired"), "{reason}");
            }
            other => panic!("expected LostSpecs, got {other}"),
        }
    }

    #[test]
    fn spawn_failures_retry_within_the_budget() {
        use ltc_telemetry::Capture;
        let backend =
            BackendKind::Subprocess { command: vec!["/nonexistent/ltc-worker-binary".to_string()] };
        let capture = Arc::new(Capture::new());
        let token = ltc_telemetry::install(capture.clone());
        let err =
            backend.execute(1, &policy(2), &[tiny("gzip", 1_003)], &NullObserver).unwrap_err();
        ltc_telemetry::uninstall(token);
        assert!(matches!(err, BackendError::LostSpecs { .. }), "{err}");
        let respawns: Vec<_> = capture
            .named("worker.respawn")
            .into_iter()
            .filter(|e| {
                e.field("reason")
                    .and_then(|f| f.as_str())
                    .is_some_and(|r| r.contains("ltc-worker-binary"))
            })
            .collect();
        assert_eq!(respawns.len(), 2, "two backoff respawns before retiring");
    }

    #[test]
    fn silent_children_time_out_on_every_attempt() {
        let backend =
            BackendKind::Subprocess { command: vec!["sleep".to_string(), "30".to_string()] };
        let fault = FaultPolicy { spec_timeout: Some(Duration::from_millis(200)), ..policy(1) };
        let start = Instant::now();
        let err = backend.execute(1, &fault, &[tiny("gzip", 1_000)], &NullObserver).unwrap_err();
        match err {
            BackendError::Timeout { attempts, timeout, .. } => {
                assert_eq!(attempts, 2);
                assert_eq!(timeout, Duration::from_millis(200));
            }
            other => panic!("expected Timeout, got {other}"),
        }
        // Each timed-out child is killed and then waited for before the
        // next attempt, so finishing long before `sleep 30` could end
        // shows that none was left running.
        assert!(start.elapsed() < Duration::from_secs(10), "{:?}", start.elapsed());
    }

    #[test]
    fn garbage_answers_exhaust_the_retry_budget() {
        let script = "while read line; do echo nope; done";
        let backend =
            BackendKind::Subprocess { command: ["sh", "-c", script].map(String::from).to_vec() };
        let err =
            backend.execute(1, &policy(1), &[tiny("gzip", 1_000)], &NullObserver).unwrap_err();
        match err {
            BackendError::RetriesExhausted { attempts, last_error, .. } => {
                assert_eq!(attempts, 2);
                assert!(last_error.contains("bad RunResult line"), "{last_error}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }
}
