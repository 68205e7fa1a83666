//! Pluggable execution backends with supervised, fault-tolerant workers.
//!
//! The [`crate::engine::Scheduler`] *plans* — collects specs, dedupes
//! them, probes the artifact cache — and hands whatever must actually be
//! simulated to an [`ExecutionBackend`]:
//!
//! * [`ThreadPoolBackend`] — scoped threads claiming specs from one shared
//!   queue, seeded with the estimated-longest specs (timing runs) first so
//!   a straggler claimed late cannot serialize the tail of the run.
//! * [`SubprocessBackend`] — a pool of `ltsim worker` child processes
//!   speaking newline-delimited JSON ([`RunSpec`] in on stdin,
//!   [`RunResult`] out on stdout). This proves the spec wire format end
//!   to end; pointing the same protocol at a remote transport is the
//!   multi-machine path the ROADMAP names.
//!
//! Every backend runs under the same supervision discipline, governed by
//! a [`FaultPolicy`]: a spec whose attempt dies — a panicking worker
//! thread in the in-process pools, a child that exits, breaks the
//! protocol, or exceeds [`FaultPolicy::spec_timeout`] in the subprocess
//! pool — is requeued onto a surviving worker until its retry budget is
//! spent. Dead children are respawned with exponential backoff. Because
//! artifacts persist through the [`RunObserver`] as each spec completes
//! and segment partials are mergeable summaries, re-executing a lost
//! spec is idempotent by construction; the supervisor only supplies the
//! retry mechanics. When the budget is exhausted (or every worker is
//! gone) execution fails with a typed [`BackendError`] naming the specs
//! involved instead of panicking the pool. Fault paths emit structured
//! telemetry — `spec.retry` / `spec.timeout` points, `worker.respawn`
//! points, and `outcome`-tagged `spec` span ends — so `ltsim events
//! summarize` can report a fault histogram.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::panic::AssertUnwindSafe;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ltc_telemetry::{Event, EventKind, FieldValue};
use serde::Value;

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

/// Ceiling on the exponential respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// How a run behaves when workers fail. Threaded from the `ltsim` CLI
/// (`--retries`, `--spec-timeout`) through
/// [`crate::engine::EngineOptions`] into every backend.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Extra attempts a spec gets after its first failed one (so a spec
    /// runs at most `retries + 1` times). Also bounds the *consecutive*
    /// failures one worker slot tolerates — spawn failures included —
    /// before it retires. `0` fails fast on the first fault.
    pub retries: u32,
    /// Wall-clock budget per spec attempt. Enforced by the subprocess
    /// backend, whose children can be killed; the in-process backend
    /// runs trusted library code on threads that cannot be safely
    /// interrupted, so it ignores it. `None` (the default) never times
    /// a spec out.
    pub spec_timeout: Option<Duration>,
    /// Base delay before respawning after a worker failure; doubles per
    /// consecutive failure and caps at 2s, so a crash-looping worker
    /// cannot hot-spin the pool.
    pub backoff: Duration,
    /// Injected fault for tests and chaos runs (see [`FaultInject`]).
    pub inject: Option<FaultInject>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            retries: 2,
            spec_timeout: None,
            backoff: Duration::from_millis(100),
            inject: None,
        }
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

    /// Backoff before the `consecutive`-th (1-based) respawn in a row:
    /// `backoff * 2^(consecutive-1)`, capped at 2 seconds.
    pub fn backoff_for(&self, consecutive: u32) -> Duration {
        let factor = 1u32 << consecutive.saturating_sub(1).min(16);
        self.backoff.checked_mul(factor).map_or(BACKOFF_CAP, |d| d.min(BACKOFF_CAP))
    }
}

/// A deliberately injected fault, for exercising the supervision paths.
#[derive(Debug, Clone)]
pub enum FaultInject {
    /// In-process backend: panic inside the first executed spec whose
    /// label contains the substring — exactly once per policy, so the
    /// retry must succeed.
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

/// Executes a planned set of specs.
///
/// The contract every backend upholds (and `crates/sim/tests/backends.rs`
/// checks): results come back in input order, every spec *completes*
/// exactly once (failed attempts may precede the completion), and
/// [`RunObserver::finished`] fires for each completed spec from the
/// worker that produced it.
pub trait ExecutionBackend {
    /// Short name for logs and `--backend` parsing.
    fn name(&self) -> &'static str;

    /// Executes every spec, returning results in `specs` order.
    ///
    /// # Errors
    ///
    /// Returns a typed [`BackendError`] when a spec's retry budget is
    /// exhausted, a spec times out, the worker pool collapses, or the
    /// transport cannot be set up. Specs completed before the failure
    /// have already been persisted through the observer.
    fn execute(
        &self,
        specs: &[RunSpec],
        observer: &dyn RunObserver,
    ) -> Result<Vec<RunResult>, BackendError>;
}

/// Which backend an [`crate::engine::EngineOptions`] selects; resolved to
/// a boxed [`ExecutionBackend`] at execution time by [`BackendKind::build`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// [`ThreadPoolBackend`].
    #[default]
    Threads,
    /// [`SubprocessBackend`] spawning `command` (argv) per worker.
    Subprocess {
        /// Worker argv, e.g. `["/path/to/ltsim", "worker"]`.
        command: Vec<String>,
    },
}

impl BackendKind {
    /// Builds the backend with `threads` workers supervised under
    /// `fault`.
    pub fn build(&self, threads: usize, fault: &FaultPolicy) -> Box<dyn ExecutionBackend> {
        match self {
            BackendKind::Threads => Box::new(ThreadPoolBackend { threads, fault: fault.clone() }),
            BackendKind::Subprocess { command } => Box::new(SubprocessBackend {
                command: command.clone(),
                workers: threads,
                fault: fault.clone(),
            }),
        }
    }
}

/// Opens the per-spec telemetry span all backends emit around execution.
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
/// requeue policy lives here so the two backends cannot drift.
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
    fn spec_failed(&self, idx: usize, reason: &str, timed_out: bool) -> bool {
        let attempt = self.attempts[idx].fetch_add(1, Ordering::Relaxed) + 1;
        let spec = &self.specs[idx];
        if ltc_telemetry::enabled() {
            ltc_telemetry::point(
                if timed_out { "spec.timeout" } else { "spec.retry" },
                vec![
                    ("label".to_string(), spec.label().into()),
                    ("attempt".to_string(), attempt.into()),
                    ("reason".to_string(), reason.into()),
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
                    last_error: reason.to_string(),
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

    /// Keys of specs that never completed (for [`BackendError::LostSpecs`]).
    fn incomplete_keys(&self) -> Vec<String> {
        self.specs
            .iter()
            .zip(&self.slots)
            .filter(|(_, slot)| lock_recover(slot).is_none())
            .map(|(spec, _)| spec.key())
            .collect()
    }

    /// Collects the final outcome: the recorded fatal error, a
    /// [`BackendError::LostSpecs`] naming any silently missing specs, or
    /// the results in input order.
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
                reason: "workers stopped before executing them".to_string(),
            })
        }
    }
}

/// Fires the `panic-once` injection when this spec is its victim.
fn maybe_inject_panic(policy: &FaultPolicy, spec: &RunSpec) {
    if let Some(FaultInject::PanicOnce { label, fired }) = &policy.inject {
        if spec.label().contains(label.as_str()) && !fired.swap(true, Ordering::Relaxed) {
            panic!("injected fault ({FAULT_INJECT_ENV}) in {}", spec.label());
        }
    }
}

/// Renders a caught panic payload for error messages.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// One supervised in-process attempt: runs the spec with observer and
/// span instrumentation, converting a panic into a retry/fatal decision
/// instead of poisoning the pool. Returns `true` when the caller should
/// requeue the spec.
fn attempt_in_process(
    sup: &Supervisor<'_>,
    idx: usize,
    observer: &dyn RunObserver,
    queued: Instant,
) -> bool {
    let spec = &sup.specs[idx];
    let queue_wait = queued.elapsed();
    let span = spec_span(spec);
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        maybe_inject_panic(sup.policy, spec);
        spec.execute()
    }));
    let elapsed = start.elapsed();
    match outcome {
        Ok(result) => {
            end_spec_span(span, spec, queue_wait, elapsed, None);
            observer.finished(spec, &result);
            sup.complete(idx, result);
            false
        }
        Err(payload) => {
            end_spec_span(span, spec, queue_wait, elapsed, Some("panic"));
            sup.spec_failed(idx, &panic_message(payload), false)
        }
    }
}

/// The scoped-thread pool: workers claim specs from one shared queue,
/// seeded longest-first by estimated cost (access budget weighted by
/// mode; timing runs weigh most) so every worker starts on a long run
/// and the cheap tail fills the gaps — the classic fix for a pool where
/// one late-claimed timing run serializes the finish. The sort is
/// stable, so equal-cost specs keep request order. A failed attempt
/// requeues at the back.
#[derive(Debug, Clone)]
pub struct ThreadPoolBackend {
    /// Worker thread count (clamped to at least 1).
    pub threads: usize,
    /// Supervision policy for panicking workers.
    pub fault: FaultPolicy,
}

impl ExecutionBackend for ThreadPoolBackend {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn execute(
        &self,
        specs: &[RunSpec],
        observer: &dyn RunObserver,
    ) -> Result<Vec<RunResult>, BackendError> {
        let n = specs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let sup = Supervisor::new(specs, &self.fault);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cost_estimate(&specs[i])));
        let queue = Mutex::new(VecDeque::from(order));
        let workers = self.threads.max(1).min(n);
        let queued = Instant::now();
        std::thread::scope(|scope| {
            for me in 0..workers {
                let (sup, queue) = (&sup, &queue);
                scope.spawn(move || {
                    if ltc_telemetry::enabled() {
                        ltc_telemetry::set_worker(me as u64 + 1);
                    }
                    while !sup.aborted() {
                        let Some(idx) = lock_recover(queue).pop_front() else { break };
                        if attempt_in_process(sup, idx, observer, queued) {
                            lock_recover(queue).push_back(idx);
                        }
                    }
                });
            }
        });
        sup.into_outcome()
    }
}

/// Relative cost estimate used to seed the [`ThreadPoolBackend`] queue
/// longest-first. Timing runs simulate a full out-of-order machine per
/// access and dominate real sweeps; a multi-programmed run with a partner
/// doubles its access budget and runs two hierarchies.
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

/// A pool of worker child processes speaking the newline-delimited JSON
/// protocol: one canonical [`RunSpec`] JSON line in on stdin, one
/// [`RunResult`] JSON line out on stdout, repeated until stdin closes.
///
/// Each worker thread owns one child and feeds it specs from a shared
/// requeue-capable queue; stderr is inherited so worker panics surface
/// in the parent's output. A child that exits early, answers with
/// unparsable JSON, or exceeds [`FaultPolicy::spec_timeout`] costs its
/// spec one attempt; the spec requeues onto a surviving worker and the
/// child is respawned with exponential backoff, up to the policy's
/// budgets. A spec's *final* permitted attempt always runs on a freshly
/// spawned child, so accumulated protocol state from a flaky child
/// cannot doom it.
#[derive(Debug, Clone)]
pub struct SubprocessBackend {
    /// Worker argv (program plus arguments), e.g. `["ltsim", "worker"]`.
    pub command: Vec<String>,
    /// Concurrent worker processes, clamped to at least 1.
    pub workers: usize,
    /// Supervision policy: respawn budget, per-spec timeout, backoff.
    pub fault: FaultPolicy,
}

/// Shared state for one subprocess execution: the supervisor plus the
/// requeue queue, live-worker count, and the timeout watchdog.
struct ProcPool<'a> {
    sup: Supervisor<'a>,
    queue: Mutex<VecDeque<usize>>,
    live: AtomicUsize,
    watchdog: Watchdog,
}

/// One watchdog table entry: the attempt's deadline and the child to
/// kill if it passes.
type WatchEntry = (Instant, Arc<Mutex<Child>>);

/// Kills children whose in-flight spec exceeded the timeout. Drive
/// threads register a (deadline, child) entry per round trip and
/// release it when the answer arrives; the watchdog thread scans the
/// table and kills expired children, which surfaces to the drive thread
/// as EOF on the child's stdout.
#[derive(Default)]
struct Watchdog {
    entries: Mutex<HashMap<u64, WatchEntry>>,
    killed: Mutex<HashSet<u64>>,
    next_ticket: AtomicU64,
    done: AtomicBool,
}

impl Watchdog {
    fn register(&self, deadline: Instant, child: Arc<Mutex<Child>>) -> u64 {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        lock_recover(&self.entries).insert(ticket, (deadline, child));
        ticket
    }

    /// Retires a ticket, reporting whether the watchdog killed its
    /// child while the round trip was in flight.
    fn release(&self, ticket: u64) -> bool {
        lock_recover(&self.entries).remove(&ticket);
        lock_recover(&self.killed).remove(&ticket)
    }

    fn run(&self) {
        while !self.done.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(10));
            let now = Instant::now();
            let expired: Vec<(u64, Arc<Mutex<Child>>)> = {
                let mut entries = lock_recover(&self.entries);
                let tickets: Vec<u64> = entries
                    .iter()
                    .filter(|(_, (deadline, _))| *deadline <= now)
                    .map(|(&t, _)| t)
                    .collect();
                tickets
                    .into_iter()
                    .filter_map(|t| entries.remove(&t).map(|(_, child)| (t, child)))
                    .collect()
            };
            for (ticket, child) in expired {
                lock_recover(&self.killed).insert(ticket);
                let _ = lock_recover(&child).kill();
            }
        }
    }
}

impl ExecutionBackend for SubprocessBackend {
    fn name(&self) -> &'static str {
        "subprocess"
    }

    fn execute(
        &self,
        specs: &[RunSpec],
        observer: &dyn RunObserver,
    ) -> Result<Vec<RunResult>, BackendError> {
        if self.command.is_empty() {
            return Err(BackendError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "subprocess backend needs a worker command",
            )));
        }
        let n = specs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = self.workers.max(1).min(n);
        let pool = ProcPool {
            sup: Supervisor::new(specs, &self.fault),
            queue: Mutex::new((0..n).collect()),
            live: AtomicUsize::new(workers),
            watchdog: Watchdog::default(),
        };
        let queued = Instant::now();
        std::thread::scope(|scope| {
            if self.fault.spec_timeout.is_some() {
                let watchdog = &pool.watchdog;
                scope.spawn(move || watchdog.run());
            }
            for me in 0..workers {
                let (pool, command) = (&pool, &self.command);
                scope.spawn(move || drive_worker(me, command, pool, observer, queued));
            }
        });
        pool.sup.into_outcome()
    }
}

/// One supervised drive thread: keeps a child alive (respawning with
/// backoff within the consecutive-failure budget), feeds it specs
/// claimed from the shared queue, and requeues any spec whose attempt
/// died. The last thread out performs the pool post-mortem.
fn drive_worker(
    me: usize,
    command: &[String],
    pool: &ProcPool<'_>,
    observer: &dyn RunObserver,
    queued: Instant,
) {
    if ltc_telemetry::enabled() {
        ltc_telemetry::set_worker(me as u64 + 1);
    }
    drive_worker_loop(me, command, pool, observer, queued);
    let survivors = pool.live.fetch_sub(1, Ordering::Relaxed) - 1;
    if survivors == 0 {
        pool.watchdog.done.store(true, Ordering::Relaxed);
        if !pool.sup.done() {
            // Every worker is gone with work outstanding. fail() keeps
            // the first error, so a recorded timeout/exhaustion wins
            // over this collective post-mortem.
            pool.sup.fail(BackendError::LostSpecs {
                keys: pool.sup.incomplete_keys(),
                reason: "every subprocess worker retired".to_string(),
            });
        }
    }
}

/// The loop body of [`drive_worker`]; returning retires the worker (the
/// caller handles the live-count bookkeeping on every exit path).
fn drive_worker_loop(
    me: usize,
    command: &[String],
    pool: &ProcPool<'_>,
    observer: &dyn RunObserver,
    queued: Instant,
) {
    let sup = &pool.sup;
    let mut worker: Option<WorkerProcess> = None;
    let mut consecutive: u32 = 0;
    while !sup.aborted() && !sup.done() {
        let Some(idx) = lock_recover(&pool.queue).pop_front() else {
            // Peers may still fail and requeue their in-flight spec;
            // wait for the batch to settle rather than retiring early.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let spec = &sup.specs[idx];
        // Final-attempt isolation: run a spec's last permitted attempt
        // on a fresh child, so a child that deterministically dies
        // after N answers (or any accumulated protocol damage) cannot
        // doom the spec.
        if sup.last_chance(idx) && worker.as_ref().is_some_and(|w| w.answered > 0) {
            worker = None;
        }
        if worker.is_none() {
            match WorkerProcess::spawn(command) {
                Ok(fresh) => worker = Some(fresh),
                Err(e) => {
                    lock_recover(&pool.queue).push_front(idx);
                    consecutive += 1;
                    if consecutive > sup.policy.retries {
                        retire(me, &e.to_string());
                        return;
                    }
                    respawn_backoff(me, sup.policy, consecutive, &e.to_string());
                    continue;
                }
            }
        }
        let child = worker.as_mut().expect("spawned above");
        let queue_wait = queued.elapsed();
        let span = spec_span(spec);
        let ticket = sup
            .policy
            .spec_timeout
            .map(|t| pool.watchdog.register(Instant::now() + t, child.child.clone()));
        let start = Instant::now();
        let answer = child.round_trip(spec);
        let elapsed = start.elapsed();
        let timed_out = ticket.is_some_and(|t| pool.watchdog.release(t));
        match answer {
            Ok(result) if !timed_out => {
                end_spec_span(span, spec, queue_wait, elapsed, None);
                observer.finished(spec, &result);
                sup.complete(idx, result);
                consecutive = 0;
            }
            answer => {
                // The attempt died: child exit/protocol error, or the
                // watchdog killed it (a post-kill answer is discarded —
                // the child is dead either way, and rerunning the spec
                // is idempotent).
                let reason = match answer {
                    Err(e) => e.to_string(),
                    Ok(_) => "answer arrived after the timeout kill".to_string(),
                };
                end_spec_span(
                    span,
                    spec,
                    queue_wait,
                    elapsed,
                    Some(if timed_out { "timeout" } else { "retry" }),
                );
                worker = None; // Drop kills and reaps the dead child.
                if !sup.spec_failed(idx, &reason, timed_out) {
                    return;
                }
                lock_recover(&pool.queue).push_back(idx);
                consecutive += 1;
                if consecutive > sup.policy.retries {
                    retire(me, &reason);
                    return;
                }
                respawn_backoff(me, sup.policy, consecutive, &reason);
            }
        }
    }
    // Normal exit: the batch finished (or a peer aborted it). A healthy
    // child gets the EOF handshake; one that already died mid-batch
    // only costs a warning here — its specs were requeued and completed
    // elsewhere, so a dirty exit must not fail the run.
    if let Some(mut child) = worker.take() {
        if let Err(e) = child.shutdown() {
            ltc_telemetry::warning(
                "worker_shutdown",
                &format!("worker {} exited uncleanly after the batch: {e}", me + 1),
                vec![("worker".to_string(), (me as u64 + 1).into())],
            );
        }
    }
}

/// Marks a drive thread as giving up after exhausting its consecutive-
/// failure budget.
fn retire(me: usize, reason: &str) {
    ltc_telemetry::warning(
        "worker_retired",
        &format!("worker {} retired: {reason}", me + 1),
        vec![("worker".to_string(), (me as u64 + 1).into())],
    );
}

/// Emits the `worker.respawn` telemetry point and sleeps the
/// exponential backoff before the next spawn attempt.
fn respawn_backoff(me: usize, policy: &FaultPolicy, consecutive: u32, reason: &str) {
    let delay = policy.backoff_for(consecutive);
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
}

/// A spawned worker child with its protocol pipes.
struct WorkerProcess {
    /// Shared with the timeout watchdog, which kills expired children.
    child: Arc<Mutex<Child>>,
    /// `Option` so shutdown (and `Drop`) can close stdin to signal EOF.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Child telemetry span ids → parent span ids. Children number spans
    /// from their own counters, so forwarded frames are remapped into the
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
            // Asks `ltsim worker` to interleave telemetry frames with its
            // result lines; without the variable children stay silent.
            cmd.env(ltc_telemetry::WIRE_ENV, "1");
        }
        let mut child = cmd.spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("spawning worker `{}`: {e}", command[0]))
        })?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(WorkerProcess {
            child: Arc::new(Mutex::new(child)),
            stdin: Some(stdin),
            stdout,
            span_map: HashMap::new(),
            answered: 0,
        })
    }

    /// Sends one spec line, then reads until the result line arrives,
    /// forwarding any interleaved `{"event":…}` telemetry frames into the
    /// parent's event stream.
    fn round_trip(&mut self, spec: &RunSpec) -> io::Result<RunResult> {
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        writeln!(stdin, "{}", spec.key())?;
        stdin.flush()?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("worker exited before answering spec {}", spec.key()),
                ));
            }
            let trimmed = line.trim();
            if trimmed.starts_with("{\"event\":") {
                forward_wire_frame(&mut self.span_map, trimmed);
                continue;
            }
            let result = serde_json::from_str(trimmed).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad RunResult line from worker for spec {}: {e}", spec.key()),
                )
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
        let mut line = String::new();
        while self.stdout.read_line(&mut line)? > 0 {
            let trimmed = line.trim();
            if trimmed.starts_with("{\"event\":") {
                forward_wire_frame(&mut self.span_map, trimmed);
            }
            line.clear();
        }
        let status = lock_recover(&self.child).wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("worker exited with {status}")))
        }
    }
}

/// Re-emits one child telemetry frame into this process's event stream:
/// the timestamp is restamped on the parent clock, the span id remapped
/// through `span_map`, and the worker id replaced with the driving
/// thread's id (children don't know which pool slot they occupy).
/// Malformed frames are dropped — telemetry must never fail a run.
fn forward_wire_frame(span_map: &mut HashMap<u64, u64>, line: &str) {
    let Ok(value) = serde_json::parse(line) else { return };
    let Some(wrapped) = value.get("event") else { return };
    if let Some(event) = wire_event(wrapped, span_map) {
        ltc_telemetry::emit(&event);
    }
}

/// Rebuilds an [`Event`] from a parsed wire frame payload.
fn wire_event(v: &Value, span_map: &mut HashMap<u64, u64>) -> Option<Event> {
    let kind = EventKind::parse(v.get("kind")?.as_str()?)?;
    let mut event = Event::now(kind, v.get("name")?.as_str()?);
    if let Some(child_span) = v.get("span").and_then(Value::as_u64) {
        let id = *span_map.entry(child_span).or_insert_with(ltc_telemetry::next_span_id);
        event.span = Some(id);
    }
    if let Some(fields) = v.get("fields").and_then(Value::as_map) {
        for (key, field) in fields {
            let value = match field {
                Value::Bool(b) => FieldValue::Bool(*b),
                Value::U64(n) => FieldValue::U64(*n),
                Value::I64(n) => FieldValue::I64(*n),
                Value::F64(f) => FieldValue::F64(*f),
                Value::Str(s) => FieldValue::Str(s.clone()),
                Value::Null | Value::Seq(_) | Value::Map(_) => continue,
            };
            event.fields.push((key.clone(), value));
        }
    }
    Some(event)
}

impl Drop for WorkerProcess {
    /// Error-path cleanup: don't leave a zombie if `shutdown` was never
    /// reached (a successful `shutdown` makes both calls no-ops).
    fn drop(&mut self) {
        drop(self.stdin.take());
        let mut child = lock_recover(&self.child);
        let _ = child.kill();
        let _ = child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PredictorKind;

    fn tiny(bench: &str, accesses: u64) -> RunSpec {
        RunSpec::coverage(bench, PredictorKind::Baseline, accesses, 1)
    }

    /// A policy with a near-zero backoff so failure tests stay fast.
    fn fast_policy(retries: u32) -> FaultPolicy {
        FaultPolicy { retries, backoff: Duration::from_millis(1), ..FaultPolicy::default() }
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
        let backend = ThreadPoolBackend { threads: 1, fault: FaultPolicy::default() };
        backend.execute(&specs, &order).unwrap();
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
            let backend = BackendKind::Threads.build(threads, &fault);
            let results = backend.execute(&specs, &NullObserver).unwrap();
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
        BackendKind::Threads.build(3, &FaultPolicy::default()).execute(&specs, &counter).unwrap();
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
        let policy = FaultPolicy { backoff: Duration::from_millis(100), ..Default::default() };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(100));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(200));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(400));
        assert_eq!(policy.backoff_for(10), BACKOFF_CAP);
    }

    #[test]
    fn in_process_backends_survive_an_injected_panic() {
        let specs = vec![tiny("gzip", 2_000), tiny("mesa", 2_000), tiny("art", 2_000)];
        let clean = BackendKind::Threads
            .build(2, &FaultPolicy::default())
            .execute(&specs, &NullObserver)
            .unwrap();
        for threads in [1, 2] {
            let fault =
                FaultPolicy { inject: FaultInject::parse("panic-once:mesa"), ..fast_policy(1) };
            let results =
                BackendKind::Threads.build(threads, &fault).execute(&specs, &NullObserver).unwrap();
            // The retried run completes and the results are identical to
            // a fault-free pass (simulation is deterministic per spec).
            assert_eq!(results, clean, "{threads} threads");
        }
    }

    #[test]
    fn exhausted_retry_budget_names_the_spec() {
        let specs = vec![tiny("gzip", 2_000), tiny("mesa", 2_000)];
        let fault = FaultPolicy { inject: FaultInject::parse("panic-once:mesa"), ..fast_policy(0) };
        let err = BackendKind::Threads.build(2, &fault).execute(&specs, &NullObserver).unwrap_err();
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
        let fault = FaultPolicy { inject: FaultInject::parse("panic-once:mesa"), ..fast_policy(1) };
        // Global install: backend workers run on their own threads.
        let capture = Arc::new(Capture::new());
        let token = ltc_telemetry::install(capture.clone());
        let results = BackendKind::Threads.build(2, &fault).execute(&specs, &NullObserver).unwrap();
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
        let backend =
            SubprocessBackend { command: Vec::new(), workers: 2, fault: FaultPolicy::default() };
        let err = backend.execute(&[tiny("gzip", 1_000)], &NullObserver).unwrap_err();
        match err {
            BackendError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected Io, got {other}"),
        }
    }

    #[test]
    fn subprocess_backend_surfaces_spawn_failure() {
        let backend = SubprocessBackend {
            command: vec!["/nonexistent/ltc-worker-binary".to_string(), "worker".to_string()],
            workers: 1,
            fault: fast_policy(0),
        };
        let err = backend.execute(&[tiny("gzip", 1_000)], &NullObserver).unwrap_err();
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
        let backend = SubprocessBackend {
            command: vec!["/nonexistent/ltc-worker-binary".to_string()],
            workers: 1,
            fault: fast_policy(2),
        };
        let capture = Arc::new(Capture::new());
        let token = ltc_telemetry::install(capture.clone());
        let err = backend.execute(&[tiny("gzip", 1_003)], &NullObserver).unwrap_err();
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
}
