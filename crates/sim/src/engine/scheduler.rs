//! Spec planning: collection, dedup, and cache probing.
//!
//! The [`Scheduler`] owns the *plan* — what must run — and delegates the
//! *execution* to the worker pool ([`BackendKind::execute`]) on the
//! backend the [`EngineOptions`] select. Artifact persistence hooks into
//! execution through a [`RunObserver`] implemented here, and progress is
//! rendered from the telemetry stream every worker emits, so both behave
//! identically across backends.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::artifact;
use crate::engine::backend::{lock_recover, BackendKind, FaultPolicy, RunObserver};
use crate::engine::checkpoints;
use crate::engine::fsutil;
use crate::engine::progress::{ProgressMode, ProgressSubscriber};
use crate::engine::result::{ResultSet, RunResult};
use crate::engine::segmented;
use crate::engine::spec::{Mode, RunSpec};

/// Execution policy for a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads (or worker processes) for the simulation pool.
    pub threads: usize,
    /// Artifact cache directory (`results/`); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// When `true`, ignore cached artifacts and re-simulate (artifacts are
    /// rewritten, so the cache heals itself after a model change).
    pub force: bool,
    /// Which execution backend runs the cache-missing specs.
    pub backend: BackendKind,
    /// How execution progress is reported (stderr): `execute_into`
    /// installs a [`ProgressSubscriber`] in this mode while it runs.
    pub progress: ProgressMode,
    /// How worker faults are handled: retry budget, per-spec timeout,
    /// fault injection (see [`FaultPolicy`]).
    pub fault: FaultPolicy,
}

impl Default for EngineOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        EngineOptions {
            threads,
            cache_dir: None,
            force: false,
            backend: BackendKind::default(),
            progress: ProgressMode::default(),
            fault: FaultPolicy::default(),
        }
    }
}

impl EngineOptions {
    /// No cache: every spec is simulated (tests, benches).
    pub fn in_memory(threads: usize) -> Self {
        EngineOptions { threads, ..EngineOptions::default() }
    }

    /// With an artifact cache rooted at `dir`.
    pub fn cached(threads: usize, dir: impl Into<PathBuf>) -> Self {
        EngineOptions { threads, cache_dir: Some(dir.into()), ..EngineOptions::default() }
    }

    /// The same options running on `backend`.
    pub fn with_backend(self, backend: BackendKind) -> Self {
        EngineOptions { backend, ..self }
    }
}

/// Collects [`RunSpec`]s from any number of consumers, dedupes them, and
/// executes the unique set once.
///
/// Duplicate requests are the normal case, not an error: every figure
/// declares the full set of runs it needs, and overlapping needs (table 3
/// and figure 12 both want `timing/*/lt-cords`, every timing figure wants
/// the baselines) collapse to single executions here.
#[derive(Debug, Default)]
pub struct Scheduler {
    requests: Vec<RunSpec>,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Requests one run.
    pub fn request(&mut self, spec: RunSpec) {
        self.requests.push(spec);
    }

    /// Requests a batch of runs.
    pub fn request_all(&mut self, specs: impl IntoIterator<Item = RunSpec>) {
        self.requests.extend(specs);
    }

    /// Total requests received (duplicates included).
    pub fn requested(&self) -> usize {
        self.requests.len()
    }

    /// The deduplicated spec set, in first-seen request order. Dedup is
    /// by reference; only the surviving specs are cloned (once).
    pub fn unique(&self) -> Vec<RunSpec> {
        let mut seen: HashSet<&RunSpec> = HashSet::with_capacity(self.requests.len());
        self.requests.iter().filter(|s| seen.insert(s)).cloned().collect()
    }

    /// Executes the unique spec set and returns a fresh [`ResultSet`].
    ///
    /// # Errors
    ///
    /// Returns any artifact-cache I/O error (a corrupt or mismatched
    /// artifact is treated as a cache miss, not an error) or backend
    /// transport error.
    pub fn execute(&self, opts: &EngineOptions) -> io::Result<ResultSet> {
        let mut results = ResultSet::new();
        self.execute_into(&mut results, opts)?;
        Ok(results)
    }

    /// Executes every unique spec not already present in `results`.
    ///
    /// Cached artifacts satisfy specs without simulation (unless
    /// [`EngineOptions::force`]); the rest go to the selected
    /// [`EngineOptions::backend`], then are written back to the cache.
    /// Figures with result-dependent spec sets call this in rounds.
    ///
    /// Progress renders in [`EngineOptions::progress`] for the duration
    /// of the call (nothing is installed for [`ProgressMode::Off`]).
    ///
    /// Segmented streaming parents ([`crate::engine::Mode::StreamSegmented`])
    /// never reach the backend themselves: a cache-missing parent expands
    /// into its per-segment child specs (which probe the cache
    /// individually), the children execute on the selected backend like
    /// any other spec — in parallel, over the worker protocol for
    /// `subprocess` — and the parent's merged report is reduced from
    /// their partial summaries and persisted under the parent's own key.
    ///
    /// # Errors
    ///
    /// Returns any artifact-cache I/O error, backend transport error, or
    /// segment-reduce error (shape-mismatched partials).
    pub fn execute_into(&self, results: &mut ResultSet, opts: &EngineOptions) -> io::Result<()> {
        let _progress = ProgressScope::install(opts.progress);
        let plan_span = ltc_telemetry::span("scheduler.plan", Vec::new());
        // Requests already satisfied by an earlier round are neither new
        // requests nor duplicates.
        let requested = self.requests.iter().filter(|s| !results.contains(s)).count();
        let pending: Vec<RunSpec> =
            self.unique().into_iter().filter(|s| !results.contains(s)).collect();
        ltc_telemetry::counter("scheduler.requested", requested as u64);
        ltc_telemetry::counter("scheduler.deduped", (requested - pending.len()) as u64);
        let hits_before = results.cache_hits;

        let mut to_run = Vec::new();
        let mut queued: HashSet<RunSpec> = HashSet::new();
        let mut parents = Vec::new();
        for spec in pending {
            // A parent's expansion below may have satisfied this spec
            // (a directly-requested child) after `pending` was computed;
            // loading it again would double-count the cache hit.
            if results.contains(&spec) {
                continue;
            }
            let cached = match &opts.cache_dir {
                Some(dir) if !opts.force => artifact::load(dir, &spec)?,
                _ => None,
            };
            cache_probe(&spec, cached.is_some());
            match cached {
                Some(result) => {
                    results.cache_hits += 1;
                    results.insert(spec, result);
                }
                None => match segmented::children(&spec) {
                    Some(children) => {
                        for child in children {
                            if results.contains(&child) || queued.contains(&child) {
                                continue;
                            }
                            let cached = match &opts.cache_dir {
                                Some(dir) if !opts.force => artifact::load(dir, &child)?,
                                _ => None,
                            };
                            cache_probe(&child, cached.is_some());
                            match cached {
                                Some(result) => {
                                    results.cache_hits += 1;
                                    results.insert(child, result);
                                }
                                None => {
                                    queued.insert(child.clone());
                                    to_run.push(child);
                                }
                            }
                        }
                        parents.push(spec);
                    }
                    // A child spec requested directly may already be
                    // queued (or cache-satisfied) by its parent's
                    // expansion above, and vice versa.
                    None if !queued.contains(&spec) && !results.contains(&spec) => {
                        queued.insert(spec.clone());
                        to_run.push(spec);
                    }
                    None => {}
                },
            }
        }
        let pass_hits = results.cache_hits - hits_before;
        ltc_telemetry::counter("scheduler.cache_hits", pass_hits);
        plan_span.end_with(vec![
            ("cache_hits".to_string(), pass_hits.into()),
            ("to_run".to_string(), (to_run.len() as u64).into()),
        ]);

        // Record a generator checkpoint and a warm hierarchy image at
        // every slice start once per trace before the backend fans
        // segment workers out: one recording pass replaces every worker's
        // O(start) skip loop and O(warm-up) cache rebuild. Subprocess
        // workers read the stores from `LTC_CHECKPOINT_DIR`, so for them
        // the pre-pass only persists; the in-process pool reads them
        // from memory, so the pre-pass holds each trace's stores until
        // its last restoring segment completes (`HeldStores`). Traces
        // record in parallel, one per job on `opts.threads` workers, in
        // `(benchmark, seed)` order; a job covers each warm-up length its
        // segments use.
        let mut prepass: BTreeMap<(&str, u64), TracePrepass> = BTreeMap::new();
        for spec in &to_run {
            if let Some((warmup, start)) = restoring_segment(spec) {
                let job = prepass.entry((&spec.benchmark, spec.seed)).or_default();
                job.entry(warmup).or_default().push(start);
            }
        }
        let seek_span = ltc_telemetry::span("scheduler.checkpoints", Vec::new());
        let mut traces = 0;
        let mut held = HeldStores::default();
        if !prepass.is_empty() {
            // The stores go next to the artifact cache unless the caller
            // named another directory.
            let default = opts.cache_dir.as_ref().map(|dir| dir.join("checkpoints"));
            let dir = checkpoints::checkpoint_dir(default);
            let in_process = opts.backend == BackendKind::Threads;
            // Subprocess workers find the directory in the environment
            // they inherit, so it is exported for them; in-process runs
            // leave the environment alone.
            if !in_process && std::env::var_os(checkpoints::CHECKPOINT_DIR_ENV).is_none() {
                if let Some(dir) = &dir {
                    std::env::set_var(checkpoints::CHECKPOINT_DIR_ENV, dir);
                }
            }
            // Without a directory, stores recorded for subprocess workers
            // would reach none of them.
            if in_process || dir.is_some() {
                traces = prepass.len() as u64;
                let jobs = prepass.into_iter().collect();
                held = run_prepass(jobs, opts.threads, dir.as_deref(), in_process);
            }
        }
        seek_span.end_with(vec![("traces".to_string(), traces.into())]);

        // Each artifact persists from the worker that produced it (via
        // the observer), not after the backend returns: an interrupted
        // long run then keeps every completed simulation, making reruns
        // genuinely incremental — whichever backend ran them. The first
        // write error is carried out and reported after results are
        // collected.
        if let Some(dir) = &opts.cache_dir {
            std::fs::create_dir_all(dir)?;
            // Reclaim staging files leaked by a previous process that
            // died between write and rename (once per dir per process).
            fsutil::sweep_once(dir);
        }
        ltc_telemetry::point(
            "run_begin",
            vec![
                ("total".to_string(), (to_run.len() as u64).into()),
                ("backend".to_string(), opts.backend.name().into()),
            ],
        );
        let execute_span = ltc_telemetry::span("scheduler.execute", Vec::new());
        let store_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let observer = PersistingObserver {
            cache_dir: opts.cache_dir.as_deref(),
            store_error: &store_error,
            held: &held,
        };
        let outcomes = opts.backend.execute(opts.threads, &opts.fault, &to_run, &observer);
        execute_span.end_with(vec![("specs".to_string(), (to_run.len() as u64).into())]);
        let outcomes = outcomes.map_err(io::Error::from)?;
        ltc_telemetry::point(
            "run_end",
            vec![("completed".to_string(), (to_run.len() as u64).into())],
        );
        ltc_telemetry::counter("scheduler.simulated", to_run.len() as u64);
        for (spec, result) in to_run.into_iter().zip(outcomes) {
            results.simulated += 1;
            results.insert(spec, result);
        }
        // Reduce each segmented parent from its children's partial
        // summaries and persist the merged report under the parent's own
        // key, so the next pass serves the parent without touching the
        // children. The reduce itself is not a simulation — the counters
        // already reflect the child executions.
        for parent in parents {
            let merged = segmented::reduce(&parent, results)?;
            if let Some(dir) = &opts.cache_dir {
                artifact::store(dir, &parent, &merged)?;
            }
            results.insert(parent, merged);
        }
        match store_error.into_inner().expect("store-error lock") {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Loads every unique spec not in `results` from the cache **without
    /// simulating**; returns the specs that remained unsatisfied (for
    /// `ltsim render`, which must not silently recompute).
    ///
    /// # Errors
    ///
    /// Returns any artifact-cache I/O error.
    pub fn load_into(
        &self,
        results: &mut ResultSet,
        dir: &std::path::Path,
    ) -> io::Result<Vec<RunSpec>> {
        let mut missing = Vec::new();
        for spec in self.unique() {
            if results.contains(&spec) {
                continue;
            }
            match artifact::load(dir, &spec)? {
                Some(result) => {
                    results.cache_hits += 1;
                    results.insert(spec, result);
                }
                None => missing.push(spec),
            }
        }
        Ok(missing)
    }
}

/// The pre-pass work for one `(benchmark, seed)` trace: the slice starts
/// of its restoring segments, per warm-up length.
type TracePrepass = BTreeMap<u64, Vec<u64>>;

/// The warm-up and slice start of a segment spec that restores a
/// recorded segment start (one whose slice starts past access 0).
fn restoring_segment(spec: &RunSpec) -> Option<(u64, u64)> {
    let Mode::StreamSegment { segments, segment, warmup, .. } = spec.mode else {
        return None;
    };
    let start = ltc_trace::TraceSegment::nth(spec.accesses, segments, segment).start;
    (start > 0).then_some((warmup, start))
}

/// Records each trace's segment starts ([`checkpoints::ensure`]), one
/// trace per job, on up to `threads` scoped workers pulling from `jobs`
/// in order, persisting them under `dir` and, for an `in_process` pool,
/// registering them and returning them held. Jobs share only the mutex-guarded registry and the
/// checkpoint directory, and each writes only its own trace's store
/// files (atomically), so the stores are byte-identical at any thread
/// count.
fn run_prepass(
    jobs: Vec<((&str, u64), TracePrepass)>,
    threads: usize,
    dir: Option<&Path>,
    in_process: bool,
) -> HeldStores {
    let held = HeldStores::default();
    // Relaxed suffices: the counter only hands out indices into `jobs`,
    // which no thread mutates.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(jobs.len()) {
            scope.spawn(|| {
                while let Some(((benchmark, seed), job)) =
                    jobs.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    for (warmup, starts) in job {
                        let stores = checkpoints::ensure(dir, benchmark, *seed, *warmup, starts);
                        if let Some(stores) = stores.filter(|_| in_process) {
                            checkpoints::register(benchmark, *seed, *warmup, &stores);
                            let key = checkpoints::key(benchmark, *seed, *warmup);
                            lock_recover(&held.0).insert(key, (starts.len(), stores));
                        }
                    }
                }
            });
        }
    });
    held
}

/// The segment-start stores one `execute_into` call holds for its
/// in-process workers: per `(benchmark, seed, warm-up)`, the number of
/// its planned restoring segments still to complete and the registered
/// stores. A trace's stores drop when its last restoring segment
/// completes — a failed attempt is no completion, so its retry still
/// finds them — and any left drop with the call.
#[derive(Default)]
struct HeldStores(Mutex<HashMap<checkpoints::Key, (usize, Arc<checkpoints::SegmentStores>)>>);

impl HeldStores {
    /// Notes that `spec` completed, forgetting its trace's stores if it
    /// was the trace's last restoring segment.
    fn completed(&self, spec: &RunSpec) {
        let Some((warmup, _)) = restoring_segment(spec) else { return };
        let key = checkpoints::key(&spec.benchmark, spec.seed, warmup);
        let mut held = lock_recover(&self.0);
        if let Some((left, _)) = held.get_mut(&key) {
            *left -= 1;
            if *left == 0 {
                held.remove(&key);
            }
        }
    }
}

/// Emits one `cache_probe` telemetry point per planned spec, recording
/// whether the artifact cache satisfied it. Probe outcomes depend only on
/// the plan and the cache, never on the backend, so comparing the
/// `cache_probe` streams of two runs checks backend equivalence.
fn cache_probe(spec: &RunSpec, hit: bool) {
    if ltc_telemetry::enabled() {
        ltc_telemetry::point(
            "cache_probe",
            vec![("label".to_string(), spec.label().into()), ("hit".to_string(), hit.into())],
        );
    }
}

/// The [`ProgressSubscriber`] one `execute_into` call renders through.
/// Dropping it uninstalls the subscriber, so every return path — errors
/// and panics included — leaves the telemetry hub as it found it.
struct ProgressScope(Option<ltc_telemetry::SubscriberToken>);

impl ProgressScope {
    fn install(mode: ProgressMode) -> ProgressScope {
        ProgressScope(
            (mode != ProgressMode::Off)
                .then(|| ltc_telemetry::install(Arc::new(ProgressSubscriber::new(mode)))),
        )
    }
}

impl Drop for ProgressScope {
    fn drop(&mut self) {
        if let Some(token) = self.0.take() {
            ltc_telemetry::uninstall(token);
        }
    }
}

/// The scheduler's [`RunObserver`]: persists each finished run to the
/// artifact cache from the worker that produced it, and lets go of the
/// segment-start stores no planned segment will read again.
struct PersistingObserver<'a> {
    cache_dir: Option<&'a Path>,
    store_error: &'a Mutex<Option<io::Error>>,
    held: &'a HeldStores,
}

impl RunObserver for PersistingObserver<'_> {
    fn finished(&self, spec: &RunSpec, result: &RunResult) {
        if let Some(dir) = self.cache_dir {
            if let Err(e) = artifact::store(dir, spec, result) {
                self.store_error.lock().expect("store-error lock").get_or_insert(e);
            }
        }
        self.held.completed(spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::backend::FaultInject;
    use crate::experiment::PredictorKind;

    fn tiny(bench: &str, seed: u64) -> RunSpec {
        RunSpec::coverage(bench, PredictorKind::Baseline, 4_000, seed)
    }

    #[test]
    fn duplicate_requests_collapse() {
        let mut s = Scheduler::new();
        s.request(tiny("gzip", 1));
        s.request(tiny("mesa", 1));
        s.request(tiny("gzip", 1));
        assert_eq!(s.requested(), 3);
        assert_eq!(s.unique().len(), 2);
        let results = s.execute(&EngineOptions::in_memory(2)).unwrap();
        assert_eq!(results.simulated(), 2);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn unique_preserves_first_seen_order() {
        let mut s = Scheduler::new();
        for bench in ["mcf", "art", "gzip", "art", "mcf"] {
            s.request(tiny(bench, 1));
        }
        let order: Vec<String> = s.unique().into_iter().map(|s| s.benchmark).collect();
        assert_eq!(order, ["mcf", "art", "gzip"]);
    }

    #[test]
    fn execute_into_skips_present_results() {
        let mut s = Scheduler::new();
        s.request(tiny("gzip", 1));
        let opts = EngineOptions::in_memory(1);
        let mut results = s.execute(&opts).unwrap();
        assert_eq!(results.simulated(), 1);
        // Re-executing the same request set does nothing new.
        s.execute_into(&mut results, &opts).unwrap();
        assert_eq!(results.simulated(), 1);
    }

    /// A second round on the same `ResultSet` counts only the requests
    /// it adds: specs the first round satisfied are neither requested
    /// nor deduplicated again.
    #[test]
    fn rounds_count_only_their_new_requests() {
        let agg = Arc::new(ltc_telemetry::Aggregator::new());
        let opts = EngineOptions::in_memory(1);
        let mut results = ResultSet::new();
        let mut s = Scheduler::new();
        s.request_all([tiny("gzip", 1), tiny("mesa", 1), tiny("gzip", 1)]);
        // The scheduler counters are emitted on the calling thread.
        ltc_telemetry::with_subscriber(agg.clone(), || s.execute_into(&mut results, &opts))
            .unwrap();
        assert_eq!(agg.counter("scheduler.requested"), 3);
        assert_eq!(agg.counter("scheduler.deduped"), 1);
        s.request_all([tiny("art", 1), tiny("art", 1), tiny("mesa", 1)]);
        ltc_telemetry::with_subscriber(agg.clone(), || s.execute_into(&mut results, &opts))
            .unwrap();
        assert_eq!(agg.counter("scheduler.requested"), 3 + 2);
        assert_eq!(agg.counter("scheduler.deduped"), 1 + 1);
        assert_eq!(agg.counter("scheduler.simulated"), 3);
        assert_eq!(results.simulated(), 3);
    }

    #[test]
    fn execute_honours_the_selected_backend() {
        let mut s = Scheduler::new();
        s.request(tiny("gzip", 1));
        s.request(tiny("mesa", 1));
        // A subprocess pool whose worker cannot spawn fails the run: the
        // scheduler really dispatched to the selected backend.
        let broken =
            BackendKind::Subprocess { command: vec!["/nonexistent/ltc-worker-binary".to_string()] };
        let opts = EngineOptions {
            fault: FaultPolicy { retries: 0, ..FaultPolicy::default() },
            ..EngineOptions::in_memory(1).with_backend(broken)
        };
        assert!(s.execute(&opts).is_err());
        let results = s.execute(&EngineOptions::in_memory(2)).unwrap();
        assert_eq!(results.simulated(), 2);
        assert!(results.coverage(&tiny("gzip", 1)).base_l1_misses > 0);
    }

    #[test]
    fn engine_runs_emit_scheduler_and_spec_events() {
        use ltc_telemetry::{Capture, EventKind};
        // Backend workers run on their own threads, so a thread-local
        // subscriber cannot see their events: install globally. Other
        // tests executing engines concurrently may emit into the capture
        // too, so assertions filter by this test's unique spec labels
        // (labels round accesses to thousands, so the seeds set them
        // apart: no other test runs seeds 4001/4002) and use lower bounds
        // for unattributable counters.
        let spec_a = RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 4_001);
        let spec_b = RunSpec::coverage("mesa", PredictorKind::Baseline, 4_000, 4_002);
        let capture = std::sync::Arc::new(Capture::new());
        let token = ltc_telemetry::install(capture.clone());
        let mut s = Scheduler::new();
        s.request(spec_a.clone());
        s.request(spec_a.clone()); // dedup fodder
        s.request(spec_b.clone());
        let results = s.execute(&EngineOptions::in_memory(2)).unwrap();
        ltc_telemetry::uninstall(token);
        assert_eq!(results.simulated(), 2);

        let events = capture.events();
        let mine = |label: &str| {
            events
                .iter()
                .filter(|e| e.field("label").and_then(|f| f.as_str()) == Some(label))
                .count()
        };
        for spec in [&spec_a, &spec_b] {
            let label = spec.label();
            // One cache probe (a miss: no cache dir) and one spec span
            // begin/end pair per unique spec.
            let probes: Vec<_> = events
                .iter()
                .filter(|e| {
                    e.name == "cache_probe"
                        && e.field("label").and_then(|f| f.as_str()) == Some(label.as_str())
                })
                .collect();
            assert_eq!(probes.len(), 1, "{label}");
            assert_eq!(probes[0].field("hit"), Some(&ltc_telemetry::FieldValue::Bool(false)));
            assert!(mine(&label) >= 3, "probe + span begin/end for {label}");
            let ends: Vec<_> = events
                .iter()
                .filter(|e| {
                    e.kind == EventKind::SpanEnd
                        && e.name == "spec"
                        && e.field("label").and_then(|f| f.as_str()) == Some(label.as_str())
                })
                .collect();
            assert_eq!(ends.len(), 1, "{label}");
            let end = ends[0];
            assert!(end.span.is_some(), "spec span ends carry their span id");
            assert!(end.worker.is_some(), "spec spans are stamped with a worker id");
            assert!(end.field("queue_wait_us").is_some());
            assert!(end.field("run_us").is_some());
        }
        // Scheduler lifecycle events exist (≥, in case a concurrent test
        // also ran an engine while the capture was installed).
        for name in ["run_begin", "run_end"] {
            assert!(events.iter().any(|e| e.name == name), "{name} missing");
        }
        for name in ["scheduler.requested", "scheduler.deduped", "scheduler.simulated"] {
            assert!(
                events.iter().any(|e| e.kind == EventKind::Counter && e.name == name),
                "{name} missing"
            );
        }
        let plan_ends = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd && e.name == "scheduler.plan")
            .count();
        assert!(plan_ends >= 1, "planning span closed");
    }

    /// Segmented parents over `benchmarks`, four segments each, at a
    /// warm-up shorter than the slices and a seed no other test uses.
    fn segmented_parents(benchmarks: &[&str], seed: u64) -> Vec<RunSpec> {
        benchmarks
            .iter()
            .map(|b| {
                RunSpec::stream_segmented(b, 32 << 10, 4, 40_000, seed).with_stream_warmup(2_000)
            })
            .collect()
    }

    /// One spec attempt a [`Watch`] saw.
    #[derive(Debug, Clone)]
    struct Attempt {
        label: String,
        /// Where each watched trace's stores were as the attempt began.
        resident: Vec<Option<&'static str>>,
        /// The restore outcome the attempt reported, if it ran a segment.
        outcome: Option<String>,
    }

    /// Watches the spec attempts of one test (labels ending in `/s{seed}`)
    /// on the pool's threads. Global subscribers see every thread's
    /// events, so an event is tied to its attempt by thread: a pool worker
    /// runs one attempt at a time, inside that attempt's `spec` span.
    struct Watch {
        seed: u64,
        traces: Vec<&'static str>,
        attempts: Mutex<Vec<Attempt>>,
    }

    std::thread_local! {
        /// The label of the spec attempt this thread last began.
        static RUNNING: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
    }

    impl Watch {
        /// Runs `sched` under a watch on `traces` at `seed` and returns
        /// the attempts it saw.
        fn run(
            sched: &Scheduler,
            opts: &EngineOptions,
            traces: &[&'static str],
            seed: u64,
        ) -> Vec<Attempt> {
            let watch =
                Arc::new(Watch { seed, traces: traces.to_vec(), attempts: Mutex::default() });
            let token = ltc_telemetry::install(watch.clone());
            let results = sched.execute(opts);
            ltc_telemetry::uninstall(token);
            results.unwrap();
            let attempts = watch.attempts.lock().unwrap().clone();
            attempts
        }
    }

    impl ltc_telemetry::Subscriber for Watch {
        fn event(&self, event: &ltc_telemetry::Event) {
            use ltc_telemetry::EventKind;
            let text = |name: &str| event.field(name).and_then(|f| f.as_str()).map(str::to_string);
            match (event.kind, event.name.as_str()) {
                (EventKind::SpanBegin, "spec") => {
                    let label = text("label");
                    RUNNING.with(|running| running.replace(label.clone()));
                    if let Some(label) = label.filter(|l| l.ends_with(&format!("/s{}", self.seed)))
                    {
                        let resident = self
                            .traces
                            .iter()
                            .map(|b| checkpoints::resident(b, self.seed, 2_000))
                            .collect();
                        self.attempts.lock().unwrap().push(Attempt {
                            label,
                            resident,
                            outcome: None,
                        });
                    }
                }
                (EventKind::Point, "segment_restore") => {
                    let Some(label) = RUNNING.with(|running| running.borrow().clone()) else {
                        return;
                    };
                    let mut attempts = self.attempts.lock().unwrap();
                    if let Some(attempt) = attempts.iter_mut().rev().find(|a| a.label == label) {
                        attempt.outcome = text("outcome");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn the_subprocess_prepass_persists_both_stores_and_holds_nothing() {
        let dir = std::env::temp_dir().join(format!("ltc-prepass-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (seed, warmup) = (0x5eed_0001, 2_000);
        let job: TracePrepass = BTreeMap::from([(warmup, vec![10_000, 20_000, 30_000])]);
        let held = run_prepass(vec![(("gzip", seed), job)], 2, Some(&dir), false);
        assert!(lock_recover(&held.0).is_empty(), "nothing held for subprocess workers");
        assert_eq!(checkpoints::resident("gzip", seed, warmup), None);
        for path in [
            checkpoints::store_path(&dir, "gzip", seed),
            checkpoints::warm_store_path(&dir, "gzip", seed, warmup),
        ] {
            assert!(path.is_file(), "{} written", path.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_threads_run_persists_beside_its_cache_and_exports_nothing() {
        let dir = std::env::temp_dir().join(format!("ltc-prepass-threads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = 0x5eed_0005;
        let mut s = Scheduler::new();
        s.request_all(segmented_parents(&["gzip"], seed));
        s.execute(&EngineOptions::cached(2, &dir)).unwrap();
        // The stores go where the run resolves its directory: beside the
        // cache, unless `LTC_CHECKPOINT_DIR` names another.
        let checkpoints = checkpoints::checkpoint_dir(Some(dir.join("checkpoints"))).unwrap();
        assert!(checkpoints::warm_store_path(&checkpoints, "gzip", seed, 2_000).is_file());
        // Tests of one binary share the environment: a run exporting its
        // own directory would hand it to every other test's run.
        let exported = std::env::var_os(checkpoints::CHECKPOINT_DIR_ENV).map(PathBuf::from);
        assert_ne!(exported, Some(dir.join("checkpoints")), "in-process runs leave it alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_thread_forgets_each_trace_after_its_last_restoring_segment() {
        let seed = 0x5eed_0002;
        let mut s = Scheduler::new();
        s.request_all(segmented_parents(&["gzip", "mcf"], seed));
        let attempts = Watch::run(&s, &EngineOptions::in_memory(1), &["gzip", "mcf"], seed);
        // Equal-cost segments run in request order: gzip's four, then
        // mcf's. Both traces are held until gzip's last segment is done;
        // then only mcf's.
        assert_eq!(attempts.len(), 8, "{attempts:?}");
        for (i, Attempt { label, resident, outcome }) in attempts.iter().enumerate() {
            let gzip = if i < 4 { Some("held") } else { None };
            assert!(label.contains(if i < 4 { "/gzip/" } else { "/mcf/" }), "{label}");
            assert_eq!(resident, &[gzip, Some("held")], "as {label} began");
            let expected = if i % 4 == 0 { "cold_start" } else { "warm_image" };
            assert_eq!(outcome.as_deref(), Some(expected), "{label}");
        }
        assert_eq!(checkpoints::resident("gzip", seed, 2_000), None);
        assert_eq!(checkpoints::resident("mcf", seed, 2_000), None);
    }

    #[test]
    fn no_store_stays_resident_after_a_threads_run() {
        let seed = 0x5eed_0003;
        let benchmarks = ["gzip", "mcf", "swim"];
        let mut s = Scheduler::new();
        s.request_all(segmented_parents(&benchmarks, seed));
        let attempts = Watch::run(&s, &EngineOptions::in_memory(2), &benchmarks, seed);
        let restored = attempts.iter().filter(|a| a.outcome.as_deref() == Some("warm_image"));
        assert_eq!(restored.count(), 3 * 3, "every non-zero segment restored");
        for benchmark in benchmarks {
            assert_eq!(checkpoints::resident(benchmark, seed, 2_000), None, "{benchmark}");
        }
    }

    #[test]
    fn a_retried_restoring_segment_still_finds_its_stores() {
        let seed = 0x5eed_0004;
        let parents = segmented_parents(&["gzip", "mcf"], seed);
        let victim = segmented::children(&parents[0]).unwrap().pop().unwrap().label();
        let mut s = Scheduler::new();
        s.request_all(parents);
        let opts = EngineOptions {
            fault: FaultPolicy {
                inject: FaultInject::parse(&format!("panic-once:{victim}")),
                retries: 1,
                ..FaultPolicy::default()
            },
            ..EngineOptions::in_memory(1)
        };
        let attempts = Watch::run(&s, &opts, &["gzip", "mcf"], seed);
        // The panicking attempt fails before it executes, and its retry
        // runs last, after mcf's segments have let mcf's stores go.
        let tries: Vec<&Attempt> = attempts.iter().filter(|a| a.label == victim).collect();
        assert_eq!(tries.len(), 2, "{tries:?}");
        assert_eq!(tries[0].outcome, None, "the failed attempt never ran the segment");
        assert_eq!(tries[1].resident, [Some("held"), None], "gzip still held for the retry");
        assert_eq!(tries[1].outcome.as_deref(), Some("warm_image"));
        assert_eq!(checkpoints::resident("gzip", seed, 2_000), None);
    }
}
