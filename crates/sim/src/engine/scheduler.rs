//! Spec planning: collection, dedup, and cache probing.
//!
//! The [`Scheduler`] owns the *plan* — what must run — and delegates the
//! *execution* to the worker pool ([`BackendKind::execute`]) on the
//! backend the [`EngineOptions`] select. Artifact persistence hooks into
//! execution through a [`RunObserver`] implemented here, and progress is
//! rendered from the telemetry stream every worker emits, so both behave
//! identically across backends.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::artifact;
use crate::engine::backend::{BackendKind, FaultPolicy, RunObserver};
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
        // O(start) skip loop and O(warm-up) cache rebuild. The in-process
        // backend finds the stores in the process registry; subprocess
        // workers read them from `LTC_CHECKPOINT_DIR` when set. Traces
        // record in parallel, one per job on `opts.threads` workers, in
        // `(benchmark, seed)` order; a job covers each warm-up length its
        // segments use.
        let mut prepass: BTreeMap<(&str, u64), TracePrepass> = BTreeMap::new();
        for spec in &to_run {
            if let Mode::StreamSegment { segments, segment, warmup, .. } = spec.mode {
                let start = ltc_trace::TraceSegment::nth(spec.accesses, segments, segment).start;
                if start > 0 {
                    let job = prepass.entry((&spec.benchmark, spec.seed)).or_default();
                    job.entry(warmup).or_default().push(start);
                }
            }
        }
        let seek_span = ltc_telemetry::span("scheduler.checkpoints", Vec::new());
        let traces = prepass.len() as u64;
        if !prepass.is_empty() {
            // Default the on-disk hand-off next to the artifact cache so
            // subprocess workers inherit populated stores without the
            // caller exporting LTC_CHECKPOINT_DIR themselves.
            if std::env::var_os(checkpoints::CHECKPOINT_DIR_ENV).is_none() {
                if let Some(dir) = &opts.cache_dir {
                    std::env::set_var(checkpoints::CHECKPOINT_DIR_ENV, dir.join("checkpoints"));
                }
            }
            run_prepass(prepass.into_iter().collect(), opts.threads);
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
        let observer =
            PersistingObserver { cache_dir: opts.cache_dir.as_deref(), store_error: &store_error };
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
/// of its segments, per warm-up length.
type TracePrepass = BTreeMap<u64, Vec<u64>>;

/// Records each trace's segment starts ([`checkpoints::ensure`]), one
/// trace per job, on up to `threads` scoped workers pulling from `jobs`
/// in order. Jobs share only the mutex-guarded registry and the
/// checkpoint directory, and each writes only its own trace's store
/// files (atomically), so the stores are byte-identical at any thread
/// count.
fn run_prepass(jobs: Vec<((&str, u64), TracePrepass)>, threads: usize) {
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
                        checkpoints::ensure(benchmark, *seed, *warmup, starts);
                    }
                }
            });
        }
    });
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
/// artifact cache from the worker that produced it.
struct PersistingObserver<'a> {
    cache_dir: Option<&'a Path>,
    store_error: &'a Mutex<Option<io::Error>>,
}

impl RunObserver for PersistingObserver<'_> {
    fn finished(&self, spec: &RunSpec, result: &RunResult) {
        if let Some(dir) = self.cache_dir {
            if let Err(e) = artifact::store(dir, spec, result) {
                self.store_error.lock().expect("store-error lock").get_or_insert(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
