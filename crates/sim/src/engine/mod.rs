//! The unified experiment engine.
//!
//! The paper's evaluation is one matrix — benchmark × predictor × mode ×
//! budget × seed — but the figure binaries used to re-run overlapping
//! simulations independently. The engine turns every experiment into a
//! declarative [`RunSpec`] key, collects the specs every requested figure
//! needs, dedupes them, executes the unique set once across a bounded
//! worker pool, and hands each figure a [`ResultSet`] to assemble its
//! table from:
//!
//! 1. [`spec`] — [`RunSpec`]: the canonical experiment key and its
//!    execution dispatch. Serialization is canonical and injective, so a
//!    spec's compact JSON doubles as its dedup and cache key — and as the
//!    wire format of the subprocess worker protocol. The key embeds
//!    [`spec::MODEL_VERSION`] so artifacts from older model behaviour
//!    self-detect as stale.
//! 2. [`scheduler`] — [`Scheduler`]: spec collection, dedup (first-seen
//!    order), and artifact-cache consultation — the *plan*.
//! 3. [`backend`] — [`ExecutionBackend`]: the *execution*, pluggable
//!    behind the scheduler seam: a scoped-thread pool that runs the
//!    longest specs first, or a pool of `ltsim worker` subprocesses
//!    speaking JSON lines.
//! 4. [`progress`] — [`ProgressSubscriber`]: live completed/total,
//!    per-spec timing and ETA, rendered from the telemetry stream every
//!    backend emits.
//! 5. [`result`] — [`RunResult`]/[`ResultSet`]: typed results keyed by
//!    spec, with provenance counters (simulated vs served from cache).
//! 6. [`artifact`] — the `results/` cache: one JSON line per run, named
//!    by the spec's FNV-1a hash, plus JSON/CSV export helpers.
//! 7. [`segmented`] — fan-out/reduce for segmented streaming runs: a
//!    `stream-segmented` spec expands to per-segment child specs before
//!    backend dispatch and its report is merged from their partial
//!    summaries.
//! 8. [`checkpoints`] — shared segment starts: the scheduler records a
//!    generator checkpoint and a warm hierarchy image at every slice
//!    start once per `(benchmark, seed, warm-up)`, traces in parallel on
//!    the pool's thread count. Each segment worker restores its pair
//!    instead of regenerating an O(start) prefix and replaying the
//!    warm-up, or replays from access 0 without one (on-disk hand-off to
//!    subprocess workers via `LTC_CHECKPOINT_DIR`).
//! 9. [`fsutil`] — crash-safe persistence shared by the stores above:
//!    every on-disk write stages into a pid-suffixed tmp file, fsyncs,
//!    and renames; startup sweeps staging files leaked by dead
//!    processes.
//!
//! Execution is *supervised*: every backend runs under a [`FaultPolicy`]
//! (retry budget, per-spec timeout, respawn backoff, and the
//! `LTC_FAULT_INJECT` chaos knob). A panicking worker thread or a dead
//! `ltsim worker` child costs the in-flight spec one attempt and
//! requeues it onto a surviving worker; dead children are respawned
//! with exponential backoff. Since artifacts persist as each spec
//! completes and segment partials are mergeable, re-execution is
//! idempotent — a fault-injected run produces byte-identical artifacts
//! to a clean one. Exhausted budgets surface as typed [`BackendError`]s
//! naming the specs involved instead of panicking the pool.
//!
//! The whole pipeline is instrumented with `ltc_telemetry`: the
//! scheduler emits planning spans, dedup/cache counters, and per-spec
//! `cache_probe` points; every backend wraps each execution in a `spec`
//! span carrying queue-wait vs run time and tags its workers with ids;
//! subprocess children forward their own events over the worker protocol
//! as `{"event":…}` frames interleaved with result lines. With no
//! subscriber installed the instrumentation is inert (one atomic load on
//! the warm paths). [`ProgressSubscriber`] renders every
//! [`ProgressMode`] from that event stream; [`Scheduler::execute_into`]
//! installs one for [`EngineOptions::progress`] while it executes.
//!
//! # Example
//!
//! ```
//! use ltc_sim::engine::{EngineOptions, RunSpec, Scheduler};
//! use ltc_sim::experiment::PredictorKind;
//!
//! let mut sched = Scheduler::new();
//! // Two figures requesting the same run → one execution.
//! let spec = RunSpec::coverage("gzip", PredictorKind::Baseline, 20_000, 1);
//! sched.request(spec.clone());
//! sched.request(spec.clone());
//! let results = sched.execute(&EngineOptions::in_memory(2)).unwrap();
//! assert_eq!(results.simulated(), 1);
//! assert!(results.coverage(&spec).base_l1_misses > 0);
//! ```

pub mod artifact;
pub mod backend;
pub mod checkpoints;
pub mod fsutil;
pub mod progress;
pub mod result;
pub mod scheduler;
pub mod segmented;
pub mod spec;

pub use backend::{
    BackendError, BackendKind, ExecutionBackend, FaultInject, FaultPolicy, NullObserver,
    RunObserver, SubprocessBackend, ThreadPoolBackend, FAULT_INJECT_ENV,
};
pub use progress::{ProgressMode, ProgressSubscriber, TextProgress};
pub use result::{ResultSet, RunResult};
pub use scheduler::{EngineOptions, Scheduler};
pub use spec::{Mode, RunSpec, MODEL_VERSION};
