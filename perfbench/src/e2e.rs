//! One cold run of a workload through the experiment engine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ltc_sim::engine::{
    artifact, segmented, BackendKind, EngineOptions, FaultPolicy, Mode, ProgressMode,
    ProgressSubscriber, ResultSet, RunResult, RunSpec, Scheduler,
};
use ltc_sim::experiment::PredictorKind;
use ltc_telemetry::{Aggregator, Event, EventKind, Subscriber};

use crate::workload::{self, Workload};
use crate::{Args, Json};

/// Seconds since the Unix epoch: the clock `run.py` stamps the launch
/// with, so set-up time includes process start-up.
fn unix_now() -> f64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64())
}

/// Notes when the first spec starts executing, which ends set-up. In
/// `--setup-only` mode it reports that instant and ends the process.
struct FirstSpec {
    seen: AtomicBool,
    at: Mutex<Option<f64>>,
    exit: bool,
}

impl Subscriber for FirstSpec {
    fn event(&self, event: &Event) {
        if event.kind != EventKind::SpanBegin
            || event.name != "spec"
            || self.seen.swap(true, Ordering::SeqCst)
        {
            return;
        }
        let now = unix_now();
        if self.exit {
            println!("{}", Json::obj([("first_spec_unix", Json::Num(now))]).render());
            std::process::exit(0);
        }
        *self.at.lock().expect("first-spec lock is never poisoned") = Some(now);
    }
}

/// Folds the run's spans: worker busy time, retried attempts, and the
/// wall time of the execution phase.
#[derive(Default)]
struct SpanStats(Mutex<Spans>);

#[derive(Default, Clone, Copy)]
struct Spans {
    busy_us: u64,
    retries: u64,
    execute_us: u64,
}

impl Subscriber for SpanStats {
    fn event(&self, event: &Event) {
        let field = |name: &str| event.field(name).and_then(|v| v.as_u64()).unwrap_or(0);
        let mut spans = self.0.lock().expect("span-stats lock is never poisoned");
        match (event.kind, event.name.as_str()) {
            (EventKind::SpanEnd, "spec") => spans.busy_us += field("run_us"),
            (EventKind::SpanEnd, "scheduler.execute") => spans.execute_us += field("elapsed_us"),
            (EventKind::Point, "spec.retry") => spans.retries += 1,
            _ => {}
        }
    }
}

/// Runs one cold pass of the workload and prints its report line.
pub fn run(args: &Args) -> Result<(), String> {
    let out = args.out.clone().ok_or("e2e needs --out DIR")?;
    let backend = match args.backend.as_deref().unwrap_or(args.workload.backend()) {
        "threads" => BackendKind::Threads,
        "subprocess" => {
            let ltsim = args.ltsim.as_ref().ok_or("the subprocess backend needs --ltsim PATH")?;
            BackendKind::Subprocess {
                command: vec![ltsim.display().to_string(), "worker".to_string()],
            }
        }
        other => return Err(format!("unknown backend: {other}")),
    };
    let specs = workload::specs(args.workload, &args.scale, args.seed);
    let outputs = workload::outputs(&specs);

    // `ltsim run` and `ltsim stream` install an aggregator and the
    // progress renderer (`--progress off` here) and, without `--events`,
    // no log. The set-up probe and the span fold only note a few events.
    let aggregator = Arc::new(Aggregator::new());
    let first = Arc::new(FirstSpec {
        seen: AtomicBool::new(false),
        at: Mutex::new(None),
        exit: args.setup_only,
    });
    let spans = Arc::new(SpanStats::default());
    let mut tokens = vec![
        ltc_telemetry::install(aggregator.clone()),
        ltc_telemetry::install(Arc::new(ProgressSubscriber::new(ProgressMode::Off))),
        ltc_telemetry::install(first.clone()),
    ];
    if args.spans {
        tokens.push(ltc_telemetry::install(spans.clone()));
    }
    let opts = EngineOptions {
        threads: args.threads,
        cache_dir: Some(out.clone()),
        force: false,
        backend,
        progress: ProgressMode::Off,
        fault: FaultPolicy::from_env(),
    };
    let mut sched = Scheduler::new();
    sched.request_all(specs.iter().cloned());
    let mut results = ResultSet::new();
    let executed = sched.execute_into(&mut results, &opts);
    ltc_telemetry::flush();
    for token in tokens {
        ltc_telemetry::uninstall(token);
    }

    // Every output must exist in memory and on disk, byte for byte the
    // same; `run.py` then compares the files with the reference digests.
    let mut failed = 0u64;
    let mut differ = 0u64;
    for spec in &outputs {
        match (results.get(spec), std::fs::read(artifact::path_for(&out, spec))) {
            (Some(result), Ok(bytes)) => {
                let line = artifact::json_line(spec, result) + "\n";
                differ += u64::from(bytes != line.as_bytes());
            }
            _ => failed += 1,
        }
    }
    if executed.is_err() {
        failed = outputs.len() as u64;
    }
    let hashes = |keep: fn(&RunSpec) -> bool| {
        Json::List(outputs.iter().filter(|s| keep(s)).map(|s| Json::Str(s.hash_hex())).collect())
    };
    let first_spec = *first.at.lock().expect("first-spec lock is never poisoned");
    let mut report = vec![
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Int(args.seed)),
        ("threads", Json::Int(args.threads as u64)),
        ("accesses", Json::Int(specs.iter().map(|s| s.accesses).sum())),
        ("attempted", Json::Int(outputs.len() as u64)),
        ("failed", Json::Int(failed)),
        ("differ", Json::Int(differ)),
        ("first_spec_unix", Json::Num(first_spec.unwrap_or(f64::NAN))),
        ("outputs", hashes(|_| true)),
        ("children", hashes(|s| matches!(s.mode, Mode::StreamSegment { .. }))),
        ("headline", Json::obj(headline(args.workload, &specs, &results))),
    ];
    if args.spans && executed.is_ok() {
        let folded = *spans.0.lock().expect("span-stats lock is never poisoned");
        let engine =
            engine_figures(args, &sched, &specs, &outputs, &results, folded, aggregator.events())?;
        report.push(("engine", engine));
    }
    println!("{}", Json::obj(report).render());
    executed.map_err(|e| format!("engine run failed: {e}"))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The modelled numbers the workload exists to produce.
fn headline(workload: Workload, specs: &[RunSpec], results: &ResultSet) -> Vec<(String, Json)> {
    match workload {
        // Figure 8's "average coverage" line.
        Workload::Coverage => [PredictorKind::LtCords, PredictorKind::DbcpUnlimited]
            .iter()
            .map(|&kind| {
                let coverage: Vec<f64> = specs
                    .iter()
                    .filter(|s| s.predictor == kind)
                    .filter_map(|s| results.get(s)?.as_coverage())
                    .map(|r| r.correct_pct())
                    .collect();
                (format!("{}_mean_coverage", kind.name()), Json::Num(mean(&coverage)))
            })
            .collect(),
        // Table 3's LT-cords column, averaged over the suite.
        Workload::Timing => {
            let speedups: Vec<f64> = specs
                .iter()
                .filter(|s| s.predictor == PredictorKind::LtCords)
                .filter_map(|s| {
                    let base =
                        RunSpec::timing(&s.benchmark, PredictorKind::Baseline, s.accesses, s.seed);
                    let base = results.get(&base)?.as_timing()?;
                    Some(results.get(s)?.as_timing()?.speedup_pct_over(base))
                })
                .collect();
            vec![("lt-cords_mean_speedup_pct".to_string(), Json::Num(mean(&speedups)))]
        }
        Workload::StreamSeg => {
            let misses = specs
                .iter()
                .filter_map(|s| match results.get(s)? {
                    RunResult::Stream(report) => Some(report.misses),
                    _ => None,
                })
                .sum();
            vec![("l1d_misses".to_string(), Json::Int(misses))]
        }
    }
}

/// The engine-layer figures of a `--spans` run, timed after it from the
/// outside on its own specs and results.
fn engine_figures(
    args: &Args,
    sched: &Scheduler,
    specs: &[RunSpec],
    outputs: &[RunSpec],
    results: &ResultSet,
    spans: Spans,
    events: u64,
) -> Result<Json, String> {
    let out = args.out.as_deref().expect("checked by run");
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

    // Planning as the scheduler does it on a cold cache: dedup, then one
    // artifact probe per spec, segmented parents expanded into their
    // children. Median of five passes.
    let empty = out.join("empty-cache");
    std::fs::create_dir_all(&empty).map_err(|e| format!("creating {}: {e}", empty.display()))?;
    let mut plan: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for spec in sched.unique() {
                let children = segmented::children(&spec).unwrap_or_default();
                for probe in std::iter::once(&spec).chain(&children) {
                    let _ = std::hint::black_box(artifact::load(&empty, probe));
                }
            }
            ms(start)
        })
        .collect();
    plan.sort_by(f64::total_cmp);

    // Every output stored again, as the run's observer stores it.
    let rewrite = out.join("rewrite");
    let start = Instant::now();
    for spec in outputs {
        if let Some(result) = results.get(spec) {
            artifact::store(&rewrite, spec, result)
                .map_err(|e| format!("storing {}: {e}", spec.label()))?;
        }
    }
    let write_ms = ms(start) / outputs.len().max(1) as f64;
    let _ = std::fs::remove_dir_all(&rewrite);

    // Each segmented parent reduced from its children's partials.
    let parents: Vec<&RunSpec> =
        specs.iter().filter(|s| segmented::children(s).is_some()).collect();
    let start = Instant::now();
    for parent in &parents {
        std::hint::black_box(segmented::reduce(parent, results).map_err(|e| e.to_string())?);
    }
    let reduce_ms = if parents.is_empty() { f64::NAN } else { ms(start) / parents.len() as f64 };

    let slots = args.threads as f64 * spans.execute_us as f64;
    Ok(Json::obj([
        ("plan_ms", Json::Num(plan[plan.len() / 2])),
        ("artifact_write_ms", Json::Num(write_ms)),
        ("reduce_ms", Json::Num(reduce_ms)),
        ("idle_frac", Json::Num(1.0 - spans.busy_us as f64 / slots)),
        ("retries", Json::Int(spans.retries)),
        ("events_per_spec", Json::Num(events as f64 / results.simulated().max(1) as f64)),
    ]))
}
