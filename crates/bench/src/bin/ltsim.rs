//! `ltsim` — command-line driver for LT-cords experiments.
//!
//! ```text
//! ltsim list
//! ltsim coverage <benchmark> [predictor] [accesses] [seed]
//! ltsim timing   <benchmark> [predictor] [accesses] [seed]
//! ltsim compare  <benchmark> [accesses]
//! ltsim power    [l1-miss-rate]
//! ltsim record   <benchmark> <file> [accesses] [seed]
//! ltsim replay   <file> [predictor]
//! ltsim plan     [--figures a,b,..] [--quick]
//! ltsim run      [--figures a,b,..] [--out DIR] [--quick] [--force] [--threads N]
//!                [--backend threads|subprocess] [--progress off|plain|live|auto]
//!                [--events FILE] [--retries N] [--spec-timeout SECS]
//! ltsim render   [--figures a,b,..] [--out DIR] [--format table|json|csv]
//! ltsim stream   <benchmark|all> [--budget BYTES] [--segments N] [--accesses N] [--seed N]
//!                [--out DIR] [--force] [--threads N] [--backend ...] [--progress ...]
//!                [--events FILE] [--retries N] [--spec-timeout SECS]
//! ltsim events   summarize <file>
//! ltsim worker
//! ```
//!
//! Predictors: `baseline`, `lt-cords`, `dbcp`, `dbcp-unlimited`,
//! `sketch-dbcp`, `ghb`, `stride`, `perfect-l1`, `4mb-l2`.
//!
//! The figure subcommands route through `ltc_sim::engine`: `plan` prints
//! the deduplicated spec set the figures need, `run` executes it (reusing
//! the `--out` artifact cache) and prints every table, `render` rebuilds
//! tables — or JSON lines, or CSV — purely from cached artifacts without
//! simulating anything.
//!
//! `run --backend` selects the execution backend (see EXPERIMENTS.md
//! "Choosing a backend"), and `--threads N` its worker count (one per
//! core by default); `subprocess` re-invokes this binary's `worker`
//! subcommand, which reads one canonical `RunSpec` JSON line per request
//! from stdin and answers each with one `RunResult` JSON line on stdout
//! until stdin closes.
//!
//! Execution is supervised (see EXPERIMENTS.md "Fault tolerance"):
//! `--retries N` sets the per-spec retry budget (default 2) and
//! `--spec-timeout SECS` arms a per-spec wall-clock timeout on the
//! subprocess backend. A dead worker's in-flight spec requeues onto a
//! survivor and the child is respawned with exponential backoff. The
//! `LTC_FAULT_INJECT` environment variable injects faults for chaos
//! testing (`panic-once:<label>`, `exit-after:<n>`, `hang-before:<n>`).
//!
//! `run --events FILE` (also on `stream`) records the structured
//! telemetry stream — scheduler planning, per-spec spans with queue-wait
//! vs run time, segment-restore outcomes, sketch occupancy gauges,
//! warnings — as JSON lines (schema v1, see `ltc_sim::engine::eventlog`),
//! including events forwarded from subprocess workers. `events
//! summarize` folds a recorded log through the same aggregator a live
//! run installs and renders it as per-phase/per-spec breakdown tables.
//! Progress/ETA rendering itself rides the same event stream (the
//! engine installs a `ProgressSubscriber` for `--progress` while it
//! executes), and every successful `run`/`stream` ends with a one-line
//! summary from the in-memory aggregator even under `--progress off`.
//! A failed run prints no summary but still flushes its event log.
//!
//! `stream` runs the bounded-memory one-pass miss analysis. Its runs are
//! ordinary `RunSpec`s (mode `stream`, budget in the key), so they
//! dedupe, cache and execute through the same scheduler and backends as
//! the figures. `--segments N` splits each trace into N slices that the
//! selected backend summarizes in parallel (each worker within the byte
//! budget) and merges into one report — see EXPERIMENTS.md "Segmented
//! streaming" for when the merge is exact vs approximate.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

use ltc_bench::harness::{self, FigureDef};
use ltc_bench::Scale;
use ltc_sim::engine::eventlog::{self, JsonLinesWriter};
use ltc_sim::engine::{
    artifact, BackendKind, EngineOptions, FaultInject, FaultPolicy, ProgressMode, ResultSet,
    RunSpec, FAULT_INJECT_ENV,
};
use ltc_sim::experiment::{run_coverage, run_timing, PredictorKind};
use ltc_sim::report::{pct1, Table};
use ltc_sim::trace::suite;

fn parse_kind(name: &str) -> Result<PredictorKind, String> {
    Ok(match name {
        "baseline" => PredictorKind::Baseline,
        "lt-cords" | "ltcords" => PredictorKind::LtCords,
        "dbcp" => PredictorKind::Dbcp2Mb,
        "dbcp-unlimited" => PredictorKind::DbcpUnlimited,
        "sketch-dbcp" => PredictorKind::SketchDbcp(DEFAULT_STREAM_BUDGET),
        "ghb" => PredictorKind::Ghb,
        "stride" => PredictorKind::Stride,
        "perfect-l1" => PredictorKind::PerfectL1,
        "4mb-l2" => PredictorKind::BigL2,
        other => return Err(format!("unknown predictor: {other}")),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("coverage") => cmd_coverage(&args[1..]),
        Some("timing") => cmd_timing(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("power") => cmd_power(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("events") => cmd_events(&args[1..]),
        Some("worker") => cmd_worker(),
        _ => {
            eprintln!(
                "usage: ltsim <list|coverage|timing|compare|power|record|replay|plan|run|render|stream|events|worker> ..."
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_list() -> Result<(), String> {
    let mut t = Table::new(vec!["benchmark", "class", "description"]);
    for e in suite::benchmarks() {
        t.row(vec![e.name.to_string(), e.class.to_string(), e.description.to_string()]);
    }
    print!("{}", t.render());
    Ok(())
}

fn arg<'a>(args: &'a [String], i: usize, default: &'a str) -> &'a str {
    args.get(i).map(String::as_str).unwrap_or(default)
}

fn cmd_coverage(args: &[String]) -> Result<(), String> {
    let bench = args.first().ok_or("coverage needs a benchmark name")?;
    suite::by_name(bench).ok_or_else(|| format!("unknown benchmark: {bench}"))?;
    let kind = parse_kind(arg(args, 1, "lt-cords"))?;
    let accesses: u64 = arg(args, 2, "2000000").parse().map_err(|_| "accesses must be a number")?;
    let seed: u64 = arg(args, 3, "1").parse().map_err(|_| "seed must be a number")?;
    let r = run_coverage(bench, kind, accesses, seed);
    println!("benchmark            {bench}");
    println!("predictor            {}", r.predictor);
    println!("accesses             {}", r.accesses);
    println!("base L1 miss rate    {}", pct1(r.base_l1_miss_rate()));
    println!("base L2 miss rate    {}", pct1(r.base_l2_miss_rate()));
    println!("coverage             {}", pct1(r.coverage()));
    println!("correct              {}", pct1(r.correct_pct()));
    println!("incorrect            {}", pct1(r.incorrect_pct()));
    println!("train                {}", pct1(r.train_pct()));
    println!("early                {}", pct1(r.early_pct()));
    println!("off-chip L2 coverage {}", pct1(r.l2_coverage()));
    println!("predictor storage    {} bytes on chip", r.storage_bytes);
    println!("metadata traffic     {} bytes", r.traffic.total());
    Ok(())
}

fn cmd_timing(args: &[String]) -> Result<(), String> {
    let bench = args.first().ok_or("timing needs a benchmark name")?;
    suite::by_name(bench).ok_or_else(|| format!("unknown benchmark: {bench}"))?;
    let kind = parse_kind(arg(args, 1, "lt-cords"))?;
    let accesses: u64 = arg(args, 2, "400000").parse().map_err(|_| "accesses must be a number")?;
    let seed: u64 = arg(args, 3, "1").parse().map_err(|_| "seed must be a number")?;
    let r = run_timing(bench, kind, accesses, seed);
    println!("benchmark   {bench}");
    println!("predictor   {}", r.predictor);
    println!("IPC         {:.3}", r.ipc());
    println!("L1 misses   {}", r.l1_misses);
    println!("L2 misses   {}", r.l2_misses);
    println!("bus traffic {:.2} bytes/instr", r.bandwidth.bytes_per_instruction(r.instructions));
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let bench = args.first().ok_or("compare needs a benchmark name")?;
    suite::by_name(bench).ok_or_else(|| format!("unknown benchmark: {bench}"))?;
    let accesses: u64 = arg(args, 1, "400000").parse().map_err(|_| "accesses must be a number")?;
    let base = run_timing(bench, PredictorKind::Baseline, accesses, 1);
    let mut t = Table::new(vec!["predictor", "IPC", "speedup"]);
    t.row(vec!["baseline".into(), format!("{:.3}", base.ipc()), "-".into()]);
    for kind in [
        PredictorKind::PerfectL1,
        PredictorKind::LtCords,
        PredictorKind::Ghb,
        PredictorKind::Dbcp2Mb,
        PredictorKind::BigL2,
    ] {
        let r = run_timing(bench, kind, accesses, 1);
        t.row(vec![
            kind.name().into(),
            format!("{:.3}", r.ipc()),
            format!("{:+.0}%", r.speedup_pct_over(&base)),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_power(args: &[String]) -> Result<(), String> {
    use ltc_sim::timing::PowerComparison;
    let miss_rate: f64 = arg(args, 0, "0.2").parse().map_err(|_| "miss rate must be a number")?;
    if !(0.0..=1.0).contains(&miss_rate) {
        return Err("miss rate must be in [0,1]".into());
    }
    let c = PowerComparison::at_miss_rate(miss_rate);
    println!("Section 5.9 power comparison at {:.0}% L1D miss rate", miss_rate * 100.0);
    println!("L1D dynamic energy      {:.1} pJ/access", c.l1d_pj_per_access);
    println!("LT-cords dynamic energy {:.1} pJ/access", c.ltcords_pj_per_access);
    println!("dynamic ratio           {:.0}% (paper: ~48%)", c.dynamic_ratio() * 100.0);
    println!("leakage ratio           {:.1}x (before high-Vt mitigation)", c.leakage_ratio);
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let bench = args.first().ok_or("record needs a benchmark name")?;
    let entry = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark: {bench}"))?;
    let path = args.get(1).ok_or("record needs an output file")?;
    let accesses: u64 = arg(args, 2, "1000000").parse().map_err(|_| "accesses must be a number")?;
    let seed: u64 = arg(args, 3, "1").parse().map_err(|_| "seed must be a number")?;
    let mut src = entry.build(seed);
    let in_path = |e: std::io::Error| format!("{path}: {e}");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(in_path)?;
    let n = ltc_sim::trace::io::write_trace(&mut src, std::io::BufWriter::new(file), accesses)
        .map_err(in_path)?;
    println!("recorded {n} accesses of {bench} to {path}");
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    use ltc_sim::analysis::{run_coverage as run_cov, CoverageConfig};
    let path = args.first().ok_or("replay needs a trace file")?;
    let kind = parse_kind(arg(args, 1, "lt-cords"))?;
    let in_path = |e: std::io::Error| format!("{path}: {e}");
    let file = std::fs::File::open(path).map_err(in_path)?;
    // Decode record by record instead of materializing the whole trace,
    // so arbitrarily long recordings replay in bounded memory.
    let mut replay =
        ltc_sim::trace::io::TraceReader::new(std::io::BufReader::new(file)).map_err(in_path)?;
    let mut predictor = kind.build();
    let r = run_cov(&mut replay, predictor.as_mut(), CoverageConfig::paper(u64::MAX));
    if let Some(err) = replay.error() {
        return Err(format!("{path}: trace stream ended early: {err}"));
    }
    println!("replayed {} accesses under {}", r.accesses, kind.name());
    println!("coverage {}", pct1(r.coverage()));
    Ok(())
}

/// Figure-subcommand flags shared by `plan`, `run` and `render`.
struct FigureArgs {
    figures: Vec<&'static FigureDef>,
    scale: Scale,
    format: String,
    opts: EngineOptions,
    /// `--events FILE`: record the telemetry stream as JSON lines.
    events: Option<String>,
}

/// The worker argv for `--backend subprocess`: this very binary,
/// re-invoked with the `worker` subcommand.
fn self_worker_command() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the ltsim binary for subprocess workers: {e}"))?;
    Ok(vec![exe.to_string_lossy().into_owned(), "worker".to_string()])
}

/// Parses one engine flag (`--out`, `--force`, `--threads`, `--backend`,
/// `--progress`, `--events`, `--retries`, `--spec-timeout`) into
/// `opts`/`events`. Shared by the figure subcommands and `stream` so the
/// engine surface cannot drift between them. Returns `Ok(false)` when
/// `arg` is not an engine flag.
fn parse_engine_flag(
    arg: &str,
    it: &mut std::slice::Iter<'_, String>,
    opts: &mut EngineOptions,
    events: &mut Option<String>,
) -> Result<bool, String> {
    match arg {
        "--events" => *events = Some(it.next().ok_or("--events needs a file path")?.clone()),
        "--out" => opts.cache_dir = Some(it.next().ok_or("--out needs a directory")?.into()),
        "--force" => opts.force = true,
        "--threads" => {
            opts.threads = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n > 0)
                .ok_or("--threads needs a positive number")?;
        }
        "--backend" => {
            let name = it.next().ok_or("--backend needs threads|subprocess")?;
            opts.backend = match name.as_str() {
                "threads" => BackendKind::Threads,
                "subprocess" => BackendKind::Subprocess { command: self_worker_command()? },
                other => return Err(format!("unknown backend: {other}")),
            };
        }
        "--progress" => {
            let name = it.next().ok_or("--progress needs off|plain|live|auto")?;
            opts.progress = ProgressMode::parse(name)
                .ok_or_else(|| format!("unknown progress mode: {name}"))?;
        }
        "--retries" => {
            opts.fault.retries = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--retries needs a non-negative number")?;
        }
        "--spec-timeout" => {
            let secs: f64 = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&s: &f64| s > 0.0 && s.is_finite())
                .ok_or("--spec-timeout needs a positive number of seconds")?;
            opts.fault.spec_timeout = Some(std::time::Duration::from_secs_f64(secs));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_figure_args(args: &[String]) -> Result<FigureArgs, String> {
    let scale = if args.iter().any(|a| a == "--quick") { Scale::quick() } else { Scale::full() };
    let mut out = FigureArgs {
        figures: harness::registry().iter().collect(),
        scale,
        format: "table".to_string(),
        opts: EngineOptions {
            progress: ProgressMode::Auto,
            // Pick up LTC_FAULT_INJECT for chaos runs; --retries /
            // --spec-timeout refine the policy below.
            fault: FaultPolicy::from_env(),
            ..EngineOptions::default()
        },
        events: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if parse_engine_flag(a, &mut it, &mut out.opts, &mut out.events)? {
            continue;
        }
        match a.as_str() {
            "--figures" => {
                let list = it.next().ok_or("--figures needs a comma-separated list")?;
                out.figures = list
                    .split(',')
                    .map(|name| {
                        harness::by_name(name.trim())
                            .ok_or_else(|| format!("unknown figure: {name}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--format" => {
                out.format = it.next().ok_or("--format needs table|json|csv")?.clone();
                if !["table", "json", "csv"].contains(&out.format.as_str()) {
                    return Err(format!("unknown format: {}", out.format));
                }
            }
            "--quick" => {}
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(out)
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let fa = parse_figure_args(args)?;
    let mut t = Table::new(vec!["figure", "requested", "unique"]);
    let mut total_requested = 0usize;
    for def in fa.figures.iter().copied() {
        let specs = harness::plan(&[def], fa.scale);
        total_requested += specs.len();
        t.row(vec![def.name.to_string(), specs.len().to_string(), String::new()]);
    }
    let plan = harness::plan(&fa.figures, fa.scale);
    t.row(vec!["total".into(), total_requested.to_string(), plan.len().to_string()]);
    print!("{}", t.render());
    println!("\ndeduplicated first-wave specs ({}):", plan.len());
    for spec in &plan {
        println!("  {}  {}", spec.hash_hex(), spec.label());
    }
    println!(
        "\n(result-dependent figures such as fig04 declare a second wave once \
         their first wave completes)"
    );
    Ok(())
}

/// The telemetry subscribers one `run`/`stream` invocation installs: an
/// in-memory aggregator (always — it powers the end-of-run summary
/// line) and the JSON-lines event log (with `--events`). The progress
/// renderer is the engine's own, installed per execution from
/// [`EngineOptions::progress`]. Dropping it flushes and uninstalls the
/// subscribers, so a run that fails still leaves its whole event log.
struct RunTelemetry {
    aggregator: Arc<ltc_telemetry::Aggregator>,
    writer: Option<(Arc<JsonLinesWriter>, String)>,
    tokens: Vec<ltc_telemetry::SubscriberToken>,
    started: Instant,
}

impl RunTelemetry {
    /// Installs the subscribers.
    fn install(events: Option<&String>) -> Result<RunTelemetry, String> {
        let aggregator = Arc::new(ltc_telemetry::Aggregator::new());
        let mut tokens = vec![ltc_telemetry::install(aggregator.clone())];
        let writer = match events {
            Some(path) => {
                let w = Arc::new(
                    JsonLinesWriter::create(std::path::Path::new(path))
                        .map_err(|e| format!("creating event log {path}: {e}"))?,
                );
                tokens.push(ltc_telemetry::install(w.clone()));
                Some((w, path.clone()))
            }
            None => None,
        };
        Ok(RunTelemetry { aggregator, writer, tokens, started: Instant::now() })
    }

    /// Ends a successful run: fails it, naming the event log, if the log
    /// met a write error; else prints the one-line end-of-run summary
    /// and the log's location, if any.
    fn finish(self) -> Result<(), String> {
        if let Some((writer, path)) = &self.writer {
            writer.finish().map_err(|e| format!("writing event log {path}: {e}"))?;
        }
        println!(
            "summary: {} specs run, {} deduped, {} served from artifact cache in {:.1}s",
            self.aggregator.counter("scheduler.simulated"),
            self.aggregator.counter("scheduler.deduped"),
            self.aggregator.counter("scheduler.cache_hits"),
            self.started.elapsed().as_secs_f64()
        );
        if let Some((writer, path)) = &self.writer {
            println!(
                "events: {} events ({} bytes) written to {path}",
                writer.events_written(),
                writer.bytes_written()
            );
        }
        Ok(())
    }
}

impl Drop for RunTelemetry {
    fn drop(&mut self) {
        ltc_telemetry::flush();
        for token in self.tokens.drain(..) {
            ltc_telemetry::uninstall(token);
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let fa = parse_figure_args(args)?;
    let telemetry = RunTelemetry::install(fa.events.as_ref())?;
    let mut results = ResultSet::new();
    harness::collect(&fa.figures, fa.scale, &fa.opts, &mut results).map_err(|e| e.to_string())?;
    for def in &fa.figures {
        println!("{}\n", def.title);
        println!("{}", (def.render)(fa.scale, &results));
    }
    println!("engine: {} simulated, {} from cache", results.simulated(), results.cache_hits());
    if let Some(dir) = &fa.opts.cache_dir {
        println!("artifacts: {} runs under {}", results.len(), dir.display());
    }
    telemetry.finish()
}

/// Results in deterministic (spec key) order for serialized output.
fn sorted(results: &ResultSet) -> Vec<(&ltc_sim::engine::RunSpec, &ltc_sim::engine::RunResult)> {
    let mut rows: Vec<_> = results.iter().collect();
    rows.sort_by_key(|(spec, _)| spec.key());
    rows
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let fa = parse_figure_args(args)?;
    let dir = fa
        .opts
        .cache_dir
        .as_deref()
        .ok_or("render needs --out DIR (the artifact cache to read)")?;
    let mut results = ResultSet::new();
    let missing = harness::load_cached(&fa.figures, fa.scale, dir, &mut results)
        .map_err(|e| e.to_string())?;
    if !missing.is_empty() {
        let mut msg = format!(
            "{} required runs are not cached under {} (run `ltsim run --out {}` first):\n",
            missing.len(),
            dir.display(),
            dir.display()
        );
        for spec in missing.iter().take(10) {
            msg.push_str(&format!("  {}\n", spec.label()));
        }
        if missing.len() > 10 {
            msg.push_str(&format!("  ... and {} more\n", missing.len() - 10));
        }
        return Err(msg);
    }
    match fa.format.as_str() {
        "table" => {
            for def in &fa.figures {
                println!("{}\n", def.title);
                println!("{}", (def.render)(fa.scale, &results));
            }
        }
        "json" => {
            for (spec, result) in sorted(&results) {
                println!("{}", artifact::json_line(spec, result));
            }
        }
        "csv" => print!("{}", artifact::to_csv(sorted(&results))),
        _ => unreachable!("validated in parse_figure_args"),
    }
    Ok(())
}

/// Default summary budget for `ltsim stream` and the `sketch-dbcp`
/// predictor shorthand: 256 KiB — 1/8 of the exact DBCP table's nominal
/// 2 MB, a mid-ladder point of the `sketch` figure. (That figure's
/// *headline* point is 1.5 MiB, 1/8 of the exact table's resident
/// bytes — see `ltc_bench::figures::sketch::HEADLINE_BUDGET`.)
const DEFAULT_STREAM_BUDGET: u64 = 256 << 10;

/// Smallest accepted `--budget`: below this the summaries cannot hold a
/// single set of keys and construction would panic mid-run.
const MIN_STREAM_BUDGET: u64 = 4 << 10;

/// Largest accepted `--budget`, 1 GiB: a bound on outside input, like
/// [`MAX_STREAM_SEGMENTS`]. The summaries allocate their budget up
/// front, so a much larger one aborts the run on a failed allocation.
/// At 1 GiB, `ltsim stream mcf --accesses 1000` peaks at about 650 MiB
/// resident and finishes in about a second on a 2-vCPU host.
const MAX_STREAM_BUDGET: u64 = 1 << 30;

/// Largest accepted `--segments` — a sanity cap on fan-out (the
/// scheduler would happily queue thousands of slices), not an accuracy
/// guarantee: whether a slice outlasts the hierarchy warm-up depends on
/// `--accesses / --segments`, so short traces can go cold-boundary
/// noisy well below this cap (see EXPERIMENTS.md "Segmented
/// streaming").
const MAX_STREAM_SEGMENTS: u32 = 256;

/// Parses `--budget`: a byte count with an optional `k`/`m` suffix
/// (`64k`, `1M`) in `MIN_STREAM_BUDGET..=MAX_STREAM_BUDGET`.
fn parse_budget(raw: &str) -> Result<u64, String> {
    let lower = raw.to_ascii_lowercase();
    let (digits, unit) = match lower.strip_suffix(['k', 'm']) {
        Some(d) if lower.ends_with('k') => (d, 1 << 10),
        Some(d) => (d, 1 << 20),
        None => (lower.as_str(), 1),
    };
    let count: u64 = digits.parse().map_err(|_| format!("bad byte count: {raw}"))?;
    count
        .checked_mul(unit)
        .filter(|b| (MIN_STREAM_BUDGET..=MAX_STREAM_BUDGET).contains(b))
        .ok_or_else(|| {
            format!(
                "--budget must be between {MIN_STREAM_BUDGET} and {MAX_STREAM_BUDGET} bytes, \
                 got {raw}"
            )
        })
}

/// `ltsim stream`: one-pass bounded-memory miss analysis through the
/// engine. Each benchmark becomes one `RunSpec` (mode `stream`, budget in
/// the key), so runs dedupe against each other and the artifact cache and
/// execute on any backend. With `--segments N` (N > 1) each benchmark
/// becomes a `stream-segmented` parent spec instead: the scheduler fans
/// its N per-segment children out across the selected backend and merges
/// their partial summaries into one report.
fn cmd_stream(args: &[String]) -> Result<(), String> {
    let target = args.first().ok_or("stream needs a benchmark name (or `all`)")?;
    let benchmarks: Vec<&'static str> = if target == "all" {
        suite::benchmarks().iter().map(|e| e.name).collect()
    } else {
        vec![suite::by_name(target).ok_or_else(|| format!("unknown benchmark: {target}"))?.name]
    };
    let mut budget = DEFAULT_STREAM_BUDGET;
    let mut segments: u32 = 1;
    let mut accesses: u64 = 2_000_000;
    let mut seed: u64 = 1;
    let mut opts = EngineOptions { fault: FaultPolicy::from_env(), ..EngineOptions::default() };
    let mut events: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if parse_engine_flag(a, &mut it, &mut opts, &mut events)? {
            continue;
        }
        match a.as_str() {
            "--budget" => budget = parse_budget(it.next().ok_or("--budget needs a byte count")?)?,
            "--segments" => {
                segments = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n: &u32| (1..=MAX_STREAM_SEGMENTS).contains(n))
                    .ok_or(format!("--segments needs a number in 1..={MAX_STREAM_SEGMENTS}"))?;
            }
            "--accesses" => {
                accesses = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--accesses needs a positive number")?;
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).ok_or("--seed needs a number")?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }

    let specs: Vec<RunSpec> = benchmarks
        .iter()
        .map(|b| {
            if segments > 1 {
                RunSpec::stream_segmented(b, budget, segments, accesses, seed)
            } else {
                RunSpec::stream(b, budget, accesses, seed)
            }
        })
        .collect();
    let telemetry = RunTelemetry::install(events.as_ref())?;
    let mut sched = ltc_sim::engine::Scheduler::new();
    sched.request_all(specs.iter().cloned());
    let mut results = ResultSet::new();
    sched.execute_into(&mut results, &opts).map_err(|e| e.to_string())?;

    for spec in &specs {
        let r = results.stream(spec);
        println!("benchmark        {}", spec.benchmark);
        if segments > 1 {
            println!("segments         {segments} (parallel workers, summaries merged)");
        }
        println!("accesses         {}", r.accesses);
        println!("L1D misses       {} ({})", r.misses, pct1(r.miss_rate()));
        println!(
            "summary memory   {} of {} budget{}",
            ltc_sim::report::bytes(r.memory_bytes),
            ltc_sim::report::bytes(r.budget_bytes),
            if segments > 1 { " (max per worker)" } else { "" }
        );
        println!("error bound      ±{} misses (ε·N)", r.error_bound);
        let mut heavy = Table::new(vec!["heavy-hitter line", "est. misses", "overestimate ≤"]);
        for h in &r.heavy {
            heavy.row(vec![
                format!("{:#012x}", h.line),
                h.estimate.to_string(),
                h.overestimate.to_string(),
            ]);
        }
        print!("{}", heavy.render());
        let mut pairs = Table::new(vec!["last miss", "next miss", "est. pairs", "est. key misses"]);
        for c in &r.correlated {
            pairs.row(vec![
                format!("{:#012x}", c.last_line),
                format!("{:#012x}", c.next_line),
                c.estimate.to_string(),
                c.key_estimate.to_string(),
            ]);
        }
        print!("{}", pairs.render());
        println!();
    }
    println!("engine: {} simulated, {} from cache", results.simulated(), results.cache_hits());
    telemetry.finish()
}

/// `ltsim events summarize <file>`: render a `--events` JSON-lines log
/// as per-phase/per-spec breakdown tables (see `ltc_bench::events`).
fn cmd_events(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let path = args.get(1).ok_or("events summarize needs an event-log file")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            print!("{}", ltc_bench::events::summarize(&text)?);
            Ok(())
        }
        _ => Err("usage: ltsim events summarize <file>".into()),
    }
}

/// The subprocess-backend worker loop: one canonical `RunSpec` JSON line
/// per request on stdin, one `RunResult` JSON line per answer on stdout
/// (flushed per line — the parent blocks on it), until stdin closes.
/// Blank lines are ignored so the stream is easy to drive by hand.
///
/// With `LTC_TELEMETRY_WIRE` set (the parent backend sets it whenever
/// telemetry is enabled on its side), the worker also writes its events
/// to stdout as plain event lines and wraps each execution in a
/// `worker.spec` span, so child-side events — segment-restore outcomes,
/// sketch gauges, warnings — interleave into the parent's event log.
/// Stdout is line-buffered and its lock re-entrant per thread, and the
/// worker is single-threaded, so event lines written mid-`execute` land
/// whole between result lines. The parent remaps span ids and stamps its
/// own worker ids on arrival.
fn cmd_worker() -> Result<(), String> {
    let _wire_token = std::env::var_os(eventlog::WIRE_ENV).map(|_| {
        ltc_telemetry::install(Arc::new(JsonLinesWriter::new(Box::new(std::io::stdout()))))
    });
    // Chaos-test injection (the supervising parent must recover):
    // `exit-after:<n>` dies abruptly after answering n specs,
    // `hang-before:<n>` stalls the n-th answer until the parent kills
    // us at its --spec-timeout deadline. Respawned children inherit the
    // directive, so injected faults recur for the whole batch.
    let inject = std::env::var(FAULT_INJECT_ENV).ok().as_deref().and_then(FaultInject::parse);
    let mut answered: u64 = 0;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading spec line: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let spec: RunSpec = ltc_sim::serde_json::from_str(trimmed)
            .map_err(|e| format!("bad RunSpec line `{trimmed}`: {e}"))?;
        // A version mismatch means this worker binary carries different
        // model behaviour than the dispatching parent. Answering anyway
        // would store stale-model results under the new version's cache
        // key — the exact aliasing `model_version` exists to prevent —
        // so refuse and let the parent surface the transport error.
        if spec.model_version != ltc_sim::engine::MODEL_VERSION {
            return Err(format!(
                "spec model_version {} does not match this worker's MODEL_VERSION {} \
                 (mixed ltsim builds?): {trimmed}",
                spec.model_version,
                ltc_sim::engine::MODEL_VERSION
            ));
        }
        if let Some(FaultInject::HangBefore(n)) = inject {
            if answered + 1 == n {
                // Stall until the parent kills us at its --spec-timeout deadline.
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
        }
        let span = if ltc_telemetry::enabled() {
            ltc_telemetry::span("worker.spec", vec![("label".to_string(), spec.label().into())])
        } else {
            ltc_telemetry::span("worker.spec", Vec::new())
        };
        let result = spec.execute();
        drop(span); // emits the span end (with elapsed_us) before the result line
        writeln!(out, "{}", ltc_sim::serde_json::to_string(&result))
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing result line: {e}"))?;
        answered += 1;
        if let Some(FaultInject::ExitAfter(n)) = inject {
            if answered >= n {
                // Die abruptly — no EOF handshake, non-zero status —
                // exactly like a crashed worker.
                std::process::exit(17);
            }
        }
    }
    Ok(())
}
