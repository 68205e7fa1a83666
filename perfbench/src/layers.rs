//! The per-crate half of the traced run.
//!
//! Every figure is timed from outside the program by calling a crate's
//! public functions on traces generated into memory, one layer at a
//! time, in the calling thread's CPU time. A layer's self-time comes by
//! subtraction: a predictor's is the coverage (or timing) run with it
//! minus the run without it, and the timing model's is the
//! null-prefetcher `TimingSim` minus the hierarchy alone.
//!
//! The traced workload's own layers run at its scale and also yield the
//! self-time components `run.py` sums against the cold run's CPU time.
//! The layers it does not run are timed on [`Scale::sample`], so every
//! traced run reports every metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use ltc_sim::analysis::{
    merge_partials, run_coverage, CoverageConfig, StreamAnalysis, StreamConfig, StreamPartial,
    SEGMENT_WARMUP,
};
use ltc_sim::cache::{Hierarchy, HierarchyConfig, HierarchyOutcome, MemLevel};
use ltc_sim::core::{LtCords, LtCordsConfig};
use ltc_sim::engine::checkpoints::{self, WarmStore};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::lasttouch::HistoryTable;
use ltc_sim::predictors::{DbcpConfig, DbcpPrefetcher, PrefetchRequest, Prefetcher};
use ltc_sim::stream::{ChhConfig, ChhSummary, SpaceSaving};
use ltc_sim::timing::TimingSim;
use ltc_sim::trace::{suite, Addr, CheckpointStore, MemoryAccess, TraceSegment, TraceSource};

use crate::workload::{Scale, Workload, STREAM_BUDGET, TIMING_KINDS};
use crate::{Args, Json};

/// Runs every layer's kernels and prints the traced run's per-layer line.
pub fn run(args: &Args) -> Result<(), String> {
    let work = args.out.clone().ok_or("layers needs --out DIR")?;
    let sample = if args.scale.name == "tiny" { Scale::tiny() } else { Scale::sample() };
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    let mut self_s = Vec::new();
    // The other workloads' layers first, so that the traced workload's
    // own figures for the shared layers (generation, hierarchy) win.
    let order = Workload::ALL.into_iter().filter(|&w| w != args.workload).chain([args.workload]);
    for set in order {
        let own = set == args.workload;
        let scale = if own { &args.scale } else { &sample };
        let layers = match set {
            Workload::Coverage => coverage_layers(scale, args.seed),
            Workload::Timing => timing_layers(scale, args.seed),
            Workload::StreamSeg => stream_layers(scale, args.seed, &work)?,
        };
        for (name, value) in layers.metrics {
            metrics.insert(name, (value, scale.name));
        }
        if own {
            self_s = layers.self_s;
        }
    }
    let report = Json::obj([
        ("metrics", Json::obj(metrics.iter().map(|(&name, &(value, _))| (name, Json::Num(value))))),
        (
            "scope",
            Json::obj(metrics.iter().map(|(&name, &(_, scope))| (name, Json::Str(scope.into())))),
        ),
        (
            "self_s",
            Json::List(
                self_s
                    .into_iter()
                    .map(|(part, secs)| Json::List(vec![Json::Str(part.into()), Json::Num(secs)]))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report.render());
    Ok(())
}

/// One kernel set's figures and, for the traced workload's own set, the
/// self-time components of its cold run.
struct Layers {
    metrics: Vec<(&'static str, f64)>,
    self_s: Vec<(&'static str, f64)>,
}

/// CPU seconds spent over some number of items (accesses, misses,
/// segments, traces).
#[derive(Default, Clone, Copy)]
struct Tally {
    secs: f64,
    items: u64,
}

impl Tally {
    fn add(&mut self, secs: f64, items: u64) {
        self.secs += secs;
        self.items += items;
    }

    fn ns(&self) -> f64 {
        self.secs * 1e9 / self.items as f64
    }

    fn ms(&self) -> f64 {
        self.secs * 1e3 / self.items as f64
    }
}

/// CPU time of the calling thread, in seconds. The traced run is
/// single-threaded, so its kernels add up to process CPU time, the unit
/// of the cold run's `cpu_s`, and other tenants of the host do not
/// inflate them.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that outlives the call, and the clock id is the
    // kernel's constant for the calling thread's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "every Linux kernel provides CLOCK_THREAD_CPUTIME_ID");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall time where no per-thread CPU clock is wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_now() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = cpu_now();
    let value = black_box(f());
    (value, cpu_now() - start)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole as f64
}

/// A trace held in memory, replayed without copying.
struct Slice<'a> {
    data: &'a [MemoryAccess],
    pos: usize,
}

impl<'a> Slice<'a> {
    fn new(data: &'a [MemoryAccess]) -> Self {
        Slice { data, pos: 0 }
    }
}

impl TraceSource for Slice<'_> {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        let access = self.data.get(self.pos).copied();
        self.pos += 1;
        access
    }
}

/// The never-prefetching *active* predictor: unlike the passive null
/// prefetcher, it makes `run_coverage` step both hierarchies and do the
/// Figure 8 accounting, so a real predictor's run minus this one is the
/// predictor's own time.
struct NeverPrefetch;

impl Prefetcher for NeverPrefetch {
    fn name(&self) -> &'static str {
        "never-prefetch"
    }

    fn on_access(&mut self, _: &MemoryAccess, _: &HierarchyOutcome, _: &mut Vec<PrefetchRequest>) {}

    fn storage_bytes(&self) -> u64 {
        0
    }
}

/// Generates `n` accesses of `bench` into memory. The generator is timed
/// on a separate pass that keeps nothing, as a spec's own generation
/// does: filling a fresh buffer would add its page faults.
fn generate(bench: &str, seed: u64, n: u64) -> (Vec<MemoryAccess>, f64) {
    let entry = suite::by_name(bench).expect("workload benchmarks come from the suite");
    let (_, secs) = timed(|| {
        let mut source = entry.build(seed);
        for _ in 0..n {
            black_box(source.next_access());
        }
    });
    (entry.build(seed).collect_accesses(n as usize), secs)
}

const NO_VICTIM: u64 = u64::MAX;

/// One baseline pass through the paper hierarchy.
struct Pass {
    secs: f64,
    l1_misses: u64,
    l2_misses: u64,
    /// Each access's L1 victim line (`NO_VICTIM` when nothing left).
    victims: Vec<u64>,
    /// Each L1 miss as (trace position, line address).
    misses: Vec<(u64, u64)>,
}

fn hierarchy_pass(trace: &[MemoryAccess], keep_victims: bool, keep_misses: bool) -> Pass {
    let mut hierarchy = Hierarchy::new(HierarchyConfig::paper());
    let mut pass =
        Pass { secs: 0.0, l1_misses: 0, l2_misses: 0, victims: Vec::new(), misses: Vec::new() };
    if keep_victims {
        pass.victims.reserve(trace.len());
    }
    let start = cpu_now();
    for (pos, access) in trace.iter().enumerate() {
        let out = hierarchy.access(access.addr, access.kind);
        if keep_victims {
            pass.victims.push(out.l1.evicted.map_or(NO_VICTIM, |e| e.addr.0));
        }
        if !out.l1.hit {
            pass.l1_misses += 1;
            if keep_misses {
                pass.misses.push((pos as u64, access.addr.line(64).0));
            }
        }
        pass.l2_misses += u64::from(out.level == MemLevel::Memory);
    }
    pass.secs = cpu_now() - start;
    black_box(&hierarchy);
    pass
}

/// The history table fed a trace and its L1 evictions, as LT-cords and
/// DBCP drive it.
fn history_pass(trace: &[MemoryAccess], victims: &[u64]) -> f64 {
    let cfg = LtCordsConfig::paper();
    let mut table = HistoryTable::new(cfg.l1, cfg.scheme);
    let line_bytes = cfg.l1.line_bytes;
    timed(|| {
        for (access, &victim) in trace.iter().zip(victims) {
            if victim != NO_VICTIM {
                black_box(table.record_eviction(Addr(victim), access.addr.line(line_bytes)));
            }
            black_box(table.record_access(access.addr, access.pc));
        }
    })
    .1
}

/// The `coverage` workload's layers: generation, the hierarchy, the
/// history table, the two-hierarchy coverage walk, LT-cords and DBCP.
fn coverage_layers(scale: &Scale, seed: u64) -> Layers {
    let n = scale.coverage_accesses;
    // `ltc_sim::experiment::run_coverage`'s configuration.
    let cfg = CoverageConfig::paper(n).with_warmup(n / 4);
    let [mut gen, mut hier, mut hist, mut walk, mut lt, mut dbcp] = [Tally::default(); 6];
    let (mut l1, mut l2, mut streamed) = (0, 0, 0);
    let (mut lt_useful, mut lt_fills, mut db_useful, mut db_fills) = (0, 0, 0, 0);
    let (mut lt_mem, mut db_mem) = (0, 0);
    for &bench in &scale.benchmarks {
        let (trace, gen_s) = generate(bench, seed, n);
        let len = trace.len() as u64;
        gen.add(gen_s, len);
        let pass = hierarchy_pass(&trace, true, false);
        hier.add(pass.secs, len);
        l1 += pass.l1_misses;
        l2 += pass.l2_misses;
        hist.add(history_pass(&trace, &pass.victims), len);
        drop(pass);

        let (_, walk_s) = timed(|| run_coverage(&mut Slice::new(&trace), &mut NeverPrefetch, cfg));
        walk.add(walk_s, len);
        let ((report, sigs, mem), secs) = timed(|| {
            let mut ltc = LtCords::new(LtCordsConfig::paper());
            let report = run_coverage(&mut Slice::new(&trace), &mut ltc, cfg);
            (report, ltc.metrics().signatures_streamed, ltc.memory_bytes())
        });
        lt.add(secs - walk_s, len);
        lt_useful += report.useful_prefetches;
        lt_fills += report.prefetch_fills;
        streamed += sigs;
        lt_mem = lt_mem.max(mem);
        let ((report, mem), secs) = timed(|| {
            let mut table = DbcpPrefetcher::new(DbcpConfig::unlimited());
            let report = run_coverage(&mut Slice::new(&trace), &mut table, cfg);
            (report, table.memory_bytes())
        });
        dbcp.add(secs - walk_s, len);
        db_useful += report.useful_prefetches;
        db_fills += report.prefetch_fills;
        db_mem = db_mem.max(mem);
    }
    Layers {
        metrics: vec![
            ("trace.gen_ns", gen.ns()),
            ("cache.access_ns", hier.ns()),
            ("cache.l1_misses", l1 as f64),
            ("cache.l2_misses", l2 as f64),
            ("lasttouch.record_ns", hist.ns()),
            ("analysis.coverage_walk_ns", walk.ns()),
            ("core.ltcords_ns", lt.ns()),
            ("core.ltcords_memory_mb", mib(lt_mem)),
            ("core.useful_ratio", ratio(lt_useful, lt_fills)),
            ("core.signatures_streamed", streamed as f64),
            ("predictors.dbcp_unlimited_ns", dbcp.ns()),
            ("predictors.dbcp_unlimited_memory_mb", mib(db_mem)),
            ("predictors.dbcp_useful_ratio", ratio(db_useful, db_fills)),
        ],
        self_s: vec![
            ("trace generation, 2 specs per benchmark (trace.gen_ns)", 2.0 * gen.secs),
            (
                "two hierarchies + Figure 8 accounting, 2 specs per benchmark \
                 (analysis.coverage_walk_ns)",
                2.0 * walk.secs,
            ),
            ("LT-cords self-time (core.ltcords_ns)", lt.secs),
            ("DBCP-unlimited self-time (predictors.dbcp_unlimited_ns)", dbcp.secs),
        ],
    }
}

/// The `timing` workload's layers: generation, the hierarchy, and
/// `TimingSim` under each Table 3 configuration.
fn timing_layers(scale: &Scale, seed: u64) -> Layers {
    let n = scale.timing_accesses;
    let (mut gen, mut hier) = (Tally::default(), Tally::default());
    let mut kinds = [Tally::default(); TIMING_KINDS.len()];
    let (mut l1, mut l2, mut cycles, mut stalls) = (0, 0, 0.0, 0);
    for &bench in &scale.benchmarks {
        let (trace, gen_s) = generate(bench, seed, n);
        let len = trace.len() as u64;
        gen.add(gen_s, len);
        let pass = hierarchy_pass(&trace, false, false);
        hier.add(pass.secs, len);
        l1 += pass.l1_misses;
        l2 += pass.l2_misses;
        for (kind, tally) in TIMING_KINDS.iter().zip(&mut kinds) {
            // `ltc_sim::experiment::run_timing`, on the in-memory trace.
            let (report, secs) = timed(|| {
                let mut predictor = kind.build();
                TimingSim::new(kind.timing_config().with_warmup(n / 4)).run(
                    &mut Slice::new(&trace),
                    predictor.as_mut(),
                    n,
                )
            });
            tally.add(secs, len);
            if *kind == PredictorKind::Baseline {
                cycles += report.cycles;
                stalls += report.mshr_stalls;
            }
        }
    }
    let [base, perfect, lt, ghb, dbcp, big] = kinds;
    let self_ns = |t: Tally| (t.secs - base.secs) * 1e9 / base.items as f64;
    Layers {
        metrics: vec![
            ("trace.gen_ns", gen.ns()),
            ("cache.access_ns", hier.ns()),
            ("cache.l1_misses", l1 as f64),
            ("cache.l2_misses", l2 as f64),
            ("timing.base_ns", base.ns()),
            ("timing.model_ns", base.ns() - hier.ns()),
            ("timing.perfect_l1_ns", perfect.ns()),
            ("timing.big_l2_ns", big.ns()),
            ("timing.cycles", cycles),
            ("timing.mshr_stalls", stalls as f64),
            ("core.ltcords_timing_ns", self_ns(lt)),
            ("predictors.ghb_timing_ns", self_ns(ghb)),
            ("predictors.dbcp_2mb_timing_ns", self_ns(dbcp)),
        ],
        self_s: vec![
            ("trace generation, 6 specs per benchmark (trace.gen_ns)", 6.0 * gen.secs),
            (
                "timing model with its hierarchy, baseline machine: baseline + 3 predictor \
                 specs (timing.base_ns)",
                4.0 * base.secs,
            ),
            ("timing model, perfect L1 (timing.perfect_l1_ns)", perfect.secs),
            ("timing model, 4 MB L2 (timing.big_l2_ns)", big.secs),
            ("LT-cords self-time (core.ltcords_timing_ns)", lt.secs - base.secs),
            ("GHB self-time (predictors.ghb_timing_ns)", ghb.secs - base.secs),
            ("DBCP 2 MB self-time (predictors.dbcp_2mb_timing_ns)", dbcp.secs - base.secs),
        ],
    }
}

/// The `stream-seg` workload's layers: the checkpoint/warm-image
/// pre-pass and its stores, each segment worker's set-up, and the
/// hierarchy and sketches every worker runs over its slice.
fn stream_layers(scale: &Scale, seed: u64, work: &Path) -> Result<Layers, String> {
    let (n, segments, warmup) = (scale.stream_accesses, scale.segments, SEGMENT_WARMUP);
    let cfg = StreamConfig::with_budget(STREAM_BUDGET).with_seed(seed).with_warmup(warmup);
    // The scheduler hands its workers `<artifact dir>/checkpoints`.
    let dir = work.join("checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(checkpoints::CHECKPOINT_DIR_ENV, &dir);
    let slices = TraceSegment::split(n, segments);
    let starts = checkpoints::segment_starts(n, segments);
    let mut targets = checkpoints::segment_targets(n, segments, warmup);
    targets.extend(&starts);

    let [mut gen, mut hier, mut ss, mut chh, mut merge] = [Tally::default(); 5];
    let [mut ck_record, mut im_record, mut prepass, mut store_load] = [Tally::default(); 4];
    let [mut restore, mut image_restore, mut setup] = [Tally::default(); 3];
    let (mut l1, mut l2, mut evictions) = (0, 0, 0);
    let (mut image_bytes, mut store_bytes, mut partial_bytes, mut partials_made) = (0, 0, 0, 0);
    for &bench in &scale.benchmarks {
        let entry = suite::by_name(bench).expect("workload benchmarks come from the suite");
        let (trace, gen_s) = generate(bench, seed, n);
        let len = trace.len() as u64;
        gen.add(gen_s, len);
        let pass = hierarchy_pass(&trace, false, true);
        drop(trace);
        hier.add(pass.secs, len);
        l1 += pass.l1_misses;
        l2 += pass.l2_misses;

        // Each worker's sketches over its slice's misses, half the
        // budget each, as `StreamAnalysis::run_segment_with` builds them.
        let mut partials = Vec::with_capacity(slices.len());
        for slice in &slices {
            let lo = pass.misses.partition_point(|&(pos, _)| pos < slice.start);
            let hi = pass.misses.partition_point(|&(pos, _)| pos < slice.end());
            let lines: Vec<u64> = pass.misses[lo..hi].iter().map(|&(_, line)| line).collect();
            let (heavy, secs) = timed(|| {
                let mut heavy = SpaceSaving::with_budget(STREAM_BUDGET / 2);
                for &line in &lines {
                    heavy.observe(line);
                }
                heavy
            });
            ss.add(secs, lines.len() as u64);
            evictions += heavy.evictions();
            let (pairs, secs) = timed(|| {
                let mut pairs =
                    ChhSummary::new(ChhConfig::with_budget(STREAM_BUDGET / 2).with_seed(seed));
                for pair in lines.windows(2) {
                    pairs.observe(pair[0], pair[1]);
                }
                pairs
            });
            chh.add(secs, lines.len().saturating_sub(1) as u64);
            let partial = StreamPartial {
                accesses: slice.len,
                misses: lines.len() as u64,
                budget_bytes: STREAM_BUDGET,
                seed,
                memory_bytes: heavy.memory_bytes() + pairs.memory_bytes(),
                first_miss: lines.first().copied(),
                last_miss: lines.last().copied(),
                heavy: heavy.to_state(),
                pairs: pairs.to_state(),
            };
            partial_bytes += ltc_sim::serde_json::to_string(&partial).len() as u64;
            partials_made += 1;
            partials.push(partial);
        }
        let (merged, secs) = timed(|| merge_partials(&partials));
        merged.map_err(|e| format!("merging the partials of {bench}: {e}"))?;
        merge.add(secs, 1);

        // The pre-pass, piece by piece, then whole as the scheduler runs it.
        let (store, secs) = timed(|| checkpoints::record_targets(&mut entry.build(seed), &targets));
        ck_record.add(secs, 1);
        let (images, secs) =
            timed(|| checkpoints::record_warm_images(&mut entry.build(seed), warmup, &starts));
        im_record.add(secs, 1);
        image_bytes += images.iter().map(|w| w.image.image_bytes()).sum::<u64>();
        let (_, secs) = timed(|| checkpoints::prepare_segments(bench, seed, n, segments, warmup));
        prepass.add(secs, 1);

        // The stores every subprocess worker parses back from disk.
        let paths = [
            checkpoints::store_path(&dir, bench, seed),
            checkpoints::warm_store_path(&dir, bench, seed, warmup),
        ];
        let mut texts = Vec::new();
        for path in &paths {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            store_bytes += text.len() as u64;
            texts.push(text);
        }
        let (parsed, secs) = timed(|| {
            let checkpoints: Result<CheckpointStore, _> =
                ltc_sim::serde_json::from_str(texts[0].trim());
            let images: Result<WarmStore, _> = ltc_sim::serde_json::from_str(texts[1].trim());
            checkpoints.is_ok() && images.is_ok()
        });
        if !parsed {
            return Err(format!("the stores of {bench} do not parse"));
        }
        store_load.add(secs, 1);

        // Each worker's set-up: what `RunSpec::execute` hands
        // `run_segment_with`, timed as a run over an empty slice.
        for slice in &slices {
            let warm = (slice.start > 0).then(|| images.at(slice.start)).flatten();
            let target =
                if warm.is_some() { slice.start } else { slice.start - slice.start.min(warmup) };
            let checkpoint = (target > 0).then(|| store.nearest_at_or_before(target)).flatten();
            if let Some(c) = (slice.start > 0).then(|| store.at(slice.start)).flatten() {
                let mut source = entry.build(seed);
                let (restored, secs) = timed(|| source.restore(&c.state));
                restored.map_err(|e| format!("restoring {bench} at {}: {e:?}", slice.start))?;
                restore.add(secs, 1);
            }
            if let Some(w) = warm {
                let (hierarchy, secs) =
                    timed(|| Hierarchy::from_image(HierarchyConfig::paper(), &w.image));
                hierarchy.map_err(|e| format!("restoring an image of {bench}: {e:?}"))?;
                image_restore.add(secs, 1);
            }
            let empty = TraceSegment { len: 0, ..*slice };
            let (_, secs) = timed(|| {
                StreamAnalysis::run_segment_with(
                    &mut entry.build(seed),
                    empty,
                    cfg,
                    checkpoint,
                    warm,
                )
            });
            setup.add(secs, 1);
        }
    }
    Ok(Layers {
        metrics: vec![
            ("trace.gen_ns", gen.ns()),
            ("cache.access_ns", hier.ns()),
            ("cache.l1_misses", l1 as f64),
            ("cache.l2_misses", l2 as f64),
            ("trace.checkpoint_record_s", ck_record.secs),
            ("trace.restore_ms", restore.ms()),
            ("cache.image_record_s", im_record.secs),
            ("cache.image_restore_ms", image_restore.ms()),
            ("cache.image_mb", mib(image_bytes)),
            ("stream.spacesaving_ns", ss.ns()),
            ("stream.chh_ns", chh.ns()),
            ("stream.partial_kb", partial_bytes as f64 / 1024.0 / partials_made as f64),
            ("stream.evictions", evictions as f64),
            ("analysis.segment_setup_ms", setup.ms()),
            ("analysis.merge_ms", merge.ms()),
            ("engine.prepass_s", prepass.secs),
            ("engine.store_mb", mib(store_bytes)),
            ("engine.store_load_ms", store_load.ms()),
        ],
        self_s: vec![
            ("checkpoint/warm-image pre-pass, before any worker (engine.prepass_s)", prepass.secs),
            ("worker set-up per segment (analysis.segment_setup_ms)", setup.secs),
            ("slice generation (trace.gen_ns)", gen.secs),
            ("hierarchy (cache.access_ns)", hier.secs),
            ("Space-Saving ingest (stream.spacesaving_ns)", ss.secs),
            ("CHH ingest (stream.chh_ns)", chh.secs),
        ],
    })
}
