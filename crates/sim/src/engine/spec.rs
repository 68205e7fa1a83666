//! Declarative experiment keys.

use ltc_analysis::{
    CorrelationAnalysis, DeadTimeTracker, LastTouchOrderAnalysis, StreamAnalysis, StreamConfig,
};
use ltc_trace::suite;
use ltcords::LtCordsConfig;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::engine::result::RunResult;
use crate::experiment::{run_coverage, run_multiprog, run_timing, PredictorKind};

/// What kind of simulation a [`RunSpec`] asks for.
///
/// The analysis modes (`DeadTime`, `Correlation`, `Ordering`) measure the
/// baseline machine and ignore the spec's predictor; their constructors
/// pin it to [`PredictorKind::Baseline`] so equal measurements dedupe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Trace-driven coverage run ([`run_coverage`]).
    Coverage,
    /// Cycle-approximate timing run ([`run_timing`]).
    Timing,
    /// Block dead-time measurement (Figure 2).
    DeadTime,
    /// Temporal miss-correlation study (Figure 6).
    Correlation,
    /// Last-touch vs miss-order disparity study (Figure 7).
    Ordering,
    /// Multi-programmed coverage, focus benchmark context-switched with an
    /// optional partner (Figure 11).
    MultiProg {
        /// Partner benchmark, or `None` for the standalone bar.
        partner: Option<String>,
    },
    /// One-pass bounded-memory miss/heavy-hitter analysis (`ltsim
    /// stream`). The summary byte budget is part of the key: runs with
    /// different budgets are different experiments.
    Stream {
        /// Summary byte budget.
        budget_bytes: u64,
    },
    /// One worker's slice of a segmented streaming run: replay segment
    /// `segment` of `segments` even slices of the trace and return the
    /// partial summaries ([`RunResult::StreamPartial`]). Budget, segment
    /// count **and** segment index are all part of the key, so
    /// `--segments 4` and `--segments 8` runs can never collide in the
    /// artifact cache.
    StreamSegment {
        /// Summary byte budget.
        budget_bytes: u64,
        /// Total segments the trace splits into.
        segments: u32,
        /// This slice's 0-based index.
        segment: u32,
        /// Warm-up accesses replayed (or image-restored) before the
        /// slice ([`ltc_analysis::StreamConfig::warmup`]). Part of the
        /// key: the warm-up length changes deep-segment results, so
        /// differently-configured runs must never share artifacts.
        warmup: u64,
    },
    /// A whole segmented streaming run: the merged report of `segments`
    /// [`Mode::StreamSegment`] children. The scheduler fans the children
    /// out across the selected backend and reduces them
    /// ([`crate::engine::segmented`]); executing the spec directly (a
    /// worker handed the parent) runs the segments sequentially.
    StreamSegmented {
        /// Summary byte budget (per worker).
        budget_bytes: u64,
        /// Segments the trace splits into.
        segments: u32,
        /// Per-segment warm-up accesses (inherited by every child
        /// [`Mode::StreamSegment`]).
        warmup: u64,
    },
}

impl Mode {
    /// Short name for tables and artifact listings.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Coverage => "coverage",
            Mode::Timing => "timing",
            Mode::DeadTime => "dead-time",
            Mode::Correlation => "correlation",
            Mode::Ordering => "ordering",
            Mode::MultiProg { .. } => "multiprog",
            Mode::Stream { .. } => "stream",
            Mode::StreamSegment { .. } => "stream-segment",
            Mode::StreamSegmented { .. } => "stream-segmented",
        }
    }
}

impl Serialize for Mode {
    fn to_value(&self) -> Value {
        match self {
            Mode::MultiProg { partner } => {
                Value::Map(vec![("multiprog".to_string(), partner.to_value())])
            }
            Mode::Stream { budget_bytes } => {
                Value::Map(vec![("stream".to_string(), Value::U64(*budget_bytes))])
            }
            Mode::StreamSegment { budget_bytes, segments, segment, warmup } => Value::Map(vec![(
                "stream-segment".to_string(),
                Value::Map(vec![
                    ("budget_bytes".to_string(), Value::U64(*budget_bytes)),
                    ("segments".to_string(), Value::U64(u64::from(*segments))),
                    ("segment".to_string(), Value::U64(u64::from(*segment))),
                    ("warmup".to_string(), Value::U64(*warmup)),
                ]),
            )]),
            Mode::StreamSegmented { budget_bytes, segments, warmup } => Value::Map(vec![(
                "stream-segmented".to_string(),
                Value::Map(vec![
                    ("budget_bytes".to_string(), Value::U64(*budget_bytes)),
                    ("segments".to_string(), Value::U64(u64::from(*segments))),
                    ("warmup".to_string(), Value::U64(*warmup)),
                ]),
            )]),
            simple => Value::Str(simple.name().to_string()),
        }
    }
}

impl<'de> Deserialize<'de> for Mode {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if let Some(partner) = value.get("multiprog") {
            return Ok(Mode::MultiProg { partner: Option::<String>::from_value(partner)? });
        }
        if let Some(budget) = value.get("stream") {
            return Ok(Mode::Stream { budget_bytes: u64::from_value(budget)? });
        }
        if let Some(seg) = value.get("stream-segment") {
            return Ok(Mode::StreamSegment {
                budget_bytes: serde::field(seg, "budget_bytes", "Mode::StreamSegment")?,
                segments: serde::field(seg, "segments", "Mode::StreamSegment")?,
                segment: serde::field(seg, "segment", "Mode::StreamSegment")?,
                // A missing warm-up (pre-field artifacts) is an error, so
                // those cache files degrade to misses instead of aliasing
                // differently-warmed runs.
                warmup: serde::field(seg, "warmup", "Mode::StreamSegment")?,
            });
        }
        if let Some(seg) = value.get("stream-segmented") {
            return Ok(Mode::StreamSegmented {
                budget_bytes: serde::field(seg, "budget_bytes", "Mode::StreamSegmented")?,
                segments: serde::field(seg, "segments", "Mode::StreamSegmented")?,
                warmup: serde::field(seg, "warmup", "Mode::StreamSegmented")?,
            });
        }
        match value.as_str() {
            Some("coverage") => Ok(Mode::Coverage),
            Some("timing") => Ok(Mode::Timing),
            Some("dead-time") => Ok(Mode::DeadTime),
            Some("correlation") => Ok(Mode::Correlation),
            Some("ordering") => Ok(Mode::Ordering),
            _ => Err(DeError::expected("a mode name or {\"multiprog\": ...}", "Mode")),
        }
    }
}

impl Serialize for PredictorKind {
    fn to_value(&self) -> Value {
        match self {
            // The parameterized kinds carry their configuration so that
            // differently-configured runs never collide under one key.
            PredictorKind::LtCordsWith(cfg) => {
                Value::Map(vec![("lt-cords-with".to_string(), cfg.to_value())])
            }
            PredictorKind::DbcpBytes(bytes) => {
                Value::Map(vec![("dbcp-bytes".to_string(), Value::U64(*bytes))])
            }
            PredictorKind::SketchDbcp(bytes) => {
                Value::Map(vec![("sketch-dbcp".to_string(), Value::U64(*bytes))])
            }
            simple => Value::Str(simple.name().to_string()),
        }
    }
}

impl<'de> Deserialize<'de> for PredictorKind {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if let Some(cfg) = value.get("lt-cords-with") {
            return Ok(PredictorKind::LtCordsWith(LtCordsConfig::from_value(cfg)?));
        }
        if let Some(bytes) = value.get("dbcp-bytes") {
            return Ok(PredictorKind::DbcpBytes(u64::from_value(bytes)?));
        }
        if let Some(bytes) = value.get("sketch-dbcp") {
            return Ok(PredictorKind::SketchDbcp(u64::from_value(bytes)?));
        }
        match value.as_str() {
            Some("baseline") => Ok(PredictorKind::Baseline),
            Some("perfect-l1") => Ok(PredictorKind::PerfectL1),
            Some("lt-cords") => Ok(PredictorKind::LtCords),
            Some("dbcp-unlimited") => Ok(PredictorKind::DbcpUnlimited),
            Some("dbcp") => Ok(PredictorKind::Dbcp2Mb),
            Some("ghb") => Ok(PredictorKind::Ghb),
            Some("stride") => Ok(PredictorKind::Stride),
            Some("4mb-l2") => Ok(PredictorKind::BigL2),
            _ => Err(DeError::expected("a predictor kind", "PredictorKind")),
        }
    }
}

/// Behavioural version of the simulation model, embedded in every
/// [`RunSpec`] key (and therefore every artifact-cache file name).
///
/// **Bump rule:** increment once per change that alters any simulation
/// *result* — predictor logic, cache/timing model, trace generation, or
/// report contents. Refactors, new backends, CLI and rendering changes do
/// not bump it. Bumping changes every spec key, so cached artifacts from
/// the previous model self-detect as stale (cache misses) and re-simulate
/// without `--force`. The rule is documented for operators in
/// EXPERIMENTS.md.
///
/// Version history: 2 — `CoverageReport` gained the `memory_bytes` field
/// (honest resident-memory accounting for the sketch budget sweep).
/// 3 — segmented streaming: mergeable sketch summaries, the
/// `stream-segment`/`stream-segmented` modes, and `StreamReport`
/// production routed through the shared merge/finalize path.
/// 4 — sketch hashing switched from the SplitMix64 finalizer to the
/// cheaper multiply-shift family (hash code 2 in every sketch state);
/// stream and sketch-predictor results rebucket, so the `stream` golden
/// was regenerated in the same change. A future family change edits
/// `ltc_stream::hash::index`/`spread` and bumps both `HASH_CODE` and
/// this constant.
pub const MODEL_VERSION: u32 = 4;

/// The declarative key of one simulation: benchmark, predictor, mode,
/// access budget, seed — plus the model version the simulator had when
/// the spec was created.
///
/// Everything about a run is determined by these fields (the simulator is
/// deterministic), so the spec is simultaneously the dedup key, the
/// artifact cache key, and — via [`RunSpec::execute`] — the run itself.
/// Serialization is canonical (a map in field declaration order) and
/// injective over the fields: distinct specs always have distinct
/// [`RunSpec::key`] strings, which `tests/engine.rs` asserts by property
/// test.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RunSpec {
    /// Simulation-model version ([`MODEL_VERSION`] at creation time).
    /// Every field is required, so a pre-versioning artifact fails to
    /// parse and degrades to a cache miss rather than aliasing the
    /// current model.
    pub model_version: u32,
    /// Suite benchmark name (the focus program for multi-programmed runs).
    pub benchmark: String,
    /// Predictor configuration under test.
    pub predictor: PredictorKind,
    /// Simulation mode.
    pub mode: Mode,
    /// Access budget.
    pub accesses: u64,
    /// Trace generator seed.
    pub seed: u64,
}

impl RunSpec {
    /// A coverage run.
    pub fn coverage(benchmark: &str, predictor: PredictorKind, accesses: u64, seed: u64) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor,
            mode: Mode::Coverage,
            accesses,
            seed,
        }
    }

    /// A timing run.
    pub fn timing(benchmark: &str, predictor: PredictorKind, accesses: u64, seed: u64) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor,
            mode: Mode::Timing,
            accesses,
            seed,
        }
    }

    /// A dead-time measurement (baseline machine).
    pub fn dead_time(benchmark: &str, accesses: u64, seed: u64) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor: PredictorKind::Baseline,
            mode: Mode::DeadTime,
            accesses,
            seed,
        }
    }

    /// A temporal-correlation measurement (baseline machine).
    pub fn correlation(benchmark: &str, accesses: u64, seed: u64) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor: PredictorKind::Baseline,
            mode: Mode::Correlation,
            accesses,
            seed,
        }
    }

    /// A last-touch ordering measurement (baseline machine).
    pub fn ordering(benchmark: &str, accesses: u64, seed: u64) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor: PredictorKind::Baseline,
            mode: Mode::Ordering,
            accesses,
            seed,
        }
    }

    /// A one-pass streaming miss analysis (baseline machine) with the
    /// given summary byte budget.
    pub fn stream(benchmark: &str, budget_bytes: u64, accesses: u64, seed: u64) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor: PredictorKind::Baseline,
            mode: Mode::Stream { budget_bytes },
            accesses,
            seed,
        }
    }

    /// One worker slice of a segmented streaming run (baseline machine):
    /// segment `segment` of `segments` even slices.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero or `segment` is out of range — the
    /// same partition preconditions as `ltc_trace::TraceSegment`.
    pub fn stream_segment(
        benchmark: &str,
        budget_bytes: u64,
        segments: u32,
        segment: u32,
        accesses: u64,
        seed: u64,
    ) -> Self {
        assert!(segments > 0, "a trace splits into at least one segment");
        assert!(segment < segments, "segment {segment} out of {segments}");
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor: PredictorKind::Baseline,
            mode: Mode::StreamSegment {
                budget_bytes,
                segments,
                segment,
                warmup: ltc_analysis::SEGMENT_WARMUP,
            },
            accesses,
            seed,
        }
    }

    /// A whole segmented streaming run (baseline machine): `segments`
    /// parallel worker slices merged into one report.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn stream_segmented(
        benchmark: &str,
        budget_bytes: u64,
        segments: u32,
        accesses: u64,
        seed: u64,
    ) -> Self {
        assert!(segments > 0, "a trace splits into at least one segment");
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: benchmark.to_string(),
            predictor: PredictorKind::Baseline,
            mode: Mode::StreamSegmented {
                budget_bytes,
                segments,
                warmup: ltc_analysis::SEGMENT_WARMUP,
            },
            accesses,
            seed,
        }
    }

    /// The same spec with an explicit per-segment warm-up length
    /// (stream-segment modes only; other modes are returned unchanged).
    /// Non-default warm-ups key separately in the artifact cache.
    pub fn with_stream_warmup(mut self, warmup: u64) -> Self {
        match &mut self.mode {
            Mode::StreamSegment { warmup: w, .. } | Mode::StreamSegmented { warmup: w, .. } => {
                *w = warmup;
            }
            _ => {}
        }
        self
    }

    /// A multi-programmed coverage run ([`crate::experiment::run_multiprog`]).
    /// Only L1 prefetch requests are applied, so GHB and stride requests,
    /// which fill the L2, are dropped.
    pub fn multiprog(
        focus: &str,
        partner: Option<&str>,
        predictor: PredictorKind,
        accesses: u64,
        seed: u64,
    ) -> Self {
        RunSpec {
            model_version: MODEL_VERSION,
            benchmark: focus.to_string(),
            predictor,
            mode: Mode::MultiProg { partner: partner.map(str::to_string) },
            accesses,
            seed,
        }
    }

    /// The canonical serialized form: compact single-line JSON, injective
    /// over the spec fields. This string *is* the spec's identity for
    /// dedup and caching.
    pub fn key(&self) -> String {
        serde_json::to_string(self)
    }

    /// FNV-1a 64-bit hash of [`RunSpec::key`], as 16 hex digits — the
    /// artifact cache file stem.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(self.key().as_bytes()))
    }

    /// A compact human-readable label for plans and progress output.
    pub fn label(&self) -> String {
        let mode = match &self.mode {
            Mode::MultiProg { partner: Some(p) } => format!("multiprog+{p}"),
            Mode::Stream { budget_bytes } => format!("stream[{budget_bytes}B]"),
            Mode::StreamSegment { budget_bytes, segments, segment, warmup } => {
                let w = warm_suffix(*warmup);
                format!("stream[{budget_bytes}B,seg {}/{segments}{w}]", segment + 1)
            }
            Mode::StreamSegmented { budget_bytes, segments, warmup } => {
                let w = warm_suffix(*warmup);
                format!("stream[{budget_bytes}B,{segments}seg{w}]")
            }
            m => m.name().to_string(),
        };
        let predictor = match self.predictor {
            PredictorKind::LtCordsWith(cfg) => format!(
                "lt-cords[sc={},frames={},frag={}]",
                cfg.sig_cache_entries, cfg.frames, cfg.fragment_len
            ),
            PredictorKind::DbcpBytes(b) => format!("dbcp[{b}B]"),
            PredictorKind::SketchDbcp(b) => format!("sketch-dbcp[{b}B]"),
            simple => simple.name().to_string(),
        };
        format!(
            "{}/{}/{}/{}k/s{}",
            mode,
            self.benchmark,
            predictor,
            self.accesses / 1000,
            self.seed
        )
    }

    /// Runs the simulation this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark (or multiprog partner) is not in the suite.
    pub fn execute(&self) -> RunResult {
        match &self.mode {
            Mode::Coverage => RunResult::Coverage(run_coverage(
                &self.benchmark,
                self.predictor,
                self.accesses,
                self.seed,
            )),
            Mode::Timing => RunResult::Timing(run_timing(
                &self.benchmark,
                self.predictor,
                self.accesses,
                self.seed,
            )),
            Mode::DeadTime => {
                let mut src = self.build_source();
                RunResult::DeadTime(DeadTimeTracker::run(&mut src, self.accesses))
            }
            Mode::Correlation => {
                let mut src = self.build_source();
                RunResult::Correlation(CorrelationAnalysis::run(&mut src, self.accesses))
            }
            Mode::Ordering => {
                let mut src = self.build_source();
                RunResult::Ordering(LastTouchOrderAnalysis::run(&mut src, self.accesses))
            }
            Mode::MultiProg { partner } => RunResult::MultiProg(run_multiprog(
                &self.benchmark,
                partner.as_deref(),
                self.predictor,
                self.accesses,
                self.seed,
            )),
            Mode::Stream { budget_bytes } => {
                let mut src = self.build_source();
                RunResult::Stream(StreamAnalysis::run(
                    &mut src,
                    self.accesses,
                    StreamConfig::with_budget(*budget_bytes).with_seed(self.seed),
                ))
            }
            Mode::StreamSegment { budget_bytes, segments, segment, warmup } => {
                let mut src = self.build_source();
                let slice = ltc_trace::TraceSegment::nth(self.accesses, *segments, *segment);
                // The checkpoint and warm image recorded at the slice
                // start (held by the scheduler's pre-pass or the parent
                // spec in this process, or read from disk) replace the
                // prefix and the warm-up replay; without that pair the
                // worker replays from 0.
                let stores = match slice.start {
                    0 => None,
                    _ => crate::engine::checkpoints::lookup(&self.benchmark, self.seed, *warmup),
                };
                let pair = stores.as_deref().and_then(|stores| stores.at(slice.start));
                RunResult::StreamPartial(Box::new(StreamAnalysis::run_segment_with(
                    &mut src,
                    slice,
                    StreamConfig::with_budget(*budget_bytes)
                        .with_seed(self.seed)
                        .with_warmup(*warmup),
                    pair.map(|(checkpoint, _)| checkpoint),
                    pair.map(|(_, image)| image),
                )))
            }
            Mode::StreamSegmented { segments, warmup, .. } => {
                // A worker handed the parent runs its children
                // sequentially; the scheduler path fans them out instead
                // (`crate::engine::segmented`). One recording pass up
                // front replaces the children's per-segment skip loops
                // and warm-up replays; its stores are held until the
                // children have run.
                let _stores = crate::engine::checkpoints::prepare_segments(
                    &self.benchmark,
                    self.seed,
                    self.accesses,
                    *segments,
                    *warmup,
                );
                let children = crate::engine::segmented::children(self)
                    .expect("StreamSegmented always has children");
                let partials: Vec<_> = children
                    .iter()
                    .map(|child| match child.execute() {
                        RunResult::StreamPartial(p) => *p,
                        other => panic!("segment child produced a {} result", other.kind()),
                    })
                    .collect();
                RunResult::Stream(
                    ltc_analysis::merge_partials(&partials)
                        .expect("same-spec partials always share a shape"),
                )
            }
        }
    }

    fn build_source(&self) -> ltc_trace::BoxedSource {
        suite::by_name(&self.benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {}", self.benchmark))
            .build(self.seed)
    }
}

/// The label suffix for a non-default segment warm-up (empty for the
/// default, keeping established labels stable).
fn warm_suffix(warmup: u64) -> String {
    if warmup == ltc_analysis::SEGMENT_WARMUP {
        String::new()
    } else {
        format!(",warm {warmup}")
    }
}

/// FNV-1a 64-bit hash (stable across platforms and runs, unlike
/// `DefaultHasher`), used to name artifact files.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_json() {
        let specs = [
            RunSpec::coverage("galgel", PredictorKind::LtCords, 100_000, 1),
            RunSpec::coverage("art", PredictorKind::DbcpBytes(2 << 20), 50_000, 3),
            RunSpec::timing("mcf", PredictorKind::BigL2, 30_000, 2),
            RunSpec::dead_time("swim", 25_000, 1),
            RunSpec::correlation("gcc", 25_000, 1),
            RunSpec::ordering("gcc", 25_000, 1),
            RunSpec::multiprog("gcc", Some("mcf"), PredictorKind::LtCords, 40_000, 1),
            RunSpec::multiprog("gcc", None, PredictorKind::LtCords, 40_000, 1),
            RunSpec::stream("mcf", 256 << 10, 60_000, 1),
            RunSpec::stream_segment("mcf", 256 << 10, 4, 2, 60_000, 1),
            RunSpec::stream_segment("mcf", 256 << 10, 4, 2, 60_000, 1).with_stream_warmup(9_000),
            RunSpec::stream_segmented("mcf", 256 << 10, 4, 60_000, 1),
            RunSpec::stream_segmented("mcf", 256 << 10, 4, 60_000, 1).with_stream_warmup(9_000),
            RunSpec::coverage("art", PredictorKind::SketchDbcp(128 << 10), 50_000, 2),
            RunSpec::coverage(
                "em3d",
                PredictorKind::LtCordsWith(LtCordsConfig::fig9_sweep(4096)),
                80_000,
                1,
            ),
        ];
        for spec in &specs {
            let parsed: RunSpec = serde_json::from_str(&spec.key()).expect("parses");
            assert_eq!(&parsed, spec, "round trip must be lossless: {}", spec.key());
        }
    }

    /// The serialized keys are the cache's identity: these two name
    /// entries of `perfbench/reference/coverage.json` and
    /// `stream-seg.json`, so a change to the field order, the names or
    /// the number formatting fails here before it orphans every artifact.
    #[test]
    fn keys_are_pinned() {
        let coverage = RunSpec::coverage("gcc", PredictorKind::LtCords, 2_000_000, 1);
        assert_eq!(
            coverage.key(),
            r#"{"model_version":4,"benchmark":"gcc","predictor":"lt-cords","mode":"coverage","accesses":2000000,"seed":1}"#
        );
        assert_eq!(coverage.hash_hex(), "7a0b97b901249420");
        let segment = RunSpec::stream_segment("mcf", 256 << 10, 8, 3, 4_000_000, 1);
        assert_eq!(
            segment.key(),
            r#"{"model_version":4,"benchmark":"mcf","predictor":"baseline","mode":{"stream-segment":{"budget_bytes":262144,"segments":8,"segment":3,"warmup":150000}},"accesses":4000000,"seed":1}"#
        );
        assert_eq!(segment.hash_hex(), "974df12bbda0c7b4");
    }

    #[test]
    fn distinct_specs_have_distinct_keys() {
        let base = RunSpec::coverage("galgel", PredictorKind::LtCords, 100_000, 1);
        let variants = [
            RunSpec::coverage("galgel", PredictorKind::LtCords, 100_000, 2),
            RunSpec::coverage("galgel", PredictorKind::LtCords, 100_001, 1),
            RunSpec::coverage("galgel", PredictorKind::Dbcp2Mb, 100_000, 1),
            RunSpec::coverage("mcf", PredictorKind::LtCords, 100_000, 1),
            RunSpec::timing("galgel", PredictorKind::LtCords, 100_000, 1),
        ];
        for v in &variants {
            assert_ne!(base.key(), v.key());
        }
    }

    #[test]
    fn model_version_is_part_of_the_key() {
        let a = RunSpec::coverage("gzip", PredictorKind::Baseline, 1_000, 1);
        assert_eq!(a.model_version, MODEL_VERSION);
        let mut b = a.clone();
        b.model_version += 1;
        assert_ne!(a.key(), b.key());
        assert_ne!(a.hash_hex(), b.hash_hex());
        let parsed: RunSpec = serde_json::from_str(&b.key()).expect("parses");
        assert_eq!(parsed, b);
    }

    #[test]
    fn unversioned_spec_json_no_longer_parses() {
        // A pre-versioning artifact's stored spec must fail to parse, so
        // the cache load degrades to a miss instead of serving stale
        // model output.
        let legacy = r#"{"benchmark":"gzip","predictor":"baseline","mode":"coverage","accesses":1000,"seed":1}"#;
        assert!(serde_json::from_str::<RunSpec>(legacy).is_err());
    }

    #[test]
    fn stream_budget_is_part_of_the_key() {
        let a = RunSpec::stream("gzip", 128 << 10, 1000, 1);
        let b = RunSpec::stream("gzip", 256 << 10, 1000, 1);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.hash_hex(), b.hash_hex());
        let sketch_a = RunSpec::coverage("gzip", PredictorKind::SketchDbcp(64 << 10), 1000, 1);
        let sketch_b = RunSpec::coverage("gzip", PredictorKind::SketchDbcp(32 << 10), 1000, 1);
        assert_ne!(sketch_a.key(), sketch_b.key());
    }

    #[test]
    fn segment_count_and_index_are_part_of_the_key() {
        // The artifact-cache regression the segmented modes were designed
        // around: `--segments 4` and `--segments 8` runs (and each slice
        // within them) must never alias one another — or the unsegmented
        // stream run.
        let four = RunSpec::stream_segmented("gzip", 64 << 10, 4, 1000, 1);
        let eight = RunSpec::stream_segmented("gzip", 64 << 10, 8, 1000, 1);
        assert_ne!(four.key(), eight.key());
        assert_ne!(four.hash_hex(), eight.hash_hex());
        assert_ne!(four.key(), RunSpec::stream("gzip", 64 << 10, 1000, 1).key());

        let slice_a = RunSpec::stream_segment("gzip", 64 << 10, 4, 0, 1000, 1);
        let slice_b = RunSpec::stream_segment("gzip", 64 << 10, 4, 1, 1000, 1);
        let slice_other_split = RunSpec::stream_segment("gzip", 64 << 10, 8, 0, 1000, 1);
        assert_ne!(slice_a.key(), slice_b.key(), "segment index must key");
        assert_ne!(slice_a.key(), slice_other_split.key(), "segment count must key");
        assert_ne!(slice_a.hash_hex(), slice_other_split.hash_hex());
        assert_ne!(slice_a.key(), four.key(), "child and parent must not alias");
    }

    #[test]
    fn segment_warmup_is_part_of_the_key() {
        let child = RunSpec::stream_segment("gzip", 64 << 10, 4, 1, 1000, 1);
        let rewarmed = child.clone().with_stream_warmup(50_000);
        assert_ne!(child.key(), rewarmed.key());
        assert_ne!(child.hash_hex(), rewarmed.hash_hex());
        let parsed: RunSpec = serde_json::from_str(&rewarmed.key()).expect("parses");
        assert_eq!(parsed, rewarmed);

        let parent = RunSpec::stream_segmented("gzip", 64 << 10, 4, 1000, 1);
        assert_ne!(parent.key(), parent.clone().with_stream_warmup(50_000).key());

        // Labels surface only non-default warm-ups, keeping the
        // established default labels stable.
        assert!(!child.label().contains("warm"));
        assert!(rewarmed.label().contains("warm 50000"));

        // Warm-up only applies to stream-segment modes.
        let coverage = RunSpec::coverage("gzip", PredictorKind::Baseline, 1000, 1);
        assert_eq!(coverage.clone().with_stream_warmup(5).key(), coverage.key());

        // A pre-warm-up-field artifact spec must fail to parse, so stale
        // cache entries degrade to misses instead of aliasing.
        let legacy = r#"{"model_version":4,"benchmark":"gzip","predictor":"baseline","mode":{"stream-segment":{"budget_bytes":65536,"segments":4,"segment":1}},"accesses":1000,"seed":1}"#;
        assert!(serde_json::from_str::<RunSpec>(legacy).is_err());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_segment_rejected() {
        let _ = RunSpec::stream_segment("gzip", 64 << 10, 4, 4, 1000, 1);
    }

    #[test]
    fn multiprog_partner_is_part_of_the_key() {
        let alone = RunSpec::multiprog("gcc", None, PredictorKind::LtCords, 1000, 1);
        let paired = RunSpec::multiprog("gcc", Some("mcf"), PredictorKind::LtCords, 1000, 1);
        assert_ne!(alone.key(), paired.key());
        assert_ne!(alone.hash_hex(), paired.hash_hex());
    }

    #[test]
    fn config_differences_change_the_key() {
        let a = RunSpec::coverage(
            "art",
            PredictorKind::LtCordsWith(LtCordsConfig::fig10_sweep(2 << 20)),
            1000,
            1,
        );
        let b = RunSpec::coverage(
            "art",
            PredictorKind::LtCordsWith(LtCordsConfig::fig10_sweep(4 << 20)),
            1000,
            1,
        );
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
