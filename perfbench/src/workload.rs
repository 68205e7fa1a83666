//! The benchmark's workloads and scales.

use ltc_sim::engine::{segmented, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::trace::suite;

/// One workload of the benchmark (`perfbench/README.md` says why each
/// was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 8 spec set: LT-cords and unlimited-DBCP coverage runs.
    Coverage,
    /// `ltsim stream all --segments N` on the subprocess backend.
    StreamSeg,
    /// The Table 3 spec set: six timing configurations.
    Timing,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Coverage, Workload::StreamSeg, Workload::Timing];

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload: {name}"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Coverage => "coverage",
            Workload::StreamSeg => "stream-seg",
            Workload::Timing => "timing",
        }
    }

    /// The backend users run the workload on.
    pub fn backend(self) -> &'static str {
        match self {
            Workload::StreamSeg => "subprocess",
            Workload::Coverage | Workload::Timing => "threads",
        }
    }
}

/// `ltsim stream`'s default summary budget.
pub const STREAM_BUDGET: u64 = 256 << 10;

/// The Table 3 machines and predictors, baseline first: the order
/// `ltc_bench::figures::table3::specs` requests them in.
pub const TIMING_KINDS: [PredictorKind; 6] = [
    PredictorKind::Baseline,
    PredictorKind::PerfectL1,
    PredictorKind::LtCords,
    PredictorKind::Ghb,
    PredictorKind::Dbcp2Mb,
    PredictorKind::BigL2,
];

/// Benchmarks and access budgets of one benchmark scale.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    pub benchmarks: Vec<&'static str>,
    pub coverage_accesses: u64,
    pub timing_accesses: u64,
    pub stream_accesses: u64,
    pub segments: u32,
}

impl Scale {
    /// The whole suite at today's `ltsim run --quick` budgets, and the
    /// segmented stream of `ltsim stream all --segments 8 --accesses 4000000`.
    pub fn full() -> Scale {
        Scale {
            name: "full",
            benchmarks: suite::benchmarks().iter().map(|e| e.name).collect(),
            coverage_accesses: 2_000_000,
            timing_accesses: 800_000,
            stream_accesses: 4_000_000,
            segments: 8,
        }
    }

    /// Four benchmarks of different kinds (phased, pointer chase, sweep,
    /// scattered graph) at a quarter of the budgets: the layers a traced
    /// workload does not run itself.
    pub fn sample() -> Scale {
        Scale {
            name: "sample",
            benchmarks: vec!["gcc", "mcf", "swim", "em3d"],
            coverage_accesses: 500_000,
            timing_accesses: 200_000,
            stream_accesses: 800_000,
            segments: 8,
        }
    }

    /// A few thousand accesses on two benchmarks, for the self-tests.
    pub fn tiny() -> Scale {
        Scale {
            name: "tiny",
            benchmarks: vec!["gcc", "mcf"],
            coverage_accesses: 20_000,
            timing_accesses: 10_000,
            stream_accesses: 40_000,
            segments: 4,
        }
    }

    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "full" => Ok(Scale::full()),
            "sample" => Ok(Scale::sample()),
            "tiny" => Ok(Scale::tiny()),
            other => Err(format!("unknown scale: {other}")),
        }
    }
}

/// The specs one cold run of `workload` requests, in request order.
pub fn specs(workload: Workload, scale: &Scale, seed: u64) -> Vec<RunSpec> {
    let benchmarks = scale.benchmarks.iter();
    match workload {
        Workload::Coverage => benchmarks
            .flat_map(|name| {
                [PredictorKind::LtCords, PredictorKind::DbcpUnlimited]
                    .map(|kind| RunSpec::coverage(name, kind, scale.coverage_accesses, seed))
            })
            .collect(),
        Workload::Timing => benchmarks
            .flat_map(|name| {
                TIMING_KINDS.map(|kind| RunSpec::timing(name, kind, scale.timing_accesses, seed))
            })
            .collect(),
        Workload::StreamSeg => benchmarks
            .map(|name| {
                RunSpec::stream_segmented(
                    name,
                    STREAM_BUDGET,
                    scale.segments,
                    scale.stream_accesses,
                    seed,
                )
            })
            .collect(),
    }
}

/// Every spec whose result the run persists as an artifact: the
/// requested specs and, for segmented parents, their per-segment
/// children.
pub fn outputs(specs: &[RunSpec]) -> Vec<RunSpec> {
    let mut outputs = Vec::new();
    for spec in specs {
        outputs.extend(segmented::children(spec).unwrap_or_default());
        outputs.push(spec.clone());
    }
    outputs
}
