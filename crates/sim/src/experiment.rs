//! Named predictor configurations and experiment drivers.

use ltc_analysis::{run_coverage as run_coverage_inner, CoverageConfig, CoverageReport};
use ltc_cache::Hierarchy;
use ltc_predictors::{
    DbcpConfig, DbcpPrefetcher, GhbConfig, GhbPrefetcher, NullPrefetcher, PrefetchLevel,
    Prefetcher, SketchDbcp, SketchDbcpConfig, StrideConfig, StridePrefetcher,
};
use ltc_timing::{TimingConfig, TimingReport, TimingSim};
use ltc_trace::{suite, MultiProgram};
use ltcords::{LtCords, LtCordsConfig};
use serde::{Deserialize, Serialize};

/// The predictor configurations compared in the paper.
///
/// `Eq`/`Hash` make a kind usable as part of an engine [`crate::engine::RunSpec`]
/// dedup key (possible because no configuration field is a float).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// No predictor (Table 1 baseline).
    Baseline,
    /// Perfect L1D (Table 3 upper bound; timing only).
    PerfectL1,
    /// LT-cords with the Section 5.6 configuration.
    LtCords,
    /// LT-cords with an explicit configuration (sensitivity sweeps).
    LtCordsWith(LtCordsConfig),
    /// DBCP with unlimited correlation storage (Figure 8 oracle).
    DbcpUnlimited,
    /// DBCP with the realistic 2 MB table (Tables 1/3).
    Dbcp2Mb,
    /// DBCP with an arbitrary table budget in bytes (Figure 4 sweep).
    DbcpBytes(u64),
    /// Sketch-backed DBCP with a correlated-heavy-hitter summary fitting
    /// the given byte budget (the sketch budget-sweep figure).
    SketchDbcp(u64),
    /// GHB PC/DC (Table 1: 256-entry IT/GHB, depth 4).
    Ghb,
    /// Classic per-PC stride prefetcher.
    Stride,
    /// Baseline machine with the 4 MB L2 (Table 3; timing only).
    BigL2,
}

impl PredictorKind {
    /// Short name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Baseline => "baseline",
            PredictorKind::PerfectL1 => "perfect-l1",
            PredictorKind::LtCords | PredictorKind::LtCordsWith(_) => "lt-cords",
            PredictorKind::DbcpUnlimited => "dbcp-unlimited",
            PredictorKind::Dbcp2Mb => "dbcp",
            PredictorKind::DbcpBytes(_) => "dbcp-sized",
            PredictorKind::SketchDbcp(_) => "sketch-dbcp",
            PredictorKind::Ghb => "ghb",
            PredictorKind::Stride => "stride",
            PredictorKind::BigL2 => "4mb-l2",
        }
    }

    /// Instantiates the prefetcher for this configuration. The hierarchy
    /// variants ([`PredictorKind::PerfectL1`], [`PredictorKind::BigL2`])
    /// use the null prefetcher — their effect lives in the machine config,
    /// see [`PredictorKind::timing_config`].
    pub fn build(&self) -> Box<dyn Prefetcher + Send> {
        match self {
            PredictorKind::Baseline | PredictorKind::PerfectL1 | PredictorKind::BigL2 => {
                Box::new(NullPrefetcher::new())
            }
            PredictorKind::LtCords => Box::new(LtCords::new(LtCordsConfig::paper())),
            PredictorKind::LtCordsWith(cfg) => Box::new(LtCords::new(*cfg)),
            PredictorKind::DbcpUnlimited => Box::new(DbcpPrefetcher::new(DbcpConfig::unlimited())),
            PredictorKind::Dbcp2Mb => Box::new(DbcpPrefetcher::new(DbcpConfig::paper_2mb())),
            PredictorKind::DbcpBytes(bytes) => {
                Box::new(DbcpPrefetcher::new(DbcpConfig::with_table_bytes(*bytes)))
            }
            PredictorKind::SketchDbcp(bytes) => {
                Box::new(SketchDbcp::new(SketchDbcpConfig::with_budget_bytes(*bytes)))
            }
            PredictorKind::Ghb => Box::new(GhbPrefetcher::new(GhbConfig::default())),
            PredictorKind::Stride => Box::new(StridePrefetcher::new(StrideConfig::default())),
        }
    }

    /// The machine configuration this kind runs on.
    pub fn timing_config(&self) -> TimingConfig {
        match self {
            PredictorKind::PerfectL1 => TimingConfig::perfect_l1(),
            PredictorKind::BigL2 => TimingConfig::big_l2(),
            _ => TimingConfig::paper(),
        }
    }
}

/// Runs a coverage experiment for one benchmark.
///
/// # Panics
///
/// Panics if `benchmark` is not in the suite.
pub fn run_coverage(
    benchmark: &str,
    kind: PredictorKind,
    accesses: u64,
    seed: u64,
) -> CoverageReport {
    let entry =
        suite::by_name(benchmark).unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
    let mut source = entry.build(seed);
    let mut predictor = kind.build();
    // A quarter of the budget warms caches and trains the predictor; the
    // paper's whole-benchmark traces are steady-state-dominated, scaled
    // runs are not.
    let mut report = run_coverage_inner(
        &mut source,
        predictor.as_mut(),
        CoverageConfig::paper(accesses).with_warmup(accesses / 4),
    );
    report.predictor = kind.name().to_string();
    report
}

/// Runs a timing experiment for one benchmark.
///
/// # Panics
///
/// Panics if `benchmark` is not in the suite.
pub fn run_timing(benchmark: &str, kind: PredictorKind, accesses: u64, seed: u64) -> TimingReport {
    let entry =
        suite::by_name(benchmark).unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
    let mut source = entry.build(seed);
    let mut predictor = kind.build();
    let cfg = kind.timing_config().with_warmup(accesses / 4);
    let mut report = TimingSim::new(cfg).run(&mut source, predictor.as_mut(), accesses);
    report.predictor = kind.name().to_string();
    report
}

/// Result of a multi-programmed coverage run (the Figure 11 methodology):
/// the focus program's share of the context-switched machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiProgReport {
    /// Focus-program baseline L1D misses.
    pub focus_misses: u64,
    /// Focus-program misses eliminated by the predictor.
    pub eliminated: u64,
}

impl MultiProgReport {
    /// Fraction of the focus program's misses eliminated.
    pub fn coverage(&self) -> f64 {
        if self.focus_misses == 0 {
            0.0
        } else {
            self.eliminated as f64 / self.focus_misses as f64
        }
    }
}

/// OS scheduling quantum in accesses: FP codes get the paper's longer
/// quantum (fewer context switches per instruction).
fn multiprog_quantum(name: &str) -> u64 {
    if suite::by_name(name).map(|e| e.is_fp()).unwrap_or(false) {
        1_200_000
    } else {
        600_000
    }
}

/// Runs a multi-programmed coverage experiment: the `focus` benchmark
/// context-switched against an optional `partner`, sharing one hierarchy
/// and one predictor (Figure 11's methodology). The partner's address
/// space is offset so the programs compete for cache and predictor state
/// without aliasing; with a partner the access budget is doubled so the
/// focus program sees a comparable number of its own accesses.
///
/// Only L1 prefetch requests are applied: the L2 requests of GHB and
/// stride are dropped, so those predictors eliminate no misses here.
///
/// # Panics
///
/// Panics if `focus` or `partner` is not in the suite.
pub fn run_multiprog(
    focus: &str,
    partner: Option<&str>,
    kind: PredictorKind,
    accesses: u64,
    seed: u64,
) -> MultiProgReport {
    let ef = suite::by_name(focus).unwrap_or_else(|| panic!("unknown benchmark {focus}"));
    let mut predictor = kind.build();
    let cfg = CoverageConfig::paper(accesses);
    let mut base = Hierarchy::new(cfg.hierarchy);
    let mut pf = Hierarchy::new(cfg.hierarchy);
    let mut requests = Vec::new();
    let mut report = MultiProgReport::default();

    let mut programs = vec![(ef.build(seed), multiprog_quantum(focus), 0)];
    let mut total = accesses;
    if let Some(p) = partner {
        let ep = suite::by_name(p).unwrap_or_else(|| panic!("unknown benchmark {p}"));
        programs.push((ep.build(seed + 1), multiprog_quantum(p), 1 << 40));
        total = accesses * 2;
    }
    let mut multi = MultiProgram::new(programs);

    for _ in 0..total {
        let Some((prog, acc)) = multi.next_tagged() else { break };
        let b_out = base.access(acc.addr, acc.kind);
        let p_out = pf.access(acc.addr, acc.kind);
        if prog == 0 {
            report.focus_misses += u64::from(!b_out.l1.hit);
            report.eliminated += u64::from(!b_out.l1.hit && p_out.l1.hit);
        }
        predictor.on_access(&acc, &p_out, &mut requests);
        for req in requests.drain(..).filter(|r| r.level == PrefetchLevel::L1) {
            if let Some(out) = pf.prefetch(&req) {
                predictor.on_prefetch_applied(&req, &out);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_instantiate() {
        for kind in [
            PredictorKind::Baseline,
            PredictorKind::PerfectL1,
            PredictorKind::LtCords,
            PredictorKind::DbcpUnlimited,
            PredictorKind::Dbcp2Mb,
            PredictorKind::DbcpBytes(1 << 20),
            PredictorKind::SketchDbcp(256 << 10),
            PredictorKind::Ghb,
            PredictorKind::Stride,
            PredictorKind::BigL2,
        ] {
            let p = kind.build();
            let _ = p.storage_bytes();
            let _ = kind.name();
            let _ = kind.timing_config();
        }
    }

    #[test]
    fn coverage_experiment_runs() {
        let r = run_coverage("gzip", PredictorKind::Baseline, 20_000, 1);
        // A quarter of the budget is warm-up, excluded from statistics.
        assert_eq!(r.accesses, 15_000);
        assert!(r.base_l1_misses > 0);
    }

    #[test]
    fn timing_experiment_runs() {
        let r = run_timing("mesa", PredictorKind::Baseline, 20_000, 1);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn perfect_l1_beats_baseline() {
        let base = run_timing("mcf", PredictorKind::Baseline, 30_000, 1);
        let ideal = run_timing("mcf", PredictorKind::PerfectL1, 30_000, 1);
        assert!(ideal.ipc() > base.ipc());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = run_coverage("vpr", PredictorKind::Baseline, 10, 1);
    }
}
