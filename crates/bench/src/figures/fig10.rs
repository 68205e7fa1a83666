//! Figure 10 — off-chip sequence storage size needed for coverage.

use ltc_sim::core::LtCordsConfig;
use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;

use crate::scale::Scale;

/// Storage sizes swept, in signatures (the paper's 2M→32M series).
pub const SIZES: [usize; 5] = [2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20];

/// The paper's Figure 10 benchmark list: the codes with the largest
/// sequence storage requirements.
pub const BENCHMARKS: [&str; 13] = [
    "lucas", "mgrid", "applu", "wupwise", "swim", "fma3d", "ammp", "parser", "gcc", "equake",
    "facerec", "mcf", "art",
];

/// Coverage fraction achieved per storage size, per benchmark.
#[derive(Debug, Clone)]
pub struct StorageDemand {
    /// `(benchmark, [normalized coverage per size in SIZES])`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

fn spec_for(bench: &str, sigs: usize, scale: Scale) -> RunSpec {
    let cfg = LtCordsConfig::fig10_sweep(sigs);
    RunSpec::coverage(bench, PredictorKind::LtCordsWith(cfg), scale.coverage_accesses, 1)
}

/// Declares the (benchmark × storage size) grid.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    BENCHMARKS.iter().flat_map(|&b| SIZES.iter().map(move |&s| spec_for(b, s, scale))).collect()
}

/// Assembles the normalized rows from engine results.
pub fn storage_demand(scale: Scale, results: &ResultSet) -> StorageDemand {
    let mut rows = Vec::new();
    for &bench in &BENCHMARKS {
        let per: Vec<f64> = SIZES
            .iter()
            .map(|&sigs| results.coverage(&spec_for(bench, sigs, scale)).coverage())
            .collect();
        let best = per.iter().copied().fold(0.0f64, f64::max).max(1e-9);
        rows.push((bench, per.iter().map(|c| (c / best).clamp(0.0, 1.0)).collect()));
    }
    StorageDemand { rows }
}

/// Renders Figure 10 as the percentage of potential predictions achieved.
pub fn render(d: &StorageDemand) -> String {
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(SIZES.iter().map(|s| format!("{}M sigs", s >> 20)));
    let mut t = Table::new(headers);
    for (bench, per) in &d.rows {
        let mut row = vec![bench.to_string()];
        row.extend(per.iter().map(|f| format!("{:.0}%", f * 100.0)));
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_coverage;

    #[test]
    fn storage_demand_is_monotone_for_streaming_code() {
        let scale = Scale { coverage_accesses: 1_500_000, ..Scale::bench() };
        // art's per-pass signature volume exceeds small stores.
        let small = run_coverage(
            "art",
            PredictorKind::LtCordsWith(LtCordsConfig::fig10_sweep(128 << 10)),
            scale.coverage_accesses,
            1,
        );
        let big = run_coverage(
            "art",
            PredictorKind::LtCordsWith(LtCordsConfig::fig10_sweep(8 << 20)),
            scale.coverage_accesses,
            1,
        );
        assert!(
            big.coverage() + 0.02 >= small.coverage(),
            "{:.2} vs {:.2}",
            big.coverage(),
            small.coverage()
        );
    }
}
