//! Figure 9 — coverage sensitivity to signature cache size.

use ltc_sim::core::LtCordsConfig;
use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;

use crate::scale::Scale;

/// Signature cache sizes swept (entries), as in the paper's x axis.
pub const SIZES: [usize; 11] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072];

/// Benchmarks used for the sweep: a representative mix of recurring codes
/// whose footprints let the budget cover several passes.
pub const BENCHMARKS: [&str; 6] = ["galgel", "art", "mcf", "em3d", "gcc", "facerec"];

/// Normalized coverage per signature cache size.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// `(entries, average coverage normalized to the largest size)`.
    pub points: Vec<(usize, f64)>,
}

fn spec_for(bench: &str, entries: usize, scale: Scale) -> RunSpec {
    let cfg = LtCordsConfig::fig9_sweep(entries);
    RunSpec::coverage(bench, PredictorKind::LtCordsWith(cfg), scale.coverage_accesses, 1)
}

/// Declares the (size × benchmark) grid with the paper's Figure 9
/// methodology: effectively unlimited 512-signature fragments, 8-way
/// signature cache.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    SIZES.iter().flat_map(|&s| BENCHMARKS.iter().map(move |&b| spec_for(b, s, scale))).collect()
}

/// Assembles the normalized curve from engine results.
pub fn sensitivity(scale: Scale, results: &ResultSet) -> Sensitivity {
    let largest = *SIZES.last().expect("non-empty sweep");
    let mut points = Vec::new();
    for &entries in &SIZES {
        let mut sum = 0.0;
        for &bench in &BENCHMARKS {
            let this = results.coverage(&spec_for(bench, entries, scale)).coverage();
            let best = results.coverage(&spec_for(bench, largest, scale)).coverage().max(1e-9);
            sum += (this / best).clamp(0.0, 1.0);
        }
        points.push((entries, sum / BENCHMARKS.len() as f64));
    }
    Sensitivity { points }
}

/// Renders the Figure 9 curve.
pub fn render(s: &Sensitivity) -> String {
    let mut t = Table::new(vec!["signature cache (entries)", "% of achievable coverage"]);
    for &(entries, frac) in &s.points {
        t.row(vec![entries.to_string(), format!("{:.0}%", frac * 100.0)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_coverage;

    #[test]
    fn bigger_caches_do_not_hurt_much() {
        let scale = Scale { coverage_accesses: 1_000_000, ..Scale::bench() };
        let small = run_coverage(
            "galgel",
            PredictorKind::LtCordsWith(LtCordsConfig::fig9_sweep(128)),
            scale.coverage_accesses,
            1,
        );
        let large = run_coverage(
            "galgel",
            PredictorKind::LtCordsWith(LtCordsConfig::fig9_sweep(32 << 10)),
            scale.coverage_accesses,
            1,
        );
        assert!(large.coverage() > small.coverage(), "capacity must matter");
    }
}
