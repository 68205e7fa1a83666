//! Figure 4 — DBCP coverage sensitivity to on-chip correlation table size.

use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;
use ltc_sim::trace::suite;

use crate::scale::Scale;

/// Table sizes swept (bytes). The paper sweeps 160 KB → 320 MB against
/// ~100 MB application footprints; our footprints are ~8x smaller, so the
/// sweep tops out at 40 MB — crossovers land proportionally earlier
/// (see EXPERIMENTS.md).
pub const SIZES: [u64; 9] =
    [160 << 10, 320 << 10, 640 << 10, 1 << 20, 2 << 20, 5 << 20, 10 << 20, 20 << 20, 40 << 20];

/// Normalized DBCP coverage per table size.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// `(size bytes, average normalized coverage, worst-case normalized)`.
    pub points: Vec<(u64, f64, f64)>,
    /// Benchmarks included (those with meaningful oracle coverage).
    pub benchmarks: Vec<&'static str>,
}

fn oracle_spec(name: &str, scale: Scale) -> RunSpec {
    RunSpec::coverage(name, PredictorKind::DbcpUnlimited, scale.coverage_accesses / 2, 1)
}

fn sized_spec(name: &str, size: u64, scale: Scale) -> RunSpec {
    RunSpec::coverage(name, PredictorKind::DbcpBytes(size), scale.coverage_accesses / 2, 1)
}

/// Benchmarks the oracle can meaningfully cover (the normalization
/// denominators), derivable once the oracle wave has run.
fn included(scale: Scale, results: &ResultSet) -> Vec<&'static str> {
    suite::benchmarks()
        .iter()
        .filter(|e| results.coverage(&oracle_spec(e.name, scale)).coverage() > 0.10)
        .map(|e| e.name)
        .collect()
}

/// Declares the sweep in two waves: first the unlimited-table oracle over
/// the whole suite, then — once those results exist — the finite-table
/// sweep over only the benchmarks the oracle can cover. The engine's
/// round loop executes wave one, re-asks, and executes wave two.
pub fn specs(scale: Scale, have: &ResultSet) -> Vec<RunSpec> {
    let mut specs: Vec<RunSpec> =
        suite::benchmarks().iter().map(|e| oracle_spec(e.name, scale)).collect();
    if specs.iter().all(|s| have.contains(s)) {
        for name in included(scale, have) {
            specs.extend(SIZES.iter().map(|&size| sized_spec(name, size, scale)));
        }
    }
    specs
}

/// Assembles the normalized sensitivity curve from engine results.
pub fn sensitivity(scale: Scale, results: &ResultSet) -> Sensitivity {
    let benchmarks = included(scale, results);
    let mut points = Vec::new();
    for &size in &SIZES {
        let normalized: Vec<f64> = benchmarks
            .iter()
            .map(|name| {
                let oracle = results.coverage(&oracle_spec(name, scale)).coverage();
                let this = results.coverage(&sized_spec(name, size, scale)).coverage();
                (this / oracle).clamp(0.0, 1.0)
            })
            .collect();
        let avg = normalized.iter().sum::<f64>() / normalized.len().max(1) as f64;
        let worst = normalized.iter().copied().fold(1.0f64, f64::min);
        points.push((size, avg, worst));
    }
    Sensitivity { points, benchmarks }
}

/// Renders the Figure 4 series.
pub fn render(s: &Sensitivity) -> String {
    let mut t = Table::new(vec!["table size", "% of achievable coverage (avg)", "worst-case"]);
    for &(size, avg, worst) in &s.points {
        t.row(vec![
            ltc_sim::report::bytes(size),
            format!("{:.0}%", avg * 100.0),
            format!("{:.0}%", worst * 100.0),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!("\nbenchmarks included: {}\n", s.benchmarks.join(", ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_coverage;

    #[test]
    fn coverage_grows_with_table_size() {
        // Bench scale with a reduced size set via direct calls.
        let scale = Scale::bench();
        let small = run_coverage(
            "galgel",
            PredictorKind::DbcpBytes(40 << 10),
            scale.coverage_accesses * 4,
            1,
        );
        let big = run_coverage(
            "galgel",
            PredictorKind::DbcpBytes(10 << 20),
            scale.coverage_accesses * 4,
            1,
        );
        assert!(
            big.coverage() >= small.coverage(),
            "bigger table cannot hurt: {:.2} vs {:.2}",
            big.coverage(),
            small.coverage()
        );
    }

    #[test]
    fn specs_declare_the_sweep_in_two_waves() {
        let scale = Scale::bench();
        let first = specs(scale, &ResultSet::new());
        assert_eq!(first.len(), suite::benchmarks().len(), "wave one is the oracle only");
    }
}
