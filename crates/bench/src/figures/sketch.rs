//! Sketch budget sweep — `SketchDbcp` coverage vs the exact 2 MB DBCP.
//!
//! Not a paper artifact: the sketch subsystem's accuracy-vs-memory axis.
//! Every benchmark runs under the exact 2 MB DBCP table and under
//! `SketchDbcp` at a ladder of summary budgets; the figure reports how
//! much coverage the sketch gives up per budget, on honest resident-byte
//! counts (`CoverageReport::memory_bytes`). The exact table's *resident*
//! footprint is ~6x its nominal 2 MB (a 524k-slot array of 24-byte
//! entries, ~12.6 MB), so the ladder's 1.5 MiB headline point buys the
//! sketch at most 1/8 of the exact predictor's real memory.

use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;
use ltc_sim::trace::suite;

use crate::scale::Scale;

/// The exact table the sweep is judged against (the paper's 2 MB DBCP).
pub const EXACT_BYTES: u64 = 2 << 20;

/// Summary budgets swept: 1/32 of the exact table's nominal bytes up to
/// the 1.5 MiB headline point (64 KiB – 1.5 MiB).
pub const BUDGETS: [u64; 6] = [
    EXACT_BYTES / 32,
    EXACT_BYTES / 16,
    EXACT_BYTES / 8,
    EXACT_BYTES / 4,
    EXACT_BYTES / 2,
    HEADLINE_BUDGET,
];

/// The headline budget the summary line below the table reports:
/// 1.5 MiB — exactly 1/8 of the exact table's *resident* array (524288
/// slots x 24 bytes = 12 MiB; the honest comparison the `memory_bytes`
/// columns show, asserted by test).
pub const HEADLINE_BUDGET: u64 = EXACT_BYTES * 3 / 4;

/// One budget's aggregate comparison across the suite.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPoint {
    /// Summary byte budget.
    pub budget: u64,
    /// Average `SketchDbcp` coverage.
    pub sketch_coverage: f64,
    /// Average exact-DBCP coverage (same across budgets).
    pub exact_coverage: f64,
    /// Average coverage delta `exact − sketch` in fractional points
    /// (positive = the sketch trails).
    pub delta: f64,
    /// Worst per-benchmark delta.
    pub worst_delta: f64,
    /// Average resident predictor memory of the sketch runs (bytes).
    pub sketch_memory: u64,
    /// Average resident predictor memory of the exact runs (bytes).
    pub exact_memory: u64,
}

fn exact_spec(name: &str, scale: Scale) -> RunSpec {
    RunSpec::coverage(name, PredictorKind::Dbcp2Mb, scale.coverage_accesses / 2, 1)
}

fn sketch_spec(name: &str, budget: u64, scale: Scale) -> RunSpec {
    RunSpec::coverage(name, PredictorKind::SketchDbcp(budget), scale.coverage_accesses / 2, 1)
}

/// The sweep is one wave: exact + every budget for every benchmark.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for e in suite::benchmarks() {
        specs.push(exact_spec(e.name, scale));
        specs.extend(BUDGETS.iter().map(|&b| sketch_spec(e.name, b, scale)));
    }
    specs
}

/// Aggregates the sweep into one [`BudgetPoint`] per budget.
pub fn points(scale: Scale, results: &ResultSet) -> Vec<BudgetPoint> {
    let benchmarks: Vec<&str> = suite::benchmarks().iter().map(|e| e.name).collect();
    let n = benchmarks.len() as f64;
    BUDGETS
        .iter()
        .map(|&budget| {
            let mut p = BudgetPoint {
                budget,
                sketch_coverage: 0.0,
                exact_coverage: 0.0,
                delta: 0.0,
                // Seeded below the first real delta, so a sketch that
                // beats exact everywhere reports its true (negative)
                // worst rather than a clamped 0.
                worst_delta: f64::NEG_INFINITY,
                sketch_memory: 0,
                exact_memory: 0,
            };
            for name in &benchmarks {
                let exact = results.coverage(&exact_spec(name, scale));
                let sketch = results.coverage(&sketch_spec(name, budget, scale));
                let delta = exact.coverage() - sketch.coverage();
                p.exact_coverage += exact.coverage() / n;
                p.sketch_coverage += sketch.coverage() / n;
                p.delta += delta / n;
                p.worst_delta = p.worst_delta.max(delta);
                p.exact_memory += exact.memory_bytes / benchmarks.len() as u64;
                p.sketch_memory += sketch.memory_bytes / benchmarks.len() as u64;
            }
            p
        })
        .collect()
}

/// Renders the budget table plus the headline 1/8-budget summary line.
pub fn render(points: &[BudgetPoint]) -> String {
    let mut t = Table::new(vec![
        "sketch budget",
        "coverage (sketch)",
        "coverage (exact dbcp)",
        "delta (avg)",
        "delta (worst)",
        "resident bytes (sketch)",
        "resident bytes (exact)",
    ]);
    for p in points {
        t.row(vec![
            ltc_sim::report::bytes(p.budget),
            format!("{:.1}%", p.sketch_coverage * 100.0),
            format!("{:.1}%", p.exact_coverage * 100.0),
            format!("{:+.1} pp", p.delta * 100.0),
            format!("{:+.1} pp", p.worst_delta * 100.0),
            ltc_sim::report::bytes(p.sketch_memory),
            ltc_sim::report::bytes(p.exact_memory),
        ]);
    }
    let mut out = t.render();
    if let Some(p) = points.iter().find(|p| p.budget == HEADLINE_BUDGET) {
        out.push_str(&format!(
            "\nat a {} budget ({:.1}x less resident memory than the exact table's {}): \
             sketch coverage within {:.1} pp of exact DBCP\n",
            ltc_sim::report::bytes(HEADLINE_BUDGET),
            p.exact_memory as f64 / p.sketch_memory.max(1) as f64,
            ltc_sim::report::bytes(p.exact_memory),
            p.delta * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_coverage;

    #[test]
    fn budgets_ladder_up_to_the_headline_point() {
        assert!(BUDGETS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(BUDGETS[0], 64 << 10);
        assert_eq!(*BUDGETS.last().unwrap(), HEADLINE_BUDGET);
    }

    #[test]
    fn headline_budget_is_at_most_an_eighth_of_exact_resident_bytes() {
        // The honest-memory claim the render line makes: the exact 2 MB
        // table's resident memory is ≥ 8x the headline sketch budget.
        let exact =
            ltc_sim::predictors::DbcpPrefetcher::new(ltc_sim::predictors::DbcpConfig::paper_2mb());
        use ltc_sim::predictors::Prefetcher;
        assert!(
            exact.memory_bytes() >= 8 * HEADLINE_BUDGET,
            "exact resident {} vs headline budget {}",
            exact.memory_bytes(),
            HEADLINE_BUDGET
        );
    }

    #[test]
    fn specs_cover_every_benchmark_and_budget() {
        let scale = Scale::bench();
        let specs = specs(scale, &ResultSet::new());
        assert_eq!(specs.len(), suite::benchmarks().len() * (1 + BUDGETS.len()));
    }

    #[test]
    fn sketch_tracks_exact_dbcp_on_a_recurring_workload() {
        // One benchmark at bench scale: the sketch at the headline budget
        // must land within a sane delta of the exact table while holding
        // at most 1/8 of its resident memory.
        let scale = Scale::bench();
        let exact = run_coverage("galgel", PredictorKind::Dbcp2Mb, scale.coverage_accesses * 4, 1);
        let sketch = run_coverage(
            "galgel",
            PredictorKind::SketchDbcp(HEADLINE_BUDGET),
            scale.coverage_accesses * 4,
            1,
        );
        assert!(
            sketch.coverage() > exact.coverage() - 0.35,
            "sketch {:.2} too far below exact {:.2}",
            sketch.coverage(),
            exact.coverage()
        );
        // The summary fits 1/8 of the exact table's resident array; the
        // shared history table rides on both sides, so compare with a
        // 7x floor on the total.
        assert!(
            sketch.memory_bytes * 7 <= exact.memory_bytes,
            "sketch resident {} not well under exact's {}",
            sketch.memory_bytes,
            exact.memory_bytes
        );
    }
}
