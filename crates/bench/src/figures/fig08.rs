//! Figure 8 — LT-cords vs unlimited-storage DBCP coverage and accuracy.

use ltc_sim::analysis::CoverageReport;
use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;
use ltc_sim::trace::suite;

use crate::scale::Scale;

/// The paired breakdowns for one benchmark.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// LT-cords breakdown.
    pub ltcords: CoverageReport,
    /// Unlimited-DBCP (oracle) breakdown.
    pub oracle: CoverageReport,
}

fn spec_for(name: &str, kind: PredictorKind, scale: Scale) -> RunSpec {
    RunSpec::coverage(name, kind, scale.coverage_accesses, 1)
}

/// Declares both predictors over the whole suite.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    suite::benchmarks()
        .iter()
        .flat_map(|e| {
            [
                spec_for(e.name, PredictorKind::LtCords, scale),
                spec_for(e.name, PredictorKind::DbcpUnlimited, scale),
            ]
        })
        .collect()
}

/// Assembles the paired rows from engine results.
pub fn rows(scale: Scale, results: &ResultSet) -> Vec<Row> {
    suite::benchmarks()
        .iter()
        .map(|e| Row {
            name: e.name,
            ltcords: results.coverage(&spec_for(e.name, PredictorKind::LtCords, scale)).clone(),
            oracle: results
                .coverage(&spec_for(e.name, PredictorKind::DbcpUnlimited, scale))
                .clone(),
        })
        .collect()
}

/// Renders the stacked-bar data of Figure 8 (A = LT-cords, B = oracle DBCP).
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "A correct",
        "A incorrect",
        "A train",
        "A early",
        "B correct",
        "B incorrect",
        "B train",
        "B early",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.0}%", r.ltcords.correct_pct() * 100.0),
            format!("{:.0}%", r.ltcords.incorrect_pct() * 100.0),
            format!("{:.0}%", r.ltcords.train_pct() * 100.0),
            format!("{:.0}%", r.ltcords.early_pct() * 100.0),
            format!("{:.0}%", r.oracle.correct_pct() * 100.0),
            format!("{:.0}%", r.oracle.incorrect_pct() * 100.0),
            format!("{:.0}%", r.oracle.train_pct() * 100.0),
            format!("{:.0}%", r.oracle.early_pct() * 100.0),
        ]);
    }
    let mut s = t.render();
    let avg_lt = rows.iter().map(|r| r.ltcords.correct_pct()).sum::<f64>() / rows.len() as f64;
    let avg_or = rows.iter().map(|r| r.oracle.correct_pct()).sum::<f64>() / rows.len() as f64;
    s.push_str(&format!(
        "\naverage coverage: LT-cords {:.0}%, unlimited DBCP {:.0}% (paper: 69% vs oracle)\n",
        avg_lt * 100.0,
        avg_or * 100.0
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_coverage;

    #[test]
    fn ltcords_tracks_the_oracle_on_recurring_codes() {
        let scale = Scale { coverage_accesses: 1_500_000, ..Scale::bench() };
        let galgel = Row {
            name: "galgel",
            ltcords: run_coverage("galgel", PredictorKind::LtCords, scale.coverage_accesses, 1),
            oracle: run_coverage(
                "galgel",
                PredictorKind::DbcpUnlimited,
                scale.coverage_accesses,
                1,
            ),
        };
        assert!(galgel.oracle.correct_pct() > 0.5);
        assert!(
            galgel.ltcords.correct_pct() > galgel.oracle.correct_pct() * 0.7,
            "LT-cords {:.2} must track oracle {:.2}",
            galgel.ltcords.correct_pct(),
            galgel.oracle.correct_pct()
        );
        let s = render(&[galgel]);
        assert!(s.contains("galgel"));
    }
}
