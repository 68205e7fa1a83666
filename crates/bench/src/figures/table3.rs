//! Table 3 — percent speedup over the baseline processor.

use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;
use ltc_sim::trace::{suite, WorkloadClass};

use crate::scale::Scale;

/// The Table 3 comparison columns, in paper order.
pub const CONFIGS: [PredictorKind; 5] = [
    PredictorKind::PerfectL1,
    PredictorKind::LtCords,
    PredictorKind::Ghb,
    PredictorKind::Dbcp2Mb,
    PredictorKind::BigL2,
];

/// One benchmark's speedup row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite grouping (for the means).
    pub class: WorkloadClass,
    /// Percent speedup over baseline, per entry of [`CONFIGS`].
    pub speedups: Vec<f64>,
}

fn spec_for(name: &str, kind: PredictorKind, scale: Scale) -> RunSpec {
    RunSpec::timing(name, kind, scale.timing_accesses, 1)
}

/// Declares the full (benchmark × config) timing grid plus baselines.
/// The baseline column is the same spec Table 2 declares, so running both
/// figures together simulates it once.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    suite::benchmarks()
        .iter()
        .flat_map(|e| {
            std::iter::once(spec_for(e.name, PredictorKind::Baseline, scale))
                .chain(CONFIGS.iter().map(move |&kind| spec_for(e.name, kind, scale)))
        })
        .collect()
}

/// Assembles the speedup grid from engine results.
pub fn rows(scale: Scale, results: &ResultSet) -> Vec<Row> {
    suite::benchmarks()
        .iter()
        .map(|entry| {
            let base = results.timing(&spec_for(entry.name, PredictorKind::Baseline, scale));
            let speedups = CONFIGS
                .iter()
                .map(|&kind| {
                    results.timing(&spec_for(entry.name, kind, scale)).speedup_pct_over(base)
                })
                .collect();
            Row { name: entry.name, class: entry.class, speedups }
        })
        .collect()
}

fn mean(rows: &[&Row], idx: usize) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.speedups[idx]).sum::<f64>() / rows.len() as f64
}

/// Renders the Table 3 grid with per-class and overall means.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec!["benchmark", "Perfect L1", "LT-cords", "GHB", "DBCP", "4MB L2"]);
    for r in rows {
        let mut cells = vec![r.name.to_string()];
        cells.extend(r.speedups.iter().map(|s| format!("{s:+.0}%")));
        t.row(cells);
    }
    for (label, class) in [
        ("SPECint mean", Some(WorkloadClass::SpecInt)),
        ("SPECfp mean", Some(WorkloadClass::SpecFp)),
        ("Olden mean", Some(WorkloadClass::Olden)),
        ("overall mean", None),
    ] {
        let subset: Vec<&Row> =
            rows.iter().filter(|r| class.map(|c| r.class == c).unwrap_or(true)).collect();
        let mut cells = vec![label.to_string()];
        cells.extend((0..CONFIGS.len()).map(|i| format!("{:+.0}%", mean(&subset, i))));
        t.row(cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_timing;

    #[test]
    fn perfect_l1_column_dominates_on_memory_bound_code() {
        let scale = Scale::bench();
        let base = run_timing("mcf", PredictorKind::Baseline, scale.timing_accesses, 1);
        let ideal = run_timing("mcf", PredictorKind::PerfectL1, scale.timing_accesses, 1);
        assert!(ideal.speedup_pct_over(&base) > 100.0, "mcf's opportunity is enormous");
    }

    #[test]
    fn render_includes_means() {
        let rows = vec![Row {
            name: "mcf",
            class: WorkloadClass::SpecInt,
            speedups: vec![100.0, 50.0, 10.0, 40.0, 5.0],
        }];
        let s = render(&rows);
        assert!(s.contains("overall mean"));
        assert!(s.contains("+50%"));
    }
}
