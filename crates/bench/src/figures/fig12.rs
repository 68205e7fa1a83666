//! Figure 12 — memory bus utilization breakdown under LT-cords.

use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;
use ltc_sim::timing::BandwidthBreakdown;
use ltc_sim::trace::suite;

use crate::scale::Scale;

/// One benchmark's bus utilization in bytes per instruction.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The four Figure 12 components.
    pub breakdown: BandwidthBreakdown,
    /// Instructions in the measured region.
    pub instructions: u64,
}

impl Row {
    /// Base application data traffic (bytes/instruction).
    pub fn base_bpi(&self) -> f64 {
        self.breakdown.base_data_bytes as f64 / self.instructions.max(1) as f64
    }

    /// LT-cords overhead (bytes/instruction): incorrect predictions plus
    /// sequence creation and fetch.
    pub fn overhead_bpi(&self) -> f64 {
        (self.breakdown.incorrect_prediction_bytes
            + self.breakdown.sequence_creation_bytes
            + self.breakdown.sequence_fetch_bytes) as f64
            / self.instructions.max(1) as f64
    }
}

fn spec_for(name: &str, scale: Scale) -> RunSpec {
    RunSpec::timing(name, PredictorKind::LtCords, scale.timing_accesses, 1)
}

/// Declares the LT-cords timing run for every suite benchmark. These are
/// the same specs as Table 3's LT-cords column, so regenerating both
/// figures together simulates the grid once.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    suite::benchmarks().iter().map(|e| spec_for(e.name, scale)).collect()
}

/// Assembles the rows from engine results.
pub fn rows(scale: Scale, results: &ResultSet) -> Vec<Row> {
    suite::benchmarks()
        .iter()
        .map(|e| {
            let r = results.timing(&spec_for(e.name, scale));
            Row { name: e.name, breakdown: r.bandwidth, instructions: r.instructions }
        })
        .collect()
}

/// Renders Figure 12's stacked bars as bytes/instruction columns.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "base data",
        "incorrect",
        "seq creation",
        "seq fetch",
        "total B/instr",
    ]);
    for r in rows {
        let i = r.instructions.max(1) as f64;
        t.row(vec![
            r.name.to_string(),
            format!("{:.2}", r.breakdown.base_data_bytes as f64 / i),
            format!("{:.2}", r.breakdown.incorrect_prediction_bytes as f64 / i),
            format!("{:.2}", r.breakdown.sequence_creation_bytes as f64 / i),
            format!("{:.2}", r.breakdown.sequence_fetch_bytes as f64 / i),
            format!("{:.2}", r.breakdown.bytes_per_instruction(r.instructions)),
        ]);
    }
    let mut s = t.render();
    // The paper's summary statistic: overhead for bandwidth-hungry codes.
    let hungry: Vec<&Row> = rows.iter().filter(|r| r.base_bpi() > 1.0).collect();
    if !hungry.is_empty() {
        let avg = hungry.iter().map(|r| r.overhead_bpi() / r.base_bpi()).sum::<f64>()
            / hungry.len() as f64;
        s.push_str(&format!(
            "\noverhead for >1 B/instr applications: {:.0}% of base traffic (paper: ~17%)\n",
            avg * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_timing;

    #[test]
    fn overhead_is_fraction_of_base_for_streaming_code() {
        let scale = Scale { timing_accesses: 400_000, ..Scale::bench() };
        let r = run_timing("swim", PredictorKind::LtCords, scale.timing_accesses, 1);
        let row = Row { name: "swim", breakdown: r.bandwidth, instructions: r.instructions };
        assert!(row.base_bpi() > 0.5, "swim is bandwidth hungry, got {:.2}", row.base_bpi());
        assert!(row.overhead_bpi() < row.base_bpi(), "metadata must stay below data traffic");
        assert!(render(&[row]).contains("swim"));
    }
}
