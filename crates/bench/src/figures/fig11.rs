//! Figure 11 — LT-cords coverage in a multi-programmed environment.

use ltc_sim::core::LtCordsConfig;
use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::{run_multiprog, PredictorKind};
use ltc_sim::report::Table;

use crate::scale::Scale;

/// The paper's Figure 11 pairings: each focus benchmark standalone and with
/// three partners (lucas pairs with the two other storage-hungry codes).
pub const PAIRINGS: [(&str, &[&str]); 5] = [
    ("gcc", &["mcf", "gzip", "swim"]),
    ("mcf", &["gcc", "vortex", "fma3d"]),
    ("swim", &["fma3d", "mesa", "gcc"]),
    ("fma3d", &["swim", "facerec", "mcf"]),
    ("lucas", &["applu", "mgrid"]),
];

/// One measured bar of Figure 11.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Focus benchmark.
    pub focus: &'static str,
    /// Partner, or `None` for the standalone bar.
    pub with: Option<&'static str>,
    /// Focus program's coverage.
    pub coverage: f64,
}

/// Scaled quanta/fragments preserving the paper's quantum:fragment ratio
/// (see `tests/multiprog.rs` for the rationale).
fn config() -> LtCordsConfig {
    LtCordsConfig { fragment_len: 1 << 10, frames: 1 << 13, ..LtCordsConfig::paper() }
}

fn jobs() -> Vec<(&'static str, Option<&'static str>)> {
    let mut jobs = Vec::new();
    for (focus, partners) in PAIRINGS {
        jobs.push((focus, None));
        for &p in partners {
            jobs.push((focus, Some(p)));
        }
    }
    jobs
}

fn spec_for(focus: &str, with: Option<&str>, accesses: u64) -> RunSpec {
    RunSpec::multiprog(focus, with, PredictorKind::LtCordsWith(config()), accesses, 1)
}

/// Declares every Figure 11 bar.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    jobs().into_iter().map(|(f, w)| spec_for(f, w, scale.coverage_accesses)).collect()
}

/// Assembles the bars from engine results.
pub fn bars(scale: Scale, results: &ResultSet) -> Vec<Bar> {
    jobs()
        .into_iter()
        .map(|(focus, with)| {
            let r = results.multiprog(&spec_for(focus, with, scale.coverage_accesses));
            Bar { focus, with, coverage: r.coverage() }
        })
        .collect()
}

/// Runs one bar directly: focus coverage, alone or context-switched with a
/// partner (bench/test convenience).
pub fn coverage_bar(focus: &'static str, with: Option<&'static str>, accesses: u64) -> Bar {
    let r = run_multiprog(focus, with, PredictorKind::LtCordsWith(config()), accesses, 1);
    Bar { focus, with, coverage: r.coverage() }
}

/// Renders the Figure 11 bars.
pub fn render(bars: &[Bar]) -> String {
    let mut t = Table::new(vec!["configuration", "focus coverage"]);
    for b in bars {
        let label = match b.with {
            None => format!("{} standalone", b.focus),
            Some(w) => format!("{} w/ {}", b.focus, w),
        };
        t.row(vec![label, format!("{:.0}%", b.coverage * 100.0)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_bar_matches_pairing_shape() {
        let alone = coverage_bar("galgel", None, 1_500_000);
        let paired = coverage_bar("galgel", Some("gzip"), 1_500_000);
        assert!(alone.coverage > 0.3, "galgel must train, got {:.2}", alone.coverage);
        assert!(
            paired.coverage > alone.coverage * 0.5,
            "pairing must not destroy coverage: {:.2} vs {:.2}",
            paired.coverage,
            alone.coverage
        );
        assert!(render(&[alone, paired]).contains("galgel"));
    }
}
