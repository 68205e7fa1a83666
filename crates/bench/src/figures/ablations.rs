//! Ablations of LT-cords design choices (beyond the paper's own figures).
//!
//! The paper fixes several design parameters with qualitative argument:
//! FIFO signature-cache replacement (Section 4.3), 2-bit confidence
//! counters (Section 4.4), a head lookahead of "several hundred"
//! signatures (Section 4.2), and a shared transfer unit for recording and
//! streaming (Section 4.1). These ablations quantify each choice on a
//! representative workload mix.

use ltc_sim::cache::ReplacementPolicy;
use ltc_sim::core::LtCordsConfig;
use ltc_sim::engine::{ResultSet, RunSpec};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::report::Table;

use crate::scale::Scale;

/// Workloads used for the ablations: a recurring sweep, a pointer chase
/// with a mutating structure (stale signatures), and a hot-set chase.
pub const BENCHMARKS: [&str; 3] = ["galgel", "parser", "mcf"];

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Ablation axis label (e.g. `"fifo"`, `"lookahead=64"`).
    pub variant: String,
    /// Benchmark measured.
    pub benchmark: &'static str,
    /// LT-cords coverage under the variant.
    pub coverage: f64,
    /// Early evictions as a fraction of opportunity.
    pub early: f64,
}

/// The `(label, config)` grid of variants. The paper configuration
/// appears under several labels (one per axis), which costs nothing: the
/// engine dedupes the identical underlying specs.
fn variants() -> Vec<(String, LtCordsConfig)> {
    let paper = LtCordsConfig::paper();
    let mut jobs: Vec<(String, LtCordsConfig)> = vec![
        ("replacement=fifo (paper)".into(), paper),
        (
            "replacement=lru".into(),
            LtCordsConfig { sig_cache_policy: ReplacementPolicy::Lru, ..paper },
        ),
        ("confidence=on (paper)".into(), paper),
        ("confidence=off".into(), LtCordsConfig { use_confidence: false, ..paper }),
    ];
    for lookahead in [16usize, 64, 256, 1024] {
        let label = if lookahead == 256 {
            format!("lookahead={lookahead} (paper)")
        } else {
            format!("lookahead={lookahead}")
        };
        jobs.push((label, LtCordsConfig { head_lookahead: lookahead, ..paper }));
    }
    for unit in [1usize, 4, 16, 64] {
        let label = if unit == 16 {
            format!("transfer_unit={unit} (paper)")
        } else {
            format!("transfer_unit={unit}")
        };
        jobs.push((label, LtCordsConfig { transfer_unit: unit, ..paper }));
    }
    for window in [128usize, 512, 1024, 4096] {
        let label = if window == 1024 {
            format!("stream_window={window} (paper)")
        } else {
            format!("stream_window={window}")
        };
        jobs.push((label, LtCordsConfig { stream_window: window, ..paper }));
    }
    jobs
}

fn spec_for(benchmark: &str, cfg: LtCordsConfig, scale: Scale) -> RunSpec {
    RunSpec::coverage(benchmark, PredictorKind::LtCordsWith(cfg), scale.coverage_accesses / 2, 1)
}

/// Declares the (variant × benchmark) grid. The four axes sharing the
/// paper configuration dedupe to a single run per benchmark.
pub fn specs(scale: Scale, _have: &ResultSet) -> Vec<RunSpec> {
    variants()
        .into_iter()
        .flat_map(|(_, cfg)| BENCHMARKS.iter().map(move |&b| spec_for(b, cfg, scale)))
        .collect()
}

/// Assembles the ablation points from engine results.
pub fn points(scale: Scale, results: &ResultSet) -> Vec<Point> {
    let mut out = Vec::new();
    for (variant, cfg) in variants() {
        for &benchmark in &BENCHMARKS {
            let r = results.coverage(&spec_for(benchmark, cfg, scale));
            out.push(Point {
                variant: variant.clone(),
                benchmark,
                coverage: r.coverage(),
                early: r.early_pct(),
            });
        }
    }
    out
}

/// Renders the ablation grid.
pub fn render(points: &[Point]) -> String {
    let mut headers = vec!["variant".to_string()];
    for b in BENCHMARKS {
        headers.push(format!("{b} cov"));
        headers.push(format!("{b} early"));
    }
    let mut t = Table::new(headers);
    let mut variants: Vec<&String> = points.iter().map(|p| &p.variant).collect();
    variants.dedup();
    for variant in variants {
        let mut row = vec![variant.clone()];
        for b in BENCHMARKS {
            let p = points
                .iter()
                .find(|p| &p.variant == variant && p.benchmark == b)
                .expect("grid is complete");
            row.push(format!("{:.0}%", p.coverage * 100.0));
            row.push(format!("{:.1}%", p.early * 100.0));
        }
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_sim::experiment::run_coverage;

    #[test]
    fn confidence_off_increases_aggression() {
        // parser mutates its structure: without confidence gating, stale
        // signatures keep firing, so prefetch volume (and typically early
        // evictions or wrong fetches) cannot go down.
        let accesses = 2_000_000;
        let on = run_coverage("parser", PredictorKind::LtCords, accesses, 1);
        let off = run_coverage(
            "parser",
            PredictorKind::LtCordsWith(LtCordsConfig {
                use_confidence: false,
                ..LtCordsConfig::paper()
            }),
            accesses,
            1,
        );
        assert!(
            off.prefetch_fills >= on.prefetch_fills,
            "disabling confidence must not reduce prefetch volume ({} vs {})",
            off.prefetch_fills,
            on.prefetch_fills
        );
    }

    #[test]
    fn tiny_lookahead_does_not_beat_paper_choice() {
        let accesses = 1_500_000;
        let paper = run_coverage("galgel", PredictorKind::LtCords, accesses, 1);
        let tiny = run_coverage(
            "galgel",
            PredictorKind::LtCordsWith(LtCordsConfig {
                head_lookahead: 2,
                ..LtCordsConfig::paper()
            }),
            accesses,
            1,
        );
        assert!(
            tiny.coverage() <= paper.coverage() + 0.05,
            "a 2-signature lookahead should not outperform the paper's 256"
        );
    }

    #[test]
    fn paper_variants_dedupe_in_the_spec_set() {
        let scale = Scale::bench();
        let declared = specs(scale, &ResultSet::new());
        let mut unique = declared.clone();
        unique.sort_by_key(RunSpec::key);
        unique.dedup();
        assert!(
            unique.len() < declared.len(),
            "the four paper-config axes must share underlying runs"
        );
    }

    #[test]
    fn render_produces_grid() {
        let points = vec![
            Point { variant: "x".into(), benchmark: "galgel", coverage: 0.5, early: 0.0 },
            Point { variant: "x".into(), benchmark: "parser", coverage: 0.2, early: 0.01 },
            Point { variant: "x".into(), benchmark: "mcf", coverage: 0.3, early: 0.0 },
        ];
        let s = render(&points);
        assert!(s.contains("galgel cov"));
        assert!(s.contains("50%"));
    }
}
