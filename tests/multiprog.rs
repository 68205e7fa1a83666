//! Multi-programmed execution (paper Section 5.5, Figure 11).

use ltc_sim::analysis::{CoverageConfig, CoverageReport};
use ltc_sim::core::{LtCords, LtCordsConfig};
use ltc_sim::experiment::{run_multiprog, PredictorKind};
use ltc_sim::trace::{suite, MultiProgram};

/// Scaled LT-cords configuration for the multi-programmed tests: the paper's
/// 60 M-instruction quanta span hundreds of 8 K-signature fragments; our
/// scaled quanta must keep that ratio, so fragments shrink proportionally
/// (otherwise every fragment would mix both programs' sequences, which the
/// real machine essentially never does).
fn multiprog_config() -> LtCordsConfig {
    LtCordsConfig { fragment_len: 1 << 10, frames: 1 << 13, ..LtCordsConfig::paper() }
}

/// Runs two context-switched programs over one shared LT-cords instance and
/// returns the focus program's (program 0) coverage.
fn multiprog_coverage(a: &str, b: &str, total_accesses: u64) -> f64 {
    let r = run_multiprog(
        a,
        Some(b),
        PredictorKind::LtCordsWith(multiprog_config()),
        total_accesses / 2,
        1,
    );
    assert!(r.focus_misses > 0, "focus program must miss");
    r.coverage()
}

fn standalone_coverage(name: &str, accesses: u64) -> f64 {
    let entry = suite::by_name(name).expect("benchmark exists");
    let mut src = entry.build(1);
    let mut lt = LtCords::new(multiprog_config());
    let r: CoverageReport =
        ltc_sim::analysis::run_coverage(&mut src, &mut lt, CoverageConfig::paper(accesses));
    r.coverage()
}

/// Coverage survives context switching when predictor state persists —
/// the Figure 11 result. galgel recurs quickly, so a modest budget trains it.
#[test]
fn coverage_survives_context_switches() {
    let standalone = standalone_coverage("galgel", 1_500_000);
    // In the multi-programmed run the focus program only gets ~half the
    // accesses, so give the pair twice the budget.
    let shared = multiprog_coverage("galgel", "gzip", 3_000_000);
    assert!(standalone > 0.4, "galgel standalone coverage {standalone:.2} too low");
    assert!(
        shared > standalone * 0.6,
        "context switching should not destroy coverage: {shared:.2} vs {standalone:.2}"
    );
}

/// Address shifting keeps the programs' physical ranges disjoint.
#[test]
fn shifted_programs_do_not_alias() {
    let ea = suite::by_name("gcc").unwrap();
    let eb = suite::by_name("mcf").unwrap();
    let mut multi =
        MultiProgram::new(vec![(ea.build(1), 10_000, 0), (eb.build(1), 10_000, 1 << 40)]);
    let mut seen_a = false;
    let mut seen_b = false;
    for _ in 0..100_000 {
        let Some((prog, acc)) = multi.next_tagged() else { break };
        if prog == 0 {
            assert!(acc.addr.0 < 1 << 40, "program 0 leaked into the shifted range");
            seen_a = true;
        } else {
            assert!(acc.addr.0 >= 1 << 40, "program 1 must be shifted");
            seen_b = true;
        }
    }
    assert!(seen_a && seen_b, "both programs must run within the window");
}

/// Two memory-hungry programs sharing sequence storage degrade gracefully
/// (the paper's lucas+applu/mgrid observation), not catastrophically.
#[test]
fn heavy_pairs_share_storage() {
    let light = multiprog_coverage("swim", "gzip", 2_000_000);
    let heavy = multiprog_coverage("swim", "lucas", 2_000_000);
    // Combined sequences stress the off-chip store: pairing with another
    // sequence-hungry program cannot *improve* the focus coverage.
    assert!(
        heavy <= light + 0.1,
        "sequence-storage pressure should not help: heavy {heavy:.2} vs light {light:.2}"
    );
}
