//! Multi-programmed execution (paper Section 5.5, Figure 11).
//!
//! Two programs share one LT-cords instance across context switches; the
//! paper shows coverage is preserved as long as predictor state persists
//! and off-chip sequence storage has room for both programs' sequences.
//!
//! ```text
//! cargo run --release --example multiprogrammed [benchA] [benchB] [accesses]
//! ```

use ltc_sim::experiment::{run_multiprog, PredictorKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = args.first().map(String::as_str).unwrap_or("mcf");
    let b = args.get(1).map(String::as_str).unwrap_or("swim");
    let accesses: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4_000_000);

    println!("LT-cords coverage, standalone vs context-switched (Section 5.5)\n");
    // Both runs report the focus program's own misses, as Figure 11 does;
    // context-switched, the pair runs twice the budget so the focus
    // program still sees about `accesses` of its own references.
    for partner in [None, Some(b)] {
        let r = run_multiprog(a, partner, PredictorKind::LtCords, accesses, 3);
        let label = partner.map_or(format!("{a} standalone"), |p| format!("{a} w/ {p}"));
        println!("{label:<20}: {:.1}% of {a}'s misses eliminated", r.coverage() * 100.0);
    }
    println!();
    println!("Predictor state persists across context switches (the paper's");
    println!("requirement); with ample sequence storage, sharing costs little.");
}
