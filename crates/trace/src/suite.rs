//! The synthetic benchmark suite standing in for SPEC CPU2000 + Olden.
//!
//! Every benchmark in the paper's Table 2 has a named entry here. Each entry
//! is a parameterization of the pattern primitives in [`crate::gen`] chosen
//! to reproduce the benchmark's *structural* memory behaviour: footprint
//! relative to the 64 KB L1D / 1 MB L2 hierarchy, recurrence of the miss
//! sequence, dependence chains, layout regularity, and compute intensity.
//! Each entry's one-line `description` names the behaviour it models
//! (`ltsim list` prints them); `build_workload` in this module sets each
//! benchmark's generator parameters.

use crate::gen::{
    ChaseConfig, ChaseGen, GapModel, HashWindowConfig, HashWindowGen, IndirectConfig, IndirectGen,
    Layout, PhaseMix, RandomConfig, RandomGen, SweepConfig, SweepGen, Traversal, TreeConfig,
    TreeGen, TreeLayout,
};
use crate::source::BoxedSource;

/// Benchmark grouping used by the paper's Table 3 means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// SPEC CPU2000 integer.
    SpecInt,
    /// SPEC CPU2000 floating point.
    SpecFp,
    /// Olden pointer-intensive suite.
    Olden,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadClass::SpecInt => f.write_str("SPECint"),
            WorkloadClass::SpecFp => f.write_str("SPECfp"),
            WorkloadClass::Olden => f.write_str("Olden"),
        }
    }
}

/// One named benchmark of the synthetic suite.
#[derive(Debug, Clone, Copy)]
pub struct SuiteEntry {
    /// Benchmark name, matching the paper's tables (e.g. `"mcf"`).
    pub name: &'static str,
    /// Suite grouping.
    pub class: WorkloadClass,
    /// One-line description of the modelled behaviour.
    pub description: &'static str,
}

impl SuiteEntry {
    /// Whether this entry is a floating-point code (used for the paper's
    /// 120 M vs 60 M instruction context-switch quanta in Section 5.5).
    pub fn is_fp(&self) -> bool {
        self.class == WorkloadClass::SpecFp
    }

    /// Instantiates the workload generator for this benchmark.
    ///
    /// The `seed` makes runs reproducible; the same seed always yields an
    /// identical trace.
    ///
    /// # Panics
    ///
    /// Never panics for entries returned by [`benchmarks`] or [`by_name`].
    pub fn build(&self, seed: u64) -> BoxedSource {
        build_workload(self.name, seed)
            .unwrap_or_else(|| panic!("suite entry {} has no builder", self.name))
    }
}

macro_rules! entries {
    ($( $name:literal, $class:ident, $desc:literal; )*) => {
        &[ $( SuiteEntry {
            name: $name,
            class: WorkloadClass::$class,
            description: $desc,
        }, )* ]
    };
}

/// All 28 benchmarks, in the paper's Table 2 order.
pub const BENCHMARKS: &[SuiteEntry] = entries![
    "ammp",     SpecFp,  "molecular dynamics: list traversals with per-pass mutation";
    "applu",    SpecFp,  "PDE solver: repeated multi-array sweeps, ~24 MB footprint";
    "apsi",     SpecFp,  "weather: correlated sweeps polluted by long non-recurring stretches";
    "art",      SpecFp,  "neural net: repeated sweeps over medium arrays, very high miss rate";
    "bh",       Olden,   "Barnes-Hut: static octree root-to-leaf path walks";
    "bzip2",    SpecInt, "compression: sequential stream plus random bucket accesses";
    "crafty",   SpecInt, "chess: tiny working set, nearly no misses";
    "em3d",     Olden,   "electromagnetics: irregular static graph pointer chase";
    "eon",      SpecInt, "ray tracer: tiny working set";
    "equake",   SpecFp,  "earthquake FEM: sparse indirect gathers, static index";
    "facerec",  SpecFp,  "face recognition: medium sweeps plus gathers";
    "fma3d",    SpecFp,  "crash FEM: dense sweeps over a large mesh";
    "galgel",   SpecFp,  "fluid dynamics: blocked sweeps mostly resident in L2";
    "gap",      SpecInt, "group theory: regular streaming with little reuse";
    "gcc",      SpecInt, "compiler: many short phases with distinct patterns";
    "gzip",     SpecInt, "compression: sequential window plus random hash probes";
    "lucas",    SpecFp,  "primality: power-of-two strided passes, large footprint";
    "mcf",      SpecInt, "network simplex: huge pointer-chase with a hot working set";
    "mesa",     SpecFp,  "3-D graphics: small working set";
    "mgrid",    SpecFp,  "multigrid: multi-stride sweeps over a large grid";
    "parser",   SpecInt, "NLP: linked traversals with dictionary churn";
    "perlbmk",  SpecInt, "perl: small mixed working set";
    "sixtrack", SpecFp,  "accelerator: tiny hot loop, compute bound";
    "swim",     SpecFp,  "shallow water: repeated sweeps over several large arrays";
    "treeadd",  Olden,   "binary tree DFS over a systematically allocated tree";
    "twolf",    SpecInt, "place & route: random move evaluation over a medium set";
    "vortex",   SpecInt, "OO database: mixed lookups, medium working set";
    "wupwise",  SpecFp,  "QCD: very large streaming footprint (DBCP worst case)";
];

/// Returns all benchmarks in Table 2 order.
pub fn benchmarks() -> &'static [SuiteEntry] {
    BENCHMARKS
}

/// Looks up a benchmark by its paper name.
///
/// # Example
///
/// ```
/// use ltc_trace::suite;
///
/// assert!(suite::by_name("mcf").is_some());
/// assert!(suite::by_name("vpr").is_none()); // excluded in the paper too
/// ```
pub fn by_name(name: &str) -> Option<SuiteEntry> {
    BENCHMARKS.iter().find(|e| e.name == name).copied()
}

const MB: u64 = 1 << 20;
const KB: u64 = 1 << 10;

fn build_workload(name: &str, seed: u64) -> Option<BoxedSource> {
    let src: BoxedSource = match name {
        // ---- SPECfp: array/sweep codes -------------------------------
        "swim" => Box::new(SweepGen::new(SweepConfig {
            // Two streaming arrays plus two L2-resident ones: roughly half
            // of swim's L1 misses hit in L2 (paper Table 2: 59% L2 miss).
            arrays: vec![10 * MB, 10 * MB, 640 * KB, 640 * KB],
            strides: vec![32],
            store_every: 6,
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "applu" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![12 * MB, 12 * MB, 768 * KB],
            strides: vec![24],
            store_every: 5,
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "mgrid" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![24 * MB, 768 * KB],
            strides: vec![8, 512, 8, 4096],
            store_every: 8,
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "lucas" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![16 * MB, 16 * MB, 640 * KB],
            strides: vec![32, 8192],
            store_every: 4,
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "wupwise" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![24 * MB, 24 * MB, 768 * KB],
            strides: vec![8],
            store_every: 7,
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "fma3d" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![12 * MB, 12 * MB, 768 * KB],
            strides: vec![8],
            store_every: 5,
            gap: GapModel::jittered(5, 2),
            seed,
            ..SweepConfig::default()
        })),
        "art" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![12 * MB, 12 * MB, 512 * KB],
            strides: vec![40],
            store_every: 9,
            gap: GapModel::jittered(4, 1),
            seed,
            ..SweepConfig::default()
        })),
        "galgel" => Box::new(SweepGen::new(SweepConfig {
            // Equal arrays stay in lockstep across passes, giving galgel's
            // strong perfect correlation (paper Figure 6: ~60% at +1).
            arrays: vec![416 * KB, 416 * KB],
            strides: vec![12],
            store_every: 6,
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "sixtrack" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![24 * KB, 20 * KB],
            strides: vec![16],
            store_every: 8,
            gap: GapModel::jittered(14, 4),
            seed,
            ..SweepConfig::default()
        })),
        "mesa" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![40 * KB, 16 * KB],
            strides: vec![16],
            store_every: 4,
            gap: GapModel::jittered(10, 3),
            seed,
            ..SweepConfig::default()
        })),

        // ---- SPECfp: gather / hybrid codes ---------------------------
        "equake" => Box::new(IndirectGen::new(IndirectConfig {
            gathers_per_pass: 1 << 19,
            data_elems: 4 << 20, // 32 MB of f64 elements
            store_result: true,
            gap: GapModel::jittered(5, 2),
            seed,
            ..IndirectConfig::default()
        })),
        "facerec" => {
            let sweep: BoxedSource = Box::new(SweepGen::new(SweepConfig {
                arrays: vec![2 * MB],
                strides: vec![16],
                gap: GapModel::jittered(6, 2),
                seed,
                ..SweepConfig::default()
            }));
            let gather: BoxedSource = Box::new(IndirectGen::new(IndirectConfig {
                gathers_per_pass: 1 << 16,
                data_elems: 512 << 10, // 4 MB of f64 elements
                store_result: false,
                gap: GapModel::jittered(6, 2),
                seed: seed ^ 6,
                ..IndirectConfig::default()
            }));
            Box::new(PhaseMix::new(vec![(sweep, 60_000), (gather, 30_000)]))
        }
        "ammp" => Box::new(ChaseGen::new(ChaseConfig {
            nodes: 10 << 10, // ~960 KB with 96-byte nodes: mostly L2 resident
            node_bytes: 96,
            fields_per_node: 5,
            chain_serialization: 0.6,
            mutation_rate: 0.04,
            gap: GapModel::jittered(3, 1),
            seed,
            ..ChaseConfig::default()
        })),
        "apsi" => {
            // Correlated sweeps polluted by long non-recurring random
            // stretches: sequences of hundreds to thousands of last touches
            // that never recur (paper Section 5.3).
            let sweep: BoxedSource = Box::new(SweepGen::new(SweepConfig {
                arrays: vec![MB, MB],
                strides: vec![4],
                gap: GapModel::jittered(8, 2),
                seed,
                ..SweepConfig::default()
            }));
            let noise: BoxedSource = Box::new(RandomGen::new(RandomConfig {
                base: 0xd000_0000,
                footprint: 8 * MB,
                run_lines: 2,
                gap: GapModel::jittered(8, 2),
                seed: seed ^ 1,
                ..RandomConfig::default()
            }));
            Box::new(PhaseMix::new(vec![(sweep, 76_000), (noise, 4_000)]))
        }

        // ---- SPECint -------------------------------------------------
        "mcf" => Box::new(ChaseGen::new(ChaseConfig {
            nodes: 1 << 18, // 24 MB with 96-byte nodes
            node_bytes: 96,
            fields_per_node: 1,
            mutation_rate: 0.002,
            hot_fraction: 0.55,
            hot_set_fraction: 0.02,
            gap: GapModel::jittered(2, 1),
            seed,
            ..ChaseConfig::default()
        })),
        "gcc" => {
            let sweep: BoxedSource = Box::new(SweepGen::new(SweepConfig {
                arrays: vec![256 * KB],
                strides: vec![16],
                gap: GapModel::jittered(5, 2),
                seed,
                ..SweepConfig::default()
            }));
            let chase: BoxedSource = Box::new(ChaseGen::new(ChaseConfig {
                base: 0x9000_0000,
                nodes: 1 << 12,
                node_bytes: 64,
                fields_per_node: 1,
                gap: GapModel::jittered(5, 2),
                seed: seed ^ 2,
                ..ChaseConfig::default()
            }));
            let tables: BoxedSource = Box::new(SweepGen::new(SweepConfig {
                base: 0xb000_0000,
                arrays: vec![384 * KB],
                strides: vec![32],
                gap: GapModel::jittered(5, 2),
                seed: seed ^ 3,
                ..SweepConfig::default()
            }));
            Box::new(PhaseMix::new(vec![(sweep, 40_000), (chase, 30_000), (tables, 30_000)]))
        }
        "gzip" => Box::new(HashWindowGen::new(HashWindowConfig {
            // The hot window fits in L1 (as gzip's inner loop does); only
            // the hash probes miss, giving the paper's ~5% L1 miss rate.
            window_bytes: 32 * KB,
            table_bytes: 512 * KB,
            window_per_probe: 20,
            gap: GapModel::jittered(4, 1),
            seed,
            ..HashWindowConfig::default()
        })),
        "bzip2" => Box::new(HashWindowGen::new(HashWindowConfig {
            window_bytes: 40 * KB,
            table_bytes: MB,
            window_per_probe: 24,
            probe_store_prob: 0.3,
            gap: GapModel::jittered(4, 1),
            seed,
            ..HashWindowConfig::default()
        })),
        "twolf" => Box::new(ChaseGen::new(ChaseConfig {
            // Randomized move evaluation: a pointer walk whose order is
            // reshuffled every pass (no temporal correlation), over a
            // working set that the 4 MB L2 holds but the 1 MB L2 does not —
            // reproducing twolf's Table 3 profile (big-L2 helps, predictors
            // do not).
            nodes: 40 << 10, // 2.5 MB with 64-byte nodes
            node_bytes: 64,
            fields_per_node: 5,
            mutation_rate: 0.9,
            chain_serialization: 0.6,
            hot_fraction: 0.5,
            hot_set_fraction: 0.08,
            gap: GapModel::jittered(3, 1),
            seed,
            ..ChaseConfig::default()
        })),
        "parser" => Box::new(ChaseGen::new(ChaseConfig {
            nodes: 12 << 10, // 768 KB with 64-byte nodes: mostly L2 resident
            node_bytes: 64,
            fields_per_node: 12,
            chain_serialization: 0.8,
            mutation_rate: 0.08,
            gap: GapModel::jittered(4, 1),
            seed,
            ..ChaseConfig::default()
        })),
        "gap" => Box::new(SweepGen::new(SweepConfig {
            // Regular streaming with little reuse: enormous arrays swept at
            // line stride, so each pass touches fresh L2 contents — delta
            // correlation captures this; address correlation relearns slowly.
            arrays: vec![16 * MB, 16 * MB],
            strides: vec![4],
            store_every: 10,
            gap: GapModel::jittered(12, 3),
            seed,
            ..SweepConfig::default()
        })),
        "crafty" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![24 * KB, 16 * KB],
            strides: vec![16],
            gap: GapModel::jittered(7, 2),
            seed,
            ..SweepConfig::default()
        })),
        "eon" => Box::new(SweepGen::new(SweepConfig {
            arrays: vec![16 * KB, 12 * KB],
            strides: vec![16],
            gap: GapModel::jittered(6, 2),
            seed,
            ..SweepConfig::default()
        })),
        "vortex" => {
            let lookup: BoxedSource = Box::new(ChaseGen::new(ChaseConfig {
                nodes: 1 << 13,
                node_bytes: 64,
                fields_per_node: 12,
                gap: GapModel::jittered(8, 2),
                seed,
                ..ChaseConfig::default()
            }));
            let scan: BoxedSource = Box::new(SweepGen::new(SweepConfig {
                base: 0x9800_0000,
                arrays: vec![512 * KB],
                strides: vec![4],
                gap: GapModel::jittered(8, 2),
                seed: seed ^ 4,
                ..SweepConfig::default()
            }));
            Box::new(PhaseMix::new(vec![(lookup, 50_000), (scan, 50_000)]))
        }
        "perlbmk" => {
            let work: BoxedSource = Box::new(SweepGen::new(SweepConfig {
                arrays: vec![48 * KB],
                strides: vec![16],
                gap: GapModel::jittered(6, 2),
                seed,
                ..SweepConfig::default()
            }));
            let heap: BoxedSource = Box::new(ChaseGen::new(ChaseConfig {
                base: 0x9400_0000,
                nodes: 1 << 12,
                node_bytes: 64,
                fields_per_node: 6,
                mutation_rate: 0.02,
                gap: GapModel::jittered(6, 2),
                seed: seed ^ 5,
                ..ChaseConfig::default()
            }));
            Box::new(PhaseMix::new(vec![(work, 50_000), (heap, 30_000)]))
        }

        // ---- Olden ---------------------------------------------------
        "em3d" => Box::new(ChaseGen::new(ChaseConfig {
            nodes: 1 << 19, // 32 MB with 64-byte nodes
            node_bytes: 64,
            layout: Layout::Scattered,
            fields_per_node: 1,
            // em3d walks per-node edge lists: several chains in flight.
            chain_serialization: 0.15,
            gap: GapModel::jittered(1, 1),
            seed,
            ..ChaseConfig::default()
        })),
        "treeadd" => Box::new(TreeGen::new(TreeConfig {
            // 1 M nodes * 32 B = 32 MB: the ~520 K line signatures exceed the
            // 2 MB DBCP table (the paper reports DBCP = 0 on treeadd).
            depth: 20,
            node_bytes: 32,
            traversal: Traversal::DepthFirst,
            layout: TreeLayout::DfsOrder,
            accesses_per_node: 4,
            gap: GapModel::jittered(2, 1),
            seed,
            ..TreeConfig::default()
        })),
        "bh" => Box::new(TreeGen::new(TreeConfig {
            depth: 17, // 128 K nodes * 64 B = 8 MB
            node_bytes: 64,
            traversal: Traversal::Paths { count: 4096 },
            accesses_per_node: 6,
            gap: GapModel::jittered(3, 1),
            seed,
            ..TreeConfig::default()
        })),
        _ => return None,
    };
    Some(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;
    use crate::stats::TraceStats;

    #[test]
    fn all_entries_have_builders() {
        for e in benchmarks() {
            let mut src = e.build(1);
            assert!(src.next_access().is_some(), "{} produced no accesses", e.name);
        }
    }

    #[test]
    fn suite_has_paper_benchmark_count() {
        // 25 SPEC CPU2000 benchmarks (all except vpr) + 3 Olden.
        assert_eq!(benchmarks().len(), 28);
        assert_eq!(benchmarks().iter().filter(|e| e.class == WorkloadClass::Olden).count(), 3);
    }

    #[test]
    fn by_name_round_trips() {
        for e in benchmarks() {
            assert_eq!(by_name(e.name).unwrap().name, e.name);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn builds_are_deterministic() {
        for e in ["mcf", "swim", "gcc", "treeadd"] {
            let entry = by_name(e).unwrap();
            let a = entry.build(7).collect_accesses(500);
            let b = entry.build(7).collect_accesses(500);
            assert_eq!(a, b, "{e} must be deterministic");
        }
    }

    #[test]
    fn seeds_change_traces() {
        let entry = by_name("mcf").unwrap();
        let a = entry.build(1).collect_accesses(500);
        let b = entry.build(2).collect_accesses(500);
        assert_ne!(a, b);
    }

    #[test]
    fn small_working_set_codes_fit_in_l1() {
        for name in ["crafty", "eon"] {
            let mut src = by_name(name).unwrap().build(1);
            let stats = TraceStats::measure(&mut src, 50_000);
            assert!(
                stats.footprint_bytes() <= 64 * KB,
                "{name} working set {} exceeds L1",
                stats.footprint_bytes()
            );
        }
    }

    #[test]
    fn large_footprint_codes_exceed_l2() {
        for name in ["mcf", "swim", "wupwise", "em3d"] {
            let mut src = by_name(name).unwrap().build(1);
            let stats = TraceStats::measure(&mut src, 400_000);
            assert!(
                stats.footprint_bytes() > MB,
                "{name} footprint {} should exceed L2",
                stats.footprint_bytes()
            );
        }
    }

    #[test]
    fn pointer_codes_have_dependent_accesses() {
        // mcf/em3d dereference on every other access; the tree codes do
        // per-node field work between pointer hops (6 accesses per visit).
        // em3d chases several lists concurrently, so only ~15% of its
        // pointer loads serialize (chain_serialization).
        for (name, denom) in [("mcf", 2), ("em3d", 40), ("treeadd", 8), ("bh", 8)] {
            let mut src = by_name(name).unwrap().build(1);
            let stats = TraceStats::measure(&mut src, 10_000);
            assert!(
                stats.dependent * denom >= stats.accesses,
                "{name} should have a strong dependent component"
            );
        }
    }

    #[test]
    fn fp_flag_matches_class() {
        assert!(by_name("swim").unwrap().is_fp());
        assert!(!by_name("gcc").unwrap().is_fp());
        assert!(!by_name("treeadd").unwrap().is_fp());
    }
}
