//! The trace-driven coverage simulator (Figure 8's methodology).

use ltc_cache::{Hierarchy, HierarchyConfig, MemLevel, PrefetchLevel};
use ltc_predictors::{PredictorTraffic, Prefetcher};
use ltc_trace::TraceSource;
use serde::{Deserialize, Serialize};

/// Configuration of a coverage run.
#[derive(Debug, Clone, Copy)]
pub struct CoverageConfig {
    /// Cache hierarchy geometry (both the predictor and shadow baseline).
    pub hierarchy: HierarchyConfig,
    /// Maximum accesses to simulate.
    pub limit: u64,
    /// Accesses simulated before statistics collection begins. The paper
    /// traces entire benchmarks (hundreds of recurrences), so its averages
    /// are steady-state; scaled runs approximate that by excluding the
    /// cold training prefix.
    pub warmup: u64,
}

impl CoverageConfig {
    /// The paper's hierarchy with the given access budget and no warm-up.
    pub fn paper(limit: u64) -> Self {
        CoverageConfig { hierarchy: HierarchyConfig::paper(), limit, warmup: 0 }
    }

    /// Sets the warm-up prefix.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }
}

/// Classification of one run's misses, Figure 8 style.
///
/// The *prediction opportunity* is the baseline run's L1D miss count.
/// `correct + incorrect + train == opportunity` (the paper's invariant);
/// `early` counts predictor-induced premature evictions and is reported
/// above 100 %.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Predictor name.
    pub predictor: String,
    /// Accesses simulated.
    pub accesses: u64,
    /// Instructions represented by the trace (accesses + gaps).
    pub instructions: u64,
    /// Baseline L1D misses (= prediction opportunity).
    pub base_l1_misses: u64,
    /// L1D misses remaining with the predictor.
    pub pf_l1_misses: u64,
    /// Baseline L2 misses (off-chip accesses).
    pub base_l2_misses: u64,
    /// L2 misses remaining with the predictor.
    pub pf_l2_misses: u64,
    /// Baseline misses eliminated by the predictor (correct predictions).
    pub correct: u64,
    /// Wrong-target prefetches (counted against opportunity).
    pub incorrect: u64,
    /// Baseline hits that became misses with the predictor (early
    /// evictions).
    pub early: u64,
    /// Prefetch fills performed.
    pub prefetch_fills: u64,
    /// Prefetched blocks that were demand-used.
    pub useful_prefetches: u64,
    /// Predictor metadata traffic.
    pub traffic: PredictorTraffic,
    /// Cache-block bytes moved from memory by the baseline (fills +
    /// write-backs), for the Figure 12 utilization breakdown.
    pub base_data_bytes: u64,
    /// Extra cache-block bytes moved due to mispredicted prefetches.
    pub incorrect_prefetch_bytes: u64,
    /// Predictor on-chip storage (bytes, hardware model).
    pub storage_bytes: u64,
    /// Predictor resident simulator memory (bytes, honest count) — what
    /// budget-sweep figures compare exact tables and sketches on.
    pub memory_bytes: u64,
}

impl CoverageReport {
    /// Misses not predicted at all (training/low-confidence losses).
    pub fn train(&self) -> u64 {
        self.base_l1_misses.saturating_sub(self.correct + self.incorrect)
    }

    /// Fraction of opportunity eliminated (Figure 8 "correct").
    pub fn correct_pct(&self) -> f64 {
        self.pct(self.correct)
    }

    /// Fraction of opportunity lost to wrong targets (Figure 8 "incorrect").
    pub fn incorrect_pct(&self) -> f64 {
        self.pct(self.incorrect)
    }

    /// Fraction of opportunity lost to training (Figure 8 "train").
    pub fn train_pct(&self) -> f64 {
        self.pct(self.train())
    }

    /// Premature evictions as a fraction of opportunity (Figure 8 "early",
    /// plotted above 100 %).
    pub fn early_pct(&self) -> f64 {
        self.pct(self.early)
    }

    /// Coverage: fraction of baseline L1D misses eliminated.
    pub fn coverage(&self) -> f64 {
        if self.base_l1_misses == 0 {
            0.0
        } else {
            1.0 - self.pf_l1_misses as f64 / self.base_l1_misses as f64
        }
    }

    /// Fraction of baseline off-chip (L2) misses eliminated (Section 5.7).
    pub fn l2_coverage(&self) -> f64 {
        if self.base_l2_misses == 0 {
            0.0
        } else {
            1.0 - self.pf_l2_misses as f64 / self.base_l2_misses as f64
        }
    }

    /// Baseline L1D miss ratio (Table 2).
    pub fn base_l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.base_l1_misses as f64 / self.accesses as f64
        }
    }

    /// Baseline L2 *local* miss ratio — L2 misses over L2 accesses
    /// (Table 2's "L2 miss %").
    pub fn base_l2_miss_rate(&self) -> f64 {
        if self.base_l1_misses == 0 {
            0.0
        } else {
            self.base_l2_misses as f64 / self.base_l1_misses as f64
        }
    }

    fn pct(&self, v: u64) -> f64 {
        if self.base_l1_misses == 0 {
            0.0
        } else {
            v as f64 / self.base_l1_misses as f64
        }
    }
}

/// One `coverage.run` telemetry point summarizing a finished run. The
/// per-access loop stays uninstrumented — telemetry cost is per *run*,
/// which is what the bench report's telemetry-overhead delta documents.
fn emit_run_point(report: &CoverageReport) {
    if !ltc_telemetry::enabled() {
        return;
    }
    ltc_telemetry::point(
        "coverage.run",
        vec![
            ("predictor".to_string(), report.predictor.clone().into()),
            ("accesses".to_string(), report.accesses.into()),
            ("base_l1_misses".to_string(), report.base_l1_misses.into()),
            ("correct".to_string(), report.correct.into()),
            ("early".to_string(), report.early.into()),
        ],
    );
}

/// Runs a predictor against a shadow baseline on the same trace.
///
/// Per access, both hierarchies are stepped; the cross-classification of
/// (baseline, predictor) outcomes yields the Figure 8 categories exactly:
///
/// * baseline miss, predictor hit → an eliminated miss (*correct*),
/// * baseline hit, predictor miss → a predictor-induced *early* eviction,
/// * baseline miss, predictor miss → not eliminated; counted *incorrect*
///   when a wrong-target prefetch resolved uselessly, *train* otherwise.
///
/// Prefetch requests are applied immediately: the paper's Figure 2 shows
/// 85 % of dead times exceed the memory latency, so trace-driven prefetches
/// are assumed timely (the timing model charges real latencies instead).
pub fn run_coverage<S, P>(source: &mut S, predictor: &mut P, cfg: CoverageConfig) -> CoverageReport
where
    S: TraceSource,
    P: Prefetcher + ?Sized,
{
    let mut base = Hierarchy::new(cfg.hierarchy);
    let mut pf = Hierarchy::new(cfg.hierarchy);
    let mut report =
        CoverageReport { predictor: predictor.name().to_string(), ..Default::default() };
    let mut requests = Vec::new();
    let mut l1_fills = 0u64;
    let line_bytes = cfg.hierarchy.l1.line_bytes;
    let mut useless_l1_before = 0u64;
    let mut useless_l2_before = 0u64;
    let mut traffic_before = predictor.traffic();

    for access_no in 0..cfg.limit {
        let Some(a) = source.next_access() else { break };
        if access_no == cfg.warmup {
            // Reset statistics at the warm-up boundary; simulation state
            // (caches, predictor) carries over untouched.
            let name = std::mem::take(&mut report.predictor);
            report = CoverageReport { predictor: name, ..Default::default() };
            useless_l1_before = pf.l1().stats().useless_prefetches;
            useless_l2_before = pf.l2().stats().useless_prefetches;
            traffic_before = predictor.traffic();
        }
        let measuring = access_no >= cfg.warmup;
        if measuring {
            report.accesses += 1;
            report.instructions += a.instructions();
        }

        let base_out = base.access(a.addr, a.kind);
        let pf_out = pf.access(a.addr, a.kind);

        if measuring {
            // Figure 12 base-data accounting: every off-chip fill moves a
            // line.
            if base_out.level == MemLevel::Memory {
                report.base_data_bytes += line_bytes;
            }
            if base_out.l2_writeback {
                report.base_data_bytes += line_bytes;
            }

            match (base_out.l1.hit, pf_out.l1.hit) {
                (false, true) => report.correct += 1,
                (true, false) => report.early += 1,
                _ => {}
            }
            if !base_out.l1.hit {
                report.base_l1_misses += 1;
            }
            if !pf_out.l1.hit {
                report.pf_l1_misses += 1;
            }
            if base_out.level == MemLevel::Memory {
                report.base_l2_misses += 1;
            }
            if pf_out.level == MemLevel::Memory {
                report.pf_l2_misses += 1;
            }
            if pf_out.l1.first_use_of_prefetch {
                report.useful_prefetches += 1;
            }
        }

        predictor.on_access(&a, &pf_out, &mut requests);
        for req in requests.drain(..) {
            if let Some(out) = pf.prefetch(&req) {
                report.prefetch_fills += 1;
                l1_fills += u64::from(req.level == PrefetchLevel::L1);
                predictor.on_prefetch_applied(&req, &out);
            }
        }
    }

    // Wrong-target accounting. For L1 (last-touch) prefetchers the useless
    // L1 fills are the mispredictions; for L2-only prefetchers (GHB/stride)
    // the useless L2 fills are. An L1 prefetcher's pass-through L2 fills
    // would double count, so L2 uselessness is only charged when no L1
    // prefetching happened.
    let useless = if l1_fills > 0 {
        pf.l1().stats().useless_prefetches.saturating_sub(useless_l1_before)
    } else {
        pf.l2().stats().useless_prefetches.saturating_sub(useless_l2_before)
    };
    // Clamp so the Figure 8 identity (correct + incorrect + train = 100%)
    // holds even when useless prefetches outnumber unresolved misses.
    report.incorrect = useless.min(report.base_l1_misses.saturating_sub(report.correct));
    report.incorrect_prefetch_bytes = useless * line_bytes;
    let t = predictor.traffic();
    report.traffic = PredictorTraffic {
        sequence_write_bytes: t.sequence_write_bytes - traffic_before.sequence_write_bytes,
        sequence_read_bytes: t.sequence_read_bytes - traffic_before.sequence_read_bytes,
        confidence_update_bytes: t.confidence_update_bytes - traffic_before.confidence_update_bytes,
    };
    report.storage_bytes = predictor.storage_bytes();
    report.memory_bytes = predictor.memory_bytes();
    emit_run_point(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_predictors::{DbcpConfig, DbcpPrefetcher, NullPrefetcher};
    use ltc_trace::{Addr, MemoryAccess, Pc, Replay};

    fn conflict_loop(aliases: u64, sets: u64, passes: usize) -> Replay {
        let span = 512 * 64;
        let mut v = Vec::new();
        for _ in 0..passes {
            for set in 0..sets {
                for alias in 0..aliases {
                    v.push(MemoryAccess::load(
                        Pc(0x400 + alias * 8),
                        Addr(set * 64 + alias * span),
                    ));
                }
            }
        }
        Replay::once(v)
    }

    #[test]
    fn null_predictor_reports_zero_coverage() {
        let mut t = conflict_loop(4, 32, 10);
        let mut p = NullPrefetcher::new();
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        assert_eq!(r.base_l1_misses, r.pf_l1_misses);
        assert_eq!(r.correct, 0);
        assert_eq!(r.early, 0);
        assert_eq!(r.train(), r.base_l1_misses);
        assert!((r.coverage()).abs() < 1e-12);
    }

    #[test]
    fn dbcp_unlimited_covers_recurring_loop() {
        let mut t = conflict_loop(4, 64, 30);
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        assert!(r.base_l1_misses > 0);
        assert!(
            r.coverage() > 0.3,
            "DBCP should eliminate a chunk of recurring misses, got {}",
            r.coverage()
        );
        assert_eq!(
            r.correct + r.incorrect + r.train(),
            r.base_l1_misses,
            "Figure 8 identity must hold"
        );
    }

    #[test]
    fn coverage_matches_miss_delta_modulo_early() {
        let mut t = conflict_loop(4, 64, 20);
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        // pf misses = base misses - eliminated + early.
        assert_eq!(r.pf_l1_misses, r.base_l1_misses - r.correct + r.early);
    }

    #[test]
    fn report_percentages_are_consistent() {
        let mut t = conflict_loop(4, 32, 15);
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        let sum = r.correct_pct() + r.incorrect_pct() + r.train_pct();
        assert!((sum - 1.0).abs() < 1e-9, "percentages must sum to 100%: {sum}");
    }

    #[test]
    fn limit_bounds_the_run() {
        let mut t = conflict_loop(2, 16, 100);
        let mut p = NullPrefetcher::new();
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(500));
        assert_eq!(r.accesses, 500);
    }
}
