//! Experiment scale selection (full vs quick runs).

/// Access budgets for the experiment kernels.
///
/// The paper traces each benchmark in its entirety (billions of
/// instructions); the full scale here is sized so the complete harness runs
/// in minutes while giving large-footprint workloads several recurrences to
/// train on. Quick scale is for smoke runs (`ltsim run --quick`). A scale
/// fixes *what* is simulated, never how many workers run it: the worker
/// count is an [`ltc_sim::engine::EngineOptions`] setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Accesses per benchmark for trace-driven (coverage/analysis) kernels.
    pub coverage_accesses: u64,
    /// Accesses per benchmark for timing kernels.
    pub timing_accesses: u64,
}

impl Scale {
    /// Full-scale runs (the EXPERIMENTS.md numbers).
    pub fn full() -> Self {
        Scale { coverage_accesses: 12_000_000, timing_accesses: 6_000_000 }
    }

    /// Quick smoke-scale runs.
    pub fn quick() -> Self {
        Scale { coverage_accesses: 2_000_000, timing_accesses: 800_000 }
    }

    /// Tiny scale for the figure modules' unit tests.
    pub fn bench() -> Self {
        Scale { coverage_accesses: 150_000, timing_accesses: 60_000 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::full().coverage_accesses > Scale::quick().coverage_accesses);
        assert!(Scale::quick().coverage_accesses > Scale::bench().coverage_accesses);
    }
}
