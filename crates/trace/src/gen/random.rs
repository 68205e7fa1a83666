//! Uniformly random, non-recurring references.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::checkpoint::{RestoreError, SourceState};
use crate::gen::gap::GapModel;
use crate::gen::LINE_BYTES;
use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::TraceSource;

/// Configuration for [`RandomGen`].
#[derive(Debug, Clone)]
pub struct RandomConfig {
    /// Base address of the accessed region.
    pub base: u64,
    /// Region size in bytes.
    pub footprint: u64,
    /// Length of the short sequential run emitted after each random jump
    /// (1 = purely random single accesses).
    pub run_lines: u32,
    /// Accesses per line within a run (spatial reuse; >1 lowers the miss
    /// rate the way real move-evaluation loops re-read their operands).
    pub touches_per_line: u32,
    /// Probability that an access is a store.
    pub store_prob: f64,
    /// Non-memory instruction gap model.
    pub gap: GapModel,
    /// Base program counter.
    pub pc_base: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            base: 0xa000_0000,
            footprint: 1 << 20,
            run_lines: 1,
            touches_per_line: 1,
            store_prob: 0.1,
            gap: GapModel::default(),
            pc_base: 0x44_0000,
            seed: 0,
        }
    }
}

/// Emits fresh random references forever (hash/move-evaluation codes).
///
/// The stream never repeats, so it exhibits essentially no temporal
/// correlation — the gzip/bzip2/twolf behaviour the paper calls out in
/// Section 5.1 as offering little opportunity for LT-cords.
#[derive(Debug, Clone)]
pub struct RandomGen {
    cfg: RandomConfig,
    lines: u64,
    run_left: u32,
    touches_left: u32,
    cursor: u64,
    rng: StdRng,
}

impl RandomGen {
    /// Creates a random-access generator.
    ///
    /// # Panics
    ///
    /// Panics if the footprint holds no complete cache line, `run_lines` is
    /// zero, or `store_prob` is outside `[0, 1]`.
    pub fn new(cfg: RandomConfig) -> Self {
        let lines = cfg.footprint / LINE_BYTES;
        assert!(lines > 0, "footprint must hold at least one line");
        assert!(cfg.run_lines > 0, "run_lines must be at least 1");
        assert!(cfg.touches_per_line > 0, "touches_per_line must be at least 1");
        assert!((0.0..=1.0).contains(&cfg.store_prob), "store_prob must be in [0,1]");
        let seed = cfg.seed;
        RandomGen {
            cfg,
            lines,
            run_left: 0,
            touches_left: 0,
            cursor: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x0bad_5eed),
        }
    }

    /// The configured footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.cfg.footprint
    }
}

impl TraceSource for RandomGen {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        if self.touches_left == 0 {
            if self.run_left == 0 {
                self.cursor = self.rng.gen_range(0..self.lines);
                self.run_left = self.cfg.run_lines;
            } else {
                self.cursor += 1;
                if self.cursor == self.lines {
                    self.cursor = 0;
                }
            }
            self.run_left -= 1;
            self.touches_left = self.cfg.touches_per_line;
        }
        self.touches_left -= 1;
        let touch = u64::from(self.cfg.touches_per_line - 1 - self.touches_left);
        let kind = if self.rng.gen_bool(self.cfg.store_prob) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let gap = self.cfg.gap.sample(&mut self.rng);
        Some(MemoryAccess {
            pc: Pc(self.cfg.pc_base + if kind == AccessKind::Store { 8 } else { 0 }),
            addr: Addr(self.cfg.base + self.cursor * LINE_BYTES + (touch * 8) % LINE_BYTES),
            kind,
            gap,
            dependent: false,
        })
    }

    fn checkpoint(&self) -> Option<SourceState> {
        Some(SourceState::Random {
            run_left: self.run_left,
            touches_left: self.touches_left,
            cursor: self.cursor,
            rng: self.rng.state(),
        })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::Random { run_left, touches_left, cursor, rng } = state else {
            return Err(RestoreError::mismatch("random", state));
        };
        if *cursor >= self.lines {
            return Err(RestoreError::invalid(format!("random cursor {cursor} out of range")));
        }
        self.run_left = *run_left;
        self.touches_left = *touches_left;
        self.cursor = *cursor;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_within_footprint() {
        let cfg = RandomConfig { footprint: 1 << 12, base: 0x1000, ..RandomConfig::default() };
        let mut g = RandomGen::new(cfg);
        for _ in 0..1000 {
            let a = g.next_access().unwrap();
            assert!(a.addr.0 >= 0x1000 && a.addr.0 < 0x1000 + (1 << 12));
        }
    }

    #[test]
    fn does_not_repeat_between_halves() {
        let mut g = RandomGen::new(RandomConfig { footprint: 1 << 24, ..RandomConfig::default() });
        let v = g.collect_accesses(256);
        let first: Vec<u64> = v[..128].iter().map(|a| a.addr.0).collect();
        let second: Vec<u64> = v[128..].iter().map(|a| a.addr.0).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn runs_are_sequential() {
        let cfg = RandomConfig {
            run_lines: 4,
            store_prob: 0.0,
            footprint: 1 << 24,
            ..RandomConfig::default()
        };
        let mut g = RandomGen::new(cfg);
        let v = g.collect_accesses(4);
        // Within one run, consecutive lines follow each other (modulo the
        // footprint wrap, which is negligible for a 16 MB region).
        assert_eq!(v[1].addr.0, v[0].addr.0 + 64);
        assert_eq!(v[2].addr.0, v[1].addr.0 + 64);
    }

    #[test]
    fn store_probability_zero_means_all_loads() {
        let mut g = RandomGen::new(RandomConfig { store_prob: 0.0, ..RandomConfig::default() });
        assert!(g.collect_accesses(500).iter().all(|a| a.kind == AccessKind::Load));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mk = || RandomGen::new(RandomConfig { seed: 7, ..RandomConfig::default() });
        assert_eq!(mk().collect_accesses(100), mk().collect_accesses(100));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn rejects_tiny_footprint() {
        let _ = RandomGen::new(RandomConfig { footprint: 32, ..RandomConfig::default() });
    }
}
