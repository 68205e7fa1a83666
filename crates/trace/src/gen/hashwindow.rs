//! A sequential input window plus random hash-table probes (gzip-like).

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::checkpoint::{RestoreError, SourceState};
use crate::gen::gap::GapModel;
use crate::gen::LINE_BYTES;
use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::TraceSource;

/// Configuration for [`HashWindowGen`].
#[derive(Debug, Clone)]
pub struct HashWindowConfig {
    /// Base address of the sliding input window.
    pub base: u64,
    /// Input window size in bytes (streamed sequentially, byte-ish strides).
    pub window_bytes: u64,
    /// Hash table size in bytes (probed randomly).
    pub table_bytes: u64,
    /// Number of sequential window accesses between table probes.
    pub window_per_probe: u32,
    /// Probability a table probe is a store (hash insert).
    pub probe_store_prob: f64,
    /// Non-memory instruction gap model.
    pub gap: GapModel,
    /// Base program counter.
    pub pc_base: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HashWindowConfig {
    fn default() -> Self {
        HashWindowConfig {
            base: 0xc000_0000,
            window_bytes: 256 << 10,
            table_bytes: 512 << 10,
            window_per_probe: 8,
            probe_store_prob: 0.5,
            gap: GapModel::default(),
            pc_base: 0x45_0000,
            seed: 0,
        }
    }
}

/// Models compression-style access: a hot sequential window interleaved with
/// random hash-table probes.
///
/// The window accesses are dense (multiple per line) and hit in L1; the table
/// probes are random and non-recurring. The result is a low miss rate whose
/// misses carry almost no temporal correlation — the paper's gzip profile
/// (5 % L1 misses, near-zero LT-cords opportunity, Figure 6).
#[derive(Debug, Clone)]
pub struct HashWindowGen {
    cfg: HashWindowConfig,
    table_base: u64,
    window_cursor: u64,
    since_probe: u32,
    rng: StdRng,
}

impl HashWindowGen {
    /// Creates a hash-window generator.
    ///
    /// # Panics
    ///
    /// Panics if the window or table holds no complete cache line or if
    /// `probe_store_prob` is outside `[0, 1]`.
    pub fn new(cfg: HashWindowConfig) -> Self {
        assert!(cfg.window_bytes >= LINE_BYTES, "window must hold at least one line");
        assert!(cfg.table_bytes >= LINE_BYTES, "table must hold at least one line");
        assert!((0.0..=1.0).contains(&cfg.probe_store_prob), "probe_store_prob must be in [0,1]");
        let table_base = (cfg.base + cfg.window_bytes + 0xfff) & !0xfff;
        let seed = cfg.seed;
        HashWindowGen {
            cfg,
            table_base,
            window_cursor: 0,
            since_probe: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x9a5_4b1e),
        }
    }

    /// Combined window + table footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.cfg.window_bytes + self.cfg.table_bytes
    }
}

impl TraceSource for HashWindowGen {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        let gap = self.cfg.gap.sample(&mut self.rng);
        if self.since_probe >= self.cfg.window_per_probe {
            self.since_probe = 0;
            let lines = self.cfg.table_bytes / LINE_BYTES;
            let line = self.rng.gen_range(0..lines);
            let kind = if self.rng.gen_bool(self.cfg.probe_store_prob) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            return Some(MemoryAccess {
                pc: Pc(self.cfg.pc_base + 32),
                addr: Addr(self.table_base + line * LINE_BYTES),
                kind,
                gap,
                dependent: false,
            });
        }
        self.since_probe += 1;
        // Dense sequential walk: 16-byte steps, four accesses per line.
        // The window holds at least one line, so one subtraction wraps.
        self.window_cursor += 16;
        if self.window_cursor >= self.cfg.window_bytes {
            self.window_cursor -= self.cfg.window_bytes;
        }
        Some(MemoryAccess {
            pc: Pc(self.cfg.pc_base),
            addr: Addr(self.cfg.base + self.window_cursor),
            kind: AccessKind::Load,
            gap,
            dependent: false,
        })
    }

    fn checkpoint(&self) -> Option<SourceState> {
        Some(SourceState::HashWindow {
            window_cursor: self.window_cursor,
            since_probe: self.since_probe,
            rng: self.rng.state(),
        })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::HashWindow { window_cursor, since_probe, rng } = state else {
            return Err(RestoreError::mismatch("hash-window", state));
        };
        if *window_cursor >= self.cfg.window_bytes {
            return Err(RestoreError::invalid(format!(
                "hash-window cursor {window_cursor} outside the window"
            )));
        }
        self.window_cursor = *window_cursor;
        self.since_probe = *since_probe;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HashWindowConfig {
        HashWindowConfig {
            window_bytes: 4096,
            table_bytes: 8192,
            window_per_probe: 3,
            gap: GapModel::fixed(1),
            ..HashWindowConfig::default()
        }
    }

    #[test]
    fn probes_appear_at_configured_rate() {
        let mut g = HashWindowGen::new(cfg());
        let v = g.collect_accesses(40);
        let probes = v.iter().filter(|a| a.addr.0 >= g.table_base).count();
        assert_eq!(probes, 10, "one probe per three window accesses");
    }

    #[test]
    fn window_accesses_are_dense_sequential() {
        let mut g = HashWindowGen::new(cfg());
        let a = g.next_access().unwrap();
        let b = g.next_access().unwrap();
        assert_eq!(b.addr.0, a.addr.0 + 16);
    }

    #[test]
    fn table_does_not_overlap_window() {
        let g = HashWindowGen::new(cfg());
        assert!(g.table_base >= g.cfg.base + g.cfg.window_bytes);
    }

    #[test]
    fn probes_are_not_recurring() {
        let mut g = HashWindowGen::new(HashWindowConfig { table_bytes: 1 << 22, ..cfg() });
        let v = g.collect_accesses(4000);
        let probes: Vec<u64> =
            v.iter().filter(|a| a.addr.0 >= g.table_base).map(|a| a.addr.0).collect();
        let half = probes.len() / 2;
        assert_ne!(&probes[..half], &probes[half..half * 2]);
    }

    #[test]
    fn footprint_counts_both_regions() {
        let g = HashWindowGen::new(cfg());
        assert_eq!(g.footprint(), 4096 + 8192);
    }
}
