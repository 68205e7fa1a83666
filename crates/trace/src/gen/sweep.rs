//! Repeated sequential/strided passes over one or more arrays.

use rand::{rngs::StdRng, SeedableRng};

use crate::checkpoint::{RestoreError, SourceState};
use crate::gen::gap::GapModel;
use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::TraceSource;

/// Configuration for [`SweepGen`].
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base address of the first array; arrays are laid out back to back,
    /// each aligned to 4 KB.
    pub base: u64,
    /// Sizes of the swept arrays in bytes.
    pub arrays: Vec<u64>,
    /// Strides cycled per pass (bytes). A single entry gives a fixed stride;
    /// several entries model multi-stride codes such as mgrid/lucas, whose
    /// power-of-two strides change between passes.
    pub strides: Vec<u64>,
    /// Every `store_every`-th access is a store (0 disables stores).
    pub store_every: u32,
    /// Non-memory instruction gap model.
    pub gap: GapModel,
    /// Base program counter; each array gets a distinct PC pair (load/store).
    pub pc_base: u64,
    /// RNG seed (only used for gap jitter).
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            base: 0x1000_0000,
            arrays: vec![1 << 20],
            strides: vec![64],
            store_every: 0,
            gap: GapModel::default(),
            pc_base: 0x40_0000,
            seed: 0,
        }
    }
}

/// Endlessly repeats sequential/strided passes over a set of arrays.
///
/// Each pass touches every array element in the same order, producing a miss
/// sequence that recurs exactly — the "outer loop over a large data set"
/// scenario from Section 3.1 of the paper. With multiple arrays, accesses to
/// the arrays are interleaved round-robin within the pass, which is what
/// creates the local last-touch/miss order disparity of Section 3.2.
///
/// # Example
///
/// ```
/// use ltc_trace::gen::{SweepConfig, SweepGen};
/// use ltc_trace::TraceSource;
///
/// let gen = SweepGen::new(SweepConfig {
///     arrays: vec![4096, 4096],
///     ..SweepConfig::default()
/// });
/// let mut gen = gen;
/// let a = gen.next_access().unwrap();
/// let b = gen.next_access().unwrap();
/// assert_ne!(a.addr, b.addr);
/// ```
#[derive(Debug, Clone)]
pub struct SweepGen {
    cfg: SweepConfig,
    /// One lane per array, in configuration order.
    lanes: Vec<Lane>,
    /// The lane whose wrap ends a pass: the first of the largest arrays.
    largest: usize,
    /// Which array receives the next access in the round-robin.
    turn: usize,
    /// Pass counter (selects the stride).
    pass: u64,
    /// The current pass's stride, `strides[pass % strides.len()]`.
    stride: u64,
    access_no: u64,
    rng: StdRng,
}

/// One swept array and its position in the current pass.
#[derive(Debug, Clone)]
struct Lane {
    base: u64,
    size: u64,
    /// Element cursor (bytes within the array).
    cursor: u64,
    /// Elements before the next store, 0 when the next element is one:
    /// the test `(offset / stride) % store_every == 0`, counted down
    /// instead of divided out on every access.
    store_in: u32,
}

impl SweepGen {
    /// Creates a sweep generator.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` or `strides` is empty, or any stride is zero.
    pub fn new(cfg: SweepConfig) -> Self {
        assert!(!cfg.arrays.is_empty(), "sweep requires at least one array");
        assert!(!cfg.strides.is_empty(), "sweep requires at least one stride");
        assert!(cfg.strides.iter().all(|&s| s > 0), "strides must be non-zero");
        let mut lanes = Vec::with_capacity(cfg.arrays.len());
        let mut next = cfg.base;
        for (idx, &size) in cfg.arrays.iter().enumerate() {
            // Stagger bases by a non-power-of-two page count so equally
            // sized arrays do not alias into the same cache sets (real
            // allocators and array dimensioning break such alignment too).
            lanes.push(Lane { base: next + (idx as u64) * 0x11000, size, cursor: 0, store_in: 0 });
            next = (next + size + (idx as u64) * 0x11000 + 0xfff) & !0xfff;
        }
        let max_size = *cfg.arrays.iter().max().expect("non-empty");
        let largest = cfg.arrays.iter().position(|&s| s == max_size).expect("exists");
        let seed = cfg.seed;
        SweepGen {
            stride: cfg.strides[0],
            cfg,
            lanes,
            largest,
            turn: 0,
            pass: 0,
            access_no: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_5eed),
        }
    }

    /// Total bytes touched per pass (the workload footprint).
    pub fn footprint(&self) -> u64 {
        self.cfg.arrays.iter().sum()
    }

    /// `strides[pass % strides.len()]`.
    fn pass_stride(&self) -> u64 {
        self.cfg.strides[(self.pass % self.cfg.strides.len() as u64) as usize]
    }

    /// The [`Lane::store_in`] of a lane whose next element is at `cursor`.
    fn store_countdown(&self, cursor: u64) -> u32 {
        let every = u64::from(self.cfg.store_every);
        if every == 0 {
            return 0;
        }
        ((every - (cursor / self.stride) % every) % every) as u32
    }
}

impl TraceSource for SweepGen {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        // Round-robin across the arrays. Arrays smaller than the largest
        // wrap and are re-swept (the way a solver reads its small coefficient
        // arrays every timestep); the pass ends when the largest array does.
        let idx = self.turn;
        if self.lanes[idx].cursor >= self.lanes[idx].size {
            if idx == self.largest {
                // Pass complete: reset all cursors and advance the stride.
                for lane in &mut self.lanes {
                    lane.cursor = 0;
                    lane.store_in = 0;
                }
                self.pass += 1;
                self.stride = self.pass_stride();
            } else {
                // A smaller array wraps and is re-swept within the pass.
                self.lanes[idx].cursor = 0;
                self.lanes[idx].store_in = 0;
            }
        }
        let store_every = self.cfg.store_every;
        let lane = &mut self.lanes[idx];
        let offset = lane.cursor;
        lane.cursor = offset + self.stride;
        let addr = Addr(lane.base + offset);
        // Stores are a function of the *element position* (as in real loop
        // bodies that update every k-th element), so the load/store pattern
        // of a given line recurs identically every pass regardless of how
        // the pass length divides by `store_every`.
        let is_store = store_every != 0 && lane.store_in == 0;
        if store_every != 0 {
            lane.store_in = if is_store { store_every - 1 } else { lane.store_in - 1 };
        }
        self.turn += 1;
        if self.turn == self.lanes.len() {
            self.turn = 0;
        }
        self.access_no += 1;
        let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
        let pc_off = if is_store { 8 } else { 0 };
        let pc = Pc(self.cfg.pc_base + (idx as u64) * 16 + pc_off);
        let gap = self.cfg.gap.sample(&mut self.rng);
        Some(MemoryAccess { pc, addr, kind, gap, dependent: false })
    }

    fn checkpoint(&self) -> Option<SourceState> {
        Some(SourceState::Sweep {
            cursors: self.lanes.iter().map(|lane| lane.cursor).collect(),
            turn: self.turn as u64,
            pass: self.pass,
            access_no: self.access_no,
            rng: self.rng.state(),
        })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::Sweep { cursors, turn, pass, access_no, rng } = state else {
            return Err(RestoreError::mismatch("sweep", state));
        };
        if cursors.len() != self.lanes.len() {
            return Err(RestoreError::invalid(format!(
                "sweep state has {} cursors, configuration has {} arrays",
                cursors.len(),
                self.lanes.len()
            )));
        }
        if *turn >= self.lanes.len() as u64 {
            return Err(RestoreError::invalid(format!("sweep turn {turn} out of range")));
        }
        self.turn = *turn as usize;
        self.pass = *pass;
        self.stride = self.pass_stride();
        for (i, &cursor) in cursors.iter().enumerate() {
            let store_in = self.store_countdown(cursor);
            self.lanes[i].cursor = cursor;
            self.lanes[i].store_in = store_in;
        }
        self.access_no = *access_no;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(cfg: SweepConfig, n: usize) -> Vec<MemoryAccess> {
        SweepGen::new(cfg).collect_accesses(n)
    }

    #[test]
    fn single_array_is_sequential() {
        let cfg = SweepConfig {
            arrays: vec![256],
            strides: vec![64],
            base: 0x1000,
            ..SweepConfig::default()
        };
        let v = collect(cfg, 4);
        let addrs: Vec<u64> = v.iter().map(|a| a.addr.0).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0]);
    }

    #[test]
    fn passes_repeat_exactly() {
        let cfg = SweepConfig {
            arrays: vec![512, 512],
            strides: vec![64],
            gap: GapModel::fixed(1),
            ..SweepConfig::default()
        };
        let v = collect(cfg.clone(), 64);
        let pass_len = (512 / 64) * 2;
        let first: Vec<u64> = v[..pass_len].iter().map(|a| a.addr.0).collect();
        let second: Vec<u64> = v[pass_len..2 * pass_len].iter().map(|a| a.addr.0).collect();
        assert_eq!(first, second, "sweep passes must repeat the same address sequence");
    }

    #[test]
    fn arrays_interleave_round_robin() {
        let cfg = SweepConfig {
            arrays: vec![4096, 4096],
            strides: vec![64],
            base: 0x10000,
            ..SweepConfig::default()
        };
        let v = collect(cfg, 4);
        // Alternates between the two arrays.
        assert_ne!(v[0].addr.line(4096), v[1].addr.line(4096));
        assert_eq!(v[0].addr.offset_by(64), v[2].addr);
    }

    #[test]
    fn stores_appear_at_configured_rate() {
        let cfg = SweepConfig { store_every: 4, arrays: vec![1 << 16], ..SweepConfig::default() };
        let v = collect(cfg, 64);
        let stores = v.iter().filter(|a| a.kind == AccessKind::Store).count();
        assert_eq!(stores, 16);
    }

    #[test]
    fn footprint_sums_arrays() {
        let g = SweepGen::new(SweepConfig { arrays: vec![100, 200], ..SweepConfig::default() });
        assert_eq!(g.footprint(), 300);
    }

    #[test]
    fn multi_stride_changes_between_passes() {
        let cfg = SweepConfig {
            arrays: vec![512],
            strides: vec![64, 128],
            base: 0,
            ..SweepConfig::default()
        };
        let v = collect(cfg, 8 + 4 + 2);
        // Pass 0: 8 accesses at stride 64; pass 1: 4 accesses at stride 128.
        assert_eq!(v[7].addr.0, 0x1c0);
        assert_eq!(v[8].addr.0, 0x0);
        assert_eq!(v[9].addr.0, 0x80);
    }

    /// `(address, is_store)` of the first `n` accesses, by the per-access
    /// divisions and scans the generator's cached stride and countdowns
    /// replace.
    fn reference(cfg: &SweepConfig, n: usize) -> Vec<(u64, bool)> {
        let bases: Vec<u64> = SweepGen::new(cfg.clone()).lanes.iter().map(|l| l.base).collect();
        let mut cursors = vec![0u64; cfg.arrays.len()];
        let (mut turn, mut pass) = (0usize, 0usize);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let max_size = *cfg.arrays.iter().max().unwrap();
            let largest = cfg.arrays.iter().position(|&s| s == max_size).unwrap();
            if cursors[turn] >= cfg.arrays[turn] {
                if turn == largest {
                    cursors.iter_mut().for_each(|c| *c = 0);
                    pass += 1;
                } else {
                    cursors[turn] = 0;
                }
            }
            let stride = cfg.strides[pass % cfg.strides.len()];
            let offset = cursors[turn];
            cursors[turn] = offset + stride;
            let every = u64::from(cfg.store_every);
            out.push((bases[turn] + offset, every != 0 && (offset / stride) % every == 0));
            turn = (turn + 1) % cfg.arrays.len();
        }
        out
    }

    #[test]
    fn countdowns_match_the_per_access_arithmetic_across_passes() {
        // Two small arrays that wrap inside each pass (one not a whole
        // number of strides), two equally large ones of which the first
        // ends the pass, several strides, and restores mid-pass.
        for (store_every, strides) in [(3, vec![8, 24, 64]), (0, vec![16]), (1, vec![40, 8])] {
            let cfg = SweepConfig {
                arrays: vec![520, 2048, 200, 2048],
                strides,
                store_every,
                ..SweepConfig::default()
            };
            let want = reference(&cfg, 4_000);
            let got: Vec<(u64, bool)> = collect(cfg.clone(), 4_000)
                .iter()
                .map(|a| (a.addr.0, a.kind == AccessKind::Store))
                .collect();
            assert_eq!(got, want, "store_every {store_every}");
            for cut in [1, 37, 255, 256, 1_001, 2_999] {
                let mut g = SweepGen::new(cfg.clone());
                g.collect_accesses(cut);
                let mut resumed = SweepGen::new(cfg.clone());
                resumed.restore(&g.checkpoint().unwrap()).unwrap();
                let tail: Vec<(u64, bool)> = resumed
                    .collect_accesses(600)
                    .iter()
                    .map(|a| (a.addr.0, a.kind == AccessKind::Store))
                    .collect();
                assert_eq!(tail, want[cut..cut + 600], "store_every {store_every}, cut {cut}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one array")]
    fn rejects_empty_arrays() {
        let _ = SweepGen::new(SweepConfig { arrays: vec![], ..SweepConfig::default() });
    }

    #[test]
    fn deterministic_across_instances() {
        let cfg = SweepConfig {
            arrays: vec![2048, 4096],
            strides: vec![64],
            gap: GapModel::jittered(3, 2),
            seed: 42,
            ..SweepConfig::default()
        };
        let a = collect(cfg.clone(), 100);
        let b = collect(cfg, 100);
        assert_eq!(a, b);
    }
}
