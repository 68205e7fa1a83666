//! Pointer chasing over a mostly-static linked structure.

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

use crate::checkpoint::{RestoreError, SourceState};
use crate::gen::gap::GapModel;
use crate::gen::{wrap, LINE_BYTES};
use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::TraceSource;

/// Placement of linked nodes in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Node *i* lives at `base + i * node_bytes` — the systematic heap
    /// allocation the paper notes makes Olden's `treeadd` amenable to delta
    /// correlation (regular layout).
    Sequential,
    /// Nodes are shuffled across the region — an irregular layout that defeats
    /// delta-correlating prefetchers but not address correlation.
    Scattered,
}

/// Configuration for [`ChaseGen`].
#[derive(Debug, Clone)]
pub struct ChaseConfig {
    /// Base address of the node region.
    pub base: u64,
    /// Number of linked nodes.
    pub nodes: u32,
    /// Bytes per node (>= 8; nodes are at least pointer sized).
    pub node_bytes: u64,
    /// Memory layout of the nodes.
    pub layout: Layout,
    /// Extra (non-pointer) field accesses emitted per visited node.
    pub fields_per_node: u32,
    /// Fraction (0.0–1.0) of the traversal order randomly re-linked after
    /// each complete pass. Non-zero values model data-structure mutation that
    /// makes previously recorded last-touch signatures stale (Section 3.2).
    pub mutation_rate: f64,
    /// Probability that a pointer load is flagged address-dependent on the
    /// previous link. 1.0 is a single serial chain (mcf's simplex walk);
    /// lower values model codes that chase several lists concurrently and
    /// therefore retain memory-level parallelism (em3d's edge lists).
    pub chain_serialization: f64,
    /// Fraction (0.0–1.0) of visits that are to a small hot subset of nodes,
    /// modelling large-footprint/small-working-set codes such as mcf.
    pub hot_fraction: f64,
    /// Size of the hot subset as a fraction of all nodes (used only when
    /// `hot_fraction > 0`).
    pub hot_set_fraction: f64,
    /// Non-memory instruction gap model.
    pub gap: GapModel,
    /// Base program counter.
    pub pc_base: u64,
    /// RNG seed controlling layout, traversal order and mutation.
    pub seed: u64,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            base: 0x4000_0000,
            nodes: 1 << 16,
            node_bytes: LINE_BYTES,
            layout: Layout::Scattered,
            fields_per_node: 0,
            mutation_rate: 0.0,
            chain_serialization: 1.0,
            hot_fraction: 0.0,
            hot_set_fraction: 0.1,
            gap: GapModel::default(),
            pc_base: 0x41_0000,
            seed: 0,
        }
    }
}

/// Endlessly traverses a linked structure in a fixed (mostly-static) order.
///
/// The traversal order is a random permutation of all nodes fixed at
/// construction; each pass revisits the nodes in the same order, emitting a
/// `dependent` load per node (the pointer dereference) plus optional field
/// accesses. This is the pointer-chasing, repeating-sequence behaviour of
/// mcf/em3d/bh that delta correlation cannot capture but address correlation
/// can (paper Sections 1 and 5.7).
#[derive(Debug, Clone)]
pub struct ChaseGen {
    cfg: ChaseConfig,
    /// Visit order: positions in the region, in traversal order.
    order: Vec<u32>,
    /// Node index -> byte address.
    place: Vec<u64>,
    /// Hot subset visit order (non-empty only when `hot_fraction > 0`).
    hot_order: Vec<u32>,
    pos: usize,
    hot_pos: usize,
    /// Remaining field accesses for the current node.
    fields_left: u32,
    current_node: u32,
    /// Deterministic per-visit counter deciding hot vs cold visits.
    visit_no: u64,
    /// One visit in `cold_period` goes to the full order (`u64::MAX`
    /// when every visit is hot).
    cold_period: u64,
    /// `visit_no % cold_period`, advanced by compare and wrap (kept only
    /// while there is a hot subset to interleave).
    cold_phase: u64,
    rng: StdRng,
}

impl ChaseGen {
    /// Creates a pointer-chase generator.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `node_bytes < 8`, or any rate is outside
    /// `[0, 1]`.
    pub fn new(cfg: ChaseConfig) -> Self {
        assert!(cfg.nodes > 0, "chase requires at least one node");
        assert!(cfg.node_bytes >= 8, "nodes must hold at least a pointer");
        assert!((0.0..=1.0).contains(&cfg.mutation_rate), "mutation_rate must be in [0,1]");
        assert!(
            (0.0..=1.0).contains(&cfg.chain_serialization),
            "chain_serialization must be in [0,1]"
        );
        assert!((0.0..=1.0).contains(&cfg.hot_fraction), "hot_fraction must be in [0,1]");
        assert!((0.0..=1.0).contains(&cfg.hot_set_fraction), "hot_set_fraction must be in [0,1]");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc4a5_e000);
        let n = cfg.nodes as usize;

        let mut slots: Vec<u32> = (0..cfg.nodes).collect();
        if cfg.layout == Layout::Scattered {
            slots.shuffle(&mut rng);
        }
        let place: Vec<u64> =
            slots.iter().map(|&s| cfg.base + u64::from(s) * cfg.node_bytes).collect();

        let mut order: Vec<u32> = (0..cfg.nodes).collect();
        order.shuffle(&mut rng);

        let hot_order = if cfg.hot_fraction > 0.0 {
            let hot_n = ((n as f64) * cfg.hot_set_fraction).ceil().max(1.0) as usize;
            let mut h: Vec<u32> = order[..hot_n.min(n)].to_vec();
            h.shuffle(&mut rng);
            h
        } else {
            Vec::new()
        };

        let cold = 1.0 - cfg.hot_fraction;
        let cold_period = if cold <= 0.0 { u64::MAX } else { (1.0 / cold).round().max(1.0) as u64 };
        ChaseGen {
            cfg,
            order,
            place,
            hot_order,
            pos: 0,
            hot_pos: 0,
            fields_left: 0,
            current_node: 0,
            visit_no: 0,
            cold_period,
            cold_phase: 0,
            rng,
        }
    }

    /// Total bytes occupied by the node region.
    pub fn footprint(&self) -> u64 {
        u64::from(self.cfg.nodes) * self.cfg.node_bytes
    }

    fn mutate(&mut self) {
        let swaps = ((self.order.len() as f64) * self.cfg.mutation_rate / 2.0) as usize;
        for _ in 0..swaps {
            let a = self.rng.gen_range(0..self.order.len());
            let b = self.rng.gen_range(0..self.order.len());
            self.order.swap(a, b);
        }
    }

    fn next_node(&mut self) -> u32 {
        self.visit_no = self.visit_no.wrapping_add(1);
        // Deterministically interleave hot visits using a fixed-point
        // threshold so traces stay reproducible and repetitive.
        if !self.hot_order.is_empty() {
            // One cold (full-order) visit every `cold_period` visits; the
            // rest hit the hot subset.
            self.cold_phase += 1;
            if self.cold_phase == self.cold_period {
                self.cold_phase = 0;
            }
            if self.cold_phase != 0 {
                let node = self.hot_order[self.hot_pos];
                self.hot_pos += 1;
                if self.hot_pos == self.hot_order.len() {
                    self.hot_pos = 0;
                }
                return node;
            }
        }
        let node = self.order[self.pos];
        self.pos += 1;
        if self.pos >= self.order.len() {
            self.pos = 0;
            if self.cfg.mutation_rate > 0.0 {
                self.mutate();
            }
        }
        node
    }
}

impl TraceSource for ChaseGen {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        let gap = self.cfg.gap.sample(&mut self.rng);
        if self.fields_left > 0 {
            // Field access within the current node: independent of the next
            // pointer load, spatially local to the node.
            self.fields_left -= 1;
            let field_no = u64::from(self.cfg.fields_per_node - self.fields_left);
            let node_addr = self.place[self.current_node as usize];
            let off = wrap(field_no * 8, self.cfg.node_bytes);
            return Some(MemoryAccess {
                pc: Pc(self.cfg.pc_base + 16 + field_no * 4),
                addr: Addr(node_addr + off),
                kind: if field_no % 3 == 2 { AccessKind::Store } else { AccessKind::Load },
                gap,
                dependent: false,
            });
        }
        let node = self.next_node();
        self.current_node = node;
        self.fields_left = self.cfg.fields_per_node;
        let dependent = self.cfg.chain_serialization >= 1.0
            || (self.cfg.chain_serialization > 0.0
                && self.rng.gen_bool(self.cfg.chain_serialization));
        Some(MemoryAccess {
            pc: Pc(self.cfg.pc_base),
            addr: Addr(self.place[node as usize]),
            kind: AccessKind::Load,
            gap,
            dependent,
        })
    }

    fn checkpoint(&self) -> Option<SourceState> {
        // The traversal order only needs to travel with the state when
        // mutation can have perturbed it; otherwise the constructed
        // order is still exact and the checkpoint stays small.
        let order = if self.cfg.mutation_rate > 0.0 { Some(self.order.clone()) } else { None };
        Some(SourceState::Chase {
            order,
            pos: self.pos as u64,
            hot_pos: self.hot_pos as u64,
            fields_left: self.fields_left,
            current_node: self.current_node,
            visit_no: self.visit_no,
            rng: self.rng.state(),
        })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::Chase { order, pos, hot_pos, fields_left, current_node, visit_no, rng } =
            state
        else {
            return Err(RestoreError::mismatch("chase", state));
        };
        if let Some(order) = order {
            if order.len() != self.order.len() {
                return Err(RestoreError::invalid(format!(
                    "chase state orders {} nodes, configuration has {}",
                    order.len(),
                    self.order.len()
                )));
            }
        } else if self.cfg.mutation_rate > 0.0 {
            return Err(RestoreError::invalid(
                "chase state lacks the traversal order a mutating configuration requires",
            ));
        }
        if *pos >= self.order.len() as u64 {
            return Err(RestoreError::invalid(format!("chase position {pos} out of range")));
        }
        if self.hot_order.is_empty() {
            if *hot_pos != 0 {
                return Err(RestoreError::invalid("chase state expects a hot subset"));
            }
        } else if *hot_pos >= self.hot_order.len() as u64 {
            return Err(RestoreError::invalid(format!(
                "chase hot position {hot_pos} out of range"
            )));
        }
        if u64::from(*current_node) >= self.place.len() as u64 {
            return Err(RestoreError::invalid(format!("chase node {current_node} out of range")));
        }
        if let Some(order) = order {
            self.order.clone_from(order);
        }
        self.pos = *pos as usize;
        self.hot_pos = *hot_pos as usize;
        self.fields_left = *fields_left;
        self.current_node = *current_node;
        self.visit_no = *visit_no;
        self.cold_phase = *visit_no % self.cold_period;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ChaseConfig {
        ChaseConfig { nodes: 64, gap: GapModel::fixed(1), ..ChaseConfig::default() }
    }

    #[test]
    fn visits_every_node_once_per_pass() {
        let mut g = ChaseGen::new(base_cfg());
        let v = g.collect_accesses(64);
        let mut addrs: Vec<u64> = v.iter().map(|a| a.addr.0).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 64, "each node visited exactly once per pass");
    }

    #[test]
    fn passes_repeat_without_mutation() {
        let mut g = ChaseGen::new(base_cfg());
        let first: Vec<u64> = g.collect_accesses(64).iter().map(|a| a.addr.0).collect();
        let second: Vec<u64> = g.collect_accesses(64).iter().map(|a| a.addr.0).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn mutation_changes_order_between_passes() {
        let cfg = ChaseConfig { mutation_rate: 0.5, ..base_cfg() };
        let mut g = ChaseGen::new(cfg);
        let first: Vec<u64> = g.collect_accesses(64).iter().map(|a| a.addr.0).collect();
        let second: Vec<u64> = g.collect_accesses(64).iter().map(|a| a.addr.0).collect();
        assert_ne!(first, second, "mutation must perturb the traversal order");
        // But the set of nodes is unchanged.
        let mut f = first.clone();
        let mut s = second.clone();
        f.sort_unstable();
        s.sort_unstable();
        assert_eq!(f, s);
    }

    #[test]
    fn pointer_loads_are_dependent() {
        let mut g = ChaseGen::new(base_cfg());
        assert!(g.next_access().unwrap().dependent);
    }

    #[test]
    fn field_accesses_follow_each_node() {
        let cfg = ChaseConfig { fields_per_node: 2, node_bytes: 128, ..base_cfg() };
        let mut g = ChaseGen::new(cfg);
        let a = g.next_access().unwrap();
        let f1 = g.next_access().unwrap();
        let f2 = g.next_access().unwrap();
        assert!(a.dependent);
        assert!(!f1.dependent && !f2.dependent);
        assert_eq!(f1.addr.line(128), a.addr.line(128), "fields live in the node");
        assert_eq!(f2.addr.line(128), a.addr.line(128));
        let b = g.next_access().unwrap();
        assert!(b.dependent, "next node follows the fields");
    }

    #[test]
    fn sequential_layout_is_contiguous() {
        let cfg = ChaseConfig { layout: Layout::Sequential, base: 0x1000, ..base_cfg() };
        let g = ChaseGen::new(cfg);
        // With a sequential layout node i sits at base + i*node_bytes.
        assert_eq!(g.place[0], 0x1000);
        assert_eq!(g.place[1], 0x1040);
        assert_eq!(g.place[63], 0x1000 + 63 * 64);
    }

    #[test]
    fn hot_set_dominates_visits() {
        let cfg =
            ChaseConfig { nodes: 1000, hot_fraction: 0.9, hot_set_fraction: 0.05, ..base_cfg() };
        let mut g = ChaseGen::new(cfg);
        let v = g.collect_accesses(1000);
        let mut uniq: Vec<u64> = v.iter().map(|a| a.addr.0).collect();
        uniq.sort_unstable();
        uniq.dedup();
        // 90% of visits hit the ~50-node hot set, so far fewer than 1000
        // distinct addresses appear in 1000 visits.
        assert!(uniq.len() < 250, "expected hot-set reuse, got {} uniques", uniq.len());
    }

    #[test]
    fn footprint_is_nodes_times_size() {
        let g = ChaseGen::new(base_cfg());
        assert_eq!(g.footprint(), 64 * 64);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = ChaseGen::new(base_cfg()).collect_accesses(200);
        let b = ChaseGen::new(base_cfg()).collect_accesses(200);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_zero_nodes() {
        let _ = ChaseGen::new(ChaseConfig { nodes: 0, ..ChaseConfig::default() });
    }
}
