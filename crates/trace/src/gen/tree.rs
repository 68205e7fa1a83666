//! Depth-first and path walks over a statically allocated tree.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::checkpoint::{RestoreError, SourceState};
use crate::gen::gap::GapModel;
use crate::gen::wrap;
use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::TraceSource;

/// How nodes are placed in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeLayout {
    /// Implicit heap (breadth-first) order: node *i* at `base + i * size`.
    Heap,
    /// Depth-first (allocation) order: Olden's `treeadd` allocates nodes
    /// recursively, so a DFS walk reads memory almost sequentially — the
    /// systematic allocation the paper credits for treeadd's
    /// delta-correlation friendliness (Section 5.7).
    DfsOrder,
}

/// How the tree is visited each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Full recursive depth-first walk (Olden `treeadd`).
    DepthFirst,
    /// `count` root-to-leaf walks per pass, with static per-walk paths
    /// (an approximation of Barnes-Hut body/octree interaction in `bh`).
    Paths {
        /// Number of root-to-leaf walks per pass.
        count: u32,
    },
}

/// Configuration for [`TreeGen`].
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Base address of the node array.
    pub base: u64,
    /// Tree depth; the tree holds `2^depth - 1` nodes.
    pub depth: u32,
    /// Bytes per node. Olden's `treeadd` nodes are 32 bytes, so two nodes
    /// share a 64-byte line when allocated systematically.
    pub node_bytes: u64,
    /// Traversal mode.
    pub traversal: Traversal,
    /// Node placement in memory.
    pub layout: TreeLayout,
    /// Accesses emitted per visited node (the pointer load plus the field
    /// reads/writes the node's computation performs).
    pub accesses_per_node: u32,
    /// Non-memory instruction gap model.
    pub gap: GapModel,
    /// Base program counter.
    pub pc_base: u64,
    /// RNG seed (selects the static leaf paths in `Paths` mode).
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            base: 0x6000_0000,
            depth: 16,
            node_bytes: 32,
            traversal: Traversal::DepthFirst,
            layout: TreeLayout::Heap,
            accesses_per_node: 1,
            gap: GapModel::default(),
            pc_base: 0x42_0000,
            seed: 0,
        }
    }
}

/// Walks a statically allocated binary tree, endlessly repeating passes.
///
/// Nodes are allocated breadth-first at `base + index * node_bytes` — the
/// systematic heap allocation that, per the paper (Section 5.7), gives
/// `treeadd` a regular enough layout for delta correlation to work, while
/// still being a dependent pointer chase for the timing model.
#[derive(Debug)]
pub struct TreeGen {
    cfg: TreeConfig,
    /// Precomputed static visit order (node indices).
    visit: Vec<u32>,
    /// Node index -> placement rank (identity for the heap layout).
    place: Vec<u32>,
    pos: usize,
    /// Remaining field accesses for the current node.
    fields_left: u32,
    current: u32,
    rng: StdRng,
}

impl TreeGen {
    /// Creates a tree-walk generator.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or greater than 26 (≥ 2^26 nodes would make the
    /// precomputed visit order unreasonably large), or if `node_bytes < 8`.
    pub fn new(cfg: TreeConfig) -> Self {
        assert!((1..=26).contains(&cfg.depth), "tree depth must be in 1..=26");
        assert!(cfg.node_bytes >= 8, "nodes must hold at least a pointer");
        assert!(cfg.accesses_per_node >= 1, "each visit touches the node at least once");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x07ee_5eed);
        let nodes: u32 = (1u32 << cfg.depth) - 1;
        let mut visit = Vec::new();
        match cfg.traversal {
            Traversal::DepthFirst => {
                // Iterative preorder DFS over the implicit heap layout.
                let mut stack = vec![0u32];
                while let Some(n) = stack.pop() {
                    visit.push(n);
                    let left = 2 * n + 1;
                    let right = 2 * n + 2;
                    if right < nodes {
                        stack.push(right);
                    }
                    if left < nodes {
                        stack.push(left);
                    }
                }
            }
            Traversal::Paths { count } => {
                for _ in 0..count.max(1) {
                    let mut n = 0u32;
                    visit.push(n);
                    loop {
                        let left = 2 * n + 1;
                        if left >= nodes {
                            break;
                        }
                        let go_right = rng.gen_bool(0.5);
                        n = if go_right && left + 1 < nodes { left + 1 } else { left };
                        visit.push(n);
                    }
                }
            }
        }
        let place: Vec<u32> = match cfg.layout {
            TreeLayout::Heap => (0..nodes).collect(),
            TreeLayout::DfsOrder => {
                // Placement rank = preorder DFS rank (allocation order).
                let mut rank = vec![0u32; nodes as usize];
                let mut next = 0u32;
                let mut stack = vec![0u32];
                while let Some(n) = stack.pop() {
                    rank[n as usize] = next;
                    next += 1;
                    let left = 2 * n + 1;
                    let right = 2 * n + 2;
                    if right < nodes {
                        stack.push(right);
                    }
                    if left < nodes {
                        stack.push(left);
                    }
                }
                rank
            }
        };
        TreeGen { cfg, visit, place, pos: 0, fields_left: 0, current: 0, rng }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> u32 {
        (1u32 << self.cfg.depth) - 1
    }

    /// Total bytes occupied by the tree.
    pub fn footprint(&self) -> u64 {
        u64::from(self.node_count()) * self.cfg.node_bytes
    }

    /// Node visits per pass (each visit emits `accesses_per_node` accesses).
    pub fn pass_len(&self) -> usize {
        self.visit.len()
    }
}

impl TraceSource for TreeGen {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        let gap = self.cfg.gap.sample(&mut self.rng);
        if self.fields_left > 0 {
            // Field work within the current node (non-pointer accesses).
            self.fields_left -= 1;
            let field_no = u64::from(self.cfg.accesses_per_node - 1 - self.fields_left);
            let node_addr =
                self.cfg.base + u64::from(self.place[self.current as usize]) * self.cfg.node_bytes;
            return Some(MemoryAccess {
                pc: Pc(self.cfg.pc_base + 8 + field_no * 4),
                addr: Addr(node_addr + wrap(field_no * 8, self.cfg.node_bytes)),
                kind: if field_no % 4 == 3 { AccessKind::Store } else { AccessKind::Load },
                gap,
                dependent: false,
            });
        }
        let node = self.visit[self.pos];
        self.pos += 1;
        if self.pos == self.visit.len() {
            self.pos = 0;
        }
        self.current = node;
        self.fields_left = self.cfg.accesses_per_node - 1;
        Some(MemoryAccess {
            pc: Pc(self.cfg.pc_base),
            addr: Addr(self.cfg.base + u64::from(self.place[node as usize]) * self.cfg.node_bytes),
            kind: AccessKind::Load,
            gap,
            dependent: true,
        })
    }

    fn checkpoint(&self) -> Option<SourceState> {
        Some(SourceState::Tree {
            pos: self.pos as u64,
            fields_left: self.fields_left,
            current: self.current,
            rng: self.rng.state(),
        })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::Tree { pos, fields_left, current, rng } = state else {
            return Err(RestoreError::mismatch("tree", state));
        };
        if *pos >= self.visit.len() as u64 {
            return Err(RestoreError::invalid(format!("tree position {pos} out of range")));
        }
        if u64::from(*current) >= self.place.len() as u64 {
            return Err(RestoreError::invalid(format!("tree node {current} out of range")));
        }
        self.pos = *pos as usize;
        self.fields_left = *fields_left;
        self.current = *current;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_visits_every_node_once() {
        let g = TreeGen::new(TreeConfig { depth: 5, ..TreeConfig::default() });
        assert_eq!(g.pass_len(), 31);
        let mut v = g.visit.clone();
        v.sort_unstable();
        let expect: Vec<u32> = (0..31).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn dfs_is_preorder() {
        let g = TreeGen::new(TreeConfig { depth: 3, ..TreeConfig::default() });
        // Preorder over heap indices 0..6: 0, 1, 3, 4, 2, 5, 6.
        assert_eq!(g.visit, vec![0, 1, 3, 4, 2, 5, 6]);
    }

    #[test]
    fn passes_repeat() {
        let mut g =
            TreeGen::new(TreeConfig { depth: 4, gap: GapModel::fixed(0), ..TreeConfig::default() });
        let n = g.pass_len();
        let a: Vec<u64> = g.collect_accesses(n).iter().map(|x| x.addr.0).collect();
        let b: Vec<u64> = g.collect_accesses(n).iter().map(|x| x.addr.0).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn paths_start_at_root_and_reach_leaves() {
        let g = TreeGen::new(TreeConfig {
            depth: 6,
            traversal: Traversal::Paths { count: 8 },
            ..TreeConfig::default()
        });
        assert_eq!(g.visit[0], 0, "walks start at the root");
        // Each path has `depth` nodes (root to leaf).
        assert_eq!(g.pass_len(), 8 * 6);
    }

    #[test]
    fn nodes_are_systematically_allocated() {
        let mut g = TreeGen::new(TreeConfig {
            depth: 3,
            base: 0x1000,
            node_bytes: 32,
            ..TreeConfig::default()
        });
        let a = g.next_access().unwrap();
        assert_eq!(a.addr.0, 0x1000);
        let b = g.next_access().unwrap();
        assert_eq!(b.addr.0, 0x1020, "node 1 is 32 bytes after node 0");
    }

    #[test]
    fn walks_are_dependent_loads() {
        let mut g = TreeGen::new(TreeConfig { depth: 3, ..TreeConfig::default() });
        let a = g.next_access().unwrap();
        assert!(a.dependent);
        assert_eq!(a.kind, AccessKind::Load);
    }

    #[test]
    #[should_panic(expected = "1..=26")]
    fn rejects_zero_depth() {
        let _ = TreeGen::new(TreeConfig { depth: 0, ..TreeConfig::default() });
    }

    #[test]
    fn footprint_counts_all_nodes() {
        let g = TreeGen::new(TreeConfig { depth: 4, node_bytes: 32, ..TreeConfig::default() });
        assert_eq!(g.footprint(), 15 * 32);
    }
}
