//! Multi-programmed execution: context-switched interleaving of programs.

use crate::checkpoint::{RestoreError, SourceState};
use crate::record::MemoryAccess;
use crate::source::{restore_all, BoxedSource, TraceSource};

/// Interleaves several programs with context switches, as in the paper's
/// multi-programmed study (Section 5.5).
///
/// Each program runs for a quantum measured in *instructions* (memory
/// accesses plus their gaps), then the next program runs. Addresses of each
/// program are shifted by a per-program offset so the physical ranges do not
/// overlap, exactly as the paper does. The identity of the running program is
/// reported alongside each access so experiments can attribute misses.
pub struct MultiProgram {
    programs: Vec<Program>,
    current: usize,
    /// Instructions left in the current quantum.
    remaining: u64,
}

struct Program {
    source: BoxedSource,
    quantum: u64,
    shift: u64,
    done: bool,
}

impl std::fmt::Debug for MultiProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiProgram")
            .field("programs", &self.programs.len())
            .field("current", &self.current)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl MultiProgram {
    /// Creates a multi-programmed interleaving.
    ///
    /// Each tuple is `(source, quantum_instructions, address_shift)`. The
    /// paper uses 60 M-instruction quanta for integer codes and 120 M for
    /// floating point (4 GHz, assumed IPC 1.5/3.0); scaled-down quanta
    /// preserve the structure.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or any quantum is zero.
    pub fn new(programs: Vec<(BoxedSource, u64, u64)>) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        assert!(programs.iter().all(|(_, q, _)| *q > 0), "quanta must be non-zero");
        let programs: Vec<Program> = programs
            .into_iter()
            .map(|(source, quantum, shift)| Program { source, quantum, shift, done: false })
            .collect();
        let first_quantum = programs[0].quantum;
        MultiProgram { programs, current: 0, remaining: first_quantum }
    }

    /// Produces the next access along with the index of the program that
    /// issued it.
    pub fn next_tagged(&mut self) -> Option<(usize, MemoryAccess)> {
        let n = self.programs.len();
        for _ in 0..=n {
            if self.remaining == 0 || self.programs[self.current].done {
                self.switch();
                if self.programs.iter().all(|p| p.done) {
                    return None;
                }
                continue;
            }
            let idx = self.current;
            let prog = &mut self.programs[idx];
            match prog.source.next_access() {
                Some(mut a) => {
                    let cost = a.instructions();
                    self.remaining = self.remaining.saturating_sub(cost);
                    a.addr = a.addr.offset_by(prog.shift);
                    return Some((idx, a));
                }
                None => {
                    prog.done = true;
                }
            }
        }
        None
    }

    fn switch(&mut self) {
        let n = self.programs.len();
        for _ in 0..n {
            self.current = (self.current + 1) % n;
            if !self.programs[self.current].done {
                self.remaining = self.programs[self.current].quantum;
                return;
            }
        }
    }
}

impl TraceSource for MultiProgram {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        self.next_tagged().map(|(_, a)| a)
    }

    fn checkpoint(&self) -> Option<SourceState> {
        let mut programs = Vec::with_capacity(self.programs.len());
        for p in &self.programs {
            programs.push(p.source.checkpoint()?);
        }
        Some(SourceState::MultiProgram {
            current: self.current as u64,
            remaining: self.remaining,
            done: self.programs.iter().map(|p| p.done).collect(),
            programs,
        })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::MultiProgram { current, remaining, done, programs } = state else {
            return Err(RestoreError::mismatch("multi-program", state));
        };
        if programs.len() != self.programs.len() || done.len() != self.programs.len() {
            return Err(RestoreError::invalid(format!(
                "multi-program state has {} programs, interleaver has {}",
                programs.len(),
                self.programs.len()
            )));
        }
        if *current >= self.programs.len() as u64 {
            return Err(RestoreError::invalid(format!("program index {current} out of range")));
        }
        restore_all(self.programs.iter_mut().map(|p| &mut p.source).collect(), programs)?;
        for (p, &flag) in self.programs.iter_mut().zip(done) {
            p.done = flag;
        }
        self.current = *current as usize;
        self.remaining = *remaining;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Addr, Pc};
    use crate::source::Replay;

    fn looping(pc: u64) -> BoxedSource {
        Box::new(Replay::cycle(vec![MemoryAccess::load(Pc(pc), Addr(0x100))]))
    }

    #[test]
    fn quanta_alternate_programs() {
        let mut m = MultiProgram::new(vec![(looping(1), 2, 0), (looping(2), 3, 0)]);
        let pcs: Vec<u64> = (0..10).map(|_| m.next_access().unwrap().pc.0).collect();
        assert_eq!(pcs, vec![1, 1, 2, 2, 2, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn shift_separates_address_spaces() {
        let mut m = MultiProgram::new(vec![(looping(1), 1, 0), (looping(2), 1, 0x1_0000_0000)]);
        let a = m.next_access().unwrap();
        let b = m.next_access().unwrap();
        assert_eq!(a.addr, Addr(0x100));
        assert_eq!(b.addr, Addr(0x1_0000_0100));
    }

    #[test]
    fn tagged_output_identifies_program() {
        let mut m = MultiProgram::new(vec![(looping(1), 2, 0), (looping(2), 2, 0)]);
        let tags: Vec<usize> = (0..8).map(|_| m.next_tagged().unwrap().0).collect();
        assert_eq!(tags, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn gap_counts_against_quantum() {
        // Each access represents 5 instructions (gap 4 + itself); a quantum
        // of 10 instructions admits two accesses per turn.
        let acc = MemoryAccess::load(Pc(1), Addr(0)).with_gap(4);
        let p0: BoxedSource = Box::new(Replay::cycle(vec![acc]));
        let p1: BoxedSource =
            Box::new(Replay::cycle(vec![MemoryAccess::load(Pc(2), Addr(64)).with_gap(4)]));
        let mut m = MultiProgram::new(vec![(p0, 10, 0), (p1, 10, 0)]);
        let pcs: Vec<u64> = (0..8).map(|_| m.next_access().unwrap().pc.0).collect();
        assert_eq!(pcs, vec![1, 1, 2, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn finite_programs_drain() {
        let p0: BoxedSource = Box::new(Replay::once(vec![
            MemoryAccess::load(Pc(1), Addr(0)),
            MemoryAccess::load(Pc(1), Addr(64)),
        ]));
        let p1: BoxedSource = Box::new(Replay::once(vec![MemoryAccess::load(Pc(2), Addr(0))]));
        let mut m = MultiProgram::new(vec![(p0, 1, 0), (p1, 1, 0)]);
        let mut pcs = Vec::new();
        while let Some(a) = m.next_access() {
            pcs.push(a.pc.0);
        }
        assert_eq!(pcs, vec![1, 2, 1]);
    }

    #[test]
    fn failed_restore_leaves_the_interleaving_unchanged() {
        let build = || MultiProgram::new(vec![(looping(1), 2, 0), (looping(2), 3, 0)]);
        let mut multi = build();
        let mut reference = build();
        multi.collect_accesses(3);
        reference.collect_accesses(3);
        // The first program's state fits; the second's position does not.
        let bad = SourceState::MultiProgram {
            current: 0,
            remaining: 1,
            done: vec![false, false],
            programs: vec![SourceState::Replay { pos: 0 }, SourceState::Replay { pos: 9 }],
        };
        assert!(multi.restore(&bad).is_err());
        assert_eq!(multi.checkpoint(), reference.checkpoint());
        assert_eq!(multi.collect_accesses(10), reference.collect_accesses(10));
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn rejects_empty() {
        let _ = MultiProgram::new(vec![]);
    }
}
