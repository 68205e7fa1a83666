//! Cycling through several sub-generators in short phases.

use crate::checkpoint::{RestoreError, SourceState};
use crate::record::MemoryAccess;
use crate::source::{restore_all, BoxedSource, TraceSource};

/// Cycles through sub-generators, emitting a fixed number of accesses from
/// each before moving to the next, forever.
///
/// This reproduces the many-short-phases structure of gcc, whose working set
/// and access pattern change every few million instructions (the paper cites
/// SimPoint-style phase behaviour in Section 2.1). Each phase's own pattern
/// recurs when the mixer wraps around, so phase-local sequences are
/// learnable, separated by phase transitions.
pub struct PhaseMix {
    phases: Vec<(BoxedSource, u64)>,
    current: usize,
    emitted: u64,
}

impl std::fmt::Debug for PhaseMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseMix")
            .field("phases", &self.phases.len())
            .field("current", &self.current)
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl PhaseMix {
    /// Creates a phase mixer from `(source, accesses_per_phase)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase length is zero.
    pub fn new(phases: Vec<(BoxedSource, u64)>) -> Self {
        assert!(!phases.is_empty(), "phase mix requires at least one phase");
        assert!(phases.iter().all(|(_, n)| *n > 0), "phase lengths must be non-zero");
        PhaseMix { phases, current: 0, emitted: 0 }
    }

    /// Number of configured phases.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }
}

impl TraceSource for PhaseMix {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        // Up to n+1 attempts: the current phase may need to be rolled over
        // first, then each other phase gets one chance to produce a record.
        let n = self.phases.len();
        for _ in 0..=n {
            let (src, len) = &mut self.phases[self.current];
            if self.emitted < *len {
                if let Some(a) = src.next_access() {
                    self.emitted += 1;
                    return Some(a);
                }
                // Exhausted source: fall through to the next phase.
            }
            self.current = (self.current + 1) % n;
            self.emitted = 0;
        }
        None
    }

    fn checkpoint(&self) -> Option<SourceState> {
        let mut phases = Vec::with_capacity(self.phases.len());
        for (src, _) in &self.phases {
            phases.push(src.checkpoint()?);
        }
        Some(SourceState::Phase { current: self.current as u64, emitted: self.emitted, phases })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::Phase { current, emitted, phases } = state else {
            return Err(RestoreError::mismatch("phase", state));
        };
        if phases.len() != self.phases.len() {
            return Err(RestoreError::invalid(format!(
                "phase state has {} phases, mixer has {}",
                phases.len(),
                self.phases.len()
            )));
        }
        if *current >= self.phases.len() as u64 {
            return Err(RestoreError::invalid(format!("phase index {current} out of range")));
        }
        restore_all(self.phases.iter_mut().map(|(src, _)| src).collect(), phases)?;
        self.current = *current as usize;
        self.emitted = *emitted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Addr, MemoryAccess, Pc};
    use crate::source::Replay;

    fn looping(pc: u64) -> BoxedSource {
        Box::new(Replay::cycle(vec![MemoryAccess::load(Pc(pc), Addr(pc * 64))]))
    }

    #[test]
    fn phases_alternate_at_boundaries() {
        let mut m = PhaseMix::new(vec![(looping(1), 2), (looping(2), 3)]);
        let pcs: Vec<u64> = m.collect_accesses(10).iter().map(|a| a.pc.0).collect();
        assert_eq!(pcs, vec![1, 1, 2, 2, 2, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn single_phase_behaves_like_inner() {
        let mut m = PhaseMix::new(vec![(looping(7), 5)]);
        assert!(m.collect_accesses(12).iter().all(|a| a.pc.0 == 7));
    }

    #[test]
    fn finite_inner_source_skips_to_next_phase() {
        let finite: BoxedSource = Box::new(Replay::once(vec![MemoryAccess::load(Pc(9), Addr(0))]));
        let mut m = PhaseMix::new(vec![(finite, 100), (looping(3), 2)]);
        let pcs: Vec<u64> = m.collect_accesses(4).iter().map(|a| a.pc.0).collect();
        assert_eq!(pcs, vec![9, 3, 3, 3]);
    }

    #[test]
    fn failed_restore_leaves_the_mixer_unchanged() {
        let build = || PhaseMix::new(vec![(looping(1), 2), (looping(2), 3)]);
        let mut mixer = build();
        let mut reference = build();
        mixer.collect_accesses(3);
        reference.collect_accesses(3);
        // The first phase's state fits; the second's position does not.
        let bad = SourceState::Phase {
            current: 0,
            emitted: 0,
            phases: vec![SourceState::Replay { pos: 0 }, SourceState::Replay { pos: 9 }],
        };
        assert!(mixer.restore(&bad).is_err());
        assert_eq!(mixer.checkpoint(), reference.checkpoint());
        assert_eq!(mixer.collect_accesses(10), reference.collect_accesses(10));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn rejects_empty() {
        let _ = PhaseMix::new(vec![]);
    }
}
