//! The [`TraceSource`] abstraction and the recorded-trace [`Replay`].

use crate::checkpoint::{RestoreError, SourceState};
use crate::record::MemoryAccess;

/// A producer of committed memory references.
///
/// All simulators in this workspace (coverage, analysis and timing) consume
/// traces through this interface, so a workload can be a synthetic generator,
/// a recorded buffer being replayed, or an interleaving of several programs.
///
/// Most sources in this crate are *unbounded*: they loop over their data set
/// forever, the way the paper's benchmarks iterate an outer loop over a
/// static data structure; callers bound a run by its access budget.
pub trait TraceSource {
    /// Produces the next reference, or `None` when the source is exhausted.
    fn next_access(&mut self) -> Option<MemoryAccess>;

    /// Collects up to `n` references into a vector (for replay or analysis).
    fn collect_accesses(&mut self, n: usize) -> Vec<MemoryAccess> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            match self.next_access() {
                Some(a) => v.push(a),
                None => break,
            }
        }
        v
    }

    /// Snapshots the source's mid-stream state for later
    /// [`restore`](TraceSource::restore), or `None` when the source does
    /// not support checkpointing (the default). Restoring the returned
    /// state onto a freshly built source of the same configuration
    /// resumes the stream element-identically.
    fn checkpoint(&self) -> Option<SourceState> {
        None
    }

    /// Restores a [`checkpoint`](TraceSource::checkpoint) previously
    /// taken from an identically configured source.
    ///
    /// # Errors
    ///
    /// Fails on sources that do not checkpoint (the default), on a state
    /// from a different kind of source, or on values that do not fit
    /// this source's configuration. On error the source is unchanged:
    /// leaf generators validate before they write, and composite sources
    /// roll back the sub-sources they had already restored.
    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let _ = state;
        Err(RestoreError::Unsupported)
    }
}

/// Boxed trait object form used by the suite and experiment runner.
pub type BoxedSource = Box<dyn TraceSource + Send>;

/// Restores each of a composite's `sources` from the matching entry of
/// `states`, all or nothing: when one sub-restore fails, the sources
/// restored before it are rolled back to their prior state, so the
/// composite is left unchanged on error.
pub(crate) fn restore_all(
    mut sources: Vec<&mut BoxedSource>,
    states: &[SourceState],
) -> Result<(), RestoreError> {
    let prior: Vec<SourceState> = sources
        .iter()
        .map(|source| source.checkpoint())
        .collect::<Option<_>>()
        .ok_or(RestoreError::Unsupported)?;
    for i in 0..sources.len() {
        if let Err(e) = sources[i].restore(&states[i]) {
            for (source, state) in sources[..i].iter_mut().zip(&prior) {
                source.restore(state).expect("a source accepts its own checkpoint");
            }
            return Err(e);
        }
    }
    Ok(())
}

impl TraceSource for BoxedSource {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        (**self).next_access()
    }

    fn checkpoint(&self) -> Option<SourceState> {
        (**self).checkpoint()
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        (**self).restore(state)
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        (**self).next_access()
    }

    fn checkpoint(&self) -> Option<SourceState> {
        (**self).checkpoint()
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        (**self).restore(state)
    }
}

/// Replays a recorded vector of accesses, optionally in a loop.
///
/// # Example
///
/// ```
/// use ltc_trace::{Replay, TraceSource, MemoryAccess, Pc, Addr};
///
/// let trace = vec![MemoryAccess::load(Pc(1), Addr(64))];
/// let mut replay = Replay::cycle(trace);
/// assert!(replay.next_access().is_some());
/// assert!(replay.next_access().is_some()); // loops forever
/// ```
#[derive(Debug, Clone)]
pub struct Replay {
    accesses: Vec<MemoryAccess>,
    pos: usize,
    looping: bool,
}

impl Replay {
    /// Replays `accesses` once, then ends.
    pub fn once(accesses: Vec<MemoryAccess>) -> Self {
        Replay { accesses, pos: 0, looping: false }
    }

    /// Replays `accesses` in an endless loop.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is empty (an empty loop could never produce a
    /// reference and would spin forever in callers).
    pub fn cycle(accesses: Vec<MemoryAccess>) -> Self {
        assert!(!accesses.is_empty(), "cannot cycle an empty trace");
        Replay { accesses, pos: 0, looping: true }
    }

    /// Number of distinct recorded references.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

impl TraceSource for Replay {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        if self.pos >= self.accesses.len() {
            if !self.looping {
                return None;
            }
            self.pos = 0;
        }
        let a = self.accesses[self.pos];
        self.pos += 1;
        Some(a)
    }

    fn checkpoint(&self) -> Option<SourceState> {
        Some(SourceState::Replay { pos: self.pos as u64 })
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        let SourceState::Replay { pos } = state else {
            return Err(RestoreError::mismatch("replay", state));
        };
        if *pos > self.accesses.len() as u64 {
            return Err(RestoreError::invalid(format!(
                "replay position {pos} exceeds the {}-access recording",
                self.accesses.len()
            )));
        }
        self.pos = *pos as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Addr, Pc};

    fn acc(n: u64) -> MemoryAccess {
        MemoryAccess::load(Pc(n), Addr(n * 64))
    }

    #[test]
    fn replay_once_ends() {
        let mut r = Replay::once(vec![acc(1), acc(2)]);
        assert_eq!(r.next_access().unwrap().pc, Pc(1));
        assert_eq!(r.next_access().unwrap().pc, Pc(2));
        assert!(r.next_access().is_none());
        assert!(r.next_access().is_none());
    }

    #[test]
    fn replay_cycle_wraps() {
        let mut r = Replay::cycle(vec![acc(1), acc(2)]);
        let pcs: Vec<u64> = (0..5).map(|_| r.next_access().unwrap().pc.0).collect();
        assert_eq!(pcs, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn replay_cycle_rejects_empty() {
        let _ = Replay::cycle(vec![]);
    }

    #[test]
    fn collect_stops_at_end() {
        let mut r = Replay::once(vec![acc(1), acc(2)]);
        assert_eq!(r.collect_accesses(10).len(), 2);
    }

    #[test]
    fn boxed_source_dispatches() {
        let mut b: BoxedSource = Box::new(Replay::once(vec![acc(9)]));
        assert_eq!(b.next_access().unwrap().pc, Pc(9));
        assert!(b.next_access().is_none());
    }
}
