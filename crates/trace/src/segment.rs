//! Splitting one logical trace into contiguous worker segments.
//!
//! Segmented streaming (`ltsim stream --segments N`) fans a single
//! trace's access budget out to parallel workers: worker `i` summarizes
//! only its contiguous slice of the stream and the partial summaries are
//! merged afterwards. A [`TraceSegment`] names one such slice by
//! half-open access range; [`TraceSegment::split`] produces the full
//! partition (even to within one access, covering the budget exactly,
//! in order).
//!
//! Reaching a slice need not cost `O(start)` generator work per worker:
//! every suite source supports the [`checkpoint`] protocol
//! ([`TraceSource::checkpoint`] / [`TraceSource::restore`]), so a worker
//! handed a snapshot recorded at its slice start restores it and
//! generates nothing before the slice. The restored stream is
//! element-identical to the skipped one, so reports do not depend on
//! which path placed the worker. Without a usable snapshot (none
//! recorded at the start, or a state the source refuses) the worker
//! replays the stream from access 0 instead; that skip is
//! generation-only (no simulation). `ltc_analysis`'s stream analysis
//! places the source itself, so it can replay a bounded warm-up window
//! of the prefix through its simulator first — see EXPERIMENTS.md
//! "Segmented streaming" and "Seek & checkpointing" for the
//! approximation and the seek protocol.
//!
//! [`checkpoint`]: crate::checkpoint
//! [`TraceSource::checkpoint`]: crate::TraceSource::checkpoint
//! [`TraceSource::restore`]: crate::TraceSource::restore

/// One contiguous slice of a trace's access budget.
///
/// # Example
///
/// ```
/// use ltc_trace::TraceSegment;
///
/// let segments = TraceSegment::split(10, 4);
/// assert_eq!(segments.len(), 4);
/// assert_eq!(segments[0], TraceSegment { index: 0, segments: 4, start: 0, len: 2 });
/// assert_eq!(segments[3], TraceSegment { index: 3, segments: 4, start: 7, len: 3 });
/// assert_eq!(segments.iter().map(|s| s.len).sum::<u64>(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceSegment {
    /// This segment's position (0-based) in the partition.
    pub index: u32,
    /// Total segments in the partition.
    pub segments: u32,
    /// First access (0-based) of the slice.
    pub start: u64,
    /// Accesses in the slice.
    pub len: u64,
}

impl TraceSegment {
    /// The `index`-th of `segments` even slices of an `accesses` budget.
    ///
    /// Boundaries are `accesses * i / segments`, so slice lengths differ
    /// by at most one and the union covers `[0, accesses)` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero or `index >= segments`.
    pub fn nth(accesses: u64, segments: u32, index: u32) -> Self {
        assert!(segments > 0, "a trace splits into at least one segment");
        assert!(index < segments, "segment {index} out of {segments}");
        let start = accesses * u64::from(index) / u64::from(segments);
        let end = accesses * (u64::from(index) + 1) / u64::from(segments);
        TraceSegment { index, segments, start, len: end - start }
    }

    /// The full partition of an `accesses` budget, in order.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn split(accesses: u64, segments: u32) -> Vec<TraceSegment> {
        assert!(segments > 0, "a trace splits into at least one segment");
        (0..segments).map(|i| TraceSegment::nth(accesses, segments, i)).collect()
    }

    /// Exclusive end of the slice.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_exactly() {
        for (accesses, segments) in [(10u64, 3u32), (7, 7), (1, 1), (100, 8), (5, 8)] {
            let parts = TraceSegment::split(accesses, segments);
            assert_eq!(parts.len(), segments as usize);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end(), accesses);
            for pair in parts.windows(2) {
                assert_eq!(pair[0].end(), pair[1].start, "slices must be contiguous");
            }
            let (min, max) =
                parts.iter().fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s.len), hi.max(s.len)));
            assert!(max - min <= 1, "slice lengths must differ by at most one");
        }
    }

    #[test]
    fn nth_matches_split() {
        for index in 0..5u32 {
            assert_eq!(
                TraceSegment::nth(123, 5, index),
                TraceSegment::split(123, 5)[index as usize]
            );
        }
    }

    #[test]
    fn whole_trace_is_one_segment() {
        let seg = TraceSegment::nth(50, 1, 0);
        assert_eq!(seg, TraceSegment { index: 0, segments: 1, start: 0, len: 50 });
        assert_eq!(TraceSegment::split(50, 1), vec![seg]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_rejected() {
        let _ = TraceSegment::split(10, 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_index_rejected() {
        let _ = TraceSegment::nth(10, 2, 2);
    }
}
