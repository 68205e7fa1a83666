//! Summary merging: the same-shape precondition and the one combine.
//!
//! Two summaries can only be combined when they were built identically:
//! a Space-Saving summary merges with one of the same capacity, a
//! Count-Min sketch with one of the same geometry and row seeds, a CHH
//! summary with one of the same budget/associativity/seed. Every summary
//! describes its own construction as a [`SketchShape`]; `merge` begins by
//! comparing shapes and returns a typed [`MergeError`] — never a panic —
//! when they disagree, because mismatches cross process boundaries (a
//! worker answering a segmented run) where a panic would be a protocol
//! failure rather than a diagnosable error.
//!
//! Past that check, every counter merge in the crate is one function,
//! `combine`: the parallel Space-Saving combine of Cafaro et al. It
//! merges [`crate::SpaceSaving`]'s keys, each set of a
//! [`crate::ChhSummary`]'s keys, and the value lists of a key monitored on
//! both sides. (Count-Min grids add cell by cell instead, exactly.)

use std::cmp::Reverse;
use std::fmt;

/// One counter as [`combine`] sees it: `(item, count, overestimate,
/// rider)`, where the rider is whatever travels with the item (a CHH
/// key's value list; `()` elsewhere).
pub(crate) type Entry<R> = (u64, u64, u64, R);

/// The parallel Space-Saving combine (Cafaro et al.) of two same-shape
/// counter lists, each of at most `capacity` distinct items.
///
/// An item on both sides sums its counts and overestimates, and `join`
/// merges its riders. An item on one side only may have been displaced
/// from the other, so it adds the other side's absent bound — that
/// side's minimum count when it holds `capacity` items, zero otherwise —
/// to its count and overestimate, and `lift` raises its rider by the same
/// bound. The `capacity` highest counts survive, highest first, ties
/// broken by item, so the result does not depend on either list's order
/// and the merge is commutative.
pub(crate) fn combine<R>(
    mut mine: Vec<Entry<R>>,
    mut theirs: Vec<Entry<R>>,
    capacity: usize,
    mut join: impl FnMut(R, R) -> R,
    mut lift: impl FnMut(R, u64) -> R,
) -> Vec<Entry<R>> {
    let absent = |side: &[Entry<R>]| {
        side.iter().map(|e| e.1).min().filter(|_| side.len() == capacity).unwrap_or(0)
    };
    let (m_mine, m_theirs) = (absent(&mine), absent(&theirs));
    mine.sort_unstable_by_key(|e| e.0);
    theirs.sort_unstable_by_key(|e| e.0);
    let mut merged = Vec::with_capacity(mine.len() + theirs.len());
    let (mut mine, mut theirs) = (mine.into_iter().peekable(), theirs.into_iter().peekable());
    loop {
        // The lower item next, from both lists when both hold it.
        let (a, b) = match (mine.peek().map(|e| e.0), theirs.peek().map(|e| e.0)) {
            (Some(x), Some(y)) if x == y => (mine.next(), theirs.next()),
            (Some(x), y) if y.map_or(true, |y| x < y) => (mine.next(), None),
            _ => (None, theirs.next()),
        };
        merged.push(match (a, b) {
            (Some((item, c, o, r)), Some((_, c2, o2, r2))) => (item, c + c2, o + o2, join(r, r2)),
            (Some((item, c, o, r)), None) => (item, c + m_theirs, o + m_theirs, lift(r, m_theirs)),
            (None, Some((item, c, o, r))) => (item, c + m_mine, o + m_mine, lift(r, m_mine)),
            (None, None) => break,
        });
    }
    // Highest count first, ties broken by item; only the `capacity`
    // survivors are sorted.
    let rank = |e: &Entry<R>| (Reverse(e.1), e.0);
    if merged.len() > capacity {
        merged.select_nth_unstable_by_key(capacity, rank);
        merged.truncate(capacity);
    }
    merged.sort_unstable_by_key(rank);
    merged
}

/// The construction parameters of a summary, as comparable `(name,
/// value)` pairs. Two summaries merge iff their shapes are equal.
///
/// # Example
///
/// ```
/// use ltc_stream::SpaceSaving;
///
/// let a = SpaceSaving::new(8);
/// let b = SpaceSaving::new(9);
/// assert_ne!(a.shape(), b.shape());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchShape {
    /// Which summary kind this shape describes (`"space-saving"`, ...).
    pub summary: &'static str,
    /// Construction parameters in declaration order.
    pub params: Vec<(&'static str, u64)>,
}

impl SketchShape {
    /// A shape for `summary` with the given parameters.
    pub fn new(summary: &'static str, params: Vec<(&'static str, u64)>) -> Self {
        SketchShape { summary, params }
    }

    /// `Ok` iff `other` is the same shape; otherwise the first differing
    /// parameter as a [`MergeError`].
    pub fn ensure_matches(&self, other: &SketchShape) -> Result<(), MergeError> {
        if self.summary != other.summary {
            return Err(MergeError::Shape {
                summary: self.summary,
                field: "summary kind",
                left: 0,
                right: 1,
            });
        }
        for ((name, left), (_, right)) in self.params.iter().zip(&other.params) {
            if left != right {
                return Err(MergeError::Shape {
                    summary: self.summary,
                    field: name,
                    left: *left,
                    right: *right,
                });
            }
        }
        Ok(())
    }
}

/// Why two summaries could not be combined.
///
/// Returned (never panicked) by every `merge` and `from_state` in this
/// crate, and forwarded as a typed error through the analysis reduce step
/// and the engine's segmented scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The summaries were built with different parameters.
    Shape {
        /// Which summary kind refused the merge.
        summary: &'static str,
        /// The first differing construction parameter.
        field: &'static str,
        /// The left-hand (receiver) value.
        left: u64,
        /// The right-hand (argument) value.
        right: u64,
    },
    /// A serialized summary state was internally inconsistent.
    State {
        /// Which summary kind rejected the state.
        summary: &'static str,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Shape { summary, field, left, right } => write!(
                f,
                "cannot merge {summary} summaries of different shape: {field} {left} vs {right}"
            ),
            MergeError::State { summary, reason } => {
                write!(f, "invalid {summary} summary state: {reason}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shapes_match() {
        let a = SketchShape::new("count-min", vec![("width", 64), ("depth", 4)]);
        assert_eq!(a.ensure_matches(&a.clone()), Ok(()));
    }

    #[test]
    fn differing_param_names_the_field() {
        let a = SketchShape::new("count-min", vec![("width", 64), ("depth", 4)]);
        let b = SketchShape::new("count-min", vec![("width", 64), ("depth", 2)]);
        let err = a.ensure_matches(&b).unwrap_err();
        assert_eq!(
            err,
            MergeError::Shape { summary: "count-min", field: "depth", left: 4, right: 2 }
        );
        assert!(err.to_string().contains("depth 4 vs 2"), "{err}");
    }

    #[test]
    fn differing_kind_is_an_error() {
        let a = SketchShape::new("count-min", vec![]);
        let b = SketchShape::new("space-saving", vec![]);
        assert!(a.ensure_matches(&b).is_err());
    }
}
