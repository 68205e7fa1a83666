//! Snapshot/restore checkpointing for trace sources.
//!
//! A generator's state at access `s` used to be reachable only by
//! producing the first `s` accesses. [`SourceState`] captures the
//! *mutable* part of a generator mid-stream (cursors, pass counters,
//! RNG words — never the construction-time derived tables, which a
//! fresh same-config generator rebuilds); restoring it onto such a
//! fresh generator resumes the stream element-identically. The state is
//! serializable (like the sketch `*State` types), so checkpoints cross
//! process boundaries on the worker protocol or a shared directory.
//!
//! A [`CheckpointStore`] holds positioned snapshots of one stream. The
//! engine records one per trace at the slice starts of a segmented run
//! (`ltc_sim::engine::checkpoints`), and each segment worker restores
//! the snapshot at its own start instead of regenerating the prefix.
//!
//! Checkpoints are an accelerator, never a semantic change: a restored
//! stream is byte-identical to an uninterrupted one (property-tested per
//! generator in `crates/trace/tests/checkpoint_parity.rs`), so analyses
//! produce the same reports whether or not checkpoints were available.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::packed;

/// The serializable mid-stream state of a trace source.
///
/// Each variant holds only what the matching generator mutates while
/// streaming; construction-time derived data (placements, visit orders,
/// static index tables) is rebuilt by constructing a fresh generator
/// from the same configuration before calling
/// [`TraceSource::restore`](crate::TraceSource::restore). Mutable
/// derived data (a chase order under mutation, an indirect index array
/// under churn) is carried only when the configuration can actually
/// have perturbed it, keeping common checkpoints a few dozen bytes; when
/// it is carried, it serializes as one [`packed`] string rather than a
/// decimal array.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceState {
    /// [`crate::gen::SweepGen`] state.
    Sweep {
        /// Per-array cursors (bytes within each array).
        cursors: Vec<u64>,
        /// Round-robin turn.
        turn: u64,
        /// Pass counter (selects the stride).
        pass: u64,
        /// Accesses emitted.
        access_no: u64,
        /// Gap-jitter RNG words.
        rng: [u64; 4],
    },
    /// [`crate::gen::ChaseGen`] state.
    Chase {
        /// Traversal order — present only when `mutation_rate > 0`
        /// (otherwise the constructed order is still exact).
        order: Option<Vec<u32>>,
        /// Position in the traversal order.
        pos: u64,
        /// Position in the hot-subset order.
        hot_pos: u64,
        /// Field accesses left for the current node.
        fields_left: u32,
        /// Node the field accesses belong to.
        current_node: u32,
        /// Hot/cold interleave counter.
        visit_no: u64,
        /// RNG words.
        rng: [u64; 4],
    },
    /// [`crate::gen::TreeGen`] state.
    Tree {
        /// Position in the static visit order.
        pos: u64,
        /// Field accesses left for the current node.
        fields_left: u32,
        /// Node the field accesses belong to.
        current: u32,
        /// RNG words.
        rng: [u64; 4],
    },
    /// [`crate::gen::RandomGen`] state.
    Random {
        /// Lines left in the current sequential run.
        run_left: u32,
        /// Touches left on the current line.
        touches_left: u32,
        /// Current line cursor.
        cursor: u64,
        /// RNG words.
        rng: [u64; 4],
    },
    /// [`crate::gen::HashWindowGen`] state.
    HashWindow {
        /// Byte cursor within the sliding window.
        window_cursor: u64,
        /// Window accesses since the last table probe.
        since_probe: u32,
        /// RNG words.
        rng: [u64; 4],
    },
    /// [`crate::gen::IndirectGen`] state.
    Indirect {
        /// Index array — present only when `churn > 0` (otherwise the
        /// constructed array is still exact).
        idx: Option<Vec<u32>>,
        /// Position in the index array.
        pos: u64,
        /// Gather stage (0 index load, 1 data load, 2 store).
        stage: u8,
        /// RNG words.
        rng: [u64; 4],
    },
    /// [`crate::gen::PhaseMix`] state (recursive over the phases).
    Phase {
        /// Active phase.
        current: u64,
        /// Accesses emitted by the active phase.
        emitted: u64,
        /// Sub-source states, in phase order.
        phases: Vec<SourceState>,
    },
    /// [`crate::Replay`] state.
    Replay {
        /// Position in the recorded vector.
        pos: u64,
    },
}

impl SourceState {
    /// The variant name (used in mismatch errors and as the serialized
    /// tag).
    pub fn kind(&self) -> &'static str {
        match self {
            SourceState::Sweep { .. } => "sweep",
            SourceState::Chase { .. } => "chase",
            SourceState::Tree { .. } => "tree",
            SourceState::Random { .. } => "random",
            SourceState::HashWindow { .. } => "hash-window",
            SourceState::Indirect { .. } => "indirect",
            SourceState::Phase { .. } => "phase",
            SourceState::Replay { .. } => "replay",
        }
    }
}

/// Why a [`TraceSource::restore`](crate::TraceSource::restore) call was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The source does not implement checkpointing at all.
    Unsupported,
    /// The state is for a different kind of source.
    Mismatch {
        /// Variant the source expected.
        expected: &'static str,
        /// Variant the state actually holds.
        found: &'static str,
    },
    /// The state's values do not fit the source's configuration.
    Invalid(String),
}

impl RestoreError {
    /// A variant-mismatch error against `state`.
    pub fn mismatch(expected: &'static str, state: &SourceState) -> Self {
        RestoreError::Mismatch { expected, found: state.kind() }
    }

    /// An out-of-range / wrong-shape error.
    pub fn invalid(reason: impl Into<String>) -> Self {
        RestoreError::Invalid(reason.into())
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Unsupported => write!(f, "source does not support checkpoint/restore"),
            RestoreError::Mismatch { expected, found } => {
                write!(f, "state mismatch: source expects `{expected}`, state is `{found}`")
            }
            RestoreError::Invalid(reason) => write!(f, "invalid checkpoint state: {reason}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A bulk vector that travels only sometimes: packed, or `null`.
fn packed_option(values: &Option<Vec<u32>>) -> Value {
    values.as_deref().map_or(Value::Null, packed::to_value)
}

fn packed_option_field(body: &Value, name: &str, ctx: &str) -> Result<Option<Vec<u32>>, DeError> {
    match body.get(name) {
        Some(Value::Null) => Ok(None),
        _ => packed::field(body, name, ctx).map(Some),
    }
}

fn rng_value(words: &[u64; 4]) -> Value {
    Value::Seq(words.iter().map(|&w| Value::U64(w)).collect())
}

fn rng_field(body: &Value, ctx: &str) -> Result<[u64; 4], DeError> {
    let words: Vec<u64> = serde::field(body, "rng", ctx)?;
    <[u64; 4]>::try_from(words).map_err(|_| DeError::expected("4 rng words", ctx))
}

impl Serialize for SourceState {
    fn to_value(&self) -> Value {
        let (tag, body) = match self {
            SourceState::Sweep { cursors, turn, pass, access_no, rng } => (
                "sweep",
                Value::Map(vec![
                    ("cursors".to_string(), cursors.to_value()),
                    ("turn".to_string(), turn.to_value()),
                    ("pass".to_string(), pass.to_value()),
                    ("access_no".to_string(), access_no.to_value()),
                    ("rng".to_string(), rng_value(rng)),
                ]),
            ),
            SourceState::Chase {
                order,
                pos,
                hot_pos,
                fields_left,
                current_node,
                visit_no,
                rng,
            } => (
                "chase",
                Value::Map(vec![
                    ("order".to_string(), packed_option(order)),
                    ("pos".to_string(), pos.to_value()),
                    ("hot_pos".to_string(), hot_pos.to_value()),
                    ("fields_left".to_string(), fields_left.to_value()),
                    ("current_node".to_string(), current_node.to_value()),
                    ("visit_no".to_string(), visit_no.to_value()),
                    ("rng".to_string(), rng_value(rng)),
                ]),
            ),
            SourceState::Tree { pos, fields_left, current, rng } => (
                "tree",
                Value::Map(vec![
                    ("pos".to_string(), pos.to_value()),
                    ("fields_left".to_string(), fields_left.to_value()),
                    ("current".to_string(), current.to_value()),
                    ("rng".to_string(), rng_value(rng)),
                ]),
            ),
            SourceState::Random { run_left, touches_left, cursor, rng } => (
                "random",
                Value::Map(vec![
                    ("run_left".to_string(), run_left.to_value()),
                    ("touches_left".to_string(), touches_left.to_value()),
                    ("cursor".to_string(), cursor.to_value()),
                    ("rng".to_string(), rng_value(rng)),
                ]),
            ),
            SourceState::HashWindow { window_cursor, since_probe, rng } => (
                "hash-window",
                Value::Map(vec![
                    ("window_cursor".to_string(), window_cursor.to_value()),
                    ("since_probe".to_string(), since_probe.to_value()),
                    ("rng".to_string(), rng_value(rng)),
                ]),
            ),
            SourceState::Indirect { idx, pos, stage, rng } => (
                "indirect",
                Value::Map(vec![
                    ("idx".to_string(), packed_option(idx)),
                    ("pos".to_string(), pos.to_value()),
                    ("stage".to_string(), stage.to_value()),
                    ("rng".to_string(), rng_value(rng)),
                ]),
            ),
            SourceState::Phase { current, emitted, phases } => (
                "phase",
                Value::Map(vec![
                    ("current".to_string(), current.to_value()),
                    ("emitted".to_string(), emitted.to_value()),
                    ("phases".to_string(), phases.to_value()),
                ]),
            ),
            SourceState::Replay { pos } => {
                ("replay", Value::Map(vec![("pos".to_string(), pos.to_value())]))
            }
        };
        Value::Map(vec![(tag.to_string(), body)])
    }
}

impl<'de> Deserialize<'de> for SourceState {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries =
            value.as_map().ok_or_else(|| DeError::expected("tagged map", "SourceState"))?;
        let [(tag, body)] = entries else {
            return Err(DeError::expected("single-variant map", "SourceState"));
        };
        match tag.as_str() {
            "sweep" => Ok(SourceState::Sweep {
                cursors: serde::field(body, "cursors", "SourceState::Sweep")?,
                turn: serde::field(body, "turn", "SourceState::Sweep")?,
                pass: serde::field(body, "pass", "SourceState::Sweep")?,
                access_no: serde::field(body, "access_no", "SourceState::Sweep")?,
                rng: rng_field(body, "SourceState::Sweep")?,
            }),
            "chase" => Ok(SourceState::Chase {
                order: packed_option_field(body, "order", "SourceState::Chase")?,
                pos: serde::field(body, "pos", "SourceState::Chase")?,
                hot_pos: serde::field(body, "hot_pos", "SourceState::Chase")?,
                fields_left: serde::field(body, "fields_left", "SourceState::Chase")?,
                current_node: serde::field(body, "current_node", "SourceState::Chase")?,
                visit_no: serde::field(body, "visit_no", "SourceState::Chase")?,
                rng: rng_field(body, "SourceState::Chase")?,
            }),
            "tree" => Ok(SourceState::Tree {
                pos: serde::field(body, "pos", "SourceState::Tree")?,
                fields_left: serde::field(body, "fields_left", "SourceState::Tree")?,
                current: serde::field(body, "current", "SourceState::Tree")?,
                rng: rng_field(body, "SourceState::Tree")?,
            }),
            "random" => Ok(SourceState::Random {
                run_left: serde::field(body, "run_left", "SourceState::Random")?,
                touches_left: serde::field(body, "touches_left", "SourceState::Random")?,
                cursor: serde::field(body, "cursor", "SourceState::Random")?,
                rng: rng_field(body, "SourceState::Random")?,
            }),
            "hash-window" => Ok(SourceState::HashWindow {
                window_cursor: serde::field(body, "window_cursor", "SourceState::HashWindow")?,
                since_probe: serde::field(body, "since_probe", "SourceState::HashWindow")?,
                rng: rng_field(body, "SourceState::HashWindow")?,
            }),
            "indirect" => Ok(SourceState::Indirect {
                idx: packed_option_field(body, "idx", "SourceState::Indirect")?,
                pos: serde::field(body, "pos", "SourceState::Indirect")?,
                stage: serde::field(body, "stage", "SourceState::Indirect")?,
                rng: rng_field(body, "SourceState::Indirect")?,
            }),
            "phase" => Ok(SourceState::Phase {
                current: serde::field(body, "current", "SourceState::Phase")?,
                emitted: serde::field(body, "emitted", "SourceState::Phase")?,
                phases: serde::field(body, "phases", "SourceState::Phase")?,
            }),
            "replay" => {
                Ok(SourceState::Replay { pos: serde::field(body, "pos", "SourceState::Replay")? })
            }
            other => Err(DeError(format!("unknown SourceState variant `{other}`"))),
        }
    }
}

/// A positioned snapshot: restoring `state` onto a fresh same-config
/// source makes the *next* produced access the `pos`-th of the stream
/// (0-based).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Accesses the source had produced when the snapshot was taken.
    pub pos: u64,
    /// The snapshot itself.
    pub state: SourceState,
}

/// An ordered collection of [`Checkpoint`]s for one logical stream.
///
/// Kept sorted by position; [`CheckpointStore::at`] and
/// [`CheckpointStore::nearest_at_or_before`] answer position queries.
/// Serializable, so a store can be computed once
/// and shared across worker processes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointStore {
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointStore {
    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Inserts a checkpoint, replacing any existing one at the same
    /// position.
    pub fn insert(&mut self, checkpoint: Checkpoint) {
        match self.checkpoints.binary_search_by_key(&checkpoint.pos, |c| c.pos) {
            Ok(i) => self.checkpoints[i] = checkpoint,
            Err(i) => self.checkpoints.insert(i, checkpoint),
        }
    }

    /// The checkpoint recorded exactly at `pos`, if any.
    pub fn at(&self, pos: u64) -> Option<&Checkpoint> {
        self.checkpoints.binary_search_by_key(&pos, |c| c.pos).ok().map(|i| &self.checkpoints[i])
    }

    /// The latest checkpoint at or before `pos`.
    pub fn nearest_at_or_before(&self, pos: u64) -> Option<&Checkpoint> {
        match self.checkpoints.binary_search_by_key(&pos, |c| c.pos) {
            Ok(i) => Some(&self.checkpoints[i]),
            Err(0) => None,
            Err(i) => Some(&self.checkpoints[i - 1]),
        }
    }

    /// Iterates the checkpoints in position order.
    pub fn iter(&self) -> impl Iterator<Item = &Checkpoint> {
        self.checkpoints.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Addr, MemoryAccess, Pc};
    use crate::source::{Replay, TraceSource};

    #[test]
    fn store_round_trips_through_serde() {
        // Snapshot a numbered recording every 5 accesses.
        let mut source =
            Replay::once((0..20).map(|i| MemoryAccess::load(Pc(i), Addr(i * 64))).collect());
        let mut store = CheckpointStore::default();
        for pos in 0..20 {
            if pos % 5 == 0 {
                store.insert(Checkpoint { pos, state: source.checkpoint().unwrap() });
            }
            source.next_access();
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.nearest_at_or_before(13).unwrap().pos, 10);
        assert_eq!(store.nearest_at_or_before(4).unwrap().pos, 0);
        assert!(store.at(9).is_none());
        let parsed = CheckpointStore::from_value(&store.to_value()).unwrap();
        assert_eq!(parsed, store);
    }

    #[test]
    fn restore_error_displays_each_variant() {
        let state = SourceState::Replay { pos: 3 };
        assert!(RestoreError::mismatch("sweep", &state).to_string().contains("replay"));
        assert!(RestoreError::invalid("nope").to_string().contains("nope"));
        assert!(!RestoreError::Unsupported.to_string().is_empty());
    }
}
