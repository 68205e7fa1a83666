//! Versioned hash families for sketch bucket selection.
//!
//! Every sketch records which family built it — in its
//! [`crate::SketchShape`] (so merges across families are typed errors)
//! and in its serialized state (so a snapshot revives seed-compatibly,
//! hashing exactly as the summary that produced it). Changing the
//! *default* family changes simulation results and therefore rides a
//! `MODEL_VERSION` bump; old states remain replayable because they pin
//! their own family by code.
//!
//! [`FoldHasher`] is the other hasher here: the `std` [`Hasher`] behind
//! the workspace's hot integer-keyed maps ([`FoldMap`]). No result
//! depends on its values — the maps it backs are only probed, or sorted
//! before they are written out — so it can change without touching any
//! output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::mix64;

/// A hash family, identified by a stable wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashKind {
    /// The SplitMix64 finalizer over `key ^ seed` (family 1, the
    /// original): two multiplies and three xor-shifts per bucket.
    Mix64,
    /// Dietzfelbinger multiply-shift: one widening multiply by an odd
    /// seed, taking the well-mixed high bits. About half the work of
    /// [`HashKind::Mix64`] per bucket; the default since
    /// `MODEL_VERSION` 4.
    #[default]
    MultiplyShift,
}

impl HashKind {
    /// The stable wire code stored in sketch states (1-based so an
    /// all-zero state is visibly invalid rather than silently legacy).
    pub fn code(self) -> u64 {
        match self {
            HashKind::Mix64 => 1,
            HashKind::MultiplyShift => 2,
        }
    }

    /// Revives a family from its wire code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(HashKind::Mix64),
            2 => Some(HashKind::MultiplyShift),
            _ => None,
        }
    }

    /// Human-readable family name (for error messages).
    pub fn name(self) -> &'static str {
        match self {
            HashKind::Mix64 => "mix64",
            HashKind::MultiplyShift => "multiply-shift",
        }
    }

    /// Bucket index in `[0, mask]` (mask = power-of-two size − 1).
    ///
    /// The Mix64 arm masks the finalizer's low bits — bit-identical to
    /// the historical `mix64(key ^ seed) & mask` — so legacy states
    /// estimate exactly as they did when captured.
    #[inline]
    pub(crate) fn index(self, key: u64, seed: u64, mask: usize) -> usize {
        match self {
            HashKind::Mix64 => mix64(key ^ seed) as usize & mask,
            // High bits carry the quality in multiply-shift; shift them
            // down before masking.
            HashKind::MultiplyShift => ((seed | 1).wrapping_mul(key) >> 32) as usize & mask,
        }
    }

    /// Full-width hashed value for range reduction (`(h * n) >> 64`),
    /// which weights high bits — exactly where multiply-shift
    /// concentrates its mixing.
    #[inline]
    pub(crate) fn spread(self, key: u64, seed: u64) -> u64 {
        match self {
            HashKind::Mix64 => mix64(key ^ seed),
            HashKind::MultiplyShift => (seed | 1).wrapping_mul(key),
        }
    }
}

/// The odd multiplier of [`FoldHasher`] (2^64 / φ, the Fibonacci
/// hashing constant).
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast [`Hasher`] for integer keys: each word is xored into the
/// state, multiplied by an odd constant into 128 bits, and the two
/// halves are folded together with an xor.
///
/// The fold matters for line addresses, whose low 6 bits are zero: a
/// plain 64-bit multiply leaves those bits zero, and `HashMap` picks a
/// bucket from the low bits. The high half carries the mixed product
/// down into them, while the low half's high bits, which the map uses as
/// its tag byte, stay the multiply's best-mixed bits. It is not
/// DoS-resistant, and need not be: its keys are the addresses and
/// signatures of a trace the user chose, so a trace crafted to collide
/// slows only its own simulation.
///
/// # Example
///
/// ```
/// use ltc_stream::hash::FoldMap;
///
/// let mut inflight: FoldMap<u64, u32> = FoldMap::default();
/// inflight.insert(0x7f00_0040, 3);
/// assert_eq!(inflight.get(&0x7f00_0040), Some(&3));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(FOLD_MUL);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` hashed by [`FoldHasher`].
pub type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_reject_unknowns() {
        for kind in [HashKind::Mix64, HashKind::MultiplyShift] {
            assert_eq!(HashKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(HashKind::from_code(0), None);
        assert_eq!(HashKind::from_code(3), None);
    }

    #[test]
    fn default_is_multiply_shift() {
        assert_eq!(HashKind::default(), HashKind::MultiplyShift);
    }

    #[test]
    fn mix64_indexing_matches_legacy_formula() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            for seed in [7u64, 0x9e37_79b9_7f4a_7c15] {
                assert_eq!(
                    HashKind::Mix64.index(key, seed, 1023),
                    mix64(key ^ seed) as usize & 1023,
                );
            }
        }
    }

    #[test]
    fn families_spread_buckets() {
        // Both families must scatter a consecutive key range across a
        // small table instead of collapsing to a few buckets.
        for kind in [HashKind::Mix64, HashKind::MultiplyShift] {
            let mut seen = std::collections::HashSet::new();
            for key in 0..256u64 {
                seen.insert(kind.index(key, 0x1234_5678_9abc_def0, 63));
            }
            assert!(seen.len() > 48, "{} hit only {} of 64 buckets", kind.name(), seen.len());
        }
    }
}
