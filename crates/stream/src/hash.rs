//! The sketches' bucket hash, and the integer hasher of the hot maps.
//!
//! The crate-private `index` and `spread` are Dietzfelbinger
//! multiply-shift: one widening multiply by an odd seed, keeping the
//! well-mixed high bits. Every sketch state records `HASH_CODE` 2, and
//! `from_state` refuses any other code, so a snapshot only revives under
//! the bucketing that built it. Changing the family changes simulation
//! results: a future change edits `index`/`spread` and bumps both
//! `HASH_CODE` and `MODEL_VERSION`.
//!
//! [`FoldHasher`] is the other hasher here: the `std` [`Hasher`] behind
//! the workspace's hot integer-keyed maps ([`FoldMap`]). No result
//! depends on its values — the maps it backs are only probed, or sorted
//! before they are written out — so it can change without touching any
//! output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Wire code of the bucket hash family, stored in every sketch state.
/// Code 1 was the SplitMix64 family retired at `MODEL_VERSION` 4.
pub(crate) const HASH_CODE: u64 = 2;

/// Bucket index in `[0, mask]` (mask = power-of-two size − 1).
#[inline]
pub(crate) fn index(key: u64, seed: u64, mask: usize) -> usize {
    // High bits carry the quality in multiply-shift; shift them down
    // before masking.
    (spread(key, seed) >> 32) as usize & mask
}

/// Full-width hashed value for range reduction (`(h * n) >> 64`), which
/// weights high bits — exactly where multiply-shift concentrates its
/// mixing.
#[inline]
pub(crate) fn spread(key: u64, seed: u64) -> u64 {
    (seed | 1).wrapping_mul(key)
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
    fn families_spread_buckets() {
        // Every stored sketch state carries code 2: changing it orphans
        // them, so it moves only with `index`/`spread` and MODEL_VERSION.
        assert_eq!(HASH_CODE, 2);
        // The family must scatter a consecutive key range across a small
        // table instead of collapsing to a few buckets.
        let mut seen = std::collections::HashSet::new();
        for key in 0..256u64 {
            seen.insert(index(key, 0x1234_5678_9abc_def0, 63));
        }
        assert!(seen.len() > 48, "hit only {} of 64 buckets", seen.len());
    }
}
