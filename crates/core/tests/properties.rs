//! Property-based invariants of the LT-cords streaming machinery.

use ltc_lasttouch::{Signature, SignatureRecord};
use ltc_trace::Addr;
use ltcords::storage::SigPtr;
use ltcords::{SequenceStorage, SignatureCache};
use proptest::prelude::*;

fn rec(sig: u32) -> SignatureRecord {
    SignatureRecord::new(Signature(sig), Addr(u64::from(sig) * 64))
}

proptest! {
    /// Streaming returns exactly what was appended, in order, for any
    /// append sequence that fits one fragment.
    #[test]
    fn storage_round_trips_in_order(sigs in prop::collection::vec(any::<u32>(), 1..64)) {
        let mut s = SequenceStorage::new(1, 1024, 8);
        let ptrs: Vec<SigPtr> = sigs.iter().map(|&v| s.append(rec(v))).collect();
        // Everything lands in frame 0 (one frame), offsets 0..n.
        for (i, p) in ptrs.iter().enumerate() {
            prop_assert_eq!(p.offset as usize, i);
        }
        let read: Vec<_> = s.stream(0, 0, sigs.len() as u32).collect();
        prop_assert_eq!(read.len(), sigs.len());
        for (i, (ptr, r)) in read.iter().enumerate() {
            prop_assert_eq!(ptr.offset as usize, i);
            prop_assert_eq!(r.signature, Signature(sigs[i]));
        }
    }

    /// Appended counts and byte accounting are exact regardless of frame
    /// collisions.
    #[test]
    fn storage_accounting_is_exact(
        sigs in prop::collection::vec(any::<u32>(), 0..300),
        frag_exp in 1u32..6,
    ) {
        let mut s = SequenceStorage::new(8, 1usize << frag_exp, 4);
        for &v in &sigs {
            s.append(rec(v));
        }
        prop_assert_eq!(s.appended(), sigs.len() as u64);
        prop_assert_eq!(s.write_bytes(), sigs.len() as u64 * 5);
    }

    /// The signature cache never exceeds its capacity and never loses the
    /// most recently inserted signature.
    #[test]
    fn sigcache_respects_capacity(sigs in prop::collection::vec(any::<u32>(), 1..500)) {
        let mut c = SignatureCache::new(64, 2);
        for (i, &v) in sigs.iter().enumerate() {
            c.insert(rec(v), SigPtr { frame: 0, offset: i as u32 });
            prop_assert!(c.len() <= 64);
            prop_assert!(
                c.lookup(Signature(v)).is_some(),
                "just-inserted signature must be resident"
            );
        }
    }

    /// Confidence write-back through a pointer reaches exactly the written
    /// record and no other.
    #[test]
    fn confidence_updates_are_pointwise(
        n in 2usize..64,
        target in 0usize..64,
        correct in any::<bool>(),
    ) {
        let target = target % n;
        let mut s = SequenceStorage::new(1, 1024, 8);
        let ptrs: Vec<SigPtr> = (0..n as u32).map(|i| s.append(rec(i))).collect();
        s.update_confidence(ptrs[target], correct);
        for (i, p) in ptrs.iter().enumerate() {
            let conf = s.confidence_at(*p).expect("record exists");
            if i == target {
                prop_assert_eq!(conf.value(), if correct { 3 } else { 1 });
            } else {
                prop_assert_eq!(conf.value(), 2, "untouched record {} changed", i);
            }
        }
    }

    /// `is_head` holds exactly for registered heads of non-empty fragments.
    #[test]
    fn heads_identify_their_fragments(count in 1usize..200) {
        let frag = 16;
        let lookahead = 4;
        let mut s = SequenceStorage::new(64, frag, lookahead);
        let mut appended = Vec::new();
        for i in 0..count as u32 {
            s.append(rec(i));
            appended.push(Signature(i));
        }
        // The head of fragment k (starting at index k*frag) is the signature
        // `lookahead` before it (clamped to the first signature).
        let fragments = count.div_ceil(frag);
        for k in 0..fragments {
            let start = k * frag;
            let head = if start >= lookahead { appended[start - lookahead] } else { appended[0] };
            // A collision may have overwritten the frame since; only assert
            // when the frame still claims this head.
            let frame = s.frame_of(head);
            if s.head_of(frame) == Some(head) {
                prop_assert!(s.is_head(head));
            }
        }
    }
}
