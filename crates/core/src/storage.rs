//! Off-chip sequence storage: frames, fragments and head signatures.

use std::collections::VecDeque;

use ltc_lasttouch::{Confidence, Signature, SignatureRecord};

/// Pointer to a signature's location in off-chip storage (the 25-bit
/// "pointer to itself" of Section 5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigPtr {
    /// Frame index.
    pub frame: u32,
    /// Offset within the fragment.
    pub offset: u32,
}

#[derive(Debug, Clone, Default)]
struct Frame {
    /// Head signature that activates streaming of this fragment.
    head: Option<Signature>,
    /// The stored fragment, in eviction order. Overwrites are progressive
    /// (DRAM is rewritten in place, signature by signature), so entries past
    /// the write position still hold the previous tenant's data. When the
    /// *same* sequence recurs — the common case — that stale tail is
    /// byte-identical to what is being rewritten, which is exactly what lets
    /// a stream run ahead of the re-recording.
    sigs: Vec<SignatureRecord>,
    /// Next write position within the fragment.
    write_pos: usize,
}

/// The off-chip (main-memory) signature sequence store (Section 4.2).
///
/// Signatures are appended strictly in eviction order. The store chops the
/// global sequence into fixed-length *fragments*; each fragment is keyed by
/// a *head signature* — the signature that preceded the fragment's first
/// entry by `head_lookahead` positions — and lives in the frame selected by
/// the head's low-order bits, like a direct-mapped cache (collisions
/// overwrite). Every frame has an (empty) slot from the start, as it has a
/// tag-array entry; a fragment's signatures are allocated on its first
/// append, so very large ("unlimited") configurations cost only what they
/// actually store.
#[derive(Debug)]
pub struct SequenceStorage {
    /// Indexed by frame number.
    frames: Vec<Frame>,
    frame_mask: u32,
    fragment_len: usize,
    head_lookahead: usize,
    /// Ring of recently appended signatures (for head selection).
    recent: VecDeque<Signature>,
    /// Frame currently being appended to.
    current: Option<u32>,
    appended: u64,
    overwrites: u64,
    /// Traffic counters (bytes).
    write_bytes: u64,
    read_bytes: u64,
    confidence_bytes: u64,
}

impl SequenceStorage {
    /// Creates an empty store with `frames` frames of `fragment_len`
    /// signatures, using `head_lookahead` for head selection.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not a power of two or any size is zero.
    pub fn new(frames: usize, fragment_len: usize, head_lookahead: usize) -> Self {
        assert!(frames.is_power_of_two(), "frame count must be a power of two");
        assert!(fragment_len > 0, "fragments must hold signatures");
        assert!(head_lookahead > 0, "head lookahead must be non-zero");
        SequenceStorage {
            frames: vec![Frame::default(); frames],
            frame_mask: (frames - 1) as u32,
            fragment_len,
            head_lookahead,
            recent: VecDeque::with_capacity(head_lookahead + 1),
            current: None,
            appended: 0,
            overwrites: 0,
            write_bytes: 0,
            read_bytes: 0,
            confidence_bytes: 0,
        }
    }

    /// Total signatures appended over the run.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Fragments overwritten by frame collisions.
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }

    /// Bytes written recording sequences (5 per signature, Section 5.4).
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Bytes read streaming sequences on chip.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes spent on confidence write-backs.
    pub fn confidence_bytes(&self) -> u64 {
        self.confidence_bytes
    }

    /// Number of frames holding a fragment.
    pub fn live_frames(&self) -> usize {
        self.frames.iter().filter(|f| !f.sigs.is_empty()).count()
    }

    /// Appends one record in eviction order, returning its location.
    pub fn append(&mut self, record: SignatureRecord) -> SigPtr {
        // Start a new fragment when none is open or the current one is full.
        let need_new = match self.current {
            None => true,
            Some(f) => self.frames[f as usize].write_pos >= self.fragment_len,
        };
        if need_new {
            // The head is the signature appended `head_lookahead` ago; early
            // in the run (or for the very first fragment) fall back to the
            // oldest signature we have, or to the incoming record itself.
            let head = self.recent.front().copied().unwrap_or(record.signature);
            let frame_idx = head.0 & self.frame_mask;
            let frame = &mut self.frames[frame_idx as usize];
            if !frame.sigs.is_empty() {
                self.overwrites += 1;
            }
            frame.head = Some(head);
            frame.write_pos = 0;
            self.current = Some(frame_idx);
        }
        let frame_idx = self.current.expect("fragment was just opened");
        let frame = &mut self.frames[frame_idx as usize];
        let offset = frame.write_pos as u32;
        if frame.write_pos < frame.sigs.len() {
            frame.sigs[frame.write_pos] = record;
        } else {
            frame.sigs.push(record);
        }
        frame.write_pos += 1;
        self.appended += 1;
        self.write_bytes += SignatureRecord::STORAGE_BYTES;
        // Maintain the head-selection ring.
        self.recent.push_back(record.signature);
        if self.recent.len() > self.head_lookahead {
            self.recent.pop_front();
        }
        SigPtr { frame: frame_idx, offset }
    }

    /// Returns the frame index a given head signature maps to.
    #[inline]
    pub fn frame_of(&self, head: Signature) -> u32 {
        head.0 & self.frame_mask
    }

    /// The signatures stored in `frame` (none for a frame out of range).
    fn sigs(&self, frame: u32) -> &[SignatureRecord] {
        self.frames.get(frame as usize).map_or(&[], |f| &f.sigs)
    }

    /// Head signature registered for `frame`, if any.
    pub fn head_of(&self, frame: u32) -> Option<Signature> {
        self.frames.get(frame as usize).and_then(|f| f.head)
    }

    /// Whether `sig` is the head of the fragment stored in its frame.
    pub fn is_head(&self, sig: Signature) -> bool {
        let frame = &self.frames[self.frame_of(sig) as usize];
        frame.head == Some(sig) && !frame.sigs.is_empty()
    }

    /// Reads signatures `[from, to)` of `frame`, charging the read
    /// traffic of the clamped range when called. Yields the records with
    /// their offsets; out-of-range reads clamp.
    pub fn stream(
        &mut self,
        frame: u32,
        from: u32,
        to: u32,
    ) -> impl Iterator<Item = (SigPtr, SignatureRecord)> + '_ {
        let sigs = self.frames.get(frame as usize).map_or(&[][..], |f| &f.sigs);
        let to = to.min(sigs.len() as u32);
        let from = from.min(to);
        self.read_bytes += u64::from(to - from) * SignatureRecord::STORAGE_BYTES;
        (from..to)
            .zip(&sigs[from as usize..to as usize])
            .map(move |(offset, &rec)| (SigPtr { frame, offset }, rec))
    }

    /// Number of signatures currently stored in `frame`.
    pub fn fragment_len_of(&self, frame: u32) -> u32 {
        self.sigs(frame).len() as u32
    }

    /// Writes a confidence update through a signature-cache pointer
    /// (Section 4.4: "a direct update of the counter value").
    pub fn update_confidence(&mut self, ptr: SigPtr, correct: bool) {
        let rec = self
            .frames
            .get_mut(ptr.frame as usize)
            .and_then(|f| f.sigs.get_mut(ptr.offset as usize));
        if let Some(rec) = rec {
            rec.confidence =
                if correct { rec.confidence.strengthen() } else { rec.confidence.weaken() };
            self.confidence_bytes += 1;
        }
    }

    /// Confidence of the record at `ptr` (diagnostics).
    pub fn confidence_at(&self, ptr: SigPtr) -> Option<Confidence> {
        self.sigs(ptr.frame).get(ptr.offset as usize).map(|r| r.confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_trace::Addr;

    fn rec(n: u32) -> SignatureRecord {
        SignatureRecord::new(Signature(n), Addr(u64::from(n) * 64))
    }

    #[test]
    fn append_then_stream_round_trips_in_order() {
        let mut s = SequenceStorage::new(16, 8, 4);
        let ptrs: Vec<SigPtr> = (0..8u32).map(|i| s.append(rec(i))).collect();
        let frame = ptrs[0].frame;
        assert!(ptrs.iter().all(|p| p.frame == frame), "one fragment holds all 8");
        let sigs: Vec<u32> = s.stream(frame, 0, 8).map(|(_, r)| r.signature.0).collect();
        assert_eq!(sigs, (0..8).collect::<Vec<u32>>(), "eviction order preserved");
    }

    #[test]
    fn new_fragment_opens_when_full() {
        let mut s = SequenceStorage::new(16, 4, 2);
        for i in 0..6u32 {
            s.append(rec(i));
        }
        // First 4 in one fragment; 5th starts a new fragment whose head is
        // the signature appended `head_lookahead`=2 ago (sig 2).
        assert!(s.is_head(Signature(2)));
        assert_eq!(s.fragment_len_of(s.frame_of(Signature(2))), 2);
    }

    #[test]
    fn head_precedes_fragment_by_lookahead() {
        let mut s = SequenceStorage::new(64, 4, 3);
        for i in 0..4u32 {
            s.append(rec(i));
        }
        // Fragment 2 opens at append #5; three signatures before it is sig 1.
        s.append(rec(100));
        assert!(s.is_head(Signature(1)));
    }

    #[test]
    fn first_fragment_head_falls_back_to_first_signature() {
        let mut s = SequenceStorage::new(16, 8, 4);
        s.append(rec(7));
        assert!(s.is_head(Signature(7)), "cold start: the record is its own head");
    }

    #[test]
    fn frame_collision_overwrites() {
        // One frame only: every new fragment lands on frame 0.
        let mut s = SequenceStorage::new(1, 2, 1);
        for i in 0..6u32 {
            s.append(rec(i));
        }
        assert!(s.overwrites() > 0);
        assert!(s.fragment_len_of(0) <= 2);
    }

    #[test]
    fn traffic_accounting_charges_five_bytes_per_signature() {
        let mut s = SequenceStorage::new(16, 8, 4);
        for i in 0..8u32 {
            s.append(rec(i));
        }
        assert_eq!(s.write_bytes(), 40);
        let frame = s.frame_of(Signature(0));
        let _ = s.stream(frame, 0, 4);
        assert_eq!(s.read_bytes(), 20);
    }

    #[test]
    fn stream_clamps_out_of_range() {
        let mut s = SequenceStorage::new(16, 8, 4);
        s.append(rec(1));
        let frame = s.frame_of(Signature(1));
        assert_eq!(s.stream(frame, 5, 100).count(), 0);
        assert_eq!(s.stream(frame, 0, 100).count(), 1);
        assert!(s.stream(999 & s.frame_mask, 0, 1).count() <= 1);
    }

    #[test]
    fn confidence_write_back_is_durable() {
        let mut s = SequenceStorage::new(16, 8, 4);
        let ptr = s.append(rec(1));
        assert_eq!(s.confidence_at(ptr).unwrap().value(), 2);
        s.update_confidence(ptr, false);
        assert_eq!(s.confidence_at(ptr).unwrap().value(), 1);
        s.update_confidence(ptr, true);
        s.update_confidence(ptr, true);
        assert_eq!(s.confidence_at(ptr).unwrap().value(), 3);
        assert_eq!(s.confidence_bytes(), 3);
    }

    #[test]
    fn lazy_frames_only_materialize_on_use() {
        let mut s = SequenceStorage::new(1 << 20, 512, 256);
        assert_eq!(s.live_frames(), 0);
        for i in 0..1000u32 {
            s.append(rec(i));
        }
        assert!(s.live_frames() <= 3, "only touched frames exist");
    }
}
