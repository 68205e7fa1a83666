//! Decode-parity property tests.
//!
//! The streaming batched decoder (`BatchReader`, decoding each batch
//! with `TraceBatch::decode`) must agree record-for-record with the
//! original per-record cursor decoder (`read_trace_per_record`) on every
//! well-formed trace, and both must round-trip what `write_trace`
//! produced. Proptest generates arbitrary record mixes — extreme
//! PCs/addresses, all four flag combinations, full-range gaps — so any
//! drift in field offsets, endianness, or flag unpacking between the two
//! decoders fails here.

use proptest::prelude::*;

use ltc_trace::io::{read_trace_per_record, write_trace, BatchReader};
use ltc_trace::{AccessKind, Addr, MemoryAccess, Pc, Replay, TraceSource};

/// Strategy for one arbitrary record covering the whole field space.
fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    (any::<u64>(), any::<u64>(), any::<u32>(), any::<bool>(), any::<bool>()).prop_map(
        |(pc, addr, gap, store, dependent)| MemoryAccess {
            pc: Pc(pc),
            addr: Addr(addr),
            kind: if store { AccessKind::Store } else { AccessKind::Load },
            gap,
            dependent,
        },
    )
}

fn encode(trace: &[MemoryAccess]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut Replay::once(trace.to_vec()), &mut buf, u64::MAX).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched decode == per-record decode == the original records, on
    /// arbitrary traces.
    #[test]
    fn batched_decode_matches_per_record_reference(
        trace in prop::collection::vec(arb_access(), 0..512),
    ) {
        let buf = encode(&trace);

        let mut per_record = read_trace_per_record(buf.as_slice()).unwrap();
        let reference = per_record.collect_accesses(trace.len() + 1);
        prop_assert_eq!(&reference, &trace);

        let mut streaming = BatchReader::new(buf.as_slice()).unwrap();
        prop_assert_eq!(streaming.collect_accesses(trace.len() + 1), trace);
        prop_assert!(streaming.error().is_none());
    }

    /// Decode → re-encode reproduces the byte stream exactly (the count
    /// header field is a streaming placeholder on both sides).
    #[test]
    fn decode_reencode_is_identity(
        trace in prop::collection::vec(arb_access(), 0..256),
    ) {
        let buf = encode(&trace);
        let mut streaming = BatchReader::new(buf.as_slice()).unwrap();
        let reencoded = encode(&streaming.collect_accesses(trace.len() + 1));
        prop_assert_eq!(reencoded, buf);
    }

    /// A trace truncated mid-record is rejected by both decoders alike:
    /// the streaming one after yielding every whole record.
    #[test]
    fn truncation_rejected_by_both_decoders(
        trace in prop::collection::vec(arb_access(), 1..64),
        cut in 1usize..21,
    ) {
        let mut buf = encode(&trace);
        buf.truncate(buf.len() - cut);
        prop_assert!(read_trace_per_record(buf.as_slice()).is_err());
        let mut streaming = BatchReader::new(buf.as_slice()).unwrap();
        prop_assert_eq!(streaming.collect_accesses(trace.len()), &trace[..trace.len() - 1]);
        prop_assert!(streaming.error().is_some());
    }
}
