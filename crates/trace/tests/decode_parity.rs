//! Trace-file round-trip property tests.
//!
//! `TraceReader` must return exactly the records `write_trace` wrote, on
//! every well-formed trace, and a truncated file must still yield every
//! whole record before the reader reports the truncation. Proptest
//! generates arbitrary record mixes — extreme PCs/addresses, all four
//! flag combinations, full-range gaps — so any drift in field offsets,
//! endianness, or flag packing between the encoder and the decoder fails
//! here.

use std::io::BufReader;

use proptest::prelude::*;

use ltc_trace::io::{write_trace, TraceReader};
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

    /// Decoding returns the original records on arbitrary traces, read
    /// through a buffer small enough that records straddle its refills.
    #[test]
    fn reader_returns_the_written_records(
        trace in prop::collection::vec(arb_access(), 0..512),
        capacity in 1usize..64,
    ) {
        let buf = encode(&trace);
        let mut reader =
            TraceReader::new(BufReader::with_capacity(capacity, buf.as_slice())).unwrap();
        prop_assert_eq!(reader.collect_accesses(trace.len() + 1), trace);
        prop_assert!(reader.error().is_none());
    }

    /// Decode → re-encode reproduces the byte stream exactly (the count
    /// header field is a streaming placeholder on both sides).
    #[test]
    fn decode_reencode_is_identity(
        trace in prop::collection::vec(arb_access(), 0..256),
    ) {
        let buf = encode(&trace);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let reencoded = encode(&reader.collect_accesses(trace.len() + 1));
        prop_assert_eq!(reencoded, buf);
    }

    /// A trace truncated mid-record yields every whole record, then
    /// ends the stream with the truncation parked.
    #[test]
    fn truncation_yields_whole_records_then_an_error(
        trace in prop::collection::vec(arb_access(), 1..64),
        cut in 1usize..21,
    ) {
        let mut buf = encode(&trace);
        buf.truncate(buf.len() - cut);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        prop_assert_eq!(reader.collect_accesses(trace.len()), &trace[..trace.len() - 1]);
        let err = reader.error().expect("the truncation is parked");
        prop_assert_eq!(err.to_string(), "trace ends mid-record");
    }
}
