//! Compact binary trace serialization.
//!
//! Records traces to a simple length-delimited binary format so expensive
//! generator runs (or externally gathered traces) can be replayed exactly.
//! Each record is 21 bytes — PC (8), address (8), gap (4), and a flag
//! byte packing the access kind and dependence bit — preceded by a
//! 16-byte file header: magic (4), version (4), record count (8). Every
//! integer is big-endian. The `on_disk_layout_matches_docs` unit test
//! pins these numbers so the prose cannot drift from `RECORD_BYTES` and
//! `HEADER_BYTES` again.
//!
//! [`write_trace`] writes a file and [`TraceReader`] streams one back, one
//! record per access; both go through one record encoder/decoder pair,
//! so the layout is stated once.

use std::io::{self, BufRead, Write};

use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::TraceSource;

/// File magic: "LTCT" (LT-cords trace).
const MAGIC: u32 = 0x4c54_4354;
/// Format version.
const VERSION: u32 = 1;
/// Bytes per serialized record: PC (8) + address (8) + gap (4) + flags (1).
const RECORD_BYTES: usize = 21;
/// File header bytes: magic (4) + version (4) + record count (8).
const HEADER_BYTES: usize = 16;
/// Flag bit 0: the access is a store.
const FLAG_STORE: u8 = 1;
/// Flag bit 1: the access depends on an earlier load.
const FLAG_DEPENDENT: u8 = 2;

fn encode(a: &MemoryAccess) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..8].copy_from_slice(&a.pc.0.to_be_bytes());
    rec[8..16].copy_from_slice(&a.addr.0.to_be_bytes());
    rec[16..20].copy_from_slice(&a.gap.to_be_bytes());
    if !a.kind.is_load() {
        rec[20] |= FLAG_STORE;
    }
    if a.dependent {
        rec[20] |= FLAG_DEPENDENT;
    }
    rec
}

fn decode(rec: &[u8; RECORD_BYTES]) -> MemoryAccess {
    let flags = rec[20];
    MemoryAccess {
        pc: Pc(u64::from_be_bytes(rec[0..8].try_into().unwrap())),
        addr: Addr(u64::from_be_bytes(rec[8..16].try_into().unwrap())),
        kind: if flags & FLAG_STORE != 0 { AccessKind::Store } else { AccessKind::Load },
        gap: u32::from_be_bytes(rec[16..20].try_into().unwrap()),
        dependent: flags & FLAG_DEPENDENT != 0,
    }
}

fn invalid(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// Serializes accesses from `source` into `writer`, up to `limit` records,
/// and flushes it. Returns the number of records written. Records go out
/// one `write_all` each, so pass a buffered writer for a file.
///
/// # Errors
///
/// Returns any I/O error from `writer`, the final flush included.
///
/// # Example
///
/// ```
/// use ltc_trace::io::{write_trace, TraceReader};
/// use ltc_trace::{Replay, MemoryAccess, Pc, Addr, TraceSource};
///
/// # fn main() -> std::io::Result<()> {
/// let trace = vec![MemoryAccess::load(Pc(1), Addr(64))];
/// let mut buf = Vec::new();
/// write_trace(&mut Replay::once(trace.clone()), &mut buf, 100)?;
/// let mut replay = TraceReader::new(buf.as_slice())?;
/// assert_eq!(replay.next_access(), Some(trace[0]));
/// assert_eq!(replay.next_access(), None);
/// assert!(replay.error().is_none());
/// # Ok(())
/// # }
/// ```
pub fn write_trace<S, W>(source: &mut S, mut writer: W, limit: u64) -> io::Result<u64>
where
    S: TraceSource + ?Sized,
    W: Write,
{
    writer.write_all(&MAGIC.to_be_bytes())?;
    writer.write_all(&VERSION.to_be_bytes())?;
    writer.write_all(&0u64.to_be_bytes())?; // record count, unknown for streaming writes
    let mut written = 0u64;
    while written < limit {
        let Some(a) = source.next_access() else { break };
        writer.write_all(&encode(&a))?;
        written += 1;
    }
    writer.flush()?;
    Ok(written)
}

/// A streaming trace decoder: validates the header up front, then
/// decodes one record per [`TraceSource::next_access`] from the caller's
/// buffered reader, so arbitrarily long trace files replay in bounded
/// memory.
///
/// `next_access` cannot surface a mid-stream I/O error through its
/// `Option`, so the reader ends the stream and parks the error in
/// [`TraceReader::error`]; callers should check it after a replay. A
/// file that ends mid-record yields every whole record first, then parks
/// an `InvalidData` error ("trace ends mid-record").
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    error: Option<io::Error>,
}

impl<R: BufRead> TraceReader<R> {
    /// Opens a trace stream, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic, a bad version or a short
    /// header, and any underlying I/O error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut header = [0u8; HEADER_BYTES];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid("truncated trace header")
            } else {
                e
            }
        })?;
        // The count field is a placeholder for streaming writes and is
        // ignored.
        let magic = u32::from_be_bytes(header[0..4].try_into().unwrap());
        let version = u32::from_be_bytes(header[4..8].try_into().unwrap());
        if magic != MAGIC {
            return Err(invalid("not an LT-cords trace file"));
        }
        if version != VERSION {
            return Err(invalid(format!("unsupported trace version {version}")));
        }
        Ok(TraceReader { reader, error: None })
    }

    /// The I/O error that ended the stream early, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// The next whole record, `None` at a clean end of the file.
    fn read_record(&mut self) -> io::Result<Option<MemoryAccess>> {
        if self.reader.fill_buf()?.is_empty() {
            return Ok(None);
        }
        let mut rec = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut rec).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid("trace ends mid-record")
            } else {
                e
            }
        })?;
        Ok(Some(decode(&rec)))
    }
}

impl<R: BufRead> TraceSource for TraceReader<R> {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        if self.error.is_some() {
            return None;
        }
        self.read_record().unwrap_or_else(|e| {
            self.error = Some(e);
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use super::*;
    use crate::source::Replay;
    use crate::suite;

    #[test]
    fn round_trips_generated_trace() {
        let mut src = suite::by_name("gcc").unwrap().build(3);
        let original = src.collect_accesses(5_000);
        let mut buf = Vec::new();
        let n = write_trace(&mut Replay::once(original.clone()), &mut buf, u64::MAX).unwrap();
        assert_eq!(n, 5_000);
        let mut replay = TraceReader::new(buf.as_slice()).unwrap();
        let restored = replay.collect_accesses(10_000);
        assert_eq!(restored, original);
        assert!(replay.error().is_none());
    }

    #[test]
    fn limit_truncates_writing() {
        let mut src = suite::by_name("gzip").unwrap().build(1);
        let mut buf = Vec::new();
        let n = write_trace(&mut src, &mut buf, 100).unwrap();
        assert_eq!(n, 100);
        assert_eq!(buf.len(), HEADER_BYTES + 100 * RECORD_BYTES);
    }

    /// A writer that takes every byte but fails to flush, as a full
    /// disk does when `BufWriter` finally writes its buffer out.
    struct FailingFlush(Vec<u8>);

    impl Write for FailingFlush {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.write(bytes)
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush failed"))
        }
    }

    #[test]
    fn flush_failure_is_an_error() {
        let mut src = suite::by_name("gzip").unwrap().build(1);
        let err = write_trace(&mut src, FailingFlush(Vec::new()), 10).unwrap_err();
        assert_eq!(err.to_string(), "flush failed");
    }

    /// Pins the exact on-disk layout the module docs describe: a 16-byte
    /// header (magic, version, count) followed by 21-byte records
    /// (PC 8 + address 8 + gap 4 + flags 1).
    #[test]
    fn on_disk_layout_matches_docs() {
        assert_eq!(HEADER_BYTES, 16);
        assert_eq!(RECORD_BYTES, 21);
        assert_eq!(RECORD_BYTES, 8 + 8 + 4 + 1);

        let access = MemoryAccess::store(Pc(0x1122_3344_5566_7788), Addr(0x99aa_bbcc_ddee_ff00))
            .with_dependent(true)
            .with_gap(0x0a0b_0c0d);
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(vec![access]), &mut buf, 10).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + RECORD_BYTES, "one record, one header");

        // Header: magic, version, count placeholder — all big-endian.
        assert_eq!(&buf[0..4], &MAGIC.to_be_bytes());
        assert_eq!(&buf[4..8], &VERSION.to_be_bytes());
        assert_eq!(&buf[8..16], &0u64.to_be_bytes());
        // Record: PC, address, gap, flags (bit 0 store, bit 1 dependent).
        assert_eq!(&buf[16..24], &access.pc.0.to_be_bytes());
        assert_eq!(&buf[24..32], &access.addr.0.to_be_bytes());
        assert_eq!(&buf[32..36], &access.gap.to_be_bytes());
        assert_eq!(buf[36], 0b11);
    }

    fn open_error(bytes: &[u8]) -> io::Error {
        TraceReader::new(bytes).unwrap_err()
    }

    #[test]
    fn rejects_bad_magic() {
        let err = open_error(&[0u8; 32]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "not an LT-cords trace file");
    }

    #[test]
    fn rejects_bad_version_and_short_header() {
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(vec![]), &mut buf, 10).unwrap();
        let err = open_error(&buf[..HEADER_BYTES - 1]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "truncated trace header");
        buf[7] = 2;
        let err = open_error(&buf);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported trace version 2");
    }

    #[test]
    fn rejects_truncated_record() {
        let mut src = suite::by_name("gzip").unwrap().build(1);
        let mut buf = Vec::new();
        write_trace(&mut src, &mut buf, 10).unwrap();
        buf.pop(); // corrupt the tail
                   // The reader yields the 9 whole records, then ends the stream and
                   // parks the truncation.
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.collect_accesses(100).len(), 9);
        let err = reader.error().expect("the truncation is parked");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "trace ends mid-record");
        assert!(reader.next_access().is_none(), "the stream stays ended");
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(vec![]), &mut buf, 10).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.next_access().is_none());
        assert!(reader.error().is_none());
    }

    #[test]
    fn flags_preserve_kind_and_dependence() {
        let trace = vec![
            MemoryAccess::store(Pc(1), Addr(0)).with_dependent(true),
            MemoryAccess::load(Pc(2), Addr(64)),
        ];
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(trace.clone()), &mut buf, 10).unwrap();
        let mut replay = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(replay.collect_accesses(10), trace);
    }

    #[test]
    fn streaming_reader_spans_chunk_boundaries() {
        // A 64-byte buffer is refilled every three records or so, and 64
        // is no multiple of 21, so records straddle refills.
        let mut src = suite::by_name("gcc").unwrap().build(7);
        let original = src.collect_accesses(1_000);
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(original.clone()), &mut buf, u64::MAX).unwrap();
        let mut reader = TraceReader::new(BufReader::with_capacity(64, buf.as_slice())).unwrap();
        assert_eq!(reader.collect_accesses(2_000), original);
        assert!(reader.error().is_none(), "the end of a whole recording is clean");
    }
}
