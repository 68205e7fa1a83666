//! Compact binary trace serialization.
//!
//! Records traces to a simple length-delimited binary format so expensive
//! generator runs (or externally gathered traces) can be replayed exactly.
//! Each record is 21 bytes — PC (8), address (8), gap (4), and a flag
//! byte packing the access kind and dependence bit — preceded by a
//! 16-byte file header: magic (4), version (4), record count (8). The
//! `on_disk_layout_matches_docs` unit test pins these numbers so the
//! prose cannot drift from `RECORD_BYTES` and `HEADER_BYTES` again.
//!
//! Two decoders share the format. [`read_trace_per_record`] walks a
//! cursor field by field — the original, obviously-correct reference.
//! [`TraceBatch::decode`] decodes block-wise into a struct-of-arrays
//! batch (`chunks_exact` over whole records, `from_be_bytes` per field),
//! which the public [`read_trace`] and the streaming [`BatchReader`]
//! build on; it is several times faster and asserted record-for-record
//! identical to the reference by `tests/decode_parity.rs`.

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::record::{AccessKind, Addr, MemoryAccess, Pc};
use crate::source::{Replay, TraceSource};

/// File magic: "LTCT" (LT-cords trace).
const MAGIC: u32 = 0x4c54_4354;
/// Format version.
const VERSION: u32 = 1;
/// Bytes per serialized record: PC (8) + address (8) + gap (4) + flags (1).
const RECORD_BYTES: usize = 21;
/// File header bytes: magic (4) + version (4) + record count (8).
const HEADER_BYTES: usize = 16;

/// Serializes accesses from `source` into `writer`, up to `limit` records.
/// Returns the number of records written.
///
/// # Errors
///
/// Returns any I/O error from `writer`.
///
/// # Example
///
/// ```
/// use ltc_trace::io::{write_trace, read_trace};
/// use ltc_trace::{Replay, MemoryAccess, Pc, Addr, TraceSource};
///
/// # fn main() -> std::io::Result<()> {
/// let trace = vec![MemoryAccess::load(Pc(1), Addr(64))];
/// let mut buf = Vec::new();
/// write_trace(&mut Replay::once(trace.clone()), &mut buf, 100)?;
/// let mut replay = read_trace(&mut buf.as_slice())?;
/// assert_eq!(replay.next_access(), Some(trace[0]));
/// # Ok(())
/// # }
/// ```
pub fn write_trace<S, W>(source: &mut S, mut writer: W, limit: u64) -> io::Result<u64>
where
    S: TraceSource + ?Sized,
    W: Write,
{
    let mut header = BytesMut::with_capacity(HEADER_BYTES);
    header.put_u32(MAGIC);
    header.put_u32(VERSION);
    header.put_u64(0); // record count, unknown for streaming writes
    writer.write_all(&header)?;

    let mut written = 0u64;
    let mut buf = BytesMut::with_capacity(RECORD_BYTES * 1024);
    for _ in 0..limit {
        let Some(a) = source.next_access() else { break };
        buf.put_u64(a.pc.0);
        buf.put_u64(a.addr.0);
        buf.put_u32(a.gap);
        let mut flags = 0u8;
        if !a.kind.is_load() {
            flags |= 1;
        }
        if a.dependent {
            flags |= 2;
        }
        buf.put_u8(flags);
        written += 1;
        if buf.len() >= RECORD_BYTES * 1024 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(written)
}

/// Validates a 16-byte header slice (magic + version; the count field is
/// a placeholder for streaming writes and is ignored).
fn check_header(header: &[u8]) -> io::Result<()> {
    debug_assert_eq!(header.len(), HEADER_BYTES);
    let magic = u32::from_be_bytes(header[0..4].try_into().unwrap());
    let version = u32::from_be_bytes(header[4..8].try_into().unwrap());
    if magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an LT-cords trace file"));
    }
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    Ok(())
}

/// A struct-of-arrays batch of decoded records.
///
/// The decode hot path fills four parallel flat vectors instead of a
/// `Vec<MemoryAccess>`: each field decodes with one `from_be_bytes` from
/// a fixed offset inside a 21-byte `chunks_exact` window, which the
/// compiler turns into straight-line loads — no per-field cursor
/// bookkeeping. Records reassemble on demand via [`TraceBatch::get`] or
/// the [`BatchCursor`] source.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBatch {
    /// Program counters, one per record.
    pub pc: Vec<u64>,
    /// Accessed addresses, parallel to `pc`.
    pub addr: Vec<u64>,
    /// Instruction gaps, parallel to `pc`.
    pub gap: Vec<u32>,
    /// Raw flag bytes (bit 0 store, bit 1 dependent), parallel to `pc`.
    pub flags: Vec<u8>,
}

impl TraceBatch {
    /// An empty batch with room for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        TraceBatch {
            pc: Vec::with_capacity(n),
            addr: Vec::with_capacity(n),
            gap: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        }
    }

    /// Decodes a record payload (no header; length must be a whole
    /// number of records) block-wise into a batch.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when `payload` ends mid-record.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        if payload.len() % RECORD_BYTES != 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace record"));
        }
        let mut batch = TraceBatch::with_capacity(payload.len() / RECORD_BYTES);
        for rec in payload.chunks_exact(RECORD_BYTES) {
            batch.pc.push(u64::from_be_bytes(rec[0..8].try_into().unwrap()));
            batch.addr.push(u64::from_be_bytes(rec[8..16].try_into().unwrap()));
            batch.gap.push(u32::from_be_bytes(rec[16..20].try_into().unwrap()));
            batch.flags.push(rec[20]);
        }
        Ok(batch)
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Reassembles record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> MemoryAccess {
        let flags = self.flags[i];
        MemoryAccess {
            pc: Pc(self.pc[i]),
            addr: Addr(self.addr[i]),
            kind: if flags & 1 != 0 { AccessKind::Store } else { AccessKind::Load },
            gap: self.gap[i],
            dependent: flags & 2 != 0,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, a: &MemoryAccess) {
        self.pc.push(a.pc.0);
        self.addr.push(a.addr.0);
        self.gap.push(a.gap);
        let mut flags = 0u8;
        if !a.kind.is_load() {
            flags |= 1;
        }
        if a.dependent {
            flags |= 2;
        }
        self.flags.push(flags);
    }

    /// Iterates the records in order.
    pub fn iter(&self) -> impl Iterator<Item = MemoryAccess> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Materializes the batch as a `Vec<MemoryAccess>`.
    pub fn to_accesses(&self) -> Vec<MemoryAccess> {
        self.iter().collect()
    }

    /// Consumes the batch into a cursor [`TraceSource`] that reassembles
    /// records lazily (no intermediate `Vec<MemoryAccess>`).
    pub fn into_source(self) -> BatchCursor {
        BatchCursor { batch: self, pos: 0 }
    }

    /// Resident bytes of the four field arrays (allocated capacity, not
    /// just length) plus the struct itself — the honest footprint the
    /// size-accounting tests audit.
    pub fn memory_bytes(&self) -> u64 {
        (self.pc.capacity() * std::mem::size_of::<u64>()
            + self.addr.capacity() * std::mem::size_of::<u64>()
            + self.gap.capacity() * std::mem::size_of::<u32>()
            + self.flags.capacity() * std::mem::size_of::<u8>()
            + std::mem::size_of::<Self>()) as u64
    }
}

/// A [`TraceSource`] replaying an owned [`TraceBatch`] once.
///
/// Produced by [`TraceBatch::into_source`].
#[derive(Debug, Clone)]
pub struct BatchCursor {
    batch: TraceBatch,
    pos: usize,
}

impl TraceSource for BatchCursor {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        if self.pos >= self.batch.len() {
            return None;
        }
        let a = self.batch.get(self.pos);
        self.pos += 1;
        Some(a)
    }
}

/// Reads a complete serialized trace into a [`Replay`] source, decoding
/// block-wise (same `chunks_exact` scheme as [`TraceBatch::decode`], but
/// assembling each [`MemoryAccess`] in the single pass over the payload
/// — no intermediate struct-of-arrays detour).
///
/// # Errors
///
/// Returns `InvalidData` when the magic or version does not match or the
/// payload is truncated mid-record, and any underlying I/O error.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Replay> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    if raw.len() < HEADER_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace header"));
    }
    check_header(&raw[..HEADER_BYTES])?;
    let payload = &raw[HEADER_BYTES..];
    if payload.len() % RECORD_BYTES != 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace record"));
    }
    // `ChunksExact` knows its length, so `collect` sizes the vector once
    // and skips the per-record capacity check a `push` loop would pay.
    let accesses: Vec<MemoryAccess> = payload
        .chunks_exact(RECORD_BYTES)
        .map(|rec| {
            let flags = rec[20];
            MemoryAccess {
                pc: Pc(u64::from_be_bytes(rec[0..8].try_into().unwrap())),
                addr: Addr(u64::from_be_bytes(rec[8..16].try_into().unwrap())),
                kind: if flags & 1 != 0 { AccessKind::Store } else { AccessKind::Load },
                gap: u32::from_be_bytes(rec[16..20].try_into().unwrap()),
                dependent: flags & 2 != 0,
            }
        })
        .collect();
    Ok(Replay::once(accesses))
}

/// Reads a complete serialized trace into one [`TraceBatch`].
///
/// # Errors
///
/// Same conditions as [`read_trace`].
pub fn read_trace_batch<R: Read>(mut reader: R) -> io::Result<TraceBatch> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    if raw.len() < HEADER_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace header"));
    }
    check_header(&raw[..HEADER_BYTES])?;
    TraceBatch::decode(&raw[HEADER_BYTES..])
}

/// The original per-record cursor decoder, kept as the oracle the
/// batched path is property-tested against (`tests/decode_parity.rs`).
/// Prefer [`read_trace`]/[`read_trace_batch`] everywhere else.
///
/// # Errors
///
/// Same conditions as [`read_trace`].
pub fn read_trace_per_record<R: Read>(mut reader: R) -> io::Result<Replay> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut bytes = Bytes::from(raw);
    if bytes.remaining() < HEADER_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace header"));
    }
    let magic = bytes.get_u32();
    let version = bytes.get_u32();
    let _count = bytes.get_u64();
    if magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an LT-cords trace file"));
    }
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    if bytes.remaining() % RECORD_BYTES != 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace record"));
    }
    let mut accesses = Vec::with_capacity(bytes.remaining() / RECORD_BYTES);
    while bytes.remaining() >= RECORD_BYTES {
        let pc = Pc(bytes.get_u64());
        let addr = Addr(bytes.get_u64());
        let gap = bytes.get_u32();
        let flags = bytes.get_u8();
        accesses.push(MemoryAccess {
            pc,
            addr,
            kind: if flags & 1 != 0 { AccessKind::Store } else { AccessKind::Load },
            gap,
            dependent: flags & 2 != 0,
        });
    }
    Ok(Replay::once(accesses))
}

/// Records decoded per [`BatchReader`] refill.
const READER_CHUNK_RECORDS: usize = 4096;

/// A streaming trace decoder: validates the header up front, then
/// decodes fixed-size (4096-record) [`TraceBatch`]es on demand,
/// so arbitrarily long trace files replay in bounded memory.
///
/// Use [`BatchReader::next_batch`] for batch-at-a-time processing, or
/// drive it as a [`TraceSource`] directly (e.g. `ltsim replay`). The
/// `TraceSource` face cannot surface mid-stream I/O errors through
/// `next_access`'s `Option`, so it ends the stream and parks the error
/// in [`BatchReader::error`] — drivers should check it after a replay.
#[derive(Debug)]
pub struct BatchReader<R> {
    reader: R,
    current: TraceBatch,
    pos: usize,
    error: Option<io::Error>,
    done: bool,
    /// A short refill ended mid-record: every *whole* record has been
    /// returned already and the next [`BatchReader::next_batch`] call
    /// must surface the truncation as an error.
    truncated: bool,
}

impl<R: Read> BatchReader<R> {
    /// Opens a trace stream, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad or truncated header, and any
    /// underlying I/O error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut header = [0u8; HEADER_BYTES];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::InvalidData, "truncated trace header")
            } else {
                e
            }
        })?;
        check_header(&header)?;
        Ok(BatchReader {
            reader,
            current: TraceBatch::default(),
            pos: 0,
            error: None,
            done: false,
            truncated: false,
        })
    }

    /// Decodes the next batch, or `None` at a clean end of stream.
    ///
    /// A stream that ends mid-record still yields every *whole* record
    /// first; the truncation error surfaces on the following call, so
    /// no valid prefix is lost to a corrupt tail.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the stream ends mid-record, and any
    /// underlying I/O error.
    pub fn next_batch(&mut self) -> io::Result<Option<TraceBatch>> {
        if self.truncated {
            self.truncated = false;
            return Err(io::Error::new(io::ErrorKind::InvalidData, "trace ends mid-record"));
        }
        if self.done {
            return Ok(None);
        }
        let mut buf = vec![0u8; READER_CHUNK_RECORDS * RECORD_BYTES];
        let mut filled = 0;
        while filled < buf.len() {
            match self.reader.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        if filled < buf.len() {
            self.done = true;
        }
        if filled == 0 {
            return Ok(None);
        }
        // A short final refill may end mid-record: decode the
        // whole-record prefix now, report the truncation next call.
        let whole = filled - filled % RECORD_BYTES;
        if whole == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "trace ends mid-record"));
        }
        if whole < filled {
            self.truncated = true;
        }
        TraceBatch::decode(&buf[..whole]).map(Some)
    }

    /// The I/O error that ended `TraceSource` iteration early, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<R: Read> TraceSource for BatchReader<R> {
    fn next_access(&mut self) -> Option<MemoryAccess> {
        if self.pos >= self.current.len() {
            match self.next_batch() {
                Ok(Some(batch)) => {
                    self.current = batch;
                    self.pos = 0;
                }
                Ok(None) => return None,
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                    return None;
                }
            }
        }
        let a = self.current.get(self.pos);
        self.pos += 1;
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn round_trips_generated_trace() {
        let mut src = suite::by_name("gcc").unwrap().build(3);
        let original = src.collect_accesses(5_000);
        let mut buf = Vec::new();
        let n = write_trace(&mut Replay::once(original.clone()), &mut buf, u64::MAX).unwrap();
        assert_eq!(n, 5_000);
        let mut replay = read_trace(&mut buf.as_slice()).unwrap();
        let restored = replay.collect_accesses(10_000);
        assert_eq!(restored, original);
    }

    #[test]
    fn limit_truncates_writing() {
        let mut src = suite::by_name("gzip").unwrap().build(1);
        let mut buf = Vec::new();
        let n = write_trace(&mut src, &mut buf, 100).unwrap();
        assert_eq!(n, 100);
        assert_eq!(buf.len(), HEADER_BYTES + 100 * RECORD_BYTES);
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

    #[test]
    fn rejects_bad_magic() {
        let buf = vec![0u8; 32];
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_trace_per_record(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(BatchReader::new(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_record() {
        let mut src = suite::by_name("gzip").unwrap().build(1);
        let mut buf = Vec::new();
        write_trace(&mut src, &mut buf, 10).unwrap();
        buf.pop(); // corrupt the tail
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_trace_per_record(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut reader = BatchReader::new(buf.as_slice()).unwrap();
        // The batch reader first yields the 9 whole records, then reports
        // the truncation on the following call.
        let batch = reader.next_batch().unwrap().expect("whole-record prefix decodes");
        assert_eq!(batch.len(), 9);
        let err = reader.next_batch().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The source face also yields the 9 whole records, then ends the
        // stream and parks the same error.
        let mut reader = BatchReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.collect_accesses(100).len(), 9);
        assert_eq!(reader.error().map(io::Error::kind), Some(io::ErrorKind::InvalidData));
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(vec![]), &mut buf, 10).unwrap();
        let mut replay = read_trace(&mut buf.as_slice()).unwrap();
        assert!(replay.next_access().is_none());
        let mut reader = BatchReader::new(buf.as_slice()).unwrap();
        assert!(reader.next_batch().unwrap().is_none());
        assert!(reader.next_access().is_none());
    }

    #[test]
    fn flags_preserve_kind_and_dependence() {
        let trace = vec![
            MemoryAccess::store(Pc(1), Addr(0)).with_dependent(true),
            MemoryAccess::load(Pc(2), Addr(64)),
        ];
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(trace.clone()), &mut buf, 10).unwrap();
        let mut replay = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(replay.collect_accesses(10), trace);
    }

    #[test]
    fn batch_push_get_round_trips() {
        let trace = vec![
            MemoryAccess::store(Pc(1), Addr(0)).with_dependent(true).with_gap(7),
            MemoryAccess::load(Pc(2), Addr(64)),
        ];
        let mut batch = TraceBatch::default();
        for a in &trace {
            batch.push(a);
        }
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.to_accesses(), trace);
        let mut cursor = batch.into_source();
        assert_eq!(cursor.collect_accesses(10), trace);
    }

    #[test]
    fn streaming_reader_spans_chunk_boundaries() {
        // More records than one READER_CHUNK_RECORDS refill, so the
        // source face must stitch batches seamlessly.
        let mut src = suite::by_name("gcc").unwrap().build(7);
        let n = READER_CHUNK_RECORDS + 123;
        let original = src.collect_accesses(n);
        let mut buf = Vec::new();
        write_trace(&mut Replay::once(original.clone()), &mut buf, u64::MAX).unwrap();
        let mut reader = BatchReader::new(buf.as_slice()).unwrap();
        let restored = reader.collect_accesses(2 * n);
        assert_eq!(restored, original);
        assert!(reader.error().is_none(), "the end of a whole recording is clean");
        assert!(reader.next_batch().unwrap().is_none());
    }

    #[test]
    fn batch_memory_bytes_tracks_capacity() {
        let batch = TraceBatch::with_capacity(100);
        // 8 + 8 + 4 + 1 = 21 bytes per record of capacity, plus the
        // struct header.
        assert_eq!(batch.memory_bytes(), (100 * 21 + std::mem::size_of::<TraceBatch>()) as u64);
    }
}
