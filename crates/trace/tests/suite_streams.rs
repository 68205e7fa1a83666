//! Pins every suite benchmark's generated stream.
//!
//! The generators' fast paths (cached strides, countdown cadences,
//! compare-and-wrap cursors) must produce exactly the stream of the
//! straightforward per-access arithmetic they replace. The figure
//! goldens would catch a slip, but only as a changed number in some
//! figure; these digests name the benchmark. Each digest is the 64-bit
//! FNV-1a of the first [`ACCESSES`] accesses at seed 1, taken from the
//! per-access arithmetic, and a stream resumed from a mid-stream
//! checkpoint must land on the same digest.
//!
//! A generator change that is *meant* to change a stream must bump
//! `MODEL_VERSION` and re-record the table (the failure message prints
//! the new one).

use ltc_trace::{suite, AccessKind, MemoryAccess, SourceState, TraceSource};

/// Accesses digested per benchmark.
const ACCESSES: usize = 100_000;

/// Where the resume check cuts the stream: inside a phase of every
/// phase mix, not on a boundary.
const CUT: usize = 61_803;

/// `(benchmark, FNV-1a digest of its first ACCESSES accesses at seed 1)`.
const PINNED: &[(&str, u64)] = &[
    ("ammp", 0x04c7b5a0b8c70552),
    ("applu", 0xa9b293e0b951cdc4),
    ("apsi", 0x6f424d5dbe5e2524),
    ("art", 0xbb9b03d3e02e6458),
    ("bh", 0x41499205209d67b4),
    ("bzip2", 0x617c9f9e9429fb40),
    ("crafty", 0x057a5db86ccb6534),
    ("em3d", 0x6778a0acc7a4e2a2),
    ("eon", 0xe2cc3d40623a8ac6),
    ("equake", 0x8089d3acfc04cebc),
    ("facerec", 0x44829cd639cae1ef),
    ("fma3d", 0x7a23754a3d333774),
    ("galgel", 0x2b7fd331d46bc358),
    ("gap", 0x1ec96439719d404b),
    ("gcc", 0x2bee2039e6d41cf1),
    ("gzip", 0x640db878b5606acc),
    ("lucas", 0xef091706a55c85bf),
    ("mcf", 0xebe0e5f80d313b80),
    ("mesa", 0xfd4c32e1b542905b),
    ("mgrid", 0x0a16af897319e7b2),
    ("parser", 0x7005c5718e5f7612),
    ("perlbmk", 0x9fd602f01e85126d),
    ("sixtrack", 0xe065919bd77fb51b),
    ("swim", 0x5cf9c4e38ae6e512),
    ("treeadd", 0x4a9cdbd88f9cf26d),
    ("twolf", 0x0fd9b04e914e8c50),
    ("vortex", 0xd3e23b8a469eceae),
    ("wupwise", 0xa842c0bf8ddafd72),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds one access into `hash`: every field, fixed width, little-endian.
fn fold(hash: &mut u64, a: &MemoryAccess) {
    fnv1a(hash, &a.pc.0.to_le_bytes());
    fnv1a(hash, &a.addr.0.to_le_bytes());
    fnv1a(hash, &[u8::from(a.kind == AccessKind::Store), u8::from(a.dependent)]);
    fnv1a(hash, &a.gap.to_le_bytes());
}

fn digest(source: &mut dyn TraceSource, n: usize, hash: &mut u64) {
    for i in 0..n {
        let a = source.next_access().unwrap_or_else(|| panic!("stream ended at access {i}"));
        fold(hash, &a);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn table(rows: &[(&str, u64)]) -> String {
    rows.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect()
}

#[test]
fn every_benchmark_stream_matches_its_pinned_digest() {
    let mut computed = Vec::new();
    for entry in suite::benchmarks() {
        let mut hash = FNV_OFFSET;
        digest(&mut entry.build(1), ACCESSES, &mut hash);
        computed.push((entry.name, hash));
    }
    let differing: Vec<&str> = computed
        .iter()
        .zip(PINNED)
        .filter(|(got, want)| got != want)
        .map(|(got, _)| got.0)
        .collect();
    assert!(
        differing.is_empty() && computed.len() == PINNED.len(),
        "generated streams differ from their pins: {differing:?}\ncomputed table:\n{}",
        table(&computed)
    );
}

#[test]
fn every_benchmark_resumes_onto_its_pinned_digest_after_a_json_restore() {
    for &(name, pinned) in PINNED {
        let entry = suite::by_name(name).expect("pinned benchmarks come from the suite");
        let mut hash = FNV_OFFSET;
        let mut source = entry.build(1);
        digest(&mut source, CUT, &mut hash);
        let state = source.checkpoint().expect("suite sources checkpoint");
        let text = serde_json::to_string(&state);
        let revived: SourceState =
            serde::Deserialize::from_value(&serde_json::parse(&text).expect("state JSON parses"))
                .expect("state JSON decodes");
        let mut resumed = entry.build(1);
        resumed.restore(&revived).unwrap_or_else(|e| panic!("{name}: restore refused: {e}"));
        digest(&mut resumed, ACCESSES - CUT, &mut hash);
        assert_eq!(hash, pinned, "{name}: the stream resumed at {CUT} diverges from its pin");
    }
}
