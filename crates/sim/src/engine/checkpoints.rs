//! Shared segment starts for segmented streaming runs.
//!
//! A segment worker must begin its slice with the generator state and
//! the warm cache a single pass would have had there. Replaying to them
//! costs every worker O(start) generated accesses plus an O(warm-up)
//! cache rebuild, so a run's total setup grows quadratically with the
//! trace. Instead, one recording pass per `(benchmark, seed, warm-up)`
//! snapshots a generator [`Checkpoint`] and a [`WarmImage`] of the
//! hierarchy at every slice start ([`ensure`]), and each worker restores
//! the pair at its own start ([`ltc_analysis::StreamAnalysis::
//! run_segment_with`]). A worker without a usable pair replays from
//! access 0. Both paths produce byte-identical partials: a restored
//! source resumes its stream element-identically, and the image was
//! snapshotted from a hierarchy that replayed the same window.
//!
//! The pairs live in two tiers:
//!
//! 1. a process-global registry keyed `(benchmark, seed, warm-up)`,
//!    which the in-process `threads` backend hits directly, and
//! 2. an optional on-disk hand-off under the directory named by the
//!    `LTC_CHECKPOINT_DIR` environment variable, which `subprocess`
//!    workers (separate processes that inherit the variable) read: one
//!    checkpoint store per `(benchmark, seed)` ([`store_path`]) and one
//!    [`WarmStore`] per `(benchmark, seed, warm-up)`
//!    ([`warm_store_path`]).
//!
//! The scheduler's pre-pass fills both tiers before any segment worker
//! starts, one trace per job on
//! [`EngineOptions::threads`](crate::engine::EngineOptions::threads)
//! scoped threads. Concurrent jobs are safe: each writes only its own
//! trace's store files (atomically), the registry is mutex-guarded, and
//! so is the staging-file sweep, so the stores are byte-identical at any
//! thread count. A corrupt or truncated on-disk store is ignored with a
//! warning; its workers replay instead of failing the run.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use ltc_analysis::WarmImage;
use ltc_cache::{Hierarchy, HierarchyConfig};
use ltc_trace::{suite, Checkpoint, CheckpointStore, TraceSource};
use serde::{Deserialize, Serialize, Value};

use crate::engine::spec::{fnv1a64, MODEL_VERSION};

/// Environment variable naming the on-disk checkpoint directory.
///
/// When set, [`ensure`] persists recorded stores there and [`lookup`]
/// falls back to it, so `ltsim worker` subprocesses (which inherit the
/// variable) reuse the parent's recording pass.
pub const CHECKPOINT_DIR_ENV: &str = "LTC_CHECKPOINT_DIR";

/// Walks `source` from the beginning and snapshots it at each of
/// `targets` (positions in accesses produced), returning the recorded
/// store. This is the pure core of the subsystem: no registry, no
/// filesystem — `perfbench` and tests drive it directly.
///
/// Targets are visited in ascending order (duplicates collapse); a
/// position of zero is recorded without advancing. Recording stops
/// early — returning the checkpoints gathered so far — if the source
/// ends or does not support checkpointing.
pub fn record_targets<S: TraceSource + ?Sized>(source: &mut S, targets: &[u64]) -> CheckpointStore {
    let mut sorted: Vec<u64> = targets.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut store = CheckpointStore::default();
    let mut pos = 0u64;
    'targets: for &target in &sorted {
        while pos < target {
            if source.next_access().is_none() {
                break 'targets;
            }
            pos += 1;
        }
        let Some(state) = source.checkpoint() else { break };
        store.insert(Checkpoint { pos, state });
    }
    store
}

/// Warm hierarchy images for one `(benchmark, seed, warm-up)`, indexed
/// by slice-start position.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStore {
    images: Vec<WarmImage>,
}

impl WarmStore {
    /// Adds an image, keeping positions sorted (last insert wins on a
    /// duplicate position).
    pub fn insert(&mut self, image: WarmImage) {
        match self.images.binary_search_by_key(&image.pos, |w| w.pos) {
            Ok(i) => self.images[i] = image,
            Err(i) => self.images.insert(i, image),
        }
    }

    /// The image recorded at exactly `pos`, if any.
    pub fn at(&self, pos: u64) -> Option<&WarmImage> {
        self.images.binary_search_by_key(&pos, |w| w.pos).ok().map(|i| &self.images[i])
    }

    /// Recorded images in position order.
    pub fn iter(&self) -> impl Iterator<Item = &WarmImage> {
        self.images.iter()
    }

    /// Number of recorded images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the store holds no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// Replays `source` once from the beginning and snapshots the simulated
/// hierarchy at each of `starts`, warming each snapshot on the
/// `warmup`-access window that precedes its position — exactly the
/// window a segment worker would replay. This is the pure core of warm
/// imaging: no registry, no filesystem, no environment.
///
/// Windows of nearby starts may overlap; each start gets its own
/// hierarchy fed only its own window, all from a single source walk.
/// Position zero is skipped (a slice starting at zero has no warm-up —
/// its cold hierarchy is already exact). If the source ends before a
/// start is reached, that image is simply not recorded and its worker
/// falls back to the replay path.
pub fn record_warm_images<S: TraceSource + ?Sized>(
    source: &mut S,
    warmup: u64,
    starts: &[u64],
) -> WarmStore {
    let mut store = WarmStore::default();
    walk_starts(source, warmup, starts, |_, pos, hierarchy| {
        store.insert(WarmImage { pos, image: hierarchy.to_image() });
    });
    store
}

/// Records a generator checkpoint and a warm image at each non-zero
/// start in `starts`, in one walk of `source`: the walk of
/// [`record_warm_images`], snapshotting the generator as it passes each
/// start. The stores equal what [`record_targets`] and
/// [`record_warm_images`] record at the same starts, for the generation
/// cost of one of them. This is what [`ensure`] records.
pub fn record_stores<S: TraceSource + ?Sized>(
    source: &mut S,
    warmup: u64,
    starts: &[u64],
) -> SegmentStores {
    let mut stores = SegmentStores::default();
    // As in `record_targets`, checkpoints stop at the first position the
    // source cannot snapshot.
    let mut checkpointing = true;
    walk_starts(source, warmup, starts, |source, pos, hierarchy| {
        if checkpointing {
            match source.checkpoint() {
                Some(state) => stores.checkpoints.insert(Checkpoint { pos, state }),
                None => checkpointing = false,
            }
        }
        stores.images.insert(WarmImage { pos, image: hierarchy.to_image() });
    });
    stores
}

/// Walks `source` from the beginning to the last non-zero start in
/// `starts`, feeding each start's `warmup`-access window to a hierarchy
/// of its own, and calls `at_start(source, start, hierarchy)` as the walk
/// reaches each start, with `source` positioned exactly there. Stops
/// early if the source ends.
fn walk_starts<S: TraceSource + ?Sized>(
    source: &mut S,
    warmup: u64,
    starts: &[u64],
    mut at_start: impl FnMut(&S, u64, Hierarchy),
) {
    let mut sorted: Vec<u64> = starts.iter().copied().filter(|&s| s > 0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    // Windows open and close in start order, so the open ones form a
    // queue: the front closes next, and `sorted[next]` opens next.
    let mut active: VecDeque<(u64, Hierarchy)> = VecDeque::new();
    let mut next = 0usize;
    let mut pos = 0u64;
    loop {
        while next < sorted.len() && sorted[next] - sorted[next].min(warmup) <= pos {
            active.push_back((sorted[next], Hierarchy::new(HierarchyConfig::paper())));
            next += 1;
        }
        while active.front().is_some_and(|(start, _)| *start == pos) {
            let (start, hierarchy) = active.pop_front().expect("front checked");
            at_start(source, start, hierarchy);
        }
        if next >= sorted.len() && active.is_empty() {
            break;
        }
        // Run straight to the next event: a window opening or closing.
        let opens = sorted.get(next).map_or(u64::MAX, |&s| s - s.min(warmup));
        let closes = active.front().map_or(u64::MAX, |(start, _)| *start);
        let until = opens.min(closes);
        for _ in pos..until {
            let Some(a) = source.next_access() else { return };
            for (_, hierarchy) in &mut active {
                hierarchy.access(a.addr, a.kind);
            }
        }
        pos = until;
    }
}

/// The generator checkpoints and warm hierarchy images recorded at the
/// slice starts of one `(benchmark, seed, warm-up)`.
#[derive(Debug, Default)]
pub struct SegmentStores {
    /// Generator checkpoints, by position.
    pub checkpoints: CheckpointStore,
    /// Warm hierarchy images, by position.
    pub images: WarmStore,
}

impl SegmentStores {
    /// The checkpoint and the image recorded at exactly `start`, if both
    /// were.
    pub fn at(&self, start: u64) -> Option<(&Checkpoint, &WarmImage)> {
        Some((self.checkpoints.at(start)?, self.images.at(start)?))
    }
}

/// Makes a checkpoint and a warm image at every slice start in `starts`
/// available to [`lookup`] for `(benchmark, seed, warmup)`, recording
/// them if needed.
///
/// Starts the registry or the on-disk stores already cover are not
/// re-recorded; partially covering stores are extended by one recording
/// walk ([`record_stores`]) over the union of their positions and the
/// missing starts. The result lands in the process registry and — when
/// [`CHECKPOINT_DIR_ENV`] is set — on disk for subprocess workers.
/// Returns `None` for an unknown benchmark; start zero is skipped (a
/// fresh source and a cold hierarchy already *are* position zero).
pub fn ensure(
    benchmark: &str,
    seed: u64,
    warmup: u64,
    starts: &[u64],
) -> Option<Arc<SegmentStores>> {
    let mut wanted: Vec<u64> = starts.iter().copied().filter(|&s| s > 0).collect();
    let existing = lookup(benchmark, seed, warmup);
    if let Some(stores) = &existing {
        if wanted.iter().all(|&s| stores.at(s).is_some()) {
            return existing;
        }
        wanted.extend(stores.images.iter().map(|w| w.pos));
    }
    let entry = suite::by_name(benchmark)?;
    let stores = Arc::new(record_stores(&mut entry.build(seed), warmup, &wanted));
    registry()
        .lock()
        .expect("segment-store registry lock")
        .insert(key(benchmark, seed, warmup), stores.clone());
    if let Some(dir) = dir_from_env() {
        // Best-effort persistence: a worker that cannot read the stores
        // replays, so disk errors are not fatal.
        let _ = persist(&dir, &store_path(&dir, benchmark, seed), &stores.checkpoints);
        let _ = persist(&dir, &warm_store_path(&dir, benchmark, seed, warmup), &stores.images);
    }
    Some(stores)
}

/// The pre-warm-up positions of a segmented streaming run: for each of
/// `segments` even slices of `accesses`, the point where a replaying
/// worker starts feeding its `warmup`-access window to the hierarchy.
/// Zero positions (segments whose whole prefix is warm-up) are omitted.
/// The engine records nothing here; `perfbench` times a checkpoint
/// recording at these positions.
pub fn segment_targets(accesses: u64, segments: u32, warmup: u64) -> Vec<u64> {
    (0..segments)
        .map(|segment| {
            let start = ltc_trace::TraceSegment::nth(accesses, segments, segment).start;
            start - start.min(warmup)
        })
        .filter(|&t| t > 0)
        .collect()
}

/// The slice-start positions of a segmented streaming run (zero
/// omitted): where [`ensure`] records checkpoints and warm images.
pub fn segment_starts(accesses: u64, segments: u32) -> Vec<u64> {
    (0..segments)
        .map(|segment| ltc_trace::TraceSegment::nth(accesses, segments, segment).start)
        .filter(|&s| s > 0)
        .collect()
}

/// One-stop preparation for a segmented run over `(benchmark, seed)`:
/// records the checkpoints and warm images at each slice start. Used by
/// the sequential [`crate::engine::Mode::StreamSegmented`] execution
/// path; the scheduler performs the same preparation batched across
/// specs, with traces in parallel.
pub fn prepare_segments(benchmark: &str, seed: u64, accesses: u64, segments: u32, warmup: u64) {
    ensure(benchmark, seed, warmup, &segment_starts(accesses, segments));
}

/// The stores for `(benchmark, seed, warmup)`, if both have been
/// recorded: the process registry first, then the on-disk stores under
/// [`CHECKPOINT_DIR_ENV`] (cached into the registry on hit). `None` when
/// either store is absent or corrupt.
pub fn lookup(benchmark: &str, seed: u64, warmup: u64) -> Option<Arc<SegmentStores>> {
    let key = key(benchmark, seed, warmup);
    if let Some(stores) = registry().lock().expect("segment-store registry lock").get(&key) {
        return Some(stores.clone());
    }
    let dir = dir_from_env()?;
    let stores = Arc::new(SegmentStores {
        checkpoints: load_disk_store(&store_path(&dir, benchmark, seed), "checkpoint")?,
        images: load_disk_store(&warm_store_path(&dir, benchmark, seed, warmup), "warm-image")?,
    });
    registry().lock().expect("segment-store registry lock").insert(key, stores.clone());
    Some(stores)
}

/// The encoding of the stores' bulk vectors, tagged into their file
/// stems: little-endian bytes in base64 ([`ltc_trace::packed`]). Stores
/// written in another encoding (the decimal arrays of earlier builds)
/// sit under other names, so a reused directory never offers them.
const STORE_ENCODING: &str = "b64le";

/// The on-disk path of the checkpoint store for `(benchmark, seed)`
/// under `dir`. Generator state does not depend on the warm-up, so
/// every warm-up of a trace shares this file.
///
/// The stem carries a tag naming the stores' encoding (`b64le`: bulk
/// vectors as [`ltc_trace::packed`] strings) and hashes benchmark, seed
/// **and** model version, so stores recorded under older generator
/// behaviour or in another encoding are never read.
pub fn store_path(dir: &Path, benchmark: &str, seed: u64) -> PathBuf {
    let id = format!("{benchmark}|{seed}|v{MODEL_VERSION}");
    dir.join(format!("ckpt_{STORE_ENCODING}_{:016x}.json", fnv1a64(id.as_bytes())))
}

/// The on-disk path of the warm-image store for `(benchmark, seed,
/// warmup)` under `dir`. The warm-up length is part of the identity: it
/// changes the captured window, so differently-configured runs must
/// never share images. The stem carries the encoding tag as
/// [`store_path`]'s does.
pub fn warm_store_path(dir: &Path, benchmark: &str, seed: u64, warmup: u64) -> PathBuf {
    let id = format!("{benchmark}|{seed}|w{warmup}|v{MODEL_VERSION}");
    dir.join(format!("warm_{STORE_ENCODING}_{:016x}.json", fnv1a64(id.as_bytes())))
}

/// Reads and parses a JSON store file, tolerating damage: a missing
/// file is a silent miss (the normal cold-cache case), while unparsable,
/// non-UTF-8 or shape-mismatched content — a torn write from a crashed
/// recorder, manual truncation — emits one structured `corrupt_store`
/// warning event (which falls back to stderr when no telemetry
/// subscriber is installed) and degrades to a miss so the worker
/// replays instead of failing the run.
fn load_disk_store<T: for<'de> Deserialize<'de>>(path: &Path, what: &str) -> Option<T> {
    let bytes = fs::read(path).ok()?;
    let parsed = std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| serde_json::parse(text.trim()).ok())
        .and_then(|value: Value| T::from_value(&value).ok());
    if parsed.is_none() {
        ltc_telemetry::warning(
            "corrupt_store",
            &format!(
                "ignoring corrupt {what} store at {}; workers fall back to replay",
                path.display()
            ),
            vec![
                ("store".to_string(), what.into()),
                ("path".to_string(), path.display().to_string().into()),
            ],
        );
    }
    parsed
}

/// Writes one store file under `dir`, creating the directory.
fn persist<T: Serialize>(dir: &Path, path: &Path, store: &T) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    // Atomic, fsynced replace: concurrent ensure passes (several
    // schedulers, or a scheduler racing its own workers) must never
    // expose a half-written file to a reader, and a crash must not be
    // able to tear one.
    crate::engine::fsutil::write_atomic(path, serde_json::to_string(store).as_bytes())
}

fn key(benchmark: &str, seed: u64, warmup: u64) -> (String, u64, u64) {
    (benchmark.to_string(), seed, warmup)
}

fn dir_from_env() -> Option<PathBuf> {
    let dir = std::env::var_os(CHECKPOINT_DIR_ENV)?;
    if dir.is_empty() {
        return None;
    }
    let dir = PathBuf::from(dir);
    // First touch of the checkpoint dir in this process: reclaim any
    // staging files a crashed predecessor leaked (cheap after once).
    crate::engine::fsutil::sweep_once(&dir);
    Some(dir)
}

type Registry = Mutex<HashMap<(String, u64, u64), Arc<SegmentStores>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_analysis::SEGMENT_WARMUP;

    #[test]
    fn record_targets_resumes_streams_exactly() {
        let entry = suite::by_name("gcc").unwrap();
        let mut reference = entry.build(5);
        let expected = reference.collect_accesses(3_000);

        let store = record_targets(&mut entry.build(5), &[0, 1_000, 2_500]);
        assert_eq!(store.len(), 3);
        for &pos in &[0u64, 1_000, 2_500] {
            let c = store.at(pos).expect("target recorded");
            let mut resumed = entry.build(5);
            resumed.restore(&c.state).unwrap();
            assert_eq!(
                resumed.collect_accesses(100),
                expected[pos as usize..pos as usize + 100],
                "restored stream diverges at {pos}"
            );
        }
    }

    #[test]
    fn record_targets_collapses_duplicates_and_sorts() {
        let entry = suite::by_name("gzip").unwrap();
        let store = record_targets(&mut entry.build(1), &[500, 100, 500, 100]);
        assert_eq!(store.len(), 2);
        let positions: Vec<u64> = store.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![100, 500]);
    }

    #[test]
    fn ensure_registers_and_lookup_serves() {
        // Distinct seed so other tests sharing the process registry
        // cannot interfere.
        let seed = 0xc0fe;
        let warmup = 500;
        assert!(lookup("mcf", seed, warmup).is_none());
        let stores = ensure("mcf", seed, warmup, &[0, 2_000]).expect("known benchmark");
        assert!(stores.at(2_000).is_some(), "both halves recorded at a non-zero start");
        assert!(stores.checkpoints.at(0).is_none(), "zero starts are skipped");
        assert!(stores.images.at(0).is_none(), "zero starts are skipped");
        let again = lookup("mcf", seed, warmup).expect("registry hit");
        assert!(Arc::ptr_eq(&stores, &again));
        // Covered starts do not trigger a new recording pass.
        let served = ensure("mcf", seed, warmup, &[2_000]).unwrap();
        assert!(Arc::ptr_eq(&stores, &served));
        assert!(ensure("no-such-benchmark", seed, warmup, &[1]).is_none());
    }

    #[test]
    fn ensure_warm_registers_and_extends() {
        let seed = 0xbeef;
        let warmup = SEGMENT_WARMUP;
        assert!(lookup("swim", seed, warmup).is_none());
        let stores = ensure("swim", seed, warmup, &[1_000]).expect("known benchmark");
        assert!(stores.images.at(1_000).is_some());
        let served = ensure("swim", seed, warmup, &[1_000]).unwrap();
        assert!(Arc::ptr_eq(&stores, &served), "covered starts are not re-recorded");
        // A new start extends both stores by one pass over the union.
        let extended = ensure("swim", seed, warmup, &[2_500]).unwrap();
        assert!(extended.at(1_000).is_some());
        assert!(extended.at(2_500).is_some());
        assert_eq!(extended.images.len(), 2);
        // A different warm-up length is a different entry.
        assert!(lookup("swim", seed, warmup + 1).is_none());
    }

    #[test]
    fn warm_images_match_the_replay_path_exactly() {
        // The recorded image must equal the hierarchy a worker builds by
        // the replay path: skip to start − warm, then replay the window.
        let entry = suite::by_name("gcc").unwrap();
        let warmup = 1_500u64;
        let starts = [800u64, 2_000, 2_600]; // overlapping + short-prefix windows
        let store = record_warm_images(&mut entry.build(7), warmup, &starts);
        assert_eq!(store.len(), starts.len());
        for &start in &starts {
            let image = store.at(start).expect("image recorded");
            let warm = start.min(warmup);
            let mut src = entry.build(7);
            for _ in 0..start - warm {
                src.next_access();
            }
            let mut h = Hierarchy::new(HierarchyConfig::paper());
            for _ in 0..warm {
                let a = src.next_access().expect("trace long enough");
                h.access(a.addr, a.kind);
            }
            assert_eq!(image.image, h.to_image(), "image diverges from replay at {start}");
        }
    }

    /// A source that counts the accesses drawn through it.
    struct Counting<S> {
        inner: S,
        drawn: u64,
    }

    impl<S: TraceSource> TraceSource for Counting<S> {
        fn next_access(&mut self) -> Option<ltc_trace::MemoryAccess> {
            self.drawn += 1;
            self.inner.next_access()
        }

        fn checkpoint(&self) -> Option<ltc_trace::SourceState> {
            self.inner.checkpoint()
        }
    }

    #[test]
    fn record_stores_matches_both_recorders_in_one_walk() {
        let warmup = 2_000;
        let starts = segment_starts(40_000, 4);
        let last = *starts.iter().max().unwrap();
        for entry in suite::benchmarks() {
            let mut source = Counting { inner: entry.build(1), drawn: 0 };
            let stores = record_stores(&mut source, warmup, &starts);
            assert_eq!(source.drawn, last, "{}: one walk to the last start", entry.name);
            assert_eq!(
                stores.checkpoints,
                record_targets(&mut entry.build(1), &starts),
                "{}: checkpoints",
                entry.name
            );
            assert_eq!(
                stores.images,
                record_warm_images(&mut entry.build(1), warmup, &starts),
                "{}: warm images",
                entry.name
            );
            assert_eq!(stores.checkpoints.len(), starts.len(), "{}", entry.name);
        }
    }

    #[test]
    fn warm_store_round_trips_and_indexes_by_position() {
        let entry = suite::by_name("gzip").unwrap();
        let store = record_warm_images(&mut entry.build(3), 400, &[900, 300, 900, 0]);
        assert_eq!(store.len(), 2, "duplicates and zero collapse");
        assert!(store.at(300).is_some());
        assert!(store.at(900).is_some());
        assert!(store.at(600).is_none());
        let parsed: WarmStore =
            serde_json::from_str(&serde_json::to_string(&store)).expect("parses");
        assert_eq!(parsed, store);
    }

    #[test]
    fn corrupt_disk_store_degrades_to_a_miss() {
        // Satellite regression: a half-written (torn) store file must be
        // ignored with a fallback, never a panic or a parse abort.
        let dir = std::env::temp_dir().join(format!("ltc-ckpt-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let entry = suite::by_name("mcf").unwrap();
        let store = record_warm_images(&mut entry.build(1), 500, &[1_200]);
        let full = serde_json::to_string(&store);

        // Truncate mid-document, as a crashed writer without the atomic
        // rename would leave it.
        let warm_path = warm_store_path(&dir, "mcf", 1, 500);
        fs::write(&warm_path, &full[..full.len() / 2]).unwrap();
        assert!(load_disk_store::<WarmStore>(&warm_path, "warm-image").is_none());

        let ckpt_path = store_path(&dir, "mcf", 1);
        fs::write(&ckpt_path, "{\"checkpoints\": [tr").unwrap();
        assert!(load_disk_store::<CheckpointStore>(&ckpt_path, "checkpoint").is_none());

        // Valid JSON of the wrong shape is also a miss, not a panic.
        fs::write(&warm_path, "{\"images\": 7}").unwrap();
        assert!(load_disk_store::<WarmStore>(&warm_path, "warm-image").is_none());

        // Bytes that are not UTF-8 are damage like any other: a miss and
        // a `corrupt_store` warning.
        fs::write(&ckpt_path, b"\xff\xfe\x00garbage").unwrap();
        let capture = Arc::new(ltc_telemetry::Capture::new());
        let loaded = ltc_telemetry::with_subscriber(capture.clone(), || {
            load_disk_store::<CheckpointStore>(&ckpt_path, "checkpoint")
        });
        assert!(loaded.is_none());
        assert_eq!(capture.named("corrupt_store").len(), 1);

        // An intact file still loads.
        fs::write(&warm_path, &full).unwrap();
        let loaded = load_disk_store::<WarmStore>(&warm_path, "warm-image").expect("intact loads");
        assert_eq!(loaded, store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `full` with the packed string that follows the first `"key":`
    /// replaced by `damage` of it.
    fn damage_packed(full: &str, key: &str, damage: impl Fn(&str) -> String) -> String {
        let at = full.find(&format!("\"{key}\":\"")).expect("packed field present") + key.len() + 4;
        let end = at + full[at..].find('"').expect("closing quote");
        format!("{}{}{}", &full[..at], damage(&full[at..end]), &full[end..])
    }

    /// The ways a packed vector can be damaged: a length that is not
    /// whole quads, a byte outside the alphabet, bytes that do not split
    /// into whole `T` elements, and one element too few.
    fn packed_damage<T: ltc_trace::packed::Packed>(
        full: &str,
        key: &str,
    ) -> Vec<(&'static str, String)> {
        use ltc_trace::packed;
        vec![
            ("bad length", damage_packed(full, key, |p| p[..p.len() - 1].to_string())),
            ("non-alphabet byte", damage_packed(full, key, |p| format!("-{}", &p[1..]))),
            (
                "partial element",
                damage_packed(full, key, |p| {
                    let bytes: Vec<u8> = packed::decode(p).unwrap();
                    packed::encode(&bytes[..bytes.len() - 1])
                }),
            ),
            (
                "one element short",
                damage_packed(full, key, |p| {
                    let values: Vec<T> = packed::decode(p).unwrap();
                    packed::encode(&values[..values.len() - 1])
                }),
            ),
        ]
    }

    #[test]
    fn corrupt_store_warns_exactly_once_and_replay_fallback_succeeds() {
        use ltc_analysis::{StreamAnalysis, StreamConfig};
        use ltc_telemetry::{Capture, EventKind, FieldValue};
        use ltc_trace::TraceSegment;

        let dir = std::env::temp_dir().join(format!("ltc-ckpt-warn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // mcf mutates its traversal order, so its checkpoints carry one
        // packed vector and its warm images four per level.
        let entry = suite::by_name("mcf").unwrap();
        let warmup = 500u64;
        let start = 1_200u64;
        let stores = record_stores(&mut entry.build(1), warmup, &[start]);
        let images = serde_json::to_string(&stores.images);
        let checkpoints = serde_json::to_string(&stores.checkpoints);
        let warm_path = warm_store_path(&dir, "mcf", 1, warmup);
        let ckpt_path = store_path(&dir, "mcf", 1);

        // A torn write, and each damage to a packed vector: `tags` is the
        // first of the first image, where one element short disagrees
        // with the geometry's slot count. A short traversal order is
        // refused on restore, not on load, so it is left out.
        let mut cases = vec![("torn write", "warm-image", images[..images.len() / 2].to_string())];
        cases.extend(
            packed_damage::<u64>(&images, "tags").into_iter().map(|(w, t)| (w, "warm-image", t)),
        );
        cases.extend(
            packed_damage::<u32>(&checkpoints, "order")
                .into_iter()
                .take(3)
                .map(|(w, t)| (w, "checkpoint", t)),
        );
        let cfg = StreamConfig::with_budget(32 << 10).with_warmup(warmup);
        let seg = TraceSegment { index: 1, segments: 2, start, len: 400 };
        let via_pair = StreamAnalysis::run_segment_with(
            &mut entry.build(1),
            seg,
            cfg,
            stores.checkpoints.at(start),
            stores.images.at(start),
        );
        for (what, store, text) in cases {
            fs::write(&warm_path, &images).unwrap();
            fs::write(&ckpt_path, &checkpoints).unwrap();
            fs::write(if store == "checkpoint" { &ckpt_path } else { &warm_path }, text).unwrap();

            // The corrupt store is one miss and exactly one structured
            // warning event (no stderr-only path once a subscriber
            // exists), and the miss degrades to the replay path, which
            // still produces the byte-identical partial the intact pair
            // would have.
            let capture = Arc::new(Capture::new());
            let partial = ltc_telemetry::with_subscriber(capture.clone(), || {
                let checkpoints = load_disk_store::<CheckpointStore>(&ckpt_path, "checkpoint");
                let images = load_disk_store::<WarmStore>(&warm_path, "warm-image");
                assert!(checkpoints.zip(images).is_none(), "{what}: a damaged store loaded");
                StreamAnalysis::run_segment_with(&mut entry.build(1), seg, cfg, None, None)
            });
            let warnings = capture.named("corrupt_store");
            assert_eq!(warnings.len(), 1, "{what}: exactly one warning event per corrupt load");
            assert_eq!(warnings[0].kind, EventKind::Warning);
            assert_eq!(warnings[0].field("store"), Some(&FieldValue::Str(store.into())), "{what}");
            match warnings[0].field("message") {
                Some(FieldValue::Str(m)) => assert!(m.contains(&format!("corrupt {store} store"))),
                other => panic!("missing message field: {other:?}"),
            }
            let restores = capture.named("segment_restore");
            assert_eq!(restores[0].field("outcome"), Some(&FieldValue::Str("replay".into())));
            assert_eq!(partial, via_pair, "{what}: replay fallback diverged from the pair");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_decimal_array_store_from_an_earlier_build_is_never_read() {
        use ltc_telemetry::Capture;

        let dir = std::env::temp_dir().join(format!("ltc-ckpt-decimal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let entry = suite::by_name("gzip").unwrap();
        let store = record_warm_images(&mut entry.build(1), 400, &[900]);
        // The store as earlier builds wrote it: every per-slot vector a
        // decimal array, under a stem without the encoding tag.
        let image = &store.iter().next().unwrap().image;
        let decimal = |c: &ltc_cache::CacheImage| {
            format!(
                "{{\"config\":{},\"tags\":{},\"state\":{},\"fill\":{},\"touch\":{},\"seq\":{},\"stats\":{}}}",
                serde_json::to_string(&c.config),
                serde_json::to_string(&c.tags),
                serde_json::to_string(&c.state),
                serde_json::to_string(&c.fill),
                serde_json::to_string(&c.touch),
                c.seq,
                serde_json::to_string(&c.stats),
            )
        };
        let text = format!(
            "{{\"images\":[{{\"pos\":900,\"image\":{{\"l1\":{},\"l2\":{}}}}}]}}",
            decimal(&image.l1),
            decimal(&image.l2)
        );
        let id = format!("gzip|1|w400|v{MODEL_VERSION}");
        let old_path = dir.join(format!("warm_{:016x}.json", fnv1a64(id.as_bytes())));
        fs::write(&old_path, &text).unwrap();
        let path = warm_store_path(&dir, "gzip", 1, 400);
        assert_ne!(path, old_path, "the encoding tag moves the stem");

        let capture = Arc::new(Capture::new());
        let loaded = ltc_telemetry::with_subscriber(capture.clone(), || {
            load_disk_store::<WarmStore>(&path, "warm-image")
        });
        assert!(loaded.is_none(), "nothing at the tagged stem");
        assert!(capture.named("corrupt_store").is_empty(), "the old stem is not even opened");

        // Even under the new stem the decimal form is refused, loudly.
        fs::write(&path, &text).unwrap();
        let capture = Arc::new(Capture::new());
        let loaded = ltc_telemetry::with_subscriber(capture.clone(), || {
            load_disk_store::<WarmStore>(&path, "warm-image")
        });
        assert!(loaded.is_none());
        assert_eq!(capture.named("corrupt_store").len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_checkpoint_replays_on_an_untouched_source() {
        use ltc_analysis::{StreamAnalysis, StreamConfig};
        use ltc_telemetry::{Capture, FieldValue};
        use ltc_trace::{SourceState, TraceSegment};

        // gcc's state at 12 000 nests sweep, chase and sweep states. With
        // the third swapped for the chase's, the restore fails after two
        // phases; the worker must still replay an untouched source.
        let entry = suite::by_name("gcc").unwrap();
        let start = 12_000;
        let cfg = StreamConfig::with_budget(32 << 10);
        let seg = TraceSegment { index: 1, segments: 2, start, len: 4_000 };
        let mut checkpoint =
            record_targets(&mut entry.build(1), &[start]).at(start).unwrap().clone();
        let SourceState::Phase { phases, .. } = &mut checkpoint.state else {
            panic!("gcc is a phase mix")
        };
        let kinds: Vec<&str> = phases.iter().map(SourceState::kind).collect();
        assert_eq!(kinds, ["sweep", "chase", "sweep"]);
        phases[2] = phases[1].clone();
        let images = record_warm_images(&mut entry.build(1), cfg.warmup, &[start]);

        let capture = Arc::new(Capture::new());
        let partial = ltc_telemetry::with_subscriber(capture.clone(), || {
            StreamAnalysis::run_segment_with(
                &mut entry.build(1),
                seg,
                cfg,
                Some(&checkpoint),
                images.at(start),
            )
        });
        assert_eq!(partial, StreamAnalysis::run_segment(&mut entry.build(1), seg, cfg));
        let points = capture.named("segment_restore");
        assert_eq!(points[0].field("reason"), Some(&FieldValue::Str("restore_failed".into())));
    }

    #[test]
    fn segment_helpers_cover_starts_and_targets() {
        let targets = segment_targets(40_000, 4, 5_000);
        assert_eq!(targets, vec![5_000, 15_000, 25_000], "start − warm, zero omitted");
        let starts = segment_starts(40_000, 4);
        assert_eq!(starts, vec![10_000, 20_000, 30_000], "slice starts, zero omitted");
        // A warm-up longer than any prefix leaves nothing to seek to.
        assert!(segment_targets(40_000, 4, SEGMENT_WARMUP).is_empty());
    }
}
