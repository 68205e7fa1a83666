//! Shared generator checkpoints and warm hierarchy images for segmented
//! streaming runs.
//!
//! A segmented worker used to pay O(start) generator work just to reach
//! its slice: segment `i` of `N` skips `i·S/N` accesses before the
//! warm-up window, so the *total* setup across a run grew quadratically
//! with the trace (≈ N·S/2 skipped accesses at N segments). The suite's
//! generators are now checkpointable ([`ltc_trace::SourceState`]), which
//! turns that into a one-time *recording* pass: walk one source to each
//! segment's pre-warm-up position, snapshot it there, and let every
//! worker restore its snapshot instead of regenerating the prefix —
//! O(S) total recording plus O(warm-up) per worker.
//!
//! The remaining per-worker cost — replaying the warm-up window through
//! a cold hierarchy — is removed the same way: the recording pass also
//! replays each window once and snapshots the *simulated hierarchy* at
//! the slice start (a [`WarmImage`]). A worker that finds an image for
//! its exact start restores the cache state directly and skips the
//! replay entirely; paired with a checkpoint at the start itself, its
//! setup collapses to O(1). The image holds the state the replay would
//! have produced, so results stay byte-identical either way (asserted
//! by the cross-backend equality tests and the nightly A/B diff).
//! Setting the `LTC_NO_WARM_IMAGES` environment variable (non-empty)
//! disables recording and lookup, forcing the replay path.
//!
//! Checkpoints are keyed by `(benchmark, seed)` — together with the
//! model version these fully determine the access stream — and warm
//! images additionally by the configured warm-up length
//! ([`ltc_analysis::StreamConfig::warmup`], which changes the window and
//! therefore the state). Both live in two tiers:
//!
//! 1. a process-global registry, which the in-process `threads` backend
//!    hits directly, and
//! 2. an optional on-disk store under the directory named by the
//!    `LTC_CHECKPOINT_DIR` environment variable, which `subprocess`
//!    workers (separate processes that inherit the variable) read.
//!
//! The scheduler's pre-pass fills both tiers before any segment worker
//! starts: one job per `(benchmark, seed)` records that trace's warm
//! images and then its checkpoints ([`ensure_warm`], [`ensure`]), and
//! the jobs run on [`EngineOptions::threads`](crate::engine::EngineOptions::threads)
//! scoped threads. Concurrent jobs are safe: each writes only its own
//! trace's store files (atomically), both registries are mutex-guarded,
//! and so is the staging-file sweep, so the stores are byte-identical
//! at any thread count.
//!
//! Restoring a checkpoint reproduces the generator state exactly, so
//! the access stream a worker sees — and every report built from it —
//! is byte-identical to the skip-loop path ([`ltc_analysis::StreamAnalysis::
//! run_segment_with`] falls back to plain skipping whenever no usable
//! checkpoint exists, e.g. for non-checkpointable external sources). A
//! corrupt or truncated on-disk store is ignored with a warning — the
//! worker falls back rather than failing the run.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use ltc_analysis::WarmImage;
use ltc_cache::{Hierarchy, HierarchyConfig};
use ltc_trace::{suite, Checkpoint, CheckpointStore, TraceSource};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::engine::spec::{fnv1a64, MODEL_VERSION};

/// Environment variable naming the on-disk checkpoint directory.
///
/// When set, [`ensure`] persists recorded stores there and [`lookup`]
/// falls back to it, so `ltsim worker` subprocesses (which inherit the
/// variable) reuse the parent's recording pass.
pub const CHECKPOINT_DIR_ENV: &str = "LTC_CHECKPOINT_DIR";

/// Environment variable disabling warm hierarchy images (any non-empty
/// value). Workers then warm up by replay, the behaviour the images
/// must reproduce byte-identically — the nightly CI job runs a
/// segmented stream on subprocess workers both ways and diffs the
/// reports.
pub const NO_WARM_IMAGES_ENV: &str = "LTC_NO_WARM_IMAGES";

/// Whether warm hierarchy images are disabled via [`NO_WARM_IMAGES_ENV`].
pub fn warm_images_disabled() -> bool {
    std::env::var_os(NO_WARM_IMAGES_ENV).is_some_and(|v| !v.is_empty())
}

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
    let mut sorted: Vec<u64> = starts.iter().copied().filter(|&s| s > 0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut store = WarmStore::default();
    let mut active: Vec<(u64, Hierarchy)> = Vec::new();
    let mut next = 0usize;
    let mut pos = 0u64;
    loop {
        // Window starts are non-decreasing along `sorted`, so each opens
        // exactly when the walk reaches it.
        while next < sorted.len() && sorted[next] - sorted[next].min(warmup) <= pos {
            active.push((sorted[next], Hierarchy::new(HierarchyConfig::paper())));
            next += 1;
        }
        while let Some(i) = active.iter().position(|(start, _)| *start == pos) {
            let (start, hierarchy) = active.swap_remove(i);
            store.insert(WarmImage { pos: start, image: hierarchy.to_image() });
        }
        if next >= sorted.len() && active.is_empty() {
            break;
        }
        let Some(a) = source.next_access() else { break };
        for (_, hierarchy) in &mut active {
            hierarchy.access(a.addr, a.kind);
        }
        pos += 1;
    }
    store
}

/// Makes checkpoints for `(benchmark, seed)` at every position in
/// `targets` available to [`lookup`], recording them if needed.
///
/// Positions already covered by the registry or the on-disk store are
/// not re-recorded; a partially-covering store is extended by one
/// recording pass over the union of its positions and the missing
/// targets. The result lands in the process registry and — when
/// [`CHECKPOINT_DIR_ENV`] is set — on disk for subprocess workers.
/// Returns `None` for an unknown benchmark; zero targets are skipped
/// (a fresh source already *is* position zero).
pub fn ensure(benchmark: &str, seed: u64, targets: &[u64]) -> Option<Arc<CheckpointStore>> {
    let wanted: Vec<u64> = {
        let mut t: Vec<u64> = targets.iter().copied().filter(|&t| t > 0).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let existing = lookup(benchmark, seed);
    if let Some(store) = &existing {
        if wanted.iter().all(|&t| store.at(t).is_some()) {
            return existing;
        }
    }
    let entry = suite::by_name(benchmark)?;
    let mut union = wanted;
    if let Some(store) = &existing {
        union.extend(store.iter().map(|c| c.pos));
    }
    let store = Arc::new(record_targets(&mut entry.build(seed), &union));
    registry()
        .lock()
        .expect("checkpoint registry lock")
        .insert(key(benchmark, seed), store.clone());
    if let Some(dir) = dir_from_env() {
        // Best-effort persistence: a worker that cannot read the store
        // falls back to the skip loop, so disk errors are not fatal.
        let _ = persist(&dir, benchmark, seed, &store);
    }
    Some(store)
}

/// Makes warm images for `(benchmark, seed, warmup)` at every slice
/// start in `starts` available to [`lookup_warm`], recording them if
/// needed — the warm-image counterpart of [`ensure`].
///
/// Returns `None` for an unknown benchmark or when warm images are
/// disabled ([`NO_WARM_IMAGES_ENV`]). Start zero is skipped (no warm-up
/// window to capture).
pub fn ensure_warm(
    benchmark: &str,
    seed: u64,
    warmup: u64,
    starts: &[u64],
) -> Option<Arc<WarmStore>> {
    if warm_images_disabled() {
        return None;
    }
    let wanted: Vec<u64> = {
        let mut s: Vec<u64> = starts.iter().copied().filter(|&s| s > 0).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let existing = lookup_warm(benchmark, seed, warmup);
    if let Some(store) = &existing {
        if wanted.iter().all(|&s| store.at(s).is_some()) {
            return existing;
        }
    }
    let entry = suite::by_name(benchmark)?;
    let mut union = wanted;
    if let Some(store) = &existing {
        union.extend(store.iter().map(|w| w.pos));
    }
    let store = Arc::new(record_warm_images(&mut entry.build(seed), warmup, &union));
    warm_registry()
        .lock()
        .expect("warm-image registry lock")
        .insert(warm_key(benchmark, seed, warmup), store.clone());
    if let Some(dir) = dir_from_env() {
        let _ = persist_warm(&dir, benchmark, seed, warmup, &store);
    }
    Some(store)
}

/// The pre-warm-up checkpoint positions of a segmented streaming run:
/// for each of `segments` even slices of `accesses`, the point a worker
/// must reach before its `warmup`-access warm replay begins. Zero
/// positions (segments whose whole prefix is warm-up) are omitted —
/// those workers generate everything anyway.
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
/// omitted): where warm images are snapshotted, and where the fast-path
/// generator checkpoints land when images are enabled.
pub fn segment_starts(accesses: u64, segments: u32) -> Vec<u64> {
    (0..segments)
        .map(|segment| ltc_trace::TraceSegment::nth(accesses, segments, segment).start)
        .filter(|&s| s > 0)
        .collect()
}

/// One-stop preparation for a segmented run over `(benchmark, seed)`:
/// records the pre-warm-up generator checkpoints, and — unless disabled
/// — the warm images at each slice start plus the slice-start
/// checkpoints that let an image-restoring worker seek straight to its
/// slice. Used by the sequential [`crate::engine::Mode::StreamSegmented`]
/// execution path; the scheduler performs the same preparation batched
/// across specs, with traces in parallel.
pub fn prepare_segments(benchmark: &str, seed: u64, accesses: u64, segments: u32, warmup: u64) {
    let mut targets = segment_targets(accesses, segments, warmup);
    if !warm_images_disabled() {
        let starts = segment_starts(accesses, segments);
        ensure_warm(benchmark, seed, warmup, &starts);
        targets.extend(starts);
    }
    ensure(benchmark, seed, &targets);
}

/// The checkpoint store for `(benchmark, seed)`, if one has been
/// recorded: the process registry first, then the on-disk store named
/// by [`CHECKPOINT_DIR_ENV`] (cached into the registry on hit).
pub fn lookup(benchmark: &str, seed: u64) -> Option<Arc<CheckpointStore>> {
    if let Some(store) =
        registry().lock().expect("checkpoint registry lock").get(&key(benchmark, seed))
    {
        return Some(store.clone());
    }
    let dir = dir_from_env()?;
    let store: CheckpointStore = load_disk_store(&store_path(&dir, benchmark, seed), "checkpoint")?;
    let store = Arc::new(store);
    registry()
        .lock()
        .expect("checkpoint registry lock")
        .insert(key(benchmark, seed), store.clone());
    Some(store)
}

/// The warm-image store for `(benchmark, seed, warmup)`, if one has
/// been recorded: process registry first, then the on-disk store under
/// [`CHECKPOINT_DIR_ENV`]. Always `None` when images are disabled via
/// [`NO_WARM_IMAGES_ENV`].
pub fn lookup_warm(benchmark: &str, seed: u64, warmup: u64) -> Option<Arc<WarmStore>> {
    if warm_images_disabled() {
        return None;
    }
    if let Some(store) = warm_registry()
        .lock()
        .expect("warm-image registry lock")
        .get(&warm_key(benchmark, seed, warmup))
    {
        return Some(store.clone());
    }
    let dir = dir_from_env()?;
    let store: WarmStore =
        load_disk_store(&warm_store_path(&dir, benchmark, seed, warmup), "warm-image")?;
    let store = Arc::new(store);
    warm_registry()
        .lock()
        .expect("warm-image registry lock")
        .insert(warm_key(benchmark, seed, warmup), store.clone());
    Some(store)
}

/// The on-disk path of the store for `(benchmark, seed)` under `dir`.
///
/// The stem hashes benchmark, seed **and** model version, so stores
/// recorded under older generator behaviour can never be restored into
/// a newer model.
pub fn store_path(dir: &Path, benchmark: &str, seed: u64) -> PathBuf {
    let id = format!("{benchmark}|{seed}|v{MODEL_VERSION}");
    dir.join(format!("ckpt_{:016x}.json", fnv1a64(id.as_bytes())))
}

/// The on-disk path of the warm-image store for `(benchmark, seed,
/// warmup)` under `dir`. The warm-up length is part of the identity: it
/// changes the captured window, so differently-configured runs must
/// never share images.
pub fn warm_store_path(dir: &Path, benchmark: &str, seed: u64, warmup: u64) -> PathBuf {
    let id = format!("{benchmark}|{seed}|w{warmup}|v{MODEL_VERSION}");
    dir.join(format!("warm_{:016x}.json", fnv1a64(id.as_bytes())))
}

/// Reads and parses a JSON store file, tolerating damage: a missing
/// file is a silent miss (the normal cold-cache case), while unparsable
/// or shape-mismatched content — a torn write from a crashed recorder,
/// manual truncation — emits one structured `corrupt_store` warning
/// event (which falls back to stderr when no telemetry subscriber is
/// installed) and degrades to a miss so the worker falls back to the
/// replay path instead of failing the run.
fn load_disk_store<T: for<'de> Deserialize<'de>>(path: &Path, what: &str) -> Option<T> {
    let text = fs::read_to_string(path).ok()?;
    let parsed = serde_json::parse(text.trim())
        .ok()
        .and_then(|value: Value| T::from_value(&value).map_err(|_: DeError| ()).ok());
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

fn persist(dir: &Path, benchmark: &str, seed: u64, store: &CheckpointStore) -> std::io::Result<()> {
    let path = store_path(dir, benchmark, seed);
    persist_at(dir, &path, serde_json::to_string(store))
}

fn persist_warm(
    dir: &Path,
    benchmark: &str,
    seed: u64,
    warmup: u64,
    store: &WarmStore,
) -> std::io::Result<()> {
    let path = warm_store_path(dir, benchmark, seed, warmup);
    persist_at(dir, &path, serde_json::to_string(store))
}

fn persist_at(dir: &Path, path: &Path, json: String) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    // Atomic, fsynced replace: concurrent ensure passes (several
    // schedulers, or a scheduler racing its own workers) must never
    // expose a half-written file to a reader, and a crash must not be
    // able to tear one.
    crate::engine::fsutil::write_atomic(path, json.as_bytes())
}

fn key(benchmark: &str, seed: u64) -> (String, u64) {
    (benchmark.to_string(), seed)
}

fn warm_key(benchmark: &str, seed: u64, warmup: u64) -> (String, u64, u64) {
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

type Registry = Mutex<HashMap<(String, u64), Arc<CheckpointStore>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

type WarmRegistry = Mutex<HashMap<(String, u64, u64), Arc<WarmStore>>>;

fn warm_registry() -> &'static WarmRegistry {
    static REGISTRY: OnceLock<WarmRegistry> = OnceLock::new();
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
        assert!(lookup("mcf", seed).is_none());
        let store = ensure("mcf", seed, &[0, 2_000]).expect("known benchmark");
        assert!(store.at(2_000).is_some(), "non-zero target recorded");
        assert!(store.at(0).is_none(), "zero targets are skipped");
        let again = lookup("mcf", seed).expect("registry hit");
        assert!(Arc::ptr_eq(&store, &again));
        // Covered targets do not trigger a new recording pass.
        let served = ensure("mcf", seed, &[2_000]).unwrap();
        assert!(Arc::ptr_eq(&store, &served));
        // A new target extends the store, keeping the old positions.
        let extended = ensure("mcf", seed, &[4_000]).unwrap();
        assert!(extended.at(2_000).is_some());
        assert!(extended.at(4_000).is_some());
        assert!(ensure("no-such-benchmark", seed, &[1]).is_none());
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
    fn ensure_warm_registers_and_extends() {
        let seed = 0xbeef;
        let warmup = SEGMENT_WARMUP;
        assert!(lookup_warm("swim", seed, warmup).is_none());
        let store = ensure_warm("swim", seed, warmup, &[1_000]).expect("known benchmark");
        assert!(store.at(1_000).is_some());
        let served = ensure_warm("swim", seed, warmup, &[1_000]).unwrap();
        assert!(Arc::ptr_eq(&store, &served), "covered starts are not re-recorded");
        let extended = ensure_warm("swim", seed, warmup, &[2_500]).unwrap();
        assert!(extended.at(1_000).is_some());
        assert!(extended.at(2_500).is_some());
        // A different warm-up length is a different store.
        assert!(lookup_warm("swim", seed, warmup + 1).is_none());
        assert!(ensure_warm("no-such-benchmark", seed, warmup, &[1]).is_none());
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

        // An intact file still loads.
        fs::write(&warm_path, &full).unwrap();
        let loaded = load_disk_store::<WarmStore>(&warm_path, "warm-image").expect("intact loads");
        assert_eq!(loaded, store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_warns_exactly_once_and_replay_fallback_succeeds() {
        use ltc_analysis::{StreamAnalysis, StreamConfig};
        use ltc_telemetry::{Capture, EventKind, FieldValue};
        use ltc_trace::TraceSegment;

        let dir = std::env::temp_dir().join(format!("ltc-ckpt-warn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let entry = suite::by_name("gcc").unwrap();
        let warmup = 500u64;
        let start = 1_200u64;
        let store = record_warm_images(&mut entry.build(1), warmup, &[start]);
        let full = serde_json::to_string(&store);
        let warm_path = warm_store_path(&dir, "gcc", 1, warmup);
        fs::write(&warm_path, &full[..full.len() / 2]).unwrap();

        // The corrupt store is one miss and exactly one structured
        // warning event (no stderr-only path once a subscriber exists).
        let capture = std::sync::Arc::new(Capture::new());
        let loaded = ltc_telemetry::with_subscriber(capture.clone(), || {
            load_disk_store::<WarmStore>(&warm_path, "warm-image")
        });
        assert!(loaded.is_none());
        let warnings = capture.named("corrupt_store");
        assert_eq!(warnings.len(), 1, "exactly one warning event per corrupt load");
        assert_eq!(warnings[0].kind, EventKind::Warning);
        assert_eq!(warnings[0].field("store"), Some(&FieldValue::Str("warm-image".into())));
        match warnings[0].field("message") {
            Some(FieldValue::Str(m)) => assert!(m.contains("corrupt warm-image store")),
            other => panic!("missing message field: {other:?}"),
        }

        // The miss degrades to the replay path, which still produces the
        // byte-identical partial the intact image would have.
        let cfg = StreamConfig::with_budget(32 << 10).with_warmup(warmup);
        let seg = TraceSegment { index: 1, segments: 2, start, len: 400 };
        let via_image =
            StreamAnalysis::run_segment_with(&mut entry.build(1), seg, cfg, None, store.at(start));
        let fallback = StreamAnalysis::run_segment_with(&mut entry.build(1), seg, cfg, None, None);
        assert_eq!(fallback, via_image, "replay fallback diverged from the warm image");
        let _ = fs::remove_dir_all(&dir);
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
