//! Serializable warm-state images for caches and hierarchies.
//!
//! A warm image is a faithful snapshot of a simulated cache's mutable
//! state — tag array, state bytes, replacement stamps, sequence counter
//! and counters — plus the [`CacheConfig`] it was captured under.
//! Restoring an image into a freshly built cache reproduces the donor
//! *exactly*, so a segment worker that restores a warm image observes
//! byte-identical behaviour to one that replayed the warm-up prefix.
//!
//! Every restore is validated: the embedded config must describe a
//! buildable geometry, the restore target's config must match it, and
//! every state vector must have exactly one entry per slot. A failed
//! validation is a typed [`ImageError`] — never silent drift.
//!
//! A [`CacheImage`] serializes its four per-slot vectors as
//! [`ltc_trace::packed`] strings, and deserializing one applies the
//! geometry and slot-count checks too, so a damaged on-disk image is
//! refused when it is read.

use ltc_trace::packed;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::cache::Cache;
use crate::config::{CacheConfig, GeometryError};
use crate::hierarchy::{Hierarchy, HierarchyConfig};
use crate::stats::CacheStats;

/// Why a cache or hierarchy image refused to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The image's embedded configuration is not a buildable geometry.
    Geometry(GeometryError),
    /// The restore target is configured differently from the image donor.
    ConfigMismatch {
        /// The restore target's configuration (rendered via `Debug`).
        expected: String,
        /// The image donor's configuration (rendered via `Debug`).
        found: String,
    },
    /// A state vector's length disagrees with the configured slot count.
    Shape {
        /// Which vector was malformed.
        field: &'static str,
        /// Entries the configuration demands.
        expected: usize,
        /// Entries the image carried.
        found: usize,
    },
    /// Any other malformed field (out-of-range counter, bad invariant).
    Invalid(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Geometry(e) => write!(f, "image carries an invalid geometry: {e}"),
            ImageError::ConfigMismatch { expected, found } => {
                write!(f, "image config {found} does not match restore target {expected}")
            }
            ImageError::Shape { field, expected, found } => {
                write!(f, "image field `{field}` has {found} entries, geometry demands {expected}")
            }
            ImageError::Invalid(msg) => write!(f, "invalid image: {msg}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Snapshot of one [`Cache`]'s complete mutable state.
///
/// The parallel vectors mirror the cache's struct-of-arrays tag array
/// (one entry per `set * ways + way` slot); the private replacement
/// stamps are split into `fill`/`touch` halves so the image stays a
/// plain named-field struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheImage {
    /// Geometry the donor was built with (restore targets must match).
    pub config: CacheConfig,
    /// Per-slot tags.
    pub tags: Vec<u64>,
    /// Per-slot state bytes (valid/dirty/pending bits).
    pub state: Vec<u8>,
    /// Per-slot fill stamps.
    pub fill: Vec<u32>,
    /// Per-slot last-touch stamps.
    pub touch: Vec<u32>,
    /// Access sequence counter at capture time.
    pub seq: u64,
    /// Counters accumulated up to capture time.
    pub stats: CacheStats,
}

impl CacheImage {
    /// Bytes of simulated state the image carries: 17 bytes per slot
    /// (8 tag + 1 state + 4 + 4 stamps) plus the fixed header (config,
    /// sequence counter and the eight `u64` counters).
    pub fn image_bytes(&self) -> u64 {
        self.tags.len() as u64 * 17 + 96
    }

    /// Checks that every per-slot vector has exactly `slots` entries.
    pub(crate) fn check_slots(&self, slots: usize) -> Result<(), ImageError> {
        for (field, found) in [
            ("tags", self.tags.len()),
            ("state", self.state.len()),
            ("fill", self.fill.len()),
            ("touch", self.touch.len()),
        ] {
            if found != slots {
                return Err(ImageError::Shape { field, expected: slots, found });
            }
        }
        Ok(())
    }
}

impl Serialize for CacheImage {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("config".to_string(), self.config.to_value()),
            ("tags".to_string(), packed::to_value(&self.tags)),
            ("state".to_string(), packed::to_value(&self.state)),
            ("fill".to_string(), packed::to_value(&self.fill)),
            ("touch".to_string(), packed::to_value(&self.touch)),
            ("seq".to_string(), self.seq.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for CacheImage {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const TY: &str = "CacheImage";
        let config: CacheConfig = serde::field(value, "config", TY)?;
        let geometry = config.try_validate().map_err(|e| DeError(format!("{TY}.config: {e}")))?;
        let image = CacheImage {
            config,
            tags: packed::field(value, "tags", TY)?,
            state: packed::field(value, "state", TY)?,
            fill: packed::field(value, "fill", TY)?,
            touch: packed::field(value, "touch", TY)?,
            seq: serde::field(value, "seq", TY)?,
            stats: serde::field(value, "stats", TY)?,
        };
        let slots = usize::try_from(geometry.sets * u64::from(config.ways))
            .map_err(|_| DeError(format!("{TY}.config: too many slots to address")))?;
        image.check_slots(slots).map_err(|e| DeError(format!("{TY}: {e}")))?;
        Ok(image)
    }
}

/// Snapshot of a two-level [`Hierarchy`]: one [`CacheImage`] per level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyImage {
    /// L1 data cache snapshot.
    pub l1: CacheImage,
    /// Unified L2 snapshot.
    pub l2: CacheImage,
}

impl HierarchyImage {
    /// The hierarchy configuration the image was captured under.
    pub fn config(&self) -> HierarchyConfig {
        HierarchyConfig { l1: self.l1.config, l2: self.l2.config }
    }

    /// Total simulated-state bytes across both levels.
    pub fn image_bytes(&self) -> u64 {
        self.l1.image_bytes() + self.l2.image_bytes()
    }
}

impl Hierarchy {
    /// Snapshots both levels.
    pub fn to_image(&self) -> HierarchyImage {
        HierarchyImage { l1: self.l1().to_image(), l2: self.l2().to_image() }
    }

    /// Rebuilds a hierarchy from `image`, refusing images captured under
    /// a different configuration than `cfg`.
    ///
    /// # Errors
    ///
    /// [`ImageError::ConfigMismatch`] when `cfg` differs from the image's
    /// embedded configs, plus every per-level error of
    /// [`Cache::from_image`].
    pub fn from_image(cfg: HierarchyConfig, image: &HierarchyImage) -> Result<Self, ImageError> {
        if image.config() != cfg {
            return Err(ImageError::ConfigMismatch {
                expected: format!("{cfg:?}"),
                found: format!("{:?}", image.config()),
            });
        }
        Ok(Hierarchy::from_levels(Cache::from_image(&image.l1)?, Cache::from_image(&image.l2)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplacementPolicy;
    use ltc_trace::{AccessKind, Addr};

    fn warmed(cfg: HierarchyConfig, accesses: u64) -> Hierarchy {
        let mut h = Hierarchy::new(cfg);
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..accesses {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let kind = if x & 7 == 0 { AccessKind::Store } else { AccessKind::Load };
            h.access(Addr(x % (1 << 22)), kind);
        }
        h
    }

    #[test]
    fn restored_hierarchy_continues_byte_identically() {
        for cfg in [HierarchyConfig::paper(), HierarchyConfig::paper_4mb_l2()] {
            let mut original = warmed(cfg, 20_000);
            // Restore from JSON text, as the on-disk warm stores do.
            let text = serde_json::to_string(&original.to_image());
            let image: HierarchyImage = serde_json::from_str(&text).unwrap();
            let mut restored = Hierarchy::from_image(cfg, &image).unwrap();
            for i in 0..5_000u64 {
                let a = Addr((i * 2891) % (1 << 22));
                assert_eq!(
                    original.access(a, AccessKind::Load),
                    restored.access(a, AccessKind::Load),
                    "divergence at access {i}"
                );
            }
            assert_eq!(original.l1().stats(), restored.l1().stats());
            assert_eq!(original.l2().stats(), restored.l2().stats());
            assert_eq!(original.l1().seq(), restored.l1().seq());
        }
    }

    #[test]
    fn image_round_trips_through_json() {
        let h = warmed(HierarchyConfig::paper(), 5_000);
        let image = h.to_image();
        let text = serde_json::to_string(&image);
        let back = HierarchyImage::from_value(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(image, back);
    }

    #[test]
    fn per_slot_vectors_serialize_packed_and_are_checked_on_read() {
        let image = warmed(HierarchyConfig::paper(), 2_000).to_image();
        let value = image.l1.to_value();
        for field in ["tags", "state", "fill", "touch"] {
            assert!(value.get(field).and_then(Value::as_str).is_some(), "{field} is packed");
        }
        // One slot short of the geometry, in a vector that otherwise
        // decodes cleanly, is refused when read, not only on restore.
        let mut short = image.l1.clone();
        short.touch.pop();
        let err = CacheImage::from_value(&short.to_value()).unwrap_err();
        assert!(err.0.contains("touch"), "{err}");
        let mut bad_geometry = image.l1.clone();
        bad_geometry.config.line_bytes = 48;
        assert!(CacheImage::from_value(&bad_geometry.to_value()).is_err());
    }

    #[test]
    fn config_mismatch_is_a_typed_error() {
        let image = warmed(HierarchyConfig::paper(), 100).to_image();
        let err = Hierarchy::from_image(HierarchyConfig::paper_4mb_l2(), &image).unwrap_err();
        assert!(matches!(err, ImageError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn truncated_vectors_are_a_typed_error() {
        let mut image = warmed(HierarchyConfig::paper(), 100).to_image();
        image.l1.tags.pop();
        let err = Hierarchy::from_image(HierarchyConfig::paper(), &image).unwrap_err();
        assert!(matches!(err, ImageError::Shape { field: "tags", .. }), "{err}");
    }

    #[test]
    fn out_of_range_seq_is_rejected() {
        let mut image = warmed(HierarchyConfig::paper(), 100).to_image();
        image.l2.seq = u64::from(u32::MAX) + 1;
        let err = Hierarchy::from_image(HierarchyConfig::paper(), &image).unwrap_err();
        assert!(matches!(err, ImageError::Invalid(_)), "{err}");
    }

    #[test]
    fn invalid_embedded_geometry_is_rejected() {
        let mut image = warmed(HierarchyConfig::paper(), 0).to_image();
        image.l1.config.line_bytes = 48;
        let err = Cache::from_image(&image.l1).unwrap_err();
        assert!(matches!(err, ImageError::Geometry(_)), "{err}");
    }

    #[test]
    fn image_bytes_tracks_geometry() {
        // Paper hierarchy: 64 KB 2-way L1 (1024 slots) + 1 MB 8-way L2
        // (16384 slots) = 17408 slots -> ~296 KB of simulated state.
        let paper = Hierarchy::new(HierarchyConfig::paper()).to_image();
        assert_eq!(paper.image_bytes(), 17_408 * 17 + 2 * 96);
        // The largest standard config (4 MB L2) stays under 1.25 MB.
        let big = Hierarchy::new(HierarchyConfig::paper_4mb_l2()).to_image();
        assert!(big.image_bytes() > paper.image_bytes());
        assert!(big.image_bytes() < 1_250_000, "largest standard image ceiling");
    }

    #[test]
    fn fifo_policy_survives_the_round_trip() {
        let cfg = CacheConfig {
            total_bytes: 4096,
            ways: 4,
            line_bytes: 64,
            policy: ReplacementPolicy::Fifo,
        };
        let mut c = Cache::new(cfg);
        for i in 0..200u64 {
            c.access(Addr(i * 64 * 3), AccessKind::Load);
        }
        let mut restored = Cache::from_image(&c.to_image()).unwrap();
        for i in 0..200u64 {
            assert_eq!(
                c.access(Addr(i * 64 * 5), AccessKind::Load),
                restored.access(Addr(i * 64 * 5), AccessKind::Load)
            );
        }
    }
}
