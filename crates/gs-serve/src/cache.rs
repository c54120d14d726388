//! An LRU frame cache keyed by (scene, quantized camera pose, viewport).
//!
//! Serving workloads revisit nearly identical viewpoints constantly (map
//! tiles, orbiting clients, popular landmarks). Quantizing the camera pose
//! collapses those near-duplicate views onto one key so repeated traffic is
//! answered without touching the renderer — the serving-side analogue of the
//! amortize-repeated-work theme. The cache is bounded in *bytes* (images
//! dominate): every new frame is admitted, evicting the least recently
//! used frames to make room.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use gs_core::camera::{Camera, Viewport};
use gs_core::image::Image;

use crate::request::{RenderRequest, SceneId};

/// A camera pose snapped to a fixed grid so that nearly identical views share
/// a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantizedPose {
    position: [i64; 3],
    rotation: [i64; 9],
    focal: [i64; 2],
    size: [u32; 2],
}

impl QuantizedPose {
    /// Quantizes `cam` with a translation grid of `step` world units.
    ///
    /// Rotation entries are quantized at `step / 10` (orientation errors show
    /// up on screen roughly an image-width sooner than translation errors).
    pub fn quantize(cam: &Camera, step: f32) -> Self {
        let step = step.max(1.0e-6);
        let rot_step = step / 10.0;
        let q = |v: f32, s: f32| (v / s).round() as i64;
        let r = &cam.rotation.m;
        Self {
            position: [
                q(cam.position.x, step),
                q(cam.position.y, step),
                q(cam.position.z, step),
            ],
            rotation: [
                q(r[0][0], rot_step),
                q(r[0][1], rot_step),
                q(r[0][2], rot_step),
                q(r[1][0], rot_step),
                q(r[1][1], rot_step),
                q(r[1][2], rot_step),
                q(r[2][0], rot_step),
                q(r[2][1], rot_step),
                q(r[2][2], rot_step),
            ],
            focal: [q(cam.fx, 0.01), q(cam.fy, 0.01)],
            size: [cam.width as u32, cam.height as u32],
        }
    }
}

/// Cache key: scene, quantized pose, viewport and SH degree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrameKey {
    /// Scene the frame belongs to.
    pub scene: SceneId,
    /// Quantized camera pose.
    pub pose: QuantizedPose,
    /// Viewport rectangle `(x0, y0, x1, y1)`.
    pub viewport: (u32, u32, u32, u32),
    /// SH degree used for color.
    pub sh_degree: u8,
}

impl FrameKey {
    /// Builds the cache key for a request with translation grid `pose_step`.
    pub fn for_request(req: &RenderRequest, pose_step: f32) -> Self {
        let Viewport { x0, y0, x1, y1 } = req.viewport;
        Self {
            scene: req.scene.clone(),
            pose: QuantizedPose::quantize(&req.camera, pose_step),
            viewport: (x0 as u32, y0 as u32, x1 as u32, y1 as u32),
            sh_degree: req.sh_degree as u8,
        }
    }
}

/// Hit/miss/eviction counters for the frame cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a render.
    pub misses: u64,
    /// Frames inserted.
    pub insertions: u64,
    /// Frames evicted to stay under the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    image: Arc<Image>,
    bytes: u64,
    tick: u64,
}

/// Byte-bounded LRU cache of rendered frames.
pub struct FrameCache {
    entries: HashMap<FrameKey, Entry>,
    by_recency: BTreeMap<u64, FrameKey>,
    capacity_bytes: u64,
    used_bytes: u64,
    tick: u64,
    stats: CacheStats,
}

fn image_bytes(img: &Image) -> u64 {
    std::mem::size_of_val(img.data()) as u64
}

impl FrameCache {
    /// Creates an LRU cache bounded to `capacity_bytes` (0 disables
    /// caching).
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            entries: HashMap::new(),
            by_recency: BTreeMap::new(),
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. Counts the lookup
    /// (hit or miss).
    pub fn get(&mut self, key: &FrameKey) -> Option<Arc<Image>> {
        self.lookup(key, true)
    }

    /// The pre-enqueue fast-path lookup: answers a hit exactly like
    /// [`FrameCache::get`], but a miss is *not* counted — the request
    /// proceeds to the render path, whose own `get` does the counting.
    /// Every request therefore contributes exactly one counted lookup no
    /// matter how many probes it makes.
    pub fn get_fast(&mut self, key: &FrameKey) -> Option<Arc<Image>> {
        if !self.entries.contains_key(key) {
            return None;
        }
        self.lookup(key, false)
    }

    fn lookup(&mut self, key: &FrameKey, count_miss: bool) -> Option<Arc<Image>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.by_recency.remove(&entry.tick);
                entry.tick = tick;
                self.by_recency.insert(tick, key.clone());
                self.stats.hits += 1;
                Some(Arc::clone(&entry.image))
            }
            None => {
                if count_miss {
                    self.stats.misses += 1;
                }
                None
            }
        }
    }

    /// Inserts a rendered frame, evicting least-recently-used frames to
    /// make room. Frames larger than the whole cache are not stored, and a
    /// zero-capacity (disabled) cache admits nothing — not even zero-byte
    /// frames, which would otherwise pass the size check.
    pub fn insert(&mut self, key: FrameKey, image: Arc<Image>) {
        if self.capacity_bytes == 0 {
            return;
        }
        let bytes = image_bytes(&image);
        if bytes > self.capacity_bytes {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.by_recency.remove(&old.tick);
            self.used_bytes -= old.bytes;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let (_, victim) = self
                .by_recency
                .pop_first()
                .expect("over budget implies an entry");
            let entry = self.entries.remove(&victim).expect("entry for tick");
            self.used_bytes -= entry.bytes;
            self.stats.evictions += 1;
        }
        self.used_bytes += bytes;
        self.entries.insert(
            key.clone(),
            Entry {
                image,
                bytes,
                tick: self.tick,
            },
        );
        self.by_recency.insert(self.tick, key);
        self.stats.insertions += 1;
    }

    /// Drops every cached frame of `scene` (used when a scene is evicted from
    /// the registry so stale frames cannot outlive their scene).
    pub fn invalidate_scene(&mut self, scene: &SceneId) {
        let victims: Vec<FrameKey> = self
            .entries
            .keys()
            .filter(|k| &k.scene == scene)
            .cloned()
            .collect();
        for key in victims {
            if let Some(entry) = self.entries.remove(&key) {
                self.by_recency.remove(&entry.tick);
                self.used_bytes -= entry.bytes;
            }
        }
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no frames.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;

    fn cam(x: f32) -> Camera {
        Camera::look_at(
            32,
            24,
            1.0,
            Vec3::new(x, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    fn req(scene: &str, x: f32) -> RenderRequest {
        RenderRequest::full(scene, cam(x))
    }

    fn frame() -> Arc<Image> {
        Arc::new(Image::zeros(32, 24))
    }

    const FRAME_BYTES: u64 = 32 * 24 * 3 * 4;

    #[test]
    fn nearby_poses_share_a_key_and_distant_ones_do_not() {
        let a = FrameKey::for_request(&req("s", 0.0), 0.1);
        let b = FrameKey::for_request(&req("s", 0.004), 0.1);
        let c = FrameKey::for_request(&req("s", 3.0), 0.1);
        assert_eq!(a, b, "sub-step poses must collide");
        assert_ne!(a, c, "distant poses must not collide");
        let other_scene = FrameKey::for_request(&req("t", 0.0), 0.1);
        assert_ne!(a, other_scene);
    }

    #[test]
    fn hit_after_insert_and_stats_track() {
        let mut cache = FrameCache::new(10 * FRAME_BYTES);
        let key = FrameKey::for_request(&req("s", 0.0), 0.1);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), frame());
        assert!(cache.get(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut cache = FrameCache::new(2 * FRAME_BYTES);
        let a = FrameKey::for_request(&req("s", 0.0), 0.1);
        let b = FrameKey::for_request(&req("s", 10.0), 0.1);
        let c = FrameKey::for_request(&req("s", 20.0), 0.1);
        cache.insert(a.clone(), frame());
        cache.insert(b.clone(), frame());
        assert!(cache.get(&a).is_some()); // refresh a; b is now LRU
        cache.insert(c.clone(), frame());
        assert!(cache.get(&b).is_none(), "b should have been evicted");
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = FrameCache::new(0);
        let key = FrameKey::for_request(&req("s", 0.0), 0.1);
        cache.insert(key.clone(), frame());
        assert!(cache.is_empty());
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn zero_capacity_rejects_even_zero_byte_frames() {
        // Regression: `bytes > capacity` is false when both are 0, so an
        // empty (0x0) render used to be admitted into a disabled cache.
        let mut cache = FrameCache::new(0);
        let key = FrameKey::for_request(&req("s", 0.0), 0.1);
        cache.insert(key.clone(), Arc::new(Image::zeros(0, 0)));
        assert!(cache.is_empty(), "a disabled cache must admit nothing");
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn empty_frames_are_cacheable_when_capacity_is_nonzero() {
        let mut cache = FrameCache::new(FRAME_BYTES);
        let key = FrameKey::for_request(&req("s", 0.0), 0.1);
        cache.insert(key.clone(), Arc::new(Image::zeros(0, 0)));
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn invalidate_scene_only_touches_that_scene() {
        let mut cache = FrameCache::new(10 * FRAME_BYTES);
        let a = FrameKey::for_request(&req("a", 0.0), 0.1);
        let b = FrameKey::for_request(&req("b", 0.0), 0.1);
        cache.insert(a.clone(), frame());
        cache.insert(b.clone(), frame());
        cache.invalidate_scene(&"a".to_string());
        assert!(cache.get(&a).is_none());
        assert!(cache.get(&b).is_some());
        assert_eq!(cache.used_bytes(), FRAME_BYTES);
    }

    #[test]
    fn reinsert_updates_in_place_without_leaking_bytes() {
        let mut cache = FrameCache::new(3 * FRAME_BYTES);
        let key = FrameKey::for_request(&req("s", 0.0), 0.1);
        cache.insert(key.clone(), frame());
        cache.insert(key.clone(), frame());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), FRAME_BYTES);
    }

    #[test]
    fn fast_path_hits_count_but_misses_do_not() {
        let mut cache = FrameCache::new(4 * FRAME_BYTES);
        let key = FrameKey::for_request(&req("s", 0.0), 0.1);
        assert!(cache.get_fast(&key).is_none());
        assert_eq!(
            cache.stats().misses,
            0,
            "a fast-path miss must not be counted (the render path counts it)"
        );
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().misses, 1);
        cache.insert(key.clone(), frame());
        assert!(cache.get_fast(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_admits_every_frame_and_evicts_to_fit() {
        let mut cache = FrameCache::new(FRAME_BYTES);
        for i in 0..5 {
            let key = FrameKey::for_request(&req("s", 10.0 * i as f32), 0.1);
            let _ = cache.get(&key);
            cache.insert(key, frame());
        }
        assert_eq!(cache.stats().insertions, 5);
        assert_eq!(cache.stats().evictions, 4);
        assert_eq!(cache.used_bytes(), FRAME_BYTES);
    }
}
