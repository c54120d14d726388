//! The scene registry: loaded scenes plus memory-aware admission control.
//!
//! Scenes are admitted against a [`MemoryPool`] sized from a [`PlatformSpec`]
//! (or an explicit byte budget). A load that does not fit evicts
//! least-recently-used *idle* residents until it does; a load larger than the
//! whole budget is rejected outright. This mirrors how a production renderer
//! must treat accelerator memory as the scarce resource when multiplexing
//! many trained scenes onto one device.
//!
//! Two kinds of entries coexist:
//!
//! * **Single** scenes — one parameter container, charged to the pool in
//!   full while loaded (the original behavior).
//! * **Sharded** scenes — a scene partitioned by [`crate::shard`] into
//!   shards that are admitted *independently*: the shard stores live in the
//!   registry's host-side map (the serving analogue of GS-Scale's
//!   host-offloaded parameters), and each shard is charged to the pool only
//!   while **resident**. [`SceneRegistry::ensure_shard_resident`] admits a
//!   shard on demand, evicting least-recently-used residents — whole single
//!   scenes or individual shards, whichever is stalest — so a scene larger
//!   than the entire budget still serves, one shard's worth of device
//!   memory at a time.
//!
//! Shard eviction is pure accounting: in-flight renders hold `Arc`s and
//! cached frames stay valid (the parameters never changed), so unlike a
//! scene replacement it invalidates nothing.

use std::collections::HashMap;
use std::sync::Arc;

use gs_core::gaussian::GaussianParams;
use gs_platform::{MemoryCategory, MemoryPool, PlatformSpec};

use crate::request::{SceneId, ServeError};
use crate::shard::{Aabb, ShardSource};

/// A view of a single (unsharded) scene resident in the registry.
#[derive(Debug, Clone)]
pub struct LoadedScene {
    /// Trained Gaussian parameters (shared with in-flight renders).
    pub params: Arc<GaussianParams>,
    /// Background color composited behind the splats.
    pub background: [f32; 3],
    /// Bytes charged against the registry's memory pool.
    pub bytes: u64,
    /// Load epoch: changes whenever the id is (re)loaded, so stale frames
    /// of a replaced scene are never cached as current.
    pub epoch: u64,
}

/// A view of one shard of a sharded scene.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// The shard's gathered parameters.
    pub params: Arc<GaussianParams>,
    /// Bounding box of the shard's Gaussian centers (drives depth order).
    pub aabb: Aabb,
    /// Largest per-Gaussian scale in the shard (drives view-adaptive shard
    /// culling, see [`crate::shard::shard_visible`]).
    pub max_scale: f32,
    /// Bytes the shard charges to the pool while resident.
    pub bytes: u64,
}

/// A view of a sharded scene: consistent `Arc` snapshots of every shard.
#[derive(Debug, Clone)]
pub struct ShardedSceneView {
    /// Background color composited behind the splats.
    pub background: [f32; 3],
    /// Load epoch (see [`LoadedScene::epoch`]).
    pub epoch: u64,
    /// The shards, in partition order.
    pub shards: Vec<ShardView>,
}

/// What [`SceneRegistry::get`] hands a renderer.
#[derive(Debug, Clone)]
pub enum SceneView {
    /// An unsharded scene.
    Single(LoadedScene),
    /// A sharded scene rendered via the fan-out path.
    Sharded(ShardedSceneView),
}

impl SceneView {
    /// The load epoch of the underlying entry.
    pub fn epoch(&self) -> u64 {
        match self {
            SceneView::Single(s) => s.epoch,
            SceneView::Sharded(s) => s.epoch,
        }
    }
}

/// One row of [`SceneRegistry::layouts`]: how a scene is laid out across
/// shards and how much of it is currently resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SceneLayout {
    /// Scene id.
    pub id: SceneId,
    /// Number of shards (1 for a single scene).
    pub shards: usize,
    /// Shards currently charged to the pool (equals `shards` for a loaded
    /// single scene).
    pub resident_shards: usize,
    /// Total Gaussians across all shards.
    pub gaussians: usize,
    /// Total bytes across all shards (resident or not).
    pub bytes: u64,
}

/// Counters describing the registry's admission-control activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Scenes admitted (single or sharded).
    pub loads: u64,
    /// Loads rejected because the scene (or one of its shards) exceeds the
    /// whole budget.
    pub rejections: u64,
    /// Whole scenes evicted since creation.
    pub eviction_count: u64,
    /// Individual shards evicted (accounting only — the scene stays loaded
    /// and its cached frames stay valid).
    pub shard_evictions: u64,
    /// The most recent evictions in order, bounded to [`EVICTION_LOG`]
    /// entries. Whole scenes log their id, shards log `id#k`.
    pub evictions: Vec<SceneId>,
}

/// How many recent evictions [`RegistryStats::evictions`] retains.
pub const EVICTION_LOG: usize = 64;

/// Default host-budget multiple used by [`SceneRegistry::with_budget`]: the
/// host-side stores of sharded scenes may grow to this many times the
/// device budget before sharded loads are rejected. Mirrors the paper's
/// host-offloading premise (host DRAM is plentiful relative to device
/// memory) while still bounding what `POST /scenes/<id>` can allocate.
pub const HOST_BUDGET_FACTOR: u64 = 8;

struct ShardSlot {
    params: Arc<GaussianParams>,
    aabb: Aabb,
    max_scale: f32,
    bytes: u64,
    resident: bool,
    tick: u64,
}

enum EntryKind {
    Single {
        params: Arc<GaussianParams>,
        bytes: u64,
    },
    Sharded {
        shards: Vec<ShardSlot>,
    },
}

struct SceneEntry {
    background: [f32; 3],
    epoch: u64,
    tick: u64,
    kind: EntryKind,
}

/// Outcome of [`SceneRegistry::ensure_shard_resident`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardResidency {
    /// Whether the shard is now charged as resident (false when the scene
    /// vanished or was replaced since the caller's [`SceneView`]).
    pub charged: bool,
    /// Whole scenes unloaded to make room; the caller must drop their
    /// cached frames (shard evictions invalidate nothing and are not
    /// listed).
    pub evicted_scenes: Vec<SceneId>,
}

/// An LRU eviction candidate: a whole single scene or one resident shard.
enum Victim {
    Scene(SceneId),
    Shard(SceneId, usize),
}

/// Registry of loaded scenes with LRU eviction under a memory budget.
pub struct SceneRegistry {
    scenes: HashMap<SceneId, SceneEntry>,
    pool: MemoryPool,
    /// Bound on the host-side shard stores of sharded scenes (which charge
    /// the device pool only while resident, so they need their own cap —
    /// otherwise `POST /scenes/<id>` could grow host memory without limit).
    host_budget: u64,
    host_used: u64,
    tick: u64,
    epoch: u64,
    stats: RegistryStats,
}

impl SceneRegistry {
    /// Creates a registry with an explicit device byte budget and a host
    /// budget of [`HOST_BUDGET_FACTOR`] times that.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self::with_budgets(
            budget_bytes,
            budget_bytes.saturating_mul(HOST_BUDGET_FACTOR),
        )
    }

    /// Creates a registry with explicit device and host byte budgets. The
    /// device budget bounds resident parameters (whole single scenes plus
    /// resident shards); the host budget bounds the total size of sharded
    /// scenes' host-side stores.
    pub fn with_budgets(budget_bytes: u64, host_budget_bytes: u64) -> Self {
        Self {
            scenes: HashMap::new(),
            pool: MemoryPool::new("scene-registry", budget_bytes),
            host_budget: host_budget_bytes,
            host_used: 0,
            tick: 0,
            epoch: 0,
            stats: RegistryStats::default(),
        }
    }

    /// Creates a registry budgeted to the platform's GPU memory (device)
    /// and host DRAM (shard stores), the split a production service of
    /// trained scenes would run with.
    pub fn for_platform(platform: &PlatformSpec) -> Self {
        Self::with_budgets(platform.gpu.mem_capacity, platform.cpu.mem_capacity)
    }

    /// Loads a single (unsharded) scene, evicting least-recently-used
    /// residents if needed, and returns the ids of *whole scenes* it evicted
    /// (in eviction order; shard evictions are accounting-only and not
    /// reported here because they invalidate nothing).
    ///
    /// Reloading an existing id replaces it (the old allocation is released
    /// first).
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] if the scene alone exceeds the budget.
    pub fn load(
        &mut self,
        id: impl Into<SceneId>,
        params: Arc<GaussianParams>,
        background: [f32; 3],
    ) -> Result<Vec<SceneId>, ServeError> {
        let id = id.into();
        let bytes = params.total_bytes() as u64;
        // Reject a hopeless load before evicting anyone for it.
        if bytes > self.pool.capacity() {
            self.stats.rejections += 1;
            return Err(self.oom(bytes));
        }
        self.remove_entry(&id);
        let victims = self.evict_until(bytes, None);
        if let Err(e) = self.pool.alloc(MemoryCategory::Parameters, bytes) {
            // Unreachable with the registry's private single-category pool:
            // the capacity pre-check passed and evict_until drains every
            // resident before giving up, so the drained pool always fits
            // `bytes`. Kept as an error (not a panic) for robustness if the
            // pool ever becomes shared.
            debug_assert!(false, "a capacity-checked load must fit a drained pool");
            self.stats.rejections += 1;
            return Err(ServeError::Admission(e));
        }
        self.tick += 1;
        self.epoch += 1;
        self.scenes.insert(
            id,
            SceneEntry {
                background,
                epoch: self.epoch,
                tick: self.tick,
                kind: EntryKind::Single { params, bytes },
            },
        );
        self.stats.loads += 1;
        Ok(victims)
    }

    /// Loads a sharded scene. The shard stores are kept host-side (bounded
    /// by the host budget); nothing is charged to the device pool until a
    /// render calls [`SceneRegistry::ensure_shard_resident`], so a scene
    /// whose *total* exceeds the whole device budget is admissible as long
    /// as every individual shard fits.
    ///
    /// Reloading an existing id replaces it (the replacement is counted
    /// against the host budget net of the old entry).
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] if any single shard exceeds the device
    /// budget (it could never be made resident), or if the scene would push
    /// the host-side shard stores past the host budget. A rejected load
    /// leaves the registry untouched.
    pub fn load_sharded(
        &mut self,
        id: impl Into<SceneId>,
        shards: Vec<ShardSource>,
        background: [f32; 3],
    ) -> Result<(), ServeError> {
        let id = id.into();
        if let Some(worst) = shards.iter().map(|s| s.bytes).max() {
            if worst > self.pool.capacity() {
                self.stats.rejections += 1;
                return Err(self.oom(worst));
            }
        }
        // Host-side admission, computed before the old entry is touched so
        // a rejected reload leaves the resident scene alone. Replacing a
        // sharded entry frees its own host bytes first.
        let total: u64 = shards.iter().map(|s| s.bytes).sum();
        let replaced = match self.scenes.get(&id).map(|e| &e.kind) {
            Some(EntryKind::Sharded { shards }) => shards.iter().map(|s| s.bytes).sum(),
            _ => 0,
        };
        let host_after = self.host_used - replaced + total;
        if host_after > self.host_budget {
            self.stats.rejections += 1;
            return Err(ServeError::Admission(gs_core::Error::OutOfMemory {
                device: "scene-registry-host".to_string(),
                requested_bytes: total as usize,
                available_bytes: (self.host_budget - (self.host_used - replaced)) as usize,
                capacity_bytes: self.host_budget as usize,
            }));
        }
        self.remove_entry(&id);
        self.host_used += total;
        self.tick += 1;
        self.epoch += 1;
        let slots = shards
            .into_iter()
            .map(|s| ShardSlot {
                params: s.params,
                aabb: s.aabb,
                max_scale: s.max_scale,
                bytes: s.bytes,
                resident: false,
                tick: 0,
            })
            .collect();
        self.scenes.insert(
            id,
            SceneEntry {
                background,
                epoch: self.epoch,
                tick: self.tick,
                kind: EntryKind::Sharded { shards: slots },
            },
        );
        self.stats.loads += 1;
        Ok(())
    }

    /// Fetches a scene for rendering, refreshing its LRU recency.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownScene`] if the id is not loaded.
    pub fn get(&mut self, id: &SceneId) -> Result<SceneView, ServeError> {
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self.scenes.get_mut(id) else {
            return Err(ServeError::UnknownScene(id.clone()));
        };
        entry.tick = tick;
        Ok(match &entry.kind {
            EntryKind::Single { params, bytes } => SceneView::Single(LoadedScene {
                params: Arc::clone(params),
                background: entry.background,
                bytes: *bytes,
                epoch: entry.epoch,
            }),
            EntryKind::Sharded { shards } => SceneView::Sharded(ShardedSceneView {
                background: entry.background,
                epoch: entry.epoch,
                shards: shards
                    .iter()
                    .map(|s| ShardView {
                        params: Arc::clone(&s.params),
                        aabb: s.aabb,
                        max_scale: s.max_scale,
                        bytes: s.bytes,
                    })
                    .collect(),
            }),
        })
    }

    /// Charges shard `k` of scene `id` to the pool if it is not already
    /// resident, evicting least-recently-used residents to make room, and
    /// refreshes the shard's recency.
    ///
    /// `epoch` must be the epoch of the [`SceneView`] the caller rendered
    /// from; if the scene was unloaded or replaced in the meantime the call
    /// is a no-op (`charged` is false and nothing is billed — the caller's
    /// render proceeds from its `Arc` snapshot, exactly like a single scene
    /// replaced mid-render).
    ///
    /// The caller must invalidate cached frames of every id in
    /// `evicted_scenes`, like the victims of [`SceneRegistry::load`] — on
    /// every return, including `charged: false` (evictions may have
    /// happened before a failed charge).
    ///
    /// Never fails: a shard that cannot be charged (possible only if the
    /// pool were shared with another allocation category, which today it is
    /// not — load-time validation guarantees every shard fits an otherwise
    /// empty pool) simply reports `charged: false`, and the caller's render
    /// proceeds uncharged from its snapshot.
    pub fn ensure_shard_resident(&mut self, id: &SceneId, k: usize, epoch: u64) -> ShardResidency {
        let noop = ShardResidency {
            charged: false,
            evicted_scenes: Vec::new(),
        };
        let (bytes, already_resident) = {
            let Some(entry) = self.scenes.get(id) else {
                return noop;
            };
            if entry.epoch != epoch {
                return noop;
            }
            let EntryKind::Sharded { shards } = &entry.kind else {
                return noop;
            };
            let Some(slot) = shards.get(k) else {
                return noop;
            };
            (slot.bytes, slot.resident)
        };
        if already_resident {
            self.tick += 1;
            let tick = self.tick;
            self.slot_mut(id, k).tick = tick;
            return ShardResidency {
                charged: true,
                evicted_scenes: Vec::new(),
            };
        }
        let evicted_scenes = self.evict_until(bytes, Some((id, k)));
        let charged = self.pool.alloc(MemoryCategory::Parameters, bytes).is_ok();
        debug_assert!(charged, "a validated shard must fit a drained pool");
        if charged {
            self.tick += 1;
            let tick = self.tick;
            let slot = self.slot_mut(id, k);
            slot.resident = true;
            slot.tick = tick;
        }
        ShardResidency {
            charged,
            evicted_scenes,
        }
    }

    /// Removes a scene, releasing its memory. Returns whether it was loaded.
    pub fn unload(&mut self, id: &SceneId) -> bool {
        self.remove_entry(id)
    }

    /// Whether `id` is currently loaded.
    pub fn contains(&self, id: &SceneId) -> bool {
        self.scenes.contains_key(id)
    }

    /// The load epoch of `id`, if loaded.
    pub fn epoch(&self, id: &SceneId) -> Option<u64> {
        self.scenes.get(id).map(|e| e.epoch)
    }

    /// Ids of the loaded scenes, sorted for stable output.
    pub fn loaded(&self) -> Vec<SceneId> {
        let mut ids: Vec<SceneId> = self.scenes.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Shard layout and residency of every loaded scene, sorted by id.
    pub fn layouts(&self) -> Vec<SceneLayout> {
        let mut rows: Vec<SceneLayout> = self
            .scenes
            .iter()
            .map(|(id, entry)| match &entry.kind {
                EntryKind::Single { params, bytes } => SceneLayout {
                    id: id.clone(),
                    shards: 1,
                    resident_shards: 1,
                    gaussians: params.len(),
                    bytes: *bytes,
                },
                EntryKind::Sharded { shards } => SceneLayout {
                    id: id.clone(),
                    shards: shards.len(),
                    resident_shards: shards.iter().filter(|s| s.resident).count(),
                    gaussians: shards.iter().map(|s| s.params.len()).sum(),
                    bytes: shards.iter().map(|s| s.bytes).sum(),
                },
            })
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        rows
    }

    /// Bytes currently charged to residents (whole single scenes plus
    /// resident shards).
    pub fn used_bytes(&self) -> u64 {
        self.pool.used_total()
    }

    /// Total device admission budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.pool.capacity()
    }

    /// Bound on the host-side shard stores in bytes.
    pub fn host_budget_bytes(&self) -> u64 {
        self.host_budget
    }

    /// Admission-control counters (loads, rejections, eviction order).
    pub fn stats(&self) -> &RegistryStats {
        &self.stats
    }

    fn oom(&self, requested: u64) -> ServeError {
        ServeError::Admission(gs_core::Error::OutOfMemory {
            device: self.pool.name().to_string(),
            requested_bytes: requested as usize,
            available_bytes: self.pool.available() as usize,
            capacity_bytes: self.pool.capacity() as usize,
        })
    }

    fn slot_mut(&mut self, id: &SceneId, k: usize) -> &mut ShardSlot {
        match &mut self.scenes.get_mut(id).expect("scene just seen").kind {
            EntryKind::Sharded { shards } => &mut shards[k],
            EntryKind::Single { .. } => unreachable!("slot_mut on a single scene"),
        }
    }

    /// Removes an entry outright, freeing everything it had charged.
    fn remove_entry(&mut self, id: &SceneId) -> bool {
        match self.scenes.remove(id) {
            Some(entry) => {
                match entry.kind {
                    EntryKind::Single { bytes, .. } => {
                        self.pool.free(MemoryCategory::Parameters, bytes);
                    }
                    EntryKind::Sharded { shards } => {
                        for slot in shards.iter().filter(|s| s.resident) {
                            self.pool.free(MemoryCategory::Parameters, slot.bytes);
                        }
                        let total: u64 = shards.iter().map(|s| s.bytes).sum();
                        self.host_used -= total;
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Evicts least-recently-used residents until `bytes` fit (or nothing is
    /// left to evict). Returns the whole scenes that were unloaded.
    /// `keep` protects one shard slot from eviction (the slot being
    /// admitted — it is non-resident, listed only for clarity).
    fn evict_until(&mut self, bytes: u64, keep: Option<(&SceneId, usize)>) -> Vec<SceneId> {
        let mut unloaded = Vec::new();
        while self.pool.available() < bytes {
            let Some(victim) = self.lru_victim(keep) else {
                break;
            };
            match victim {
                Victim::Scene(id) => {
                    self.remove_entry(&id);
                    self.stats.eviction_count += 1;
                    self.log_eviction(id.clone());
                    unloaded.push(id);
                }
                Victim::Shard(id, k) => {
                    let bytes = {
                        let slot = self.slot_mut(&id, k);
                        slot.resident = false;
                        slot.bytes
                    };
                    self.pool.free(MemoryCategory::Parameters, bytes);
                    self.stats.shard_evictions += 1;
                    self.log_eviction(format!("{id}#{k}"));
                }
            }
        }
        unloaded
    }

    fn log_eviction(&mut self, label: String) {
        self.stats.evictions.push(label);
        if self.stats.evictions.len() > EVICTION_LOG {
            self.stats.evictions.remove(0);
        }
    }

    /// The least-recently-used eviction candidate: the stalest of all whole
    /// single scenes and resident shard slots.
    fn lru_victim(&self, keep: Option<(&SceneId, usize)>) -> Option<Victim> {
        let mut best: Option<(u64, Victim)> = None;
        let mut consider = |tick: u64, victim: Victim| {
            if best.as_ref().is_none_or(|(t, _)| tick < *t) {
                best = Some((tick, victim));
            }
        };
        for (id, entry) in &self.scenes {
            match &entry.kind {
                EntryKind::Single { .. } => {
                    consider(entry.tick, Victim::Scene(id.clone()));
                }
                EntryKind::Sharded { shards } => {
                    for (k, slot) in shards.iter().enumerate() {
                        if !slot.resident {
                            continue;
                        }
                        if keep == Some((id, k)) {
                            continue;
                        }
                        consider(slot.tick, Victim::Shard(id.clone(), k));
                    }
                }
            }
        }
        best.map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_scene;
    use gs_core::math::Vec3;

    fn scene_of(n: usize) -> Arc<GaussianParams> {
        let mut p = GaussianParams::with_capacity(n);
        for i in 0..n {
            p.push_isotropic(Vec3::new(i as f32, 0.0, 1.0), 0.1, [0.5; 3], 0.8);
        }
        Arc::new(p)
    }

    fn single(view: SceneView) -> LoadedScene {
        match view {
            SceneView::Single(s) => s,
            SceneView::Sharded(_) => panic!("expected a single scene"),
        }
    }

    const PER_GAUSSIAN: u64 = 59 * 4;

    #[test]
    fn load_get_unload_roundtrip() {
        let mut reg = SceneRegistry::with_budget(100 * PER_GAUSSIAN);
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        assert!(reg.contains(&"a".to_string()));
        assert_eq!(reg.used_bytes(), 10 * PER_GAUSSIAN);
        let got = single(reg.get(&"a".to_string()).unwrap());
        assert_eq!(got.params.len(), 10);
        assert!(reg.unload(&"a".to_string()));
        assert_eq!(reg.used_bytes(), 0);
        assert!(!reg.unload(&"a".to_string()));
    }

    #[test]
    fn oversized_scene_is_rejected() {
        let mut reg = SceneRegistry::with_budget(5 * PER_GAUSSIAN);
        let err = reg.load("big", scene_of(10), [0.0; 3]).unwrap_err();
        assert!(matches!(err, ServeError::Admission(e) if e.is_oom()));
        assert_eq!(reg.stats().rejections, 1);
        assert!(reg.loaded().is_empty());
    }

    #[test]
    fn rejected_load_does_not_evict_residents() {
        let mut reg = SceneRegistry::with_budget(25 * PER_GAUSSIAN);
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        reg.load("b", scene_of(10), [0.0; 3]).unwrap();
        let err = reg.load("big", scene_of(30), [0.0; 3]).unwrap_err();
        assert!(matches!(err, ServeError::Admission(e) if e.is_oom()));
        assert_eq!(
            reg.loaded(),
            vec!["a".to_string(), "b".to_string()],
            "a hopeless load must not push residents out first"
        );
        assert!(reg.stats().evictions.is_empty());
    }

    #[test]
    fn lru_scene_is_evicted_first() {
        // Budget fits two 10-Gaussian scenes.
        let mut reg = SceneRegistry::with_budget(25 * PER_GAUSSIAN);
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        reg.load("b", scene_of(10), [0.0; 3]).unwrap();
        // Touch "a" so "b" becomes least recently used.
        reg.get(&"a".to_string()).unwrap();
        reg.load("c", scene_of(10), [0.0; 3]).unwrap();
        assert_eq!(reg.loaded(), vec!["a".to_string(), "c".to_string()]);
        assert_eq!(reg.stats().evictions, vec!["b".to_string()]);
    }

    #[test]
    fn eviction_cascades_until_the_load_fits() {
        let mut reg = SceneRegistry::with_budget(25 * PER_GAUSSIAN);
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        reg.load("b", scene_of(10), [0.0; 3]).unwrap();
        // 20 Gaussians need both residents gone.
        let victims = reg.load("c", scene_of(20), [0.0; 3]).unwrap();
        assert_eq!(reg.loaded(), vec!["c".to_string()]);
        assert_eq!(
            victims,
            vec!["a".to_string(), "b".to_string()],
            "eviction must proceed in LRU order"
        );
        assert_eq!(reg.stats().evictions, victims);
        assert_eq!(reg.stats().eviction_count, 2);
    }

    #[test]
    fn reload_replaces_without_double_charging() {
        let mut reg = SceneRegistry::with_budget(100 * PER_GAUSSIAN);
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        reg.load("a", scene_of(20), [0.0; 3]).unwrap();
        assert_eq!(reg.used_bytes(), 20 * PER_GAUSSIAN);
        assert_eq!(reg.loaded().len(), 1);
    }

    #[test]
    fn reload_bumps_the_epoch() {
        let mut reg = SceneRegistry::with_budget(100 * PER_GAUSSIAN);
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        let first = reg.epoch(&"a".to_string()).unwrap();
        reg.load("a", scene_of(10), [0.0; 3]).unwrap();
        let second = reg.epoch(&"a".to_string()).unwrap();
        assert_ne!(first, second, "replacing a scene must change its epoch");
        assert_eq!(reg.get(&"a".to_string()).unwrap().epoch(), second);
    }

    #[test]
    fn platform_budget_uses_gpu_capacity() {
        let platform = PlatformSpec::laptop_rtx4070m();
        let reg = SceneRegistry::for_platform(&platform);
        assert_eq!(reg.budget_bytes(), platform.gpu.mem_capacity);
    }

    #[test]
    fn unknown_scene_errors() {
        let mut reg = SceneRegistry::with_budget(1000);
        let err = reg.get(&"missing".to_string()).unwrap_err();
        assert!(matches!(err, ServeError::UnknownScene(_)));
    }

    // ---- sharded entries ----

    #[test]
    fn sharded_load_charges_nothing_until_shards_become_resident() {
        // 40 Gaussians in 4 shards of 10 against a budget of 25: the whole
        // scene could never fit, but shard-at-a-time it serves.
        let mut reg = SceneRegistry::with_budget(25 * PER_GAUSSIAN);
        let shards = shard_scene(&scene_of(40), 4);
        reg.load_sharded("big", shards, [0.0; 3]).unwrap();
        assert!(reg.contains(&"big".to_string()));
        assert_eq!(reg.used_bytes(), 0, "lazy residency: nothing charged yet");

        let view = reg.get(&"big".to_string()).unwrap();
        let epoch = view.epoch();
        assert!(
            reg.ensure_shard_resident(&"big".to_string(), 0, epoch)
                .charged
        );
        assert!(
            reg.ensure_shard_resident(&"big".to_string(), 1, epoch)
                .charged
        );
        assert_eq!(reg.used_bytes(), 20 * PER_GAUSSIAN);

        // The third shard needs an eviction: shard 0 is the LRU resident.
        let residency = reg.ensure_shard_resident(&"big".to_string(), 2, epoch);
        assert!(residency.charged);
        assert!(
            residency.evicted_scenes.is_empty(),
            "shard-for-shard eviction unloads no whole scene"
        );
        assert_eq!(reg.used_bytes(), 20 * PER_GAUSSIAN);
        assert_eq!(reg.stats().shard_evictions, 1);
        assert_eq!(reg.stats().evictions, vec!["big#0".to_string()]);
        assert_eq!(
            reg.stats().eviction_count,
            0,
            "shard evictions must not count as scene evictions"
        );

        let layout = &reg.layouts()[0];
        assert_eq!((layout.shards, layout.resident_shards), (4, 2));
        assert_eq!(layout.gaussians, 40);
    }

    #[test]
    fn host_budget_bounds_total_sharded_bytes() {
        // Device budget 10, host budget 25: the host-side stores — which
        // charge the device pool nothing while non-resident — are still
        // bounded, so sharded loads cannot grow host memory without limit.
        let mut reg = SceneRegistry::with_budgets(10 * PER_GAUSSIAN, 25 * PER_GAUSSIAN);
        reg.load_sharded("a", shard_scene(&scene_of(20), 4), [0.0; 3])
            .unwrap();
        assert_eq!(reg.host_used, 20 * PER_GAUSSIAN);
        let err = reg
            .load_sharded("b", shard_scene(&scene_of(10), 2), [0.0; 3])
            .unwrap_err();
        assert!(matches!(err, ServeError::Admission(e) if e.is_oom()));
        assert!(!reg.contains(&"b".to_string()));
        assert_eq!(reg.stats().rejections, 1);

        // Replacing "a" with a smaller scene nets against its old bytes...
        reg.load_sharded("a", shard_scene(&scene_of(12), 3), [0.0; 3])
            .unwrap();
        assert_eq!(reg.host_used, 12 * PER_GAUSSIAN);
        // ...an oversized replacement is rejected with "a" left intact...
        let err = reg
            .load_sharded("a", shard_scene(&scene_of(40), 8), [0.0; 3])
            .unwrap_err();
        assert!(matches!(err, ServeError::Admission(_)));
        assert_eq!(reg.host_used, 12 * PER_GAUSSIAN);
        assert!(reg.contains(&"a".to_string()));
        // ...and unloading releases the host bytes.
        assert!(reg.unload(&"a".to_string()));
        assert_eq!(reg.host_used, 0);
    }

    #[test]
    fn sharded_scene_with_an_oversized_shard_is_rejected() {
        let mut reg = SceneRegistry::with_budget(5 * PER_GAUSSIAN);
        let shards = shard_scene(&scene_of(40), 4); // 10 Gaussians per shard
        let err = reg.load_sharded("big", shards, [0.0; 3]).unwrap_err();
        assert!(matches!(err, ServeError::Admission(e) if e.is_oom()));
        assert!(!reg.contains(&"big".to_string()));
        assert_eq!(reg.stats().rejections, 1);
    }

    #[test]
    fn shard_admission_evicts_idle_single_scenes() {
        // Budget 30 fits the 20-Gaussian idle scene plus one 10-Gaussian
        // shard; admitting the second shard must push the idle scene out.
        let mut reg = SceneRegistry::with_budget(30 * PER_GAUSSIAN);
        reg.load("idle", scene_of(20), [0.0; 3]).unwrap();
        let shards = shard_scene(&scene_of(20), 2);
        reg.load_sharded("big", shards, [0.0; 3]).unwrap();
        let epoch = reg.epoch(&"big".to_string()).unwrap();
        reg.ensure_shard_resident(&"big".to_string(), 0, epoch);
        assert!(
            reg.contains(&"idle".to_string()),
            "first shard fits beside it"
        );
        let residency = reg.ensure_shard_resident(&"big".to_string(), 1, epoch);
        assert!(!reg.contains(&"idle".to_string()), "second shard evicts it");
        assert_eq!(
            residency.evicted_scenes,
            vec!["idle".to_string()],
            "the unloaded scene must be surfaced for cache invalidation"
        );
        assert_eq!(reg.stats().eviction_count, 1);
        assert_eq!(reg.used_bytes(), 20 * PER_GAUSSIAN);
    }

    #[test]
    fn stale_epoch_ensures_are_no_ops() {
        let mut reg = SceneRegistry::with_budget(100 * PER_GAUSSIAN);
        let shards = shard_scene(&scene_of(20), 2);
        reg.load_sharded("s", shards, [0.0; 3]).unwrap();
        let old_epoch = reg.epoch(&"s".to_string()).unwrap();
        // Replace the scene: the old epoch must no longer charge anything.
        let shards = shard_scene(&scene_of(20), 2);
        reg.load_sharded("s", shards, [0.0; 3]).unwrap();
        assert!(
            !reg.ensure_shard_resident(&"s".to_string(), 0, old_epoch)
                .charged
        );
        assert_eq!(reg.used_bytes(), 0);
        // And a vanished scene is equally inert.
        assert!(
            !reg.ensure_shard_resident(&"gone".to_string(), 0, old_epoch)
                .charged
        );
    }

    #[test]
    fn unloading_a_sharded_scene_frees_only_resident_bytes() {
        let mut reg = SceneRegistry::with_budget(100 * PER_GAUSSIAN);
        let shards = shard_scene(&scene_of(30), 3);
        reg.load_sharded("s", shards, [0.0; 3]).unwrap();
        let epoch = reg.epoch(&"s".to_string()).unwrap();
        reg.ensure_shard_resident(&"s".to_string(), 1, epoch);
        assert_eq!(reg.used_bytes(), 10 * PER_GAUSSIAN);
        assert!(reg.unload(&"s".to_string()));
        assert_eq!(reg.used_bytes(), 0, "unload must balance the pool");
    }

    #[test]
    fn resident_shard_reuse_refreshes_recency_without_recharging() {
        let mut reg = SceneRegistry::with_budget(25 * PER_GAUSSIAN);
        let shards = shard_scene(&scene_of(20), 2);
        reg.load_sharded("s", shards, [0.0; 3]).unwrap();
        let epoch = reg.epoch(&"s".to_string()).unwrap();
        reg.ensure_shard_resident(&"s".to_string(), 0, epoch);
        reg.ensure_shard_resident(&"s".to_string(), 1, epoch);
        // Touch shard 0 so shard 1 is LRU, then squeeze in a single scene
        // that only fits once one shard is evicted.
        reg.ensure_shard_resident(&"s".to_string(), 0, epoch);
        assert_eq!(reg.used_bytes(), 20 * PER_GAUSSIAN);
        reg.load("new", scene_of(10), [0.0; 3]).unwrap();
        assert_eq!(reg.stats().evictions, vec!["s#1".to_string()]);
    }
}
