//! Scene sharding: spatial partitioning of a Gaussian store into shards
//! that are admitted, cached and rendered independently.
//!
//! GS-Scale's training side splits parameter state across host and GPU so
//! scenes larger than one device fit; this module extends the same idea to
//! serving. A scene is partitioned into `K` shards by **recursive
//! axis-median splits** on the Gaussian centers: each split selects the
//! longest axis of the subset's center bounding box and cuts at the
//! quantile that balances the shard counts on both sides (the exact median
//! when `K` is a power of two). Every Gaussian lands in exactly one shard,
//! each shard records its center AABB and memory footprint, and the shard
//! footprints sum to the unsharded footprint.
//!
//! At render time the shards are ordered **front-to-back by depth along the
//! view ray** ([`depth_order`]) and rendered one at a time into a
//! [`gs_render::rasterize::FrameLayer`], so only one shard's 59-parameter
//! store needs to be resident at a time — a scene larger than the whole
//! registry budget still serves, one shard's worth of memory per step.

use std::sync::Arc;

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::GaussianParams;
use gs_core::math::Vec3;
use gs_render::culling::{CULL_PIXEL_SLACK, CULL_RADIUS_MARGIN};
use gs_render::projection::RADIUS_SIGMA;

/// An axis-aligned bounding box over Gaussian centers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Componentwise minimum corner.
    pub min: Vec3,
    /// Componentwise maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// An empty box (inverted bounds) that grows to fit the first point.
    pub fn empty() -> Self {
        Self {
            min: Vec3::splat(f32::INFINITY),
            max: Vec3::splat(f32::NEG_INFINITY),
        }
    }

    /// The box tightly enclosing the centers of `ids` within `params`.
    pub fn of_centers(params: &GaussianParams, ids: &[u32]) -> Self {
        let mut aabb = Self::empty();
        for &id in ids {
            aabb.grow(params.mean(id as usize));
        }
        aabb
    }

    /// Expands the box to include `p`.
    pub fn grow(&mut self, p: Vec3) {
        self.min = Vec3::new(
            self.min.x.min(p.x),
            self.min.y.min(p.y),
            self.min.z.min(p.z),
        );
        self.max = Vec3::new(
            self.max.x.max(p.x),
            self.max.y.max(p.y),
            self.max.z.max(p.z),
        );
    }

    /// Whether `p` lies inside the box (inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The box center (the point shard depth ordering projects).
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extents (`max - min`).
    pub fn extents(&self) -> Vec3 {
        self.max - self.min
    }

    /// Merges another box into this one.
    pub fn union(&mut self, other: &Aabb) {
        self.grow(other.min);
        self.grow(other.max);
    }

    /// Whether the box is empty (inverted bounds, nothing grown into it).
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// The box's eight corners.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }
}

/// Conservative shard-level frustum test: whether *any* Gaussian whose
/// center lies in `aabb` (with per-Gaussian scale at most `max_scale`) could
/// survive [`gs_render::culling::gaussian_in_frustum`] for this view. When
/// this returns `false`, every Gaussian of the shard is culled before
/// projection, so skipping the shard entirely leaves the composite
/// bit-identical — the shard-granular analogue of frustum culling.
///
/// The per-Gaussian test's conditions (`near < z < far`, projected pixel
/// inside the viewport inflated by the conservative radius) are rewritten as
/// linear half-space tests in camera space, which makes the eight corners of
/// the AABB's camera-space hull exact witnesses: centers are convex
/// combinations of corners, so a half-space that excludes all corners
/// excludes every center. The inflation radius uses the shard-wide
/// `max_scale`, an upper bound on each Gaussian's own.
pub fn shard_visible(aabb: &Aabb, max_scale: f32, cam: &Camera, viewport: &Viewport) -> bool {
    if aabb.is_empty() {
        return false;
    }
    let corners = aabb.corners().map(|c| cam.world_to_cam(c));
    // Depth planes: every center's z lies within the corner hull's z range.
    if corners.iter().all(|c| c.z <= cam.near) || corners.iter().all(|c| c.z >= cam.far) {
        return false;
    }
    // Side planes. A Gaussian at camera-space (x, y, z) with z > near fails
    // e.g. the right margin iff `fx*x/z + cx >= x1 + slack + pad/z`, i.e.
    // `fx*x - (x1 - cx + slack)*z - pad >= 0` — linear in (x, z). Corners
    // with z <= near fail the depth plane instead, so an all-corner
    // exclusion on any one side proves the whole shard invisible.
    let focal = cam.fx.max(cam.fy);
    let pad = CULL_RADIUS_MARGIN * RADIUS_SIGMA * max_scale * focal;
    let (x0, x1) = (viewport.x0 as f32, viewport.x1 as f32);
    let (y0, y1) = (viewport.y0 as f32, viewport.y1 as f32);
    let right = x1 - cam.cx + CULL_PIXEL_SLACK;
    if corners
        .iter()
        .all(|c| cam.fx * c.x - right * c.z - pad >= 0.0)
    {
        return false;
    }
    let left = x0 - cam.cx - CULL_PIXEL_SLACK;
    if corners
        .iter()
        .all(|c| cam.fx * c.x - left * c.z + pad < 0.0)
    {
        return false;
    }
    let bottom = y1 - cam.cy + CULL_PIXEL_SLACK;
    if corners
        .iter()
        .all(|c| cam.fy * c.y - bottom * c.z - pad >= 0.0)
    {
        return false;
    }
    let top = y0 - cam.cy - CULL_PIXEL_SLACK;
    if corners.iter().all(|c| cam.fy * c.y - top * c.z + pad < 0.0) {
        return false;
    }
    true
}

/// One shard of a partitioned scene: a gathered parameter store plus the
/// metadata the registry and renderer need.
#[derive(Debug, Clone)]
pub struct ShardSource {
    /// The shard's own parameter container (gathered, ascending global id
    /// order — which is what keeps depth-disjoint composites bit-identical).
    pub params: Arc<GaussianParams>,
    /// Global ids of the Gaussians in this shard (ascending).
    pub ids: Vec<u32>,
    /// Bounding box of the shard's Gaussian centers.
    pub aabb: Aabb,
    /// Largest per-axis world-space scale of any Gaussian in the shard; the
    /// conservative inflation radius of [`shard_visible`].
    pub max_scale: f32,
    /// Bytes this shard charges against the registry pool when resident.
    pub bytes: u64,
}

/// Partitions `0..params.len()` into `k` id sets by recursive axis-median
/// splits on the Gaussian centers. Every id appears in exactly one set, the
/// sets are returned with ascending ids, and set sizes are balanced to
/// within one Gaussian.
///
/// `k` is clamped to the number of Gaussians (an empty store yields one
/// empty shard).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn partition_ids(params: &GaussianParams, k: usize) -> Vec<Vec<u32>> {
    assert!(k > 0, "shard count must be at least 1");
    let k = k.min(params.len()).max(1);
    let mut ids: Vec<u32> = (0..params.len() as u32).collect();
    let mut out = Vec::with_capacity(k);
    split_recursive(params, &mut ids, k, &mut out);
    for shard in &mut out {
        shard.sort_unstable();
    }
    out
}

fn split_recursive(params: &GaussianParams, ids: &mut [u32], k: usize, out: &mut Vec<Vec<u32>>) {
    if k <= 1 {
        out.push(ids.to_vec());
        return;
    }
    // Longest axis of the subset's center bounding box.
    let aabb = Aabb::of_centers(params, ids);
    let ext = aabb.extents();
    let axis = if ext.x >= ext.y && ext.x >= ext.z {
        0
    } else if ext.y >= ext.z {
        1
    } else {
        2
    };
    let coord = |id: u32| -> f32 {
        let m = params.mean(id as usize);
        match axis {
            0 => m.x,
            1 => m.y,
            _ => m.z,
        }
    };
    // Split at the quantile that balances shard counts: the exact median
    // for an even split (k a power of two), proportional otherwise.
    let k_left = k / 2;
    let k_right = k - k_left;
    let cut = ids.len() * k_left / k;
    ids.select_nth_unstable_by(cut, |&a, &b| {
        coord(a)
            .partial_cmp(&coord(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (left, right) = ids.split_at_mut(cut);
    split_recursive(params, left, k_left, out);
    split_recursive(params, right, k_right, out);
}

/// How many shards a scene is loaded in: `explicit` when the caller names a
/// count, otherwise `ceil(bytes / shard_bytes)` for a scene larger than
/// `shard_bytes`, otherwise one (also when `shard_bytes` is 0, which turns
/// automatic sharding off).
pub fn shard_count(params: &GaussianParams, shard_bytes: u64, explicit: Option<usize>) -> usize {
    let bytes = params.total_bytes() as u64;
    match explicit {
        Some(k) => k,
        None if shard_bytes > 0 && bytes > shard_bytes => {
            usize::try_from(bytes.div_ceil(shard_bytes)).unwrap_or(usize::MAX)
        }
        None => 1,
    }
}

/// Partitions a scene into `k` shards, gathering each shard's parameters
/// into its own container (see [`partition_ids`] for the split rule).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn shard_scene(params: &GaussianParams, k: usize) -> Vec<ShardSource> {
    partition_ids(params, k)
        .into_iter()
        .map(|ids| {
            let shard_params = params.gather(&ids);
            let bytes = shard_params.total_bytes() as u64;
            let aabb = Aabb::of_centers(params, &ids);
            let max_scale = (0..shard_params.len())
                .map(|i| shard_params.scale(i).max_elem())
                .fold(0.0f32, f32::max);
            ShardSource {
                params: Arc::new(shard_params),
                ids,
                aabb,
                max_scale,
                bytes,
            }
        })
        .collect()
}

/// Orders shard indices front-to-back by the camera-space depth of each
/// shard's AABB center — the composite order of the fan-out render path.
///
/// For shards whose depth ranges are disjoint along the view ray (e.g. a
/// corridor scene partitioned along its long axis, viewed down that axis)
/// this order makes the layered composite bit-identical to the unsharded
/// render; for overlapping shards it is the error-minimizing heuristic.
pub fn depth_order(aabbs: &[Aabb], cam: &Camera) -> Vec<usize> {
    let mut order: Vec<usize> = (0..aabbs.len()).collect();
    order.sort_by(|&a, &b| {
        let za = cam.world_to_cam(aabbs[a].center()).z;
        let zb = cam.world_to_cam(aabbs[b].center()).z;
        za.total_cmp(&zb)
    });
    order
}

/// Depth-orders shards front-to-back and drops the frustum-invisible ones —
/// the shared shard selection of the single-node fan-out render and the
/// cluster coordinator. Selecting (and ordering) identically on both paths
/// is part of what keeps a relayed cross-node composite bit-identical to
/// the single-node sharded render.
///
/// # Panics
///
/// Panics if `max_scales` is shorter than `aabbs`.
pub fn visible_shards(
    aabbs: &[Aabb],
    max_scales: &[f32],
    cam: &Camera,
    viewport: &Viewport,
) -> Vec<usize> {
    assert!(max_scales.len() >= aabbs.len(), "one max scale per shard");
    depth_order(aabbs, cam)
        .into_iter()
        .filter(|&k| shard_visible(&aabbs[k], max_scales[k], cam, viewport))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::rng::Rng64;

    fn random_scene(seed: u64, n: usize, extents: [f32; 3]) -> GaussianParams {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut p = GaussianParams::with_capacity(n);
        for _ in 0..n {
            p.push_isotropic(
                Vec3::new(
                    rng.gen_range(-extents[0]..extents[0]),
                    rng.gen_range(-extents[1]..extents[1]),
                    rng.gen_range(-extents[2]..extents[2]),
                ),
                rng.gen_range(0.1f32..0.4),
                [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()],
                rng.gen_range(0.3f32..0.9),
            );
        }
        p
    }

    #[test]
    fn every_gaussian_lands_in_exactly_one_shard() {
        // Seeded property loop over scene sizes and shard counts, including
        // non-power-of-two K and K larger than the scene.
        for (seed, n, k) in [
            (1u64, 100usize, 2usize),
            (2, 101, 3),
            (3, 257, 5),
            (4, 64, 8),
            (5, 33, 7),
            (6, 5, 9),
        ] {
            let params = random_scene(seed, n, [20.0, 10.0, 5.0]);
            let shards = partition_ids(&params, k);
            assert_eq!(shards.len(), k.min(n));
            let mut seen = vec![0u32; n];
            for ids in &shards {
                for &id in ids {
                    seen[id as usize] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "seed {seed}: every gaussian must appear exactly once"
            );
            // Balanced to within one Gaussian per shard.
            let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "seed {seed}: unbalanced sizes {sizes:?}");
        }
    }

    #[test]
    fn shard_aabbs_cover_the_scene() {
        for seed in [10u64, 11, 12] {
            let params = random_scene(seed, 200, [30.0, 8.0, 8.0]);
            let shards = shard_scene(&params, 4);
            let mut hull = Aabb::empty();
            for shard in &shards {
                for &id in &shard.ids {
                    assert!(
                        shard.aabb.contains(params.mean(id as usize)),
                        "seed {seed}: every center must lie inside its shard AABB"
                    );
                }
                hull.union(&shard.aabb);
            }
            let all: Vec<u32> = (0..params.len() as u32).collect();
            let scene_aabb = Aabb::of_centers(&params, &all);
            assert_eq!(
                hull, scene_aabb,
                "seed {seed}: shard AABBs must cover the scene"
            );
        }
    }

    #[test]
    fn shard_footprints_sum_to_the_unsharded_footprint() {
        for (seed, k) in [(20u64, 2usize), (21, 3), (22, 6)] {
            let params = random_scene(seed, 150, [10.0, 10.0, 10.0]);
            let shards = shard_scene(&params, k);
            let total: u64 = shards.iter().map(|s| s.bytes).sum();
            assert_eq!(total, params.total_bytes() as u64);
            let gaussians: usize = shards.iter().map(|s| s.params.len()).sum();
            assert_eq!(gaussians, params.len());
        }
    }

    #[test]
    fn gathered_shards_hold_the_right_parameters() {
        let params = random_scene(30, 80, [15.0, 15.0, 15.0]);
        for shard in shard_scene(&params, 3) {
            for (local, &global) in shard.ids.iter().enumerate() {
                assert_eq!(shard.params.mean(local), params.mean(global as usize));
                assert_eq!(
                    shard.params.opacity_logit(local),
                    params.opacity_logit(global as usize)
                );
            }
        }
    }

    #[test]
    fn elongated_scenes_split_along_the_long_axis() {
        // A corridor along x must produce x-contiguous slabs: every shard's
        // x-range is disjoint from every other shard's.
        let params = random_scene(40, 256, [40.0, 4.0, 4.0]);
        let mut shards = shard_scene(&params, 8);
        shards.sort_by(|a, b| a.aabb.min.x.total_cmp(&b.aabb.min.x));
        for pair in shards.windows(2) {
            assert!(
                pair[0].aabb.max.x < pair[1].aabb.min.x,
                "corridor shards must be disjoint slabs along x: {:?} vs {:?}",
                pair[0].aabb,
                pair[1].aabb
            );
        }
    }

    #[test]
    fn depth_order_sorts_slabs_along_the_view_ray() {
        let params = random_scene(50, 128, [40.0, 4.0, 4.0]);
        let shards = shard_scene(&params, 4);
        let aabbs: Vec<Aabb> = shards.iter().map(|s| s.aabb).collect();
        // Camera at the -x end looking down +x: depth == x - cam.x.
        let cam = Camera::look_at(
            32,
            24,
            1.0,
            Vec3::new(-50.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let order = depth_order(&aabbs, &cam);
        for pair in order.windows(2) {
            assert!(
                aabbs[pair[0]].center().x <= aabbs[pair[1]].center().x,
                "depth order must walk the corridor front to back"
            );
        }
        // From the opposite end the order reverses.
        let back = Camera::look_at(
            32,
            24,
            1.0,
            Vec3::new(50.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let reversed = depth_order(&aabbs, &back);
        assert_eq!(
            reversed,
            order.iter().rev().copied().collect::<Vec<_>>(),
            "reversing the camera must reverse the shard order"
        );
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let empty = GaussianParams::new();
        let shards = partition_ids(&empty, 4);
        assert_eq!(shards.len(), 1);
        assert!(shards[0].is_empty());

        let one = random_scene(60, 1, [1.0, 1.0, 1.0]);
        let shards = shard_scene(&one, 5);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].params.len(), 1);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_panics() {
        let params = random_scene(70, 10, [1.0, 1.0, 1.0]);
        let _ = partition_ids(&params, 0);
    }

    #[test]
    fn shard_visibility_is_a_superset_of_per_gaussian_culling() {
        // The load-bearing invariant of view-adaptive shard culling: a shard
        // holding *any* Gaussian that per-Gaussian frustum culling keeps must
        // never be reported invisible. Seeded loop over scenes, shard counts
        // and cameras, including views from inside the scene.
        for (seed, k) in [(80u64, 2usize), (81, 4), (82, 7)] {
            let params = random_scene(seed, 300, [40.0, 6.0, 6.0]);
            let shards = shard_scene(&params, k);
            let cams = [
                Camera::look_at(
                    64,
                    48,
                    1.2,
                    Vec3::new(-50.0, 0.0, 0.0),
                    Vec3::ZERO,
                    Vec3::new(0.0, 1.0, 0.0),
                ),
                // Mid-scene looking down +x: shards behind must be culled.
                Camera::look_at(
                    64,
                    48,
                    1.2,
                    Vec3::new(0.0, 1.0, 0.5),
                    Vec3::new(1.0, 1.0, 0.5),
                    Vec3::new(0.0, 1.0, 0.0),
                ),
                // Looking away from the scene entirely.
                Camera::look_at(
                    64,
                    48,
                    1.2,
                    Vec3::new(-50.0, 0.0, 0.0),
                    Vec3::new(-60.0, 0.0, 0.0),
                    Vec3::new(0.0, 1.0, 0.0),
                ),
            ];
            for cam in &cams {
                let vp = Viewport::full(cam);
                let survivors = gs_render::culling::frustum_cull(&params, cam, &vp).ids;
                let survivor_set: std::collections::HashSet<u32> = survivors.into_iter().collect();
                for shard in &shards {
                    let visible = shard_visible(&shard.aabb, shard.max_scale, cam, &vp);
                    let holds_survivor = shard.ids.iter().any(|id| survivor_set.contains(id));
                    assert!(
                        visible || !holds_survivor,
                        "seed {seed} k{k}: a shard holding a culling survivor was culled"
                    );
                }
            }
        }
    }

    #[test]
    fn shards_fully_outside_the_frustum_are_culled() {
        let params = random_scene(90, 200, [40.0, 4.0, 4.0]);
        let shards = shard_scene(&params, 4);
        // Camera past the +x end looking further along +x: the whole scene
        // sits behind it.
        let cam = Camera::look_at(
            64,
            48,
            1.2,
            Vec3::new(60.0, 0.0, 0.0),
            Vec3::new(70.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let vp = Viewport::full(&cam);
        for shard in &shards {
            assert!(
                !shard_visible(&shard.aabb, shard.max_scale, &cam, &vp),
                "a shard entirely behind the camera must be culled"
            );
        }
        // An empty AABB is never visible.
        assert!(!shard_visible(&Aabb::empty(), 0.0, &cam, &vp));
    }

    #[test]
    fn shard_max_scale_bounds_every_member() {
        let params = random_scene(91, 120, [20.0, 8.0, 8.0]);
        for shard in shard_scene(&params, 3) {
            for &id in &shard.ids {
                assert!(params.scale(id as usize).max_elem() <= shard.max_scale);
            }
        }
    }
}
