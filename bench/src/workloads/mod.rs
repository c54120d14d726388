//! The five workloads and the input generation they share. Inputs come from
//! the seed alone; the library receives only what is generated here.

mod cluster_shard;
mod render_probes;
mod serve_hot;
mod serve_miss;
mod serve_probes;
mod train;

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::image::Image;
use gs_scale::core::math::Vec3;
use gs_scale::platform::{kernel_time, PlatformSpec, Work};
use gs_scale::render::cost::cull_cost;
use gs_scale::render::culling::frustum_cull;
use gs_scale::render::pipeline::render;
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::serve::WireRequest;

use crate::harness::Workload;

/// Builds (sets up) the workload called `name`, or `None` for an unknown
/// name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "train_sparse" => Box::new(train::Train::new(&train::SPARSE, seed)),
        "train_dense" => Box::new(train::Train::new(&train::DENSE, seed)),
        "serve_miss" => Box::new(serve_miss::ServeMiss::new(seed)),
        "serve_hot" => Box::new(serve_hot::ServeHot::new(seed)),
        "cluster_shard" => Box::new(cluster_shard::ClusterShard::new(seed)),
        _ => return None,
    })
}

/// Horizontal field of view of every benchmark camera (the wire format's
/// default, so in-process and HTTP requests describe the same camera).
const FOV_X: f32 = 1.0;
/// Footprint of the synthetic fly-over scenes (world units).
const EXTENT: f32 = 100.0;

/// A fly-over scene of `gaussians` Gaussians whose point cloud covers every
/// one of them; the generator's own cameras are not used.
fn flyover_scene(
    name: &str,
    gaussians: usize,
    width: usize,
    height: usize,
    seed: u64,
) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: name.to_string(),
        num_gaussians: gaussians,
        init_points: gaussians,
        width,
        height,
        num_train_views: 0,
        num_test_views: 0,
        extent: EXTENT,
        far_view_fraction: 0.0,
        seed,
        ..SceneConfig::default()
    })
}

/// A camera at `(x, y)` looking straight down from `altitude`.
fn overhead_camera(width: usize, height: usize, x: f32, y: f32, altitude: f32) -> Camera {
    let position = Vec3::new(x, y, -altitude);
    Camera::look_at(
        width,
        height,
        FOV_X,
        position,
        Vec3::new(x, y, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
    )
}

/// The altitude above `(x, y)` at which the frustum holds `ratio` of
/// `params`, by bisection on the measured active ratio. Steady per-view
/// work across seeds is what keeps the workload's spread small.
fn altitude_for_ratio(
    params: &GaussianParams,
    width: usize,
    height: usize,
    x: f32,
    y: f32,
    ratio: f64,
) -> f32 {
    let (mut lo, mut hi) = (1.0f32, 4.0 * EXTENT);
    for _ in 0..14 {
        let mid = 0.5 * (lo + hi);
        let cam = overhead_camera(width, height, x, y, mid);
        if frustum_cull(params, &cam, &Viewport::full(&cam)).active_ratio() > ratio {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Every pose of a lattice over a square region exactly once, in a
/// scrambled order: neighbouring indices are far apart, and no two poses
/// share a frame-cache key (the pitch exceeds the cache's pose quantum).
struct PoseLattice {
    side: u64,
    start: u64,
    half: f32,
}

impl PoseLattice {
    /// Lattice pitch in world units; the servers quantize poses to 0.05.
    const PITCH: f32 = 0.0517;
    /// Odd and far from any small divisor of `side²`, so `index * STRIDE`
    /// walks the whole lattice before repeating.
    const STRIDE: u64 = 1_000_003;

    fn new(half: f32, seed: u64) -> Self {
        let side = (2.0 * half / Self::PITCH) as u64;
        Self {
            side,
            start: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (side * side).max(1),
            half,
        }
    }

    fn cells(&self) -> u64 {
        self.side * self.side
    }

    /// The `(x, y)` of pose `index`.
    fn pose(&self, index: u64) -> (f32, f32) {
        let cells = self.cells();
        let j = (self.start + (index % cells) * (Self::STRIDE % cells)) % cells;
        (
            -self.half + (j % self.side) as f32 * Self::PITCH,
            -self.half + (j / self.side) as f32 * Self::PITCH,
        )
    }
}

/// The wire request that describes `cam` (a [`overhead_camera`] or a tour
/// camera looking down `+x`) on `scene`.
fn wire_request(scene: &str, cam: &Camera, forward: Vec3) -> WireRequest {
    let p = cam.position;
    let t = p + forward;
    WireRequest {
        fov_x: FOV_X,
        ..WireRequest::new(
            scene,
            [p.x, p.y, p.z],
            [t.x, t.y, t.z],
            cam.width,
            cam.height,
        )
    }
}

/// Renders `cam` the way the servers do (cull, gather, forward) and returns
/// the frame with the seconds the platform model's GPU needs for it: a
/// fused cull over the whole scene plus the forward pass.
fn model_frame(
    params: &GaussianParams,
    cam: &Camera,
    background: [f32; 3],
    platform: &PlatformSpec,
) -> (Image, f64) {
    let viewport = Viewport::full(cam);
    let ids = frustum_cull(params, cam, &viewport).ids;
    let out = render(&params.gather(&ids), cam, 3, &viewport, background);
    let cull = cull_cost(params.len(), ids.len());
    let forward = out.stats.forward_work();
    let seconds = kernel_time(
        &Work::new(cull.flops, cull.total_bytes()),
        &platform.gpu,
        true,
    ) + kernel_time(
        &Work::new(forward.flops, forward.total_bytes()),
        &platform.gpu,
        true,
    );
    (out.image, seconds)
}

const MB: f64 = 1024.0 * 1024.0;

/// First pose index of a probe pass: beyond any measured loop, so the probed
/// poses (and the counts taken on them) are the same for a seed however
/// many ops the loop got through.
const PROBE_BASE: u64 = 1 << 31;
