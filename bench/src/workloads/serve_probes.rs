//! Probes and checks the three serving workloads share.

use std::sync::Arc;
use std::time::Instant;

use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::image::Image;
use gs_scale::render::pipeline::render_image;
use gs_scale::serve::{FrameCache, FrameKey, RenderRequest};

use super::render_probes::replay_forward;
use crate::harness::{Layers, PROBE_OP};
use crate::trace::Recorder;

/// Whether two frames are the same size and byte-for-byte equal.
pub fn same_bytes(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.data()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.data().iter().map(|v| v.to_bits()))
}

/// Probes one uncached frame: `serve` is the stack's top-level call (the
/// `probe_op` span), a direct `render_image` of the same pose is the
/// baseline (the difference goes to `overhead_metric`), and the server's
/// render path (cull, gather, forward and its phases) is replayed as the
/// op's children. Returns whether the served frame equals the direct one.
#[allow(clippy::too_many_arguments)]
pub fn probe_served_frame<E>(
    layers: &mut Layers,
    rec: &Recorder,
    op: u32,
    params: &GaussianParams,
    background: [f32; 3],
    request: &RenderRequest,
    overhead_metric: Option<&'static str>,
    serve: impl FnOnce() -> Result<Arc<Image>, E>,
) -> bool {
    let t0 = Instant::now();
    let served = serve();
    let t1 = Instant::now();
    let parent = rec.record(("bench", PROBE_OP), 0, op, t0, t1);
    let direct = render_image(params, &request.camera, request.sh_degree, background);
    let t2 = Instant::now();
    rec.record(("gs-render", "direct_render_image"), 0, op, t1, t2);
    if let Some(metric) = overhead_metric {
        layers.add(
            metric,
            ((t1 - t0).as_secs_f64() - (t2 - t1).as_secs_f64()) * 1e6,
        );
    }

    let replay = replay_forward(
        layers,
        rec,
        parent,
        op,
        params,
        &request.camera,
        &request.viewport,
        background,
        "gs-core.gather_us",
        |ids| params.gather(ids),
    );
    layers.add(
        "gs-render.cull_active_share",
        replay.ids.len() as f64 / params.len().max(1) as f64,
    );
    let work = replay.output.stats.forward_work();
    layers.add("gs-render.model_flops_per_op", work.flops);
    layers.add("gs-render.model_bytes_per_op", work.total_bytes());
    layers.ops += 1;
    served.is_ok_and(|image| same_bytes(&image, &direct))
}

/// Feeds a stand-alone [`FrameCache`] of the workload's capacity the
/// workload's own key sequence — a lookup per request, an insert per miss —
/// and sets the mean time of each call.
pub fn probe_frame_cache(
    layers: &mut Layers,
    capacity_bytes: u64,
    pose_quant: f32,
    requests: &[RenderRequest],
    frame: &Arc<Image>,
) {
    let mut cache = FrameCache::new(capacity_bytes);
    let (mut get_s, mut insert_s, mut inserts) = (0.0, 0.0, 0u32);
    for request in requests {
        let key = FrameKey::for_request(request, pose_quant);
        let t0 = Instant::now();
        let hit = std::hint::black_box(cache.get(&key));
        get_s += t0.elapsed().as_secs_f64();
        if hit.is_none() {
            let t0 = Instant::now();
            cache.insert(key, Arc::clone(frame));
            insert_s += t0.elapsed().as_secs_f64();
            inserts += 1;
        }
    }
    layers.set(
        "gs-serve.cache_get_us",
        get_s * 1e6 / requests.len().max(1) as f64,
    );
    layers.set(
        "gs-serve.cache_insert_us",
        insert_s * 1e6 / f64::from(inserts.max(1)),
    );
}
