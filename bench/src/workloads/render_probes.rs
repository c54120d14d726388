//! The forward path every workload shares — cull over the whole model, stage
//! the survivors, render them — replayed one public function at a time.

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::GaussianParams;
use gs_scale::render::culling::frustum_cull;
use gs_scale::render::pipeline::{render, RenderOutput};
use gs_scale::render::projection::project_splats;
use gs_scale::render::rasterize::rasterize_forward;
use gs_scale::render::tiles::TileGrid;

use crate::harness::Layers;
use crate::trace::Recorder;

/// What one replayed forward pass produced, for the caller's later probes.
pub struct ForwardReplay {
    pub ids: Vec<u32>,
    pub staged: GaussianParams,
    pub output: RenderOutput,
    /// Id of the span that timed `stage`, for probes of what it calls.
    pub stage_span: u32,
}

/// Replays `frustum_cull` → `stage` → `pipeline::render` as children of
/// span `parent`, then `project_splats`, `TileGrid::build` and
/// `rasterize_forward` once more beneath the forward span, so the forward
/// span's self time is the pipeline's own glue.
///
/// `stage` turns the surviving ids into the container that is rendered
/// (`GaussianParams::gather` when serving, `DeferredAdam::peek_restored`
/// when training) and is timed under `stage_metric`.
#[allow(clippy::too_many_arguments)]
pub fn replay_forward(
    layers: &mut Layers,
    rec: &Recorder,
    parent: u32,
    op: u32,
    params: &GaussianParams,
    cam: &Camera,
    viewport: &Viewport,
    background: [f32; 3],
    stage_metric: &'static str,
    stage: impl FnOnce(&[u32]) -> GaussianParams,
) -> ForwardReplay {
    let (cull, _) = layers.timed(rec, "gs-render.cull_us", parent, op, || {
        frustum_cull(params, cam, viewport)
    });
    let ids = cull.ids;
    let (staged, stage_span) = layers.timed(rec, stage_metric, parent, op, || stage(&ids));
    let (output, forward) = layers.timed(rec, "gs-render.forward_us", parent, op, || {
        render(&staged, cam, 3, viewport, background)
    });
    let (splats, _) = layers.timed(rec, "gs-render.project_us", forward, op, || {
        project_splats(&staged, cam, 3, viewport)
    });
    let (grid, _) = layers.timed(rec, "gs-render.bin_us", forward, op, || {
        TileGrid::build(&splats, *viewport)
    });
    layers.timed(rec, "gs-render.raster_fwd_us", forward, op, || {
        rasterize_forward(&splats, &grid, background)
    });
    layers.add("gs-render.pairs_per_op", grid.total_pairs() as f64);
    ForwardReplay {
        ids,
        staged,
        output,
        stage_span,
    }
}
