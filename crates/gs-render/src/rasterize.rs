//! Tile-based alpha-blending rasterizer (forward and backward).
//!
//! The forward pass composites depth-sorted splats front-to-back per pixel
//! with early termination once the transmittance is exhausted, exactly like
//! the reference CUDA rasterizer. The backward pass replays each pixel
//! back-to-front, reconstructing the per-splat transmittance from the stored
//! final transmittance, and accumulates gradients w.r.t. every splat's 2D
//! mean, conic, color and opacity. Both training passes fan their tiles out
//! over every core and are bit-identical at any thread count.
//!
//! Both fast kernels (`blend_row` forward, `backward_row` backward) work
//! one tile pixel row at a time: up to [`TILE_SIZE`] pixel lanes held in
//! `[f32; TILE_SIZE]` arrays, per-lane conditions as `u32` masks and state
//! updates as branch-free bit selects, and `exp_neg` (adds, multiplies,
//! compares and bit operations only) in place of libm `expf`. At the
//! default x86-64 target (SSE2) the compiler turns their lane loops into
//! packed 4-wide operations; there is no `unsafe`, no `core::arch` and no
//! target-specific code. Each splat runs only the 4-lane groups its
//! bounding box may reach, so small splats cost one or two groups.

use std::ops::Range;
use std::sync::OnceLock;

use gs_core::image::Image;

use crate::projection::{Splat, SplatGrad};
use crate::tiles::{TileGrid, TILE_SIZE};

/// Alpha values below this threshold are skipped (1/255, as in 3DGS).
pub const ALPHA_SKIP: f32 = 1.0 / 255.0;
/// Alpha is clamped to this maximum to keep `1 - alpha` away from zero.
pub const ALPHA_MAX: f32 = 0.999;
/// Blending terminates once the transmittance falls below this value.
pub const TRANSMITTANCE_MIN: f32 = 1.0e-4;

/// Per-pixel auxiliary state saved by the forward pass for the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RasterAux {
    /// Final transmittance per viewport pixel (row-major, viewport-local).
    pub final_transmittance: Vec<f32>,
    /// Per pixel: exclusive end position in the tile bin up to which splats
    /// were processed before early termination.
    pub n_processed: Vec<u32>,
    /// Background color composited behind the splats.
    pub background: [f32; 3],
}

#[inline]
fn gaussian_weight(splat: &Splat, px: f32, py: f32) -> Option<(f32, f32, f32)> {
    let dx = px - splat.mean2d.x;
    let dy = py - splat.mean2d.y;
    // Restrict every splat to its own bounding box so that which pixels a
    // splat touches does not depend on how the image is tiled: a sub-viewport
    // render is then identical to the crop of a full render.
    if dx.abs() > splat.radius || dy.abs() > splat.radius {
        return None;
    }
    let sigma =
        0.5 * (splat.conic.xx * dx * dx + splat.conic.yy * dy * dy) + splat.conic.xy * dx * dy;
    if sigma < 0.0 || !sigma.is_finite() {
        return None;
    }
    Some((sigma, dx, dy))
}

/// `e^{-x}`, built from IEEE adds, multiplies, compares and bit operations
/// only, so the lane loops that call it vectorize (libm `expf`, `round` and
/// `floor` are calls at the baseline target). This is Cephes `expf`: clamp
/// to ±87, Cody–Waite reduction `-x = n·ln 2 + r` with `n` rounded by the
/// `1.5·2^23` magic number, a degree-6 polynomial for `e^r`, and `2^n`
/// assembled in the exponent bits. It is within 1 ulp of the correctly
/// rounded result on `[0, 87]` and `exp_neg(0.0) == 1.0` exactly. Every
/// alpha in this module goes through it.
#[inline(always)]
fn exp_neg(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0;
    // NaN passes through; its lanes are masked off by every caller.
    let x = (-x).clamp(-87.0, 87.0);
    // Adding 1.5·2^23 rounds to an integer held in the low mantissa bits.
    let shifted = x * std::f32::consts::LOG2_E + MAGIC;
    let n = shifted - MAGIC;
    // ln 2 in two parts: 0.693359375 (exact in a few bits) and a correction.
    let r = (x - n * 0.693_359_4) - n * -2.121_944_4e-4;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_6e-1)
        * r
        + 0.5;
    let e_r = p * (r * r) + r + 1.0;
    // n + 127 in the exponent field is 2^n (n is within ±126 after the
    // clamp); wrapping keeps masked NaN lanes from tripping overflow checks.
    let biased = shifted
        .to_bits()
        .wrapping_sub(MAGIC.to_bits())
        .wrapping_add(127);
    e_r * f32::from_bits(biased << 23)
}

/// All ones when `c` holds, else zero: a lane mask for [`select`].
#[inline(always)]
fn mask(c: bool) -> u32 {
    0u32.wrapping_sub(u32::from(c))
}

/// `a` where `m` is all ones, `b` where it is zero.
#[inline(always)]
fn select(m: u32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// Whether no lane of `m` is set (an OR over the lanes, which vectorizes
/// where `==` on the array calls `bcmp`).
#[inline(always)]
fn none(m: &[u32; TILE_SIZE]) -> bool {
    m.iter().fold(0, |acc, &l| acc | l) == 0
}

/// Lanes per group: the f32 width of SSE2, the baseline x86-64 target.
const GROUP: usize = 4;

/// Pixel-centre x coordinates of a tile row's lanes starting at column `x0`.
fn lane_centres(x0: usize) -> [f32; TILE_SIZE] {
    std::array::from_fn(|l| (x0 + l) as f32 + 0.5)
}

/// The lanes, in whole [`GROUP`]s, of a tile row starting at column `x0`
/// whose pixel centres may lie in the `[mean_x - radius, mean_x + radius]`
/// box. The box is widened by one lane on each side plus 2^-20 of the
/// coordinates' magnitude (f32 rounding of the exact per-lane test when they
/// are huge), so the range is a superset of the lanes `|dx| <= radius`
/// accepts; a NaN bound selects every lane, as the per-lane test does.
fn lane_groups(mean_x: f32, radius: f32, x0: usize) -> Range<usize> {
    let cx0 = x0 as f32 + 0.5;
    let slack = 1.0 + (mean_x.abs() + radius + cx0) * (1.0 / 1_048_576.0);
    let lo = (mean_x - radius) - cx0 - slack;
    let hi = (mean_x + radius) - cx0 + slack;
    // `as usize` saturates negatives and NaN to 0; `f32::min` takes 15 over
    // NaN. The integer `min` shows the compiler the range ends by lane 16, so
    // the lane loops carry no bounds checks.
    let first = (lo as usize).min(TILE_SIZE - 1);
    let last = (hi.min((TILE_SIZE - 1) as f32) as usize).min(TILE_SIZE - 1);
    first / GROUP * GROUP..(last / GROUP + 1) * GROUP
}

#[inline]
fn splat_alpha(splat: &Splat, sigma: f32) -> Option<(f32, bool)> {
    let raw = splat.opacity * exp_neg(sigma);
    if raw < ALPHA_SKIP {
        return None;
    }
    if raw > ALPHA_MAX {
        Some((ALPHA_MAX, true))
    } else {
        Some((raw, false))
    }
}

/// The scalar per-pixel front-to-back blend kernel of the `*_reference`
/// oracles: composites the bin's splats into the running `(color, t)` state
/// (premultiplied, no background) with early termination at
/// [`TRANSMITTANCE_MIN`], and returns how many bin entries were processed.
#[inline]
fn blend_pixel(
    splats: &[Splat],
    bin: &[u32],
    cx: f32,
    cy: f32,
    color: &mut [f32; 3],
    t: &mut f32,
) -> u32 {
    let mut processed = 0u32;
    for &si in bin {
        processed += 1;
        let s = &splats[si as usize];
        let Some((sigma, _, _)) = gaussian_weight(s, cx, cy) else {
            continue;
        };
        let Some((alpha, _)) = splat_alpha(s, sigma) else {
            continue;
        };
        color[0] += s.color[0] * alpha * *t;
        color[1] += s.color[1] * alpha * *t;
        color[2] += s.color[2] * alpha * *t;
        *t *= 1.0 - alpha;
        if *t < TRANSMITTANCE_MIN {
            break;
        }
    }
    processed
}

/// One tile pixel row's blend state, lane `l` at column `x0 + l`:
/// premultiplied color per channel, transmittance, and bin entries
/// processed.
struct LaneRow {
    color: [[f32; TILE_SIZE]; 3],
    t: [f32; TILE_SIZE],
    processed: [u32; TILE_SIZE],
}

/// The splat-outer, lane-batched row blend kernel.
///
/// Where [`blend_pixel`] walks the bin once per pixel, this kernel walks the
/// bin once per *tile row*, applying each splat to the row's first `width`
/// lanes of `row`, which start at viewport-absolute column `x0`. A row-level
/// `dy` test rejects splats that miss the whole row before any per-lane
/// work, and a splat that passes runs only the lane groups of
/// [`lane_groups`]. The lane loop has no branches: each of `blend_pixel`'s
/// skip conditions becomes a mask bit, and a masked lane keeps its state
/// through [`select`]. Each lane sees the bin's splats in the same order and
/// runs the same floating-point operations as `blend_pixel` (down to
/// `col * alpha * t`), so the result is bit-identical.
///
/// Lanes whose incoming transmittance is already below
/// [`TRANSMITTANCE_MIN`] are left untouched (the cross-shard early
/// termination of [`rasterize_layer`]); every other lane counts each bin
/// entry until its own transmittance falls below it, and the walk ends once
/// no lane is live.
// Out of line: inlined into its one caller it measured no faster (single-
// thread layer pass over a synthetic 2 500-splat 192x144 frame, release,
// 2 cores, 8 alternating runs: 19.6 ms inlined vs 17.4 ms, within noise),
// and the symbol keeps the packed lane loop easy to find in `--emit asm`.
#[inline(never)]
fn blend_row(splats: &[Splat], bin: &[u32], x0: usize, width: usize, cy: f32, row: &mut LaneRow) {
    debug_assert!(width <= TILE_SIZE);
    let xs = lane_centres(x0);
    let mut live: [u32; TILE_SIZE] =
        std::array::from_fn(|l| mask(l < width) & !mask(row.t[l] < TRANSMITTANCE_MIN));
    if none(&live) {
        return;
    }
    for &si in bin {
        for (p, &m) in row.processed.iter_mut().zip(&live) {
            *p += m & 1;
        }
        let s = &splats[si as usize];
        let dy = cy - s.mean2d.y;
        if dy.abs() > s.radius {
            continue;
        }
        let (mean_x, radius) = (s.mean2d.x, s.radius);
        let (cxx, cxy, cyy) = (s.conic.xx, s.conic.xy, s.conic.yy);
        let (opacity, col) = (s.opacity, s.color);
        let mut ended = 0u32;
        for l in lane_groups(mean_x, radius, x0) {
            let dx = xs[l] - mean_x;
            let sigma = 0.5 * (cxx * dx * dx + cyy * dy * dy) + cxy * dx * dy;
            let raw = opacity * exp_neg(sigma);
            let alpha = if raw > ALPHA_MAX { ALPHA_MAX } else { raw };
            // `blend_pixel`'s skip tests, NaN behaviour included.
            let skip =
                (dx.abs() > radius) | (sigma < 0.0) | !sigma.is_finite() | (raw < ALPHA_SKIP);
            let hit = live[l] & !mask(skip);
            let t = row.t[l];
            for (c, ch) in row.color.iter_mut().zip(col) {
                c[l] = select(hit, c[l] + ch * alpha * t, c[l]);
            }
            let t_next = t * (1.0 - alpha);
            row.t[l] = select(hit, t_next, t);
            let end = hit & mask(t_next < TRANSMITTANCE_MIN);
            live[l] &= !end;
            ended |= end;
        }
        if ended != 0 && none(&live) {
            break;
        }
    }
}

/// Threads both training passes fan out over: every core the process may
/// use, read once.
fn raster_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits `0..weights.len()` into at most `parts` contiguous, non-empty
/// ranges: each takes items until it holds its share (rounded up) of the
/// weight still unassigned, leaving one item per later range. Uniform
/// weights give the even split, remainder on the leading ranges.
fn partition(weights: &[u64], parts: usize) -> Vec<(usize, usize)> {
    let n = parts.clamp(1, weights.len().max(1));
    let mut ranges = Vec::with_capacity(n);
    let (mut start, mut rest) = (0, weights.iter().sum::<u64>());
    for later in (0..n).rev() {
        let (mut end, mut share) = (start, 0);
        while end < weights.len() - later
            && (later == 0 || end == start || share * (later as u64 + 1) < rest)
        {
            share += weights[end];
            end += 1;
        }
        ranges.push((start, end));
        start = end;
        rest -= share;
    }
    ranges
}

/// Rasterizes splats over the grid's viewport, returning the rendered image
/// (sized to the viewport) and the auxiliary state needed for the backward
/// pass.
///
/// This is a fresh [`FrameLayer`] run through the one blend path
/// ([`rasterize_layer`]'s band worker, which also records the per-pixel
/// processed counts here) with `background` composited in place on the
/// layer's own buffers: the layer's transmittance *is*
/// [`RasterAux::final_transmittance`]. The tile rows are banded over every
/// core; output is bit-identical to [`rasterize_forward_reference`] at any
/// core count.
pub fn rasterize_forward(
    splats: &[Splat],
    grid: &TileGrid,
    background: [f32; 3],
) -> (Image, RasterAux) {
    let vp = grid.viewport();
    let mut layer = FrameLayer::new(vp.width(), vp.height());
    let mut n_processed = vec![0u32; vp.width() * vp.height()];
    let threads = raster_threads();
    blend_bands(splats, grid, &mut layer, Some(&mut n_processed), threads);
    let (mut image, final_transmittance) = layer.into_parts();
    composite_background(image.data_mut(), &final_transmittance, background);
    (
        image,
        RasterAux {
            final_transmittance,
            n_processed,
            background,
        },
    )
}

/// The seed scalar forward pass (pixel-outer [`blend_pixel`] walk, alphas
/// through the same `exp_neg` as the lane kernels), kept as the
/// bit-identity oracle for the lane-batched and tile-parallel paths and as
/// the "before" baseline in kernel benchmarks.
pub fn rasterize_forward_reference(
    splats: &[Splat],
    grid: &TileGrid,
    background: [f32; 3],
) -> (Image, RasterAux) {
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    let mut image = Image::zeros(width, height);
    let mut final_t = vec![1.0f32; width * height];
    let mut n_processed = vec![0u32; width * height];

    for ty in 0..grid.tiles_y() {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            for py in y0..y1 {
                for px in x0..x1 {
                    let cx = px as f32 + 0.5;
                    let cy = py as f32 + 0.5;
                    let mut t = 1.0f32;
                    let mut color = [0.0f32; 3];
                    let processed = blend_pixel(splats, bin, cx, cy, &mut color, &mut t);
                    color[0] += background[0] * t;
                    color[1] += background[1] * t;
                    color[2] += background[2] * t;
                    let lx = px - vp.x0;
                    let ly = py - vp.y0;
                    image.set_pixel(lx, ly, color);
                    final_t[ly * width + lx] = t;
                    n_processed[ly * width + lx] = processed;
                }
            }
        }
    }

    (
        image,
        RasterAux {
            final_transmittance: final_t,
            n_processed,
            background,
        },
    )
}

/// A partial frame: premultiplied color plus per-pixel transmittance.
///
/// This is the unit of work scene sharding exchanges: each shard of a large
/// scene is rasterized into a layer, and layers combine front-to-back into
/// the frame a single unsharded render would have produced. Color is stored
/// *premultiplied* (splat contributions only, no background); the
/// transmittance records how much light still passes through, so that
/// whatever lies behind the layer — further shards, then the background —
/// can be composited underneath it.
///
/// Two composition styles are supported:
///
/// * **Threaded** — [`rasterize_layer`] rasterizes splats *into* an existing
///   layer, continuing each pixel's running `(color, transmittance)` state
///   exactly where the previous (nearer) shard left it, including the
///   early-termination cutoff at [`TRANSMITTANCE_MIN`]. When shard depth
///   ranges are disjoint along the view ray this replays the unsharded
///   rasterization's floating-point operation sequence verbatim, so the
///   composite is **bit-identical** to the unsharded render.
/// * **Independent** — each shard renders into a fresh layer (no shared
///   state, e.g. on different nodes) and [`FrameLayer::composite_onto`]
///   merges them front-to-back. Algebraically identical, but the
///   multiplication re-association perturbs the result by a few ulps even
///   for depth-disjoint shards.
///
/// For shards whose depth ranges overlap along a view ray, both styles
/// approximate: splats are blended shard-by-shard instead of in globally
/// sorted depth order, which perturbs pixels where splats from different
/// shards interleave in depth.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLayer {
    color: Image,
    transmittance: Vec<f32>,
}

impl FrameLayer {
    /// An empty (fully transparent) layer of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            color: Image::zeros(width, height),
            transmittance: vec![1.0; width * height],
        }
    }

    /// Reassembles a layer from its parts — the decode boundary of wire
    /// encodings that ship layers between nodes. The exact inverse of
    /// [`FrameLayer::into_parts`]: `from_parts(layer.into_parts())` is the
    /// identity, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `transmittance` does not hold one value per pixel of
    /// `color`.
    pub fn from_parts(color: Image, transmittance: Vec<f32>) -> Self {
        assert_eq!(
            transmittance.len(),
            color.width() * color.height(),
            "transmittance must hold one value per pixel"
        );
        Self {
            color,
            transmittance,
        }
    }

    /// Disassembles the layer into its premultiplied color image and
    /// per-pixel transmittance (the encode boundary of wire encodings).
    pub fn into_parts(self) -> (Image, Vec<f32>) {
        (self.color, self.transmittance)
    }

    /// Layer width in pixels.
    pub fn width(&self) -> usize {
        self.color.width()
    }

    /// Layer height in pixels.
    pub fn height(&self) -> usize {
        self.color.height()
    }

    /// The premultiplied color accumulated so far (no background).
    pub fn color(&self) -> &Image {
        &self.color
    }

    /// Per-pixel transmittance (row-major), 1.0 where nothing was blended.
    pub fn transmittance(&self) -> &[f32] {
        &self.transmittance
    }

    /// Composites `behind` underneath this layer (this layer is nearer):
    /// `color += behind.color * t` and `t *= behind.t` per pixel.
    ///
    /// # Panics
    ///
    /// Panics if the layer sizes differ.
    pub fn composite_onto(&mut self, behind: &FrameLayer) {
        assert_eq!(self.width(), behind.width(), "layer width mismatch");
        assert_eq!(self.height(), behind.height(), "layer height mismatch");
        let data = self.color.data_mut();
        for (i, t) in self.transmittance.iter_mut().enumerate() {
            for ch in 0..3 {
                data[3 * i + ch] += behind.color.data()[3 * i + ch] * *t;
            }
            *t *= behind.transmittance[i];
        }
    }

    /// Finishes the composite by blending `background` behind the remaining
    /// transmittance, producing the final frame.
    pub fn finish(&self, background: [f32; 3]) -> Image {
        let mut image = self.color.clone();
        composite_background(image.data_mut(), &self.transmittance, background);
        image
    }
}

/// Blends `background` behind premultiplied `color` in place:
/// `color += background * t` per pixel. The one background composite, shared
/// by [`FrameLayer::finish`] and [`rasterize_forward`].
fn composite_background(color: &mut [f32], transmittance: &[f32], background: [f32; 3]) {
    for (px, &t) in color.chunks_exact_mut(3).zip(transmittance) {
        for ch in 0..3 {
            px[ch] += background[ch] * t;
        }
    }
}

/// Rasterizes splats *into* `layer`, continuing each pixel's running
/// front-to-back blend where the previous (nearer) content left off.
///
/// Pixels whose incoming transmittance is already below
/// [`TRANSMITTANCE_MIN`] are skipped entirely — the same early termination
/// the unsharded forward pass applies mid-pixel, which is what makes the
/// threaded shard composite bit-identical for depth-disjoint shards (and
/// lets far shards skip work behind opaque geometry).
///
/// Tile rows are fanned out over up to `threads` scoped worker threads,
/// each continuing the blend on a disjoint band of the layer's pixel rows;
/// every pixel's blend is independent of its neighbours', so the result is
/// bit-identical at any thread count. `threads <= 1` (or a single tile row)
/// spawns nothing and blends on the calling thread.
///
/// # Panics
///
/// Panics if `layer`'s size does not match the grid's viewport.
pub fn rasterize_layer(splats: &[Splat], grid: &TileGrid, layer: &mut FrameLayer, threads: usize) {
    blend_bands(splats, grid, layer, None, threads);
}

/// Splits the layer (and `n_processed`, when the forward pass asks for the
/// per-pixel processed counts) into contiguous tile-row bands at pixel-row
/// boundaries and runs [`blend_band`] on each: the last band on the calling
/// thread, the others on scoped threads.
fn blend_bands(
    splats: &[Splat],
    grid: &TileGrid,
    layer: &mut FrameLayer,
    mut n_processed: Option<&mut [u32]>,
    threads: usize,
) {
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    assert_eq!(layer.width(), width, "layer width mismatch");
    assert_eq!(layer.height(), height, "layer height mismatch");
    let mut c_rest = layer.color.data_mut();
    let mut t_rest = &mut layer.transmittance[..];
    let bands = partition(&vec![1; grid.tiles_y()], threads);
    std::thread::scope(|scope| {
        for (b, &(ty0, ty1)) in bands.iter().enumerate() {
            let pixels = ((ty1 * TILE_SIZE).min(height) - ty0 * TILE_SIZE) * width;
            let c_band = c_rest.split_off_mut(..3 * pixels).expect("band in layer");
            let t_band = t_rest.split_off_mut(..pixels).expect("band in layer");
            let p_band = n_processed
                .as_mut()
                .map(|p| p.split_off_mut(..pixels).expect("band in layer"));
            let blend = move || blend_band(splats, grid, ty0, ty1, c_band, t_band, p_band);
            if b + 1 == bands.len() {
                blend();
            } else {
                scope.spawn(blend);
            }
        }
    });
}

/// The one band worker: rasterizes tile rows `ty0..ty1` into band-local
/// slices of a layer's color data (`3 * width` floats per pixel row) and
/// transmittance, continuing each pixel's running blend, and records how
/// many bin entries each pixel processed when `n_processed` is given. Every
/// pixel is produced by this code path regardless of how the image is
/// banded or whether the caller is the forward pass or a shard layer, which
/// is what makes all of them bit-identical.
fn blend_band(
    splats: &[Splat],
    grid: &TileGrid,
    ty0: usize,
    ty1: usize,
    color: &mut [f32],
    transmittance: &mut [f32],
    mut n_processed: Option<&mut [u32]>,
) {
    let vp = grid.viewport();
    let width = vp.width();
    let band_row0 = ty0 * TILE_SIZE;
    for ty in ty0..ty1 {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            if bin.is_empty() {
                continue;
            }
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            let row_w = x1 - x0;
            let lx0 = x0 - vp.x0;
            for py in y0..y1 {
                let cy = py as f32 + 0.5;
                let ly = (py - vp.y0) - band_row0;
                let pix0 = ly * width + lx0;
                let mut row = LaneRow {
                    color: [[0.0; TILE_SIZE]; 3],
                    t: [0.0; TILE_SIZE],
                    processed: [0; TILE_SIZE],
                };
                for l in 0..row_w {
                    let pix = pix0 + l;
                    for ch in 0..3 {
                        row.color[ch][l] = color[3 * pix + ch];
                    }
                    row.t[l] = transmittance[pix];
                }
                blend_row(splats, bin, x0, row_w, cy, &mut row);
                for l in 0..row_w {
                    let pix = pix0 + l;
                    for ch in 0..3 {
                        color[3 * pix + ch] = row.color[ch][l];
                    }
                    transmittance[pix] = row.t[l];
                }
                if let Some(n_processed) = n_processed.as_deref_mut() {
                    n_processed[pix0..pix0 + row_w].copy_from_slice(&row.processed[..row_w]);
                }
            }
        }
    }
}

/// The seed scalar layer pass (pixel-outer [`blend_pixel`] walk, alphas
/// through the same `exp_neg` as the lane kernels), kept as the
/// bit-identity oracle for the lane-batched and tile-parallel layer paths.
///
/// # Panics
///
/// Panics if `layer`'s size does not match the grid's viewport.
pub fn rasterize_layer_reference(splats: &[Splat], grid: &TileGrid, layer: &mut FrameLayer) {
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    assert_eq!(layer.width(), width, "layer width mismatch");
    assert_eq!(layer.height(), height, "layer height mismatch");

    for ty in 0..grid.tiles_y() {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            if bin.is_empty() {
                continue;
            }
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            for py in y0..y1 {
                for px in x0..x1 {
                    let lx = px - vp.x0;
                    let ly = py - vp.y0;
                    let pix = ly * width + lx;
                    let mut t = layer.transmittance[pix];
                    if t < TRANSMITTANCE_MIN {
                        continue;
                    }
                    let cx = px as f32 + 0.5;
                    let cy = py as f32 + 0.5;
                    let mut color = layer.color.pixel(lx, ly);
                    blend_pixel(splats, bin, cx, cy, &mut color, &mut t);
                    layer.color.set_pixel(lx, ly, color);
                    layer.transmittance[pix] = t;
                }
            }
        }
    }
}

/// Backpropagates a per-pixel image gradient to per-splat gradients.
///
/// `d_image` must have the same dimensions as the forward output (the
/// viewport size). Returns one [`SplatGrad`] per input splat (zero for
/// splats that contributed to no pixel).
///
/// Each tile replays its pixels in row-major order, each back-to-front,
/// into one partial [`SplatGrad`] per bin entry. Contiguous tile ranges of
/// near-equal work (bin entries walked) fill their partials on every core.
/// One serial pass then adds the partials into zeroed gradients in
/// row-major tile order and bin order, so the result is bit-identical at
/// any core count and partition.
///
/// # Panics
///
/// Panics if `d_image` does not match the grid's viewport dimensions or if
/// `aux` was produced for a different viewport.
pub fn rasterize_backward(
    splats: &[Splat],
    grid: &TileGrid,
    aux: &RasterAux,
    d_image: &Image,
) -> Vec<SplatGrad> {
    backward_banded(splats, grid, aux, d_image, raster_threads())
}

/// [`rasterize_backward`] over at most `threads` tile ranges.
fn backward_banded(
    splats: &[Splat],
    grid: &TileGrid,
    aux: &RasterAux,
    d_image: &Image,
    threads: usize,
) -> Vec<SplatGrad> {
    let vp = grid.viewport();
    let (width, height) = (vp.width(), vp.height());
    assert_eq!(d_image.width(), width, "gradient image width mismatch");
    assert_eq!(d_image.height(), height, "gradient image height mismatch");
    let pixels = width * height;
    assert!(
        aux.final_transmittance.len() == pixels && aux.n_processed.len() == pixels,
        "aux size mismatch"
    );

    // Partials are laid out bin after bin in row-major tile order; a tile's
    // weight is the number of bin entries its pixels walk.
    let tiles = grid.tiles_x() * grid.tiles_y();
    let mut offsets = vec![0; tiles + 1];
    let mut weights = vec![0u64; tiles];
    for tile in 0..tiles {
        let (bin, (x0, y0, x1, y1)) = tile_bin(grid, tile);
        offsets[tile + 1] = offsets[tile] + bin.len();
        for py in y0..y1 {
            let pix0 = (py - vp.y0) * width + (x0 - vp.x0);
            let walked = &aux.n_processed[pix0..pix0 + (x1 - x0)];
            weights[tile] += walked.iter().map(|&n| u64::from(n)).sum::<u64>();
        }
    }
    let mut partials = vec![SplatGrad::default(); offsets[tiles]];
    let mut rest = &mut partials[..];
    let ranges = partition(&weights, threads);
    std::thread::scope(|scope| {
        for (r, &(t0, t1)) in ranges.iter().enumerate() {
            let part = rest.split_off_mut(..offsets[t1] - offsets[t0]);
            let part = part.expect("range in partials");
            let mut walk = move || backward_tiles(splats, grid, aux, d_image, t0..t1, part);
            if r + 1 == ranges.len() {
                walk();
            } else {
                scope.spawn(walk);
            }
        }
    });

    let mut grads = vec![SplatGrad::default(); splats.len()];
    for tile in 0..tiles {
        let tile_partials = &partials[offsets[tile]..offsets[tile + 1]];
        for (&si, p) in tile_bin(grid, tile).0.iter().zip(tile_partials) {
            let g = &mut grads[si as usize];
            g.d_mean2d += p.d_mean2d;
            g.d_conic.xx += p.d_conic.xx;
            g.d_conic.xy += p.d_conic.xy;
            g.d_conic.yy += p.d_conic.yy;
            for ch in 0..3 {
                g.d_color[ch] += p.d_color[ch];
            }
            g.d_opacity += p.d_opacity;
        }
    }
    grads
}

/// Row-major tile `tile`'s bin and pixel range.
fn tile_bin(grid: &TileGrid, tile: usize) -> (&[u32], (usize, usize, usize, usize)) {
    let (tx, ty) = (tile % grid.tiles_x(), tile / grid.tiles_x());
    (grid.bin(tx, ty), grid.tile_pixel_range(tx, ty))
}

/// The backward tile worker: replays the row-major `tiles` one pixel row at
/// a time through [`backward_row`], accumulating each bin entry's gradient
/// into its partial in `partials` (the tiles' bins laid end to end).
fn backward_tiles(
    splats: &[Splat],
    grid: &TileGrid,
    aux: &RasterAux,
    d_image: &Image,
    tiles: Range<usize>,
    mut partials: &mut [SplatGrad],
) {
    let vp = grid.viewport();
    for tile in tiles {
        let (bin, (x0, y0, x1, y1)) = tile_bin(grid, tile);
        let grads = partials.split_off_mut(..bin.len()).expect("tile in range");
        for py in y0..y1 {
            let mut row = BackRow {
                end: [0; TILE_SIZE],
                d_c: [[0.0; TILE_SIZE]; 3],
                t_behind: [0.0; TILE_SIZE],
                suffix: [[0.0; TILE_SIZE]; 3],
            };
            for l in 0..x1 - x0 {
                let (lx, ly) = (x0 + l - vp.x0, py - vp.y0);
                let pix = ly * vp.width() + lx;
                let d_c = d_image.pixel(lx, ly);
                // A pixel without loss gradient walks no entries.
                if d_c != [0.0, 0.0, 0.0] {
                    row.end[l] = aux.n_processed[pix];
                }
                let t_final = aux.final_transmittance[pix];
                row.t_behind[l] = t_final;
                for (ch, (&dc, &bg)) in d_c.iter().zip(&aux.background).enumerate() {
                    row.d_c[ch][l] = dc;
                    row.suffix[ch][l] = bg * t_final;
                }
            }
            backward_row(splats, bin, x0, py as f32 + 0.5, &mut row, grads);
        }
    }
}

/// One tile pixel row's backward state, lane `l` at column `x0 + l`: how
/// many bin entries it walks, its loss gradient per channel, the
/// transmittance behind the current entry and the color composited behind
/// it.
struct BackRow {
    end: [u32; TILE_SIZE],
    d_c: [[f32; TILE_SIZE]; 3],
    t_behind: [f32; TILE_SIZE],
    suffix: [[f32; TILE_SIZE]; 3],
}

/// The row-batched backward kernel. It walks the bin back-to-front once for
/// the whole row, from the row's largest `end`; lane `l` takes part in
/// entry `j` only while `j < end[l]`, so every lane replays exactly the
/// seed's per-pixel walk. Each entry that passes the row-level `dy` test
/// runs two branch-free loops over its [`lane_groups`]:
///
/// * (a) `dx`, `sigma`, `e = exp_neg(sigma)`, alpha, and the forward's skip
///   tests as a `hit` mask (plus `free`: hit and alpha not clamped, the
///   lanes with opacity and sigma gradients);
/// * (b) only if some lane hits: the transmittance in front, dC/dalpha, the
///   lane state updates and nine per-lane gradient terms, zero where masked.
///
/// Per field, the terms are summed over all the row's lanes in one fixed
/// pairwise order ([`lane_sum`]), lanes outside the groups counting as
/// zero, and added to the entry's partial once per row. `d_opacity` reuses
/// the alpha's `e`.
// Out of line like `blend_row` (same runs: 18.2 ms inlined vs 16.8 ms).
#[inline(never)]
fn backward_row(
    splats: &[Splat],
    bin: &[u32],
    x0: usize,
    cy: f32,
    row: &mut BackRow,
    grads: &mut [SplatGrad],
) {
    let xs = lane_centres(x0);
    let walk = row.end.into_iter().max().unwrap_or(0) as usize;
    let (mut dx, mut e, mut alpha) = ([0.0f32; TILE_SIZE], [0.0; TILE_SIZE], [0.0; TILE_SIZE]);
    let (mut hit, mut free) = ([0u32; TILE_SIZE], [0u32; TILE_SIZE]);
    // Terms: d_color r, g, b; d_opacity; d_conic xx, xy, yy; d_mean2d x, y.
    let mut terms = [[0.0f32; TILE_SIZE]; 9];
    for j in (0..walk).rev() {
        let s = &splats[bin[j] as usize];
        let dy = cy - s.mean2d.y;
        if dy.abs() > s.radius {
            continue;
        }
        let (mean_x, radius) = (s.mean2d.x, s.radius);
        let (cxx, cxy, cyy) = (s.conic.xx, s.conic.xy, s.conic.yy);
        let (opacity, col) = (s.opacity, s.color);
        let lanes = lane_groups(mean_x, radius, x0);
        let entry = j as u32;
        let mut any = 0u32;
        for l in lanes.clone() {
            let d = xs[l] - mean_x;
            let sigma = 0.5 * (cxx * d * d + cyy * dy * dy) + cxy * d * dy;
            let el = exp_neg(sigma);
            let raw = opacity * el;
            let skip = (entry >= row.end[l])
                | (d.abs() > radius)
                | (sigma < 0.0)
                | !sigma.is_finite()
                | (raw < ALPHA_SKIP);
            let h = !mask(skip);
            hit[l] = h;
            free[l] = h & !mask(raw > ALPHA_MAX);
            alpha[l] = if raw > ALPHA_MAX { ALPHA_MAX } else { raw };
            e[l] = el;
            dx[l] = d;
            any |= h;
        }
        if any == 0 {
            continue;
        }
        for l in lanes.clone() {
            let (h, f, a, d) = (hit[l], free[l], alpha[l], dx[l]);
            let t_front = row.t_behind[l] / (1.0 - a);
            // dC/dalpha = c * T_front - suffix/(1-alpha), read before this
            // splat joins the suffix of the next (nearer) one.
            let w = a * t_front;
            let inv_one_minus = 1.0 / (1.0 - a);
            let mut d_alpha = 0.0f32;
            for ch in 0..3 {
                let (dc, suffix) = (row.d_c[ch][l], row.suffix[ch][l]);
                terms[ch][l] = select(h, w * dc, 0.0);
                d_alpha += (col[ch] * t_front - suffix * inv_one_minus) * dc;
                row.suffix[ch][l] = select(h, suffix + col[ch] * a * t_front, suffix);
            }
            row.t_behind[l] = select(h, t_front, row.t_behind[l]);
            // alpha = opacity * exp(-sigma).
            terms[3][l] = select(f, e[l] * d_alpha, 0.0);
            let d_sigma = -a * d_alpha;
            // sigma = 0.5(a dx^2 + c dy^2) + b dx dy.
            terms[4][l] = select(f, 0.5 * d * d * d_sigma, 0.0);
            terms[5][l] = select(f, d * dy * d_sigma, 0.0);
            terms[6][l] = select(f, 0.5 * dy * dy * d_sigma, 0.0);
            // d = pixel - mean2d, so d(mean2d) = -d(d).
            terms[7][l] = select(f, -((cxx * d + cxy * dy) * d_sigma), 0.0);
            terms[8][l] = select(f, -((cyy * dy + cxy * d) * d_sigma), 0.0);
        }
        // Lanes outside the groups hold an earlier entry's terms.
        let in_groups = std::array::from_fn(|l| mask(lanes.contains(&l)));
        let sums = std::array::from_fn(|k| lane_sum(&terms[k], &in_groups));
        let [r, g, b, o, xx, xy, yy, mx, my] = sums;
        let p = &mut grads[j];
        p.d_color[0] += r;
        p.d_color[1] += g;
        p.d_color[2] += b;
        p.d_opacity += o;
        p.d_conic.xx += xx;
        p.d_conic.xy += xy;
        p.d_conic.yy += yy;
        p.d_mean2d.x += mx;
        p.d_mean2d.y += my;
    }
}

/// Sums a row's lane terms in one fixed pairwise order, lane `l` with
/// `l + 8`, then `l + 4`, `l + 2` and `l + 1`; lanes `keep` leaves unset
/// count as zero.
fn lane_sum(terms: &[f32; TILE_SIZE], keep: &[u32; TILE_SIZE]) -> f32 {
    let mut v: [f32; TILE_SIZE] = std::array::from_fn(|l| select(keep[l], terms[l], 0.0));
    let mut half = TILE_SIZE / 2;
    while half > 0 {
        for l in 0..half {
            v[l] += v[l + half];
        }
        half /= 2;
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::camera::Viewport;
    use gs_core::math::{Sym2, Vec2};

    fn vp(w: usize, h: usize) -> Viewport {
        Viewport {
            x0: 0,
            y0: 0,
            x1: w,
            y1: h,
        }
    }

    fn simple_splat(idx: u32, x: f32, y: f32, color: [f32; 3], opacity: f32, depth: f32) -> Splat {
        Splat {
            idx,
            mean2d: Vec2::new(x, y),
            depth,
            conic: Sym2::new(0.25, 0.0, 0.25),
            radius: 12.0,
            color,
            opacity,
        }
    }

    #[test]
    fn exp_neg_is_within_one_ulp_and_monotone_on_0_to_87() {
        assert_eq!(exp_neg(0.0), 1.0);
        let (mut worst, mut previous, mut inputs) = (0u32, f32::INFINITY, 0);
        for bits in (0..=87.0f32.to_bits()).step_by(97) {
            let x = f32::from_bits(bits);
            let fast = exp_neg(x);
            let exact = (-f64::from(x)).exp() as f32;
            worst = worst.max(fast.to_bits().abs_diff(exact.to_bits()));
            assert!(
                fast <= previous,
                "exp_neg rises at {x}: {fast} > {previous}"
            );
            previous = fast;
            inputs += 1;
        }
        assert!(inputs > 11_000_000, "{inputs} inputs");
        assert!(worst <= 1, "{worst} ulps");
    }

    #[test]
    fn exp_neg_stays_finite_and_positive_for_large_inputs() {
        for x in [87.0, 87.5, 88.7, 100.0, 1.0e4, f32::MAX, f32::INFINITY] {
            let e = exp_neg(x);
            assert!(e.is_finite() && e > 0.0, "exp_neg({x}) = {e}");
            assert!(e <= exp_neg(86.0), "exp_neg({x}) = {e}");
        }
    }

    #[test]
    fn empty_scene_renders_background() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let (img, aux) = rasterize_forward(&[], &grid, [0.2, 0.4, 0.6]);
        assert_eq!(img.pixel(3, 3), [0.2, 0.4, 0.6]);
        assert!(aux.final_transmittance.iter().all(|&t| t == 1.0));
    }

    #[test]
    fn single_opaque_splat_dominates_center() {
        let splats = vec![simple_splat(0, 8.0, 8.0, [1.0, 0.0, 0.0], 0.99, 1.0)];
        let grid = TileGrid::build(&splats, vp(16, 16));
        let (img, _) = rasterize_forward(&splats, &grid, [0.0, 0.0, 0.0]);
        let center = img.pixel(8, 8);
        assert!(center[0] > 0.9, "red channel {}", center[0]);
        assert!(center[1] < 0.05);
        // Far corner should be near background.
        let corner = img.pixel(0, 0);
        assert!(corner[0] < 0.2);
    }

    #[test]
    fn occlusion_respects_depth_order() {
        // Near-opaque red in front of near-opaque green at the same position.
        let splats = vec![
            simple_splat(0, 8.0, 8.0, [0.0, 1.0, 0.0], 0.95, 5.0),
            simple_splat(1, 8.0, 8.0, [1.0, 0.0, 0.0], 0.95, 1.0),
        ];
        let grid = TileGrid::build(&splats, vp(16, 16));
        let (img, _) = rasterize_forward(&splats, &grid, [0.0, 0.0, 0.0]);
        let c = img.pixel(8, 8);
        assert!(c[0] > 4.0 * c[1], "red should occlude green: {c:?}");
    }

    #[test]
    fn transmittance_decreases_with_more_splats() {
        let one = vec![simple_splat(0, 8.0, 8.0, [0.5; 3], 0.5, 1.0)];
        let two = vec![
            simple_splat(0, 8.0, 8.0, [0.5; 3], 0.5, 1.0),
            simple_splat(1, 8.0, 8.0, [0.5; 3], 0.5, 2.0),
        ];
        let g1 = TileGrid::build(&one, vp(16, 16));
        let g2 = TileGrid::build(&two, vp(16, 16));
        let (_, a1) = rasterize_forward(&one, &g1, [0.0; 3]);
        let (_, a2) = rasterize_forward(&two, &g2, [0.0; 3]);
        let p = 8 * 16 + 8;
        assert!(a2.final_transmittance[p] < a1.final_transmittance[p]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        // Three overlapping, partially transparent splats.
        let base = vec![
            simple_splat(0, 6.0, 8.0, [0.9, 0.1, 0.2], 0.6, 1.0),
            simple_splat(1, 9.0, 7.0, [0.1, 0.8, 0.3], 0.5, 2.0),
            simple_splat(2, 8.0, 10.0, [0.2, 0.3, 0.9], 0.7, 3.0),
        ];
        let viewport = vp(16, 16);
        let bg = [0.1, 0.1, 0.1];

        // Loss: weighted sum of all pixels (weights vary per pixel/channel).
        let weight = |x: usize, y: usize, ch: usize| {
            ((x as f32 * 0.7 + y as f32 * 1.3 + ch as f32 * 0.37).sin()) * 0.5
        };
        let loss = |splats: &[Splat]| -> f64 {
            let grid = TileGrid::build(splats, viewport);
            let (img, _) = rasterize_forward(splats, &grid, bg);
            let mut l = 0.0f64;
            for y in 0..16 {
                for x in 0..16 {
                    let p = img.pixel(x, y);
                    for (ch, p_ch) in p.iter().enumerate() {
                        l += (p_ch * weight(x, y, ch)) as f64;
                    }
                }
            }
            l
        };

        let grid = TileGrid::build(&base, viewport);
        let (_, aux) = rasterize_forward(&base, &grid, bg);
        let d_image = Image::from_fn(16, 16, |x, y| {
            [weight(x, y, 0), weight(x, y, 1), weight(x, y, 2)]
        });
        let grads = rasterize_backward(&base, &grid, &aux, &d_image);

        let eps = 1e-3;
        let tol = |fd: f32| 3e-2 * (1.0 + fd.abs());

        for i in 0..base.len() {
            // mean2d.x / mean2d.y
            for axis in 0..2 {
                let mut plus = base.clone();
                let mut minus = base.clone();
                if axis == 0 {
                    plus[i].mean2d.x += eps;
                    minus[i].mean2d.x -= eps;
                } else {
                    plus[i].mean2d.y += eps;
                    minus[i].mean2d.y -= eps;
                }
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let analytic = if axis == 0 {
                    grads[i].d_mean2d.x
                } else {
                    grads[i].d_mean2d.y
                };
                assert!(
                    (fd - analytic).abs() < tol(fd),
                    "splat {i} mean2d axis {axis}: fd={fd} analytic={analytic}"
                );
            }
            // opacity
            {
                let mut plus = base.clone();
                let mut minus = base.clone();
                plus[i].opacity += eps;
                minus[i].opacity -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grads[i].d_opacity).abs() < tol(fd),
                    "splat {i} opacity: fd={fd} analytic={}",
                    grads[i].d_opacity
                );
            }
            // color channels
            for ch in 0..3 {
                let mut plus = base.clone();
                let mut minus = base.clone();
                plus[i].color[ch] += eps;
                minus[i].color[ch] -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grads[i].d_color[ch]).abs() < tol(fd),
                    "splat {i} color {ch}: fd={fd} analytic={}",
                    grads[i].d_color[ch]
                );
            }
            // conic entries
            for which in 0..3 {
                let mut plus = base.clone();
                let mut minus = base.clone();
                match which {
                    0 => {
                        plus[i].conic.xx += eps;
                        minus[i].conic.xx -= eps;
                    }
                    1 => {
                        plus[i].conic.xy += eps;
                        minus[i].conic.xy -= eps;
                    }
                    _ => {
                        plus[i].conic.yy += eps;
                        minus[i].conic.yy -= eps;
                    }
                }
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let analytic = match which {
                    0 => grads[i].d_conic.xx,
                    1 => grads[i].d_conic.xy,
                    _ => grads[i].d_conic.yy,
                };
                assert!(
                    (fd - analytic).abs() < tol(fd),
                    "splat {i} conic {which}: fd={fd} analytic={analytic}"
                );
            }
        }
    }

    /// A spread of overlapping translucent splats at distinct depths.
    fn layered_scene() -> Vec<Splat> {
        let mut splats = Vec::new();
        for i in 0..12u32 {
            let f = i as f32;
            splats.push(simple_splat(
                i,
                4.0 + (f * 1.7).sin() * 5.0 + f * 0.6,
                8.0 + (f * 2.3).cos() * 5.0,
                [
                    (f * 0.31).sin().abs(),
                    (f * 0.17).cos().abs(),
                    0.2 + f * 0.05,
                ],
                0.35 + 0.04 * f,
                1.0 + f * 0.5,
            ));
        }
        splats
    }

    /// A taller scene spanning several tile rows, with a near-opaque pair to
    /// exercise mid-bin early termination in the lane kernel.
    fn tall_scene() -> Vec<Splat> {
        let mut splats = layered_scene();
        for i in 0..24u32 {
            let f = i as f32;
            splats.push(simple_splat(
                12 + i,
                8.0 + (f * 0.9).sin() * 7.0,
                4.0 + f * 2.3,
                [(f * 0.13).sin().abs(), 0.4, (f * 0.29).cos().abs()],
                0.3 + 0.025 * f,
                2.0 + f * 0.25,
            ));
        }
        // Stacked near-opaque splats drive some pixels below the
        // transmittance cutoff mid-bin.
        splats.push(simple_splat(36, 8.5, 24.5, [1.0, 0.2, 0.1], 0.9999, 0.5));
        splats.push(simple_splat(37, 8.5, 24.5, [0.9, 0.1, 0.2], 0.9999, 0.6));
        splats
    }

    #[test]
    fn lane_batched_forward_matches_the_scalar_reference_bitwise() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        let grid = TileGrid::build(&splats, viewport);
        let bg = [0.1, 0.2, 0.3];
        let (reference, ref_aux) = rasterize_forward_reference(&splats, &grid, bg);
        let (fast, fast_aux) = rasterize_forward(&splats, &grid, bg);
        assert_eq!(fast.data(), reference.data());
        assert_eq!(fast_aux, ref_aux);
    }

    #[test]
    fn lane_batched_layer_matches_the_scalar_reference_bitwise() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        // Start from a partially blended layer so entry-dead lanes and
        // mid-blend continuation are both exercised.
        let (near, far) = splats.split_at(14);
        let far_grid = TileGrid::build(far, viewport);
        let mut seed = FrameLayer::new(24, 56);
        rasterize_layer(near, &TileGrid::build(near, viewport), &mut seed, 1);
        let mut reference = seed.clone();
        rasterize_layer_reference(far, &far_grid, &mut reference);
        let mut fast = seed;
        rasterize_layer(far, &far_grid, &mut fast, 1);
        assert_eq!(fast, reference);
    }

    /// Splats at the edges of [`lane_groups`]' ranges in `viewport`: boxes
    /// whose edge lands exactly on the pixel centre either side of lane
    /// boundaries 3|4, 7|8 and 11|12 in every tile, radii below half a
    /// pixel and above a tile, huge coordinates, and a near-opaque stack.
    fn lane_edge_scene(viewport: Viewport) -> Vec<Splat> {
        let mut splats = Vec::new();
        let mut push = |x: f32, y: f32, radius: f32, conic: f32, opacity: f32| {
            let k = splats.len() as f32;
            splats.push(Splat {
                idx: splats.len() as u32,
                mean2d: Vec2::new(x, y),
                depth: 1.0 + 0.125 * k,
                conic: Sym2::new(conic, 0.0, conic),
                radius,
                color: [0.25 + 0.0625 * (k % 8.0), 0.875 - 0.0625 * (k % 12.0), 0.5],
                opacity,
            });
        };
        for tile_x in (viewport.x0..viewport.x1).step_by(TILE_SIZE) {
            let x = tile_x as f32;
            for (i, lane) in [3.0, 7.0, 11.0].into_iter().enumerate() {
                let y = 3.0 + 5.0 * i as f32;
                // Right edge on `lane`'s centre, left edge on the next one's.
                push(x + lane + 0.5 - 2.0, y, 2.0, 0.25, 0.7);
                push(x + lane + 1.5 + 2.0, y + 1.5, 2.0, 0.25, 0.6);
                push(x + lane + 0.5, y + 0.5, 0.3, 1.0, 0.9);
                push(x + lane + 1.0, y + 2.0, 0.45, 1.0, 0.8);
            }
            push(x + 8.25, 9.5, 20.0, 0.01, 0.5);
            push(x + 2.0, 14.0, 24.0, 0.004, 0.4);
        }
        // Far-off centres whose huge radii end at x = 16: f32 spacing there is
        // 16 px, so `|dx| <= radius` accepts lanes up to 8 px past the box.
        let huge = 1.5e8;
        push(-huge, 6.0, huge + 16.0, 1.0 / (huge * huge), 0.6);
        push(huge, 12.0, huge - 16.0, 1.0 / (huge * huge), 0.6);
        // Two near-opaque splats end some lanes mid-bin.
        let mid = (viewport.x0 + viewport.x1) as f32 * 0.5;
        push(mid, 16.5, 6.0, 0.25, 0.9999);
        push(mid, 16.5, 6.0, 0.25, 0.9999);
        splats
    }

    #[test]
    fn lane_group_edges_match_the_oracles_at_any_thread_count() {
        let bg = [0.1, 0.2, 0.3];
        for x0 in [0, 5] {
            // Edge tiles 1, 3 and 13 px wide.
            for width in [17, 35, 29] {
                let viewport = Viewport {
                    x0,
                    y0: 0,
                    x1: x0 + width,
                    y1: 20,
                };
                let splats = lane_edge_scene(viewport);
                let grid = TileGrid::build(&splats, viewport);
                let (reference, ref_aux) = rasterize_forward_reference(&splats, &grid, bg);
                let (near, far) = splats.split_at(splats.len() / 2);
                let far_grid = TileGrid::build(far, viewport);
                let mut seed = FrameLayer::new(width, 20);
                rasterize_layer_reference(near, &TileGrid::build(near, viewport), &mut seed);
                let mut layer_reference = seed.clone();
                rasterize_layer_reference(far, &far_grid, &mut layer_reference);
                for threads in [1, 2, 7] {
                    let case = format!("x0 {x0}, width {width}, {threads} threads");
                    // The forward pass at a chosen thread count.
                    let mut fresh = FrameLayer::new(width, 20);
                    let mut n_processed = vec![0; width * 20];
                    blend_bands(&splats, &grid, &mut fresh, Some(&mut n_processed), threads);
                    assert_eq!(fresh.finish(bg).data(), reference.data(), "{case}");
                    assert_eq!(fresh.transmittance(), ref_aux.final_transmittance, "{case}");
                    assert_eq!(n_processed, ref_aux.n_processed, "{case}");
                    let mut layer = seed.clone();
                    rasterize_layer(far, &far_grid, &mut layer, threads);
                    assert_eq!(layer, layer_reference, "{case}");
                }
            }
        }
    }

    #[test]
    fn tiled_forward_is_bit_identical_to_sequential_at_any_thread_count() {
        // The forward pass is a fresh layer plus the background: a layer
        // blended at any thread count must finish into the forward image and
        // carry the forward pass's final transmittance.
        let splats = tall_scene();
        let viewport = vp(24, 56);
        let grid = TileGrid::build(&splats, viewport);
        let bg = [0.05, 0.1, 0.15];
        let (seq, seq_aux) = rasterize_forward(&splats, &grid, bg);
        for threads in [0, 1, 2, 3, 7, 64] {
            let mut par = FrameLayer::new(24, 56);
            rasterize_layer(&splats, &grid, &mut par, threads);
            assert_eq!(par.finish(bg).data(), seq.data(), "{threads} threads");
            assert_eq!(
                par.transmittance(),
                &seq_aux.final_transmittance[..],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn tiled_layer_is_bit_identical_to_sequential_at_any_thread_count() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        let grid = TileGrid::build(&splats, viewport);
        let mut seq = FrameLayer::new(24, 56);
        rasterize_layer(&splats, &grid, &mut seq, 1);
        for threads in [0, 2, 3, 64] {
            let mut par = FrameLayer::new(24, 56);
            rasterize_layer(&splats, &grid, &mut par, threads);
            assert_eq!(par, seq, "{threads} threads");
        }
    }

    #[test]
    fn fresh_layer_matches_forward_pass_bitwise() {
        let splats = layered_scene();
        let viewport = vp(16, 16);
        let grid = TileGrid::build(&splats, viewport);
        let bg = [0.1, 0.2, 0.3];
        let (forward, aux) = rasterize_forward(&splats, &grid, bg);
        let mut layer = FrameLayer::new(16, 16);
        rasterize_layer(&splats, &grid, &mut layer, 1);
        assert_eq!(layer.finish(bg).data(), forward.data());
        assert_eq!(layer.transmittance(), &aux.final_transmittance[..]);
    }

    #[test]
    fn threaded_layers_over_depth_groups_are_bit_identical() {
        // Split the splats into depth-disjoint groups and rasterize each
        // group into the same running layer front-to-back: the composite
        // must reproduce the single-pass render byte for byte.
        let mut splats = layered_scene();
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        let viewport = vp(16, 16);
        let bg = [0.05, 0.05, 0.08];
        let full_grid = TileGrid::build(&splats, viewport);
        let (forward, _) = rasterize_forward(&splats, &full_grid, bg);

        for split_points in [vec![4], vec![3, 8], vec![2, 5, 9]] {
            let mut layer = FrameLayer::new(16, 16);
            let mut start = 0;
            let mut bounds = split_points.clone();
            bounds.push(splats.len());
            for end in bounds {
                let group = &splats[start..end];
                let grid = TileGrid::build(group, viewport);
                rasterize_layer(group, &grid, &mut layer, 1);
                start = end;
            }
            assert_eq!(
                layer.finish(bg).data(),
                forward.data(),
                "threaded depth-disjoint layers must match the single pass"
            );
        }
    }

    #[test]
    fn independent_layer_composition_is_epsilon_close() {
        let mut splats = layered_scene();
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        let viewport = vp(16, 16);
        let bg = [0.05, 0.05, 0.08];
        let full_grid = TileGrid::build(&splats, viewport);
        let (forward, _) = rasterize_forward(&splats, &full_grid, bg);

        let (near_splats, far_splats) = splats.split_at(6);
        let mut near = FrameLayer::new(16, 16);
        rasterize_layer(
            near_splats,
            &TileGrid::build(near_splats, viewport),
            &mut near,
            1,
        );
        let mut far = FrameLayer::new(16, 16);
        rasterize_layer(
            far_splats,
            &TileGrid::build(far_splats, viewport),
            &mut far,
            1,
        );
        near.composite_onto(&far);
        let composed = near.finish(bg);
        for (a, b) in composed.data().iter().zip(forward.data()) {
            assert!(
                (a - b).abs() < 1e-5,
                "independent layers must agree to float tolerance: {a} vs {b}"
            );
        }
    }

    #[test]
    fn opaque_near_layer_skips_far_shard_work() {
        // A fully opaque near splat exhausts the transmittance; a far shard
        // rasterized afterwards must leave those pixels untouched — the
        // cross-shard analogue of in-pixel early termination.
        // Two stacked near-opaque splats: alpha clamps at ALPHA_MAX, so one
        // splat leaves t = 1e-3; two leave 1e-6 < TRANSMITTANCE_MIN.
        let near_splats = vec![
            simple_splat(0, 8.5, 8.5, [1.0, 0.0, 0.0], 0.9999, 1.0),
            simple_splat(1, 8.5, 8.5, [1.0, 0.0, 0.0], 0.9999, 2.0),
        ];
        let viewport = vp(16, 16);
        let mut layer = FrameLayer::new(16, 16);
        rasterize_layer(
            &near_splats,
            &TileGrid::build(&near_splats, viewport),
            &mut layer,
            1,
        );
        let before = layer.clone();
        let p = 8 * 16 + 8;
        assert!(layer.transmittance()[p] < TRANSMITTANCE_MIN);

        let far_splats = vec![simple_splat(0, 8.5, 8.5, [0.0, 1.0, 0.0], 0.9, 5.0)];
        rasterize_layer(
            &far_splats,
            &TileGrid::build(&far_splats, viewport),
            &mut layer,
            1,
        );
        assert_eq!(
            layer.color().pixel(8, 8),
            before.color().pixel(8, 8),
            "opaque pixels must not blend far-shard splats"
        );
    }

    #[test]
    fn layer_parts_roundtrip_is_the_identity() {
        let splats = layered_scene();
        let viewport = vp(16, 16);
        let mut layer = FrameLayer::new(16, 16);
        rasterize_layer(&splats, &TileGrid::build(&splats, viewport), &mut layer, 1);
        let rebuilt = {
            let (color, transmittance) = layer.clone().into_parts();
            FrameLayer::from_parts(color, transmittance)
        };
        assert_eq!(rebuilt, layer);
    }

    #[test]
    #[should_panic(expected = "one value per pixel")]
    fn from_parts_rejects_mismatched_transmittance() {
        let _ = FrameLayer::from_parts(Image::zeros(4, 4), vec![1.0; 15]);
    }

    #[test]
    #[should_panic(expected = "layer width mismatch")]
    fn layer_size_must_match_the_grid() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let mut layer = FrameLayer::new(4, 8);
        rasterize_layer(&[], &grid, &mut layer, 1);
    }

    /// Adds `term` to `sum` and its magnitude to `mag`.
    fn accumulate(sum: &mut f32, mag: &mut f64, term: f32) {
        *sum += term;
        *mag += f64::from(term.abs());
    }

    /// The seed serial backward pass, scattering every (pixel, splat) term
    /// straight into `grads[si]`: the oracle for the banded one. Its alpha
    /// goes through `exp_neg` like every kernel's, and it also returns, per
    /// splat, the sum of its terms' magnitudes in f64 (in [`grad_bits`]
    /// order), which bounds how far any summation order can move the result.
    fn rasterize_backward_reference(
        splats: &[Splat],
        grid: &TileGrid,
        aux: &RasterAux,
        d_image: &Image,
    ) -> (Vec<SplatGrad>, Vec<[f64; 9]>) {
        let vp = grid.viewport();
        let width = vp.width();
        let height = vp.height();
        assert_eq!(d_image.width(), width, "gradient image width mismatch");
        assert_eq!(d_image.height(), height, "gradient image height mismatch");
        assert_eq!(
            aux.final_transmittance.len(),
            width * height,
            "aux size mismatch"
        );

        let mut grads = vec![SplatGrad::default(); splats.len()];
        let mut mags = vec![[0.0f64; 9]; splats.len()];

        for ty in 0..grid.tiles_y() {
            for tx in 0..grid.tiles_x() {
                let bin = grid.bin(tx, ty);
                if bin.is_empty() {
                    continue;
                }
                let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
                for py in y0..y1 {
                    for px in x0..x1 {
                        let lx = px - vp.x0;
                        let ly = py - vp.y0;
                        let pix = ly * width + lx;
                        let d_c = d_image.pixel(lx, ly);
                        if d_c == [0.0, 0.0, 0.0] {
                            continue;
                        }
                        let cx = px as f32 + 0.5;
                        let cy = py as f32 + 0.5;
                        let processed = aux.n_processed[pix] as usize;
                        let t_final = aux.final_transmittance[pix];

                        // Walk back-to-front reconstructing the transmittance in
                        // front of each contributing splat and the suffix color
                        // behind it.
                        let mut t_behind = t_final;
                        let mut suffix = [
                            aux.background[0] * t_final,
                            aux.background[1] * t_final,
                            aux.background[2] * t_final,
                        ];
                        for &si in bin[..processed].iter().rev() {
                            let s = &splats[si as usize];
                            let Some((sigma, dx, dy)) = gaussian_weight(s, cx, cy) else {
                                continue;
                            };
                            let Some((alpha, clamped)) = splat_alpha(s, sigma) else {
                                continue;
                            };
                            let t_front = t_behind / (1.0 - alpha);

                            // Color gradient.
                            let g = &mut grads[si as usize];
                            let m = &mut mags[si as usize];
                            let w = alpha * t_front;
                            for ch in 0..3 {
                                accumulate(&mut g.d_color[ch], &mut m[5 + ch], w * d_c[ch]);
                            }

                            // Alpha gradient: dC/dalpha = c * T_front - suffix/(1-alpha).
                            let inv_one_minus = 1.0 / (1.0 - alpha);
                            let mut d_alpha = 0.0f32;
                            for ch in 0..3 {
                                d_alpha +=
                                    (s.color[ch] * t_front - suffix[ch] * inv_one_minus) * d_c[ch];
                            }

                            if !clamped {
                                // alpha = opacity * exp(-sigma).
                                let e = exp_neg(sigma);
                                accumulate(&mut g.d_opacity, &mut m[8], e * d_alpha);
                                let d_sigma = -alpha * d_alpha;
                                // sigma = 0.5(a dx^2 + c dy^2) + b dx dy.
                                let c = &mut g.d_conic;
                                accumulate(&mut c.xx, &mut m[2], 0.5 * dx * dx * d_sigma);
                                accumulate(&mut c.xy, &mut m[3], dx * dy * d_sigma);
                                accumulate(&mut c.yy, &mut m[4], 0.5 * dy * dy * d_sigma);
                                // d = pixel - mean2d, so d(mean2d) = -d(d).
                                let d_dx = (s.conic.xx * dx + s.conic.xy * dy) * d_sigma;
                                let d_dy = (s.conic.yy * dy + s.conic.xy * dx) * d_sigma;
                                accumulate(&mut g.d_mean2d.x, &mut m[0], -d_dx);
                                accumulate(&mut g.d_mean2d.y, &mut m[1], -d_dy);
                            }

                            // Update running suffix and transmittance for the next
                            // (nearer) splat.
                            for (suffix_ch, color_ch) in suffix.iter_mut().zip(&s.color) {
                                *suffix_ch += color_ch * alpha * t_front;
                            }
                            t_behind = t_front;
                        }
                    }
                }
            }
        }

        (grads, mags)
    }

    #[test]
    #[should_panic(expected = "gradient image width mismatch")]
    fn backward_rejects_wrong_gradient_size() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let (_, aux) = rasterize_forward(&[], &grid, [0.0; 3]);
        let d_image = Image::zeros(4, 8);
        let _ = rasterize_backward(&[], &grid, &aux, &d_image);
    }

    #[test]
    #[should_panic(expected = "aux size mismatch")]
    fn backward_rejects_mismatched_aux() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let (_, mut aux) = rasterize_forward(&[], &grid, [0.0; 3]);
        aux.n_processed.pop();
        let _ = rasterize_backward(&[], &grid, &aux, &Image::zeros(8, 8));
    }

    #[test]
    fn uniform_partition_is_the_even_band_split() {
        for len in 1..20 {
            for parts in 0..24 {
                let n = parts.clamp(1, len);
                let start = |b: usize| b * (len / n) + b.min(len % n);
                let even: Vec<_> = (0..n).map(|b| (start(b), start(b + 1))).collect();
                assert_eq!(partition(&vec![1; len], parts), even, "{len} / {parts}");
            }
        }
        assert_eq!(partition(&[0, 9, 0, 3, 3, 3], 2), [(0, 2), (2, 6)]);
        assert_eq!(partition(&[0, 0, 0], 2), [(0, 1), (1, 3)]);
    }

    /// A forward pass over `splats` and a varied per-pixel loss gradient.
    fn backward_inputs(splats: &[Splat], viewport: Viewport) -> (TileGrid, RasterAux, Image) {
        let grid = TileGrid::build(splats, viewport);
        let (_, aux) = rasterize_forward(splats, &grid, [0.1, 0.2, 0.3]);
        let d_image = Image::from_fn(viewport.width(), viewport.height(), |x, y| {
            let f = (x * 7 + y * 13) as f32;
            [(f * 0.37).sin(), (f * 0.11).cos(), 0.25 - (f * 0.05).sin()]
        });
        (grid, aux, d_image)
    }

    fn grad_bits(g: &SplatGrad) -> [u32; 9] {
        let ([r, gr, b], m, c) = (g.d_color, g.d_mean2d, g.d_conic);
        [m.x, m.y, c.xx, c.xy, c.yy, r, gr, b, g.d_opacity].map(f32::to_bits)
    }

    #[test]
    fn banded_backward_is_bit_identical_at_any_thread_count() {
        // The right half of a split image: a viewport that starts at x0 > 0.
        let (_, right) = vp(45, 40).split_at_column(5);
        for (splats, viewport) in [(tall_scene(), vp(24, 56)), (layered_scene(), right)] {
            let (grid, aux, d_image) = backward_inputs(&splats, viewport);
            let bits = |threads| {
                let grads = backward_banded(&splats, &grid, &aux, &d_image, threads);
                grads.iter().flat_map(grad_bits).collect::<Vec<_>>()
            };
            let serial = bits(1);
            for threads in [1, 2, 3, 7, 64] {
                assert_eq!(bits(threads), serial, "{threads} threads");
            }
        }
    }

    #[test]
    fn banded_backward_matches_the_serial_reference() {
        // Shrunk splats fall inside one tile; the rest straddle several.
        let mut splats = tall_scene();
        for s in splats.iter_mut().step_by(3) {
            s.radius = 3.0;
        }
        let (grid, aux, d_image) = backward_inputs(&splats, vp(24, 56));
        let (reference, mags) = rasterize_backward_reference(&splats, &grid, &aux, &d_image);
        let banded = rasterize_backward(&splats, &grid, &aux, &d_image);
        assert!(mags.iter().all(|m| m.iter().all(|&x| x > 0.0)));
        // Lane-pairwise, per-row and per-tile sums round differently from one
        // running sum; each lies within a few ulps of Σ|term| of the exact sum.
        for (si, ((r, b), m)) in reference.iter().zip(&banded).zip(&mags).enumerate() {
            for ((x, y), mag) in grad_bits(r).into_iter().zip(grad_bits(b)).zip(m) {
                let (x, y) = (f32::from_bits(x), f32::from_bits(y));
                let bound = 64.0 * f64::from(f32::EPSILON) * mag;
                assert!(
                    f64::from((x - y).abs()) <= bound,
                    "splat {si}: {x} vs {y} (bound {bound})"
                );
            }
        }
    }
}
