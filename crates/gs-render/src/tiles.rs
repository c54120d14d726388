//! Tile binning and per-tile depth ordering for the rasterizer.
//!
//! The image (or a sub-viewport of it) is divided into square tiles. Each
//! splat is inserted into every tile its conservative radius overlaps, and
//! the per-tile lists are sorted by depth so alpha blending composites in
//! the correct front-to-back order.

use gs_core::camera::Viewport;

use crate::projection::Splat;

/// Side length of a rasterization tile in pixels, matching the 16x16 tiles
/// used by the reference CUDA rasterizer.
pub const TILE_SIZE: usize = 16;

/// A grid of depth-sorted splat lists covering a viewport.
#[derive(Debug, Clone)]
pub struct TileGrid {
    viewport: Viewport,
    tiles_x: usize,
    tiles_y: usize,
    /// For each tile (row-major), indices into the splat slice that was
    /// binned, sorted by ascending depth.
    bins: Vec<Vec<u32>>,
}

impl TileGrid {
    /// Bins `splats` into tiles covering `viewport` and depth-sorts each bin.
    pub fn build(splats: &[Splat], viewport: Viewport) -> Self {
        let tiles_x = viewport.width().div_ceil(TILE_SIZE).max(1);
        let tiles_y = viewport.height().div_ceil(TILE_SIZE).max(1);
        let mut bins = vec![Vec::new(); tiles_x * tiles_y];

        for (si, s) in splats.iter().enumerate() {
            // Bounding box of the splat in viewport-local pixel coordinates.
            let x_min = (s.mean2d.x - s.radius) - viewport.x0 as f32;
            let x_max = (s.mean2d.x + s.radius) - viewport.x0 as f32;
            let y_min = (s.mean2d.y - s.radius) - viewport.y0 as f32;
            let y_max = (s.mean2d.y + s.radius) - viewport.y0 as f32;
            if x_max < 0.0
                || y_max < 0.0
                || x_min >= viewport.width() as f32
                || y_min >= viewport.height() as f32
            {
                continue;
            }
            let tx0 = ((x_min.max(0.0) as usize) / TILE_SIZE).min(tiles_x - 1);
            let tx1 = ((x_max.max(0.0) as usize) / TILE_SIZE).min(tiles_x - 1);
            let ty0 = ((y_min.max(0.0) as usize) / TILE_SIZE).min(tiles_y - 1);
            let ty1 = ((y_max.max(0.0) as usize) / TILE_SIZE).min(tiles_y - 1);
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    bins[ty * tiles_x + tx].push(si as u32);
                }
            }
        }

        // Depth sort each bin (stable so equal depths keep insertion order,
        // which keeps the render deterministic).
        for bin in &mut bins {
            bin.sort_by(|&a, &b| {
                splats[a as usize]
                    .depth
                    .partial_cmp(&splats[b as usize].depth)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        Self {
            viewport,
            tiles_x,
            tiles_y,
            bins,
        }
    }

    /// The viewport this grid covers.
    pub fn viewport(&self) -> Viewport {
        self.viewport
    }

    /// Number of tiles horizontally.
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Number of tiles vertically.
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// The depth-sorted splat indices for tile `(tx, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinates are out of range.
    pub fn bin(&self, tx: usize, ty: usize) -> &[u32] {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of range");
        &self.bins[ty * self.tiles_x + tx]
    }

    /// The pixel range (viewport-absolute) covered by tile `(tx, ty)`,
    /// clipped to the viewport: `(x0, y0, x1, y1)`.
    pub fn tile_pixel_range(&self, tx: usize, ty: usize) -> (usize, usize, usize, usize) {
        let x0 = self.viewport.x0 + tx * TILE_SIZE;
        let y0 = self.viewport.y0 + ty * TILE_SIZE;
        let x1 = (x0 + TILE_SIZE).min(self.viewport.x1);
        let y1 = (y0 + TILE_SIZE).min(self.viewport.y1);
        (x0, y0, x1, y1)
    }

    /// Total number of (splat, tile) pairs, a proxy for rasterization work.
    pub fn total_pairs(&self) -> usize {
        self.bins.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::{Sym2, Vec2};

    fn splat_at(idx: u32, x: f32, y: f32, radius: f32, depth: f32) -> Splat {
        Splat {
            idx,
            mean2d: Vec2::new(x, y),
            depth,
            conic: Sym2::new(1.0, 0.0, 1.0),
            radius,
            color: [1.0, 1.0, 1.0],
            opacity: 0.5,
        }
    }

    fn vp(w: usize, h: usize) -> Viewport {
        Viewport {
            x0: 0,
            y0: 0,
            x1: w,
            y1: h,
        }
    }

    #[test]
    fn grid_dimensions_cover_viewport() {
        let grid = TileGrid::build(&[], vp(33, 17));
        assert_eq!(grid.tiles_x(), 3);
        assert_eq!(grid.tiles_y(), 2);
        let (x0, y0, x1, y1) = grid.tile_pixel_range(2, 1);
        assert_eq!((x0, y0, x1, y1), (32, 16, 33, 17));
    }

    #[test]
    fn small_splat_lands_in_one_tile() {
        let splats = vec![splat_at(0, 8.0, 8.0, 2.0, 1.0)];
        let grid = TileGrid::build(&splats, vp(64, 64));
        assert_eq!(grid.bin(0, 0), &[0]);
        assert!(grid.bin(1, 0).is_empty());
        assert!(grid.bin(1, 1).is_empty());
        assert_eq!(grid.total_pairs(), 1);
    }

    #[test]
    fn large_splat_covers_multiple_tiles() {
        let splats = vec![splat_at(0, 16.0, 16.0, 20.0, 1.0)];
        let grid = TileGrid::build(&splats, vp(64, 64));
        assert_eq!(grid.bin(0, 0), &[0]);
        assert_eq!(grid.bin(1, 0), &[0]);
        assert_eq!(grid.bin(0, 1), &[0]);
        assert_eq!(grid.bin(1, 1), &[0]);
        assert_eq!(grid.bin(2, 2), &[0]);
        assert!(grid.bin(3, 3).is_empty());
    }

    #[test]
    fn bins_are_sorted_by_depth() {
        let splats = vec![
            splat_at(0, 8.0, 8.0, 4.0, 5.0),
            splat_at(1, 8.0, 8.0, 4.0, 1.0),
            splat_at(2, 8.0, 8.0, 4.0, 3.0),
        ];
        let grid = TileGrid::build(&splats, vp(16, 16));
        assert_eq!(grid.bin(0, 0), &[1, 2, 0]);
    }

    #[test]
    fn offscreen_splat_is_not_binned() {
        let splats = vec![splat_at(0, -100.0, -100.0, 3.0, 1.0)];
        let grid = TileGrid::build(&splats, vp(32, 32));
        assert_eq!(grid.total_pairs(), 0);
    }

    #[test]
    fn viewport_offset_is_respected() {
        // Splat at absolute pixel (40, 8) inside a viewport starting at x=32.
        let viewport = Viewport {
            x0: 32,
            y0: 0,
            x1: 64,
            y1: 16,
        };
        let splats = vec![splat_at(0, 40.0, 8.0, 2.0, 1.0)];
        let grid = TileGrid::build(&splats, viewport);
        assert_eq!(grid.tiles_x(), 2);
        assert_eq!(grid.bin(0, 0), &[0]);
        assert!(grid.bin(1, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "tile out of range")]
    fn bin_out_of_range_panics() {
        let grid = TileGrid::build(&[], vp(16, 16));
        let _ = grid.bin(1, 0);
    }
}
