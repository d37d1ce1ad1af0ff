//! Reusable per-frame buffers for the tile renderer.
//!
//! The seed pipeline allocated every intermediate buffer per frame: the
//! projected-splat list, the (tile, depth) key list, the per-tile ranges and
//! one 16×16 pixel buffer **per tile per frame**. [`FrameArena`] owns all of
//! them; every `TileRenderer::render` call reuses the previous frame's
//! capacity, so a steady-state render loop performs no intermediate-buffer
//! allocation (the returned `ImageRgb` is the only per-frame allocation —
//! it is the caller-owned output).

use crate::binning::{BinScratch, TileKey};
use crate::projection::{ProjectScratch, Splat};
use crate::rasterize::{TileOutcome, TileScratch};
use crate::TILE_SIZE;
use gs_core::vec::Vec3;

/// Pixels per tile buffer.
pub const TILE_PIXELS: usize = (TILE_SIZE * TILE_SIZE) as usize;

/// One rasterization chunk's buffers: its blend scratch plus the pixels
/// and counters of the contiguous tile range it renders, so a chunk job
/// owns everything it writes.
#[derive(Clone, Debug, Default)]
pub struct TileChunk {
    /// Blend scratch (transmittance / done flags), reused tile to tile.
    pub scratch: TileScratch,
    /// The chunk's tiles' pixel buffers, `TILE_PIXELS` each, tile-major.
    pub pixels: Vec<Vec3>,
    /// The chunk's per-tile rasterization counters.
    pub outcomes: Vec<TileOutcome>,
}

/// All intermediate buffers of one rendered frame (see module docs).
#[derive(Clone, Debug, Default)]
pub struct FrameArena {
    /// Projected splats (projection stage output).
    pub splats: Vec<Splat>,
    /// Sorted (tile, depth) keys (sorting stage output / scatter buffer).
    pub keys: Vec<TileKey>,
    /// Per-tile `(start, end)` ranges into `keys`.
    pub ranges: Vec<(u32, u32)>,
    /// Per-chunk rasterization buffers, chunk-major over the tile grid.
    pub tiles: Vec<TileChunk>,
    /// Per-chunk buffers for the splat-parallel projection stage.
    pub project: ProjectScratch,
    /// Per-chunk histograms/cursors for the parallel binning stage.
    pub bin: BinScratch,
}

impl FrameArena {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> FrameArena {
        FrameArena::default()
    }

    /// Sizes the rasterization-stage buffers for `n_tiles` tiles split into
    /// `chunks` consecutive ranges of `n_tiles.div_ceil(chunks)` tiles (the
    /// last ranges may be short or empty) and returns that range length.
    /// Only grows capacity; never shrinks.
    pub fn ensure_tiles(&mut self, n_tiles: usize, chunks: usize) -> usize {
        let chunks = chunks.max(1);
        let chunk = n_tiles.div_ceil(chunks);
        if self.tiles.len() < chunks {
            self.tiles.resize_with(chunks, TileChunk::default);
        }
        for (c, tc) in self.tiles[..chunks].iter_mut().enumerate() {
            let n = n_tiles.saturating_sub(c * chunk).min(chunk);
            tc.pixels.resize(n * TILE_PIXELS, Vec3::ZERO);
            tc.outcomes.resize(n, TileOutcome::default());
        }
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_tiles_grows_and_keeps_capacity() {
        let mut a = FrameArena::new();
        assert_eq!(a.ensure_tiles(12, 4), 3);
        assert!(a.tiles[..4]
            .iter()
            .all(|t| t.pixels.len() == 3 * TILE_PIXELS));
        assert!(a.tiles[..4].iter().all(|t| t.outcomes.len() == 3));
        let cap = a.tiles[0].pixels.capacity();
        // 4 tiles over 2 chunks shrink chunk 0 from 3 tiles to 2.
        assert_eq!(a.ensure_tiles(4, 2), 2);
        assert_eq!(a.tiles[0].pixels.len(), 2 * TILE_PIXELS);
        assert_eq!(a.tiles[0].outcomes.len(), 2);
        assert_eq!(
            a.tiles[0].pixels.capacity(),
            cap,
            "shrinking must not reallocate"
        );
        assert!(a.tiles.len() >= 4, "chunk buffers persist");
        // Uneven split: 5 tiles over 4 chunks of 2 leave an empty tail.
        assert_eq!(a.ensure_tiles(5, 4), 2);
        let lens: Vec<usize> = a.tiles[..4].iter().map(|t| t.outcomes.len()).collect();
        assert_eq!(lens, [2, 2, 1, 0]);
    }
}
