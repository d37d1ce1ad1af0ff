//! Workload extrapolation from the scaled-down stand-ins to native scenes.
//!
//! The stand-in scenes are 10–100× smaller than the trained checkpoints the
//! paper measures (DESIGN.md §2). Figures that report *absolute* quantities
//! (GPU FPS, bandwidth-at-90-FPS) extrapolate the measured per-frame counts
//! to native scale with the factors below; figures that report *ratios*
//! (speedup, energy saving) use the measured counts directly.
//!
//! Scaling rules (documented calibration choices):
//!
//! * Gaussian-proportional counters scale with the Gaussian-count factor
//!   `g` (projection inputs/outputs, sort pairs, consumed list entries —
//!   the *tiles-per-Gaussian* ratio is roughly scale-invariant: native
//!   scenes have proportionally smaller splats at proportionally higher
//!   resolution).
//! * Pixel-proportional counters scale with the pixel factor `p`
//!   (fragments: early termination caps each pixel's blend depth, so
//!   per-pixel work is resolution-bound).

use gs_render::RenderStats;
use gs_scene::SceneKind;
use gs_voxel::FrameWorkload;

/// Scale factors from a stand-in frame to the native scene.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScaleFactors {
    /// Native Gaussians / stand-in Gaussians.
    pub gaussians: f64,
    /// Native pixels / stand-in pixels.
    pub pixels: f64,
}

impl ScaleFactors {
    /// Factors for `kind` given the stand-in's cloud size and resolution.
    pub fn for_scene(
        kind: SceneKind,
        standin_gaussians: usize,
        width: u32,
        height: u32,
    ) -> ScaleFactors {
        let (nw, nh) = kind.native_resolution();
        ScaleFactors {
            gaussians: kind.native_gaussians() as f64 / standin_gaussians.max(1) as f64,
            pixels: (nw as f64 * nh as f64) / (width as f64 * height as f64).max(1.0),
        }
    }

    /// Identity scaling (no extrapolation).
    pub fn identity() -> ScaleFactors {
        ScaleFactors {
            gaussians: 1.0,
            pixels: 1.0,
        }
    }
}

fn s(v: u64, k: f64) -> u64 {
    (v as f64 * k).round() as u64
}

/// Extrapolates tile-centric stats to native scale.
pub fn scale_render_stats(stats: &RenderStats, f: &ScaleFactors) -> RenderStats {
    let g = f.gaussians;
    let p = f.pixels;
    RenderStats {
        total_gaussians: s(stats.total_gaussians, g),
        visible_gaussians: s(stats.visible_gaussians, g),
        tile_pairs: s(stats.tile_pairs, g),
        occupied_tiles: s(stats.occupied_tiles, p),
        total_tiles: s(stats.total_tiles, p),
        pixels: s(stats.pixels, p),
        blended_fragments: s(stats.blended_fragments, p),
        skipped_fragments: s(stats.skipped_fragments, p),
        early_terminated_pixels: s(stats.early_terminated_pixels, p),
        consumed_entries: s(stats.consumed_entries, g),
        max_tile_list: s(stats.max_tile_list, g),
    }
}

/// Extrapolates a streaming frame workload to native scale.
///
/// Voxel counts stay fixed (the voxel size is a scene-space constant), so
/// per-voxel populations grow with `g`; tiles grow with `p`.
pub fn scale_frame_workload(frame: &FrameWorkload, f: &ScaleFactors) -> FrameWorkload {
    let g = f.gaussians;
    let p = f.pixels;
    let tiles = frame
        .tiles
        .iter()
        .map(|t| gs_voxel::TileWorkload {
            rays: t.rays,
            dda_steps: t.dda_steps,
            voxels_intersected: t.voxels_intersected,
            dag_edges: t.dag_edges,
            cycle_breaks: t.cycle_breaks,
            order_ops: t.order_ops,
            voxels_processed: t.voxels_processed,
            gaussians_streamed: s(t.gaussians_streamed, g),
            coarse_survivors: s(t.coarse_survivors, g),
            fine_survivors: s(t.fine_survivors, g),
            max_sort_batch: s(t.max_sort_batch as u64, g) as u32,
            // Early termination caps per-pixel depth: per-tile lane counts
            // grow only mildly (√g) with scene density.
            blend_lanes: s(t.blend_lanes, g.sqrt()),
            blend_fragments: s(t.blend_fragments, g.sqrt()),
            coarse_bytes: s(t.coarse_bytes, g),
            fine_bytes: s(t.fine_bytes, g),
            pixel_bytes: t.pixel_bytes,
            // DRAM transaction / hit bytes scale with their demand
            // counterparts (per-transfer rounding is preserved only
            // approximately under extrapolation, like every other counter).
            coarse_dram_bytes: s(t.coarse_dram_bytes, g),
            fine_dram_bytes: s(t.fine_dram_bytes, g),
            pixel_dram_bytes: t.pixel_dram_bytes,
            coarse_hit_bytes: s(t.coarse_hit_bytes, g),
            fine_hit_bytes: s(t.fine_hit_bytes, g),
            fine_tier_bytes: t.fine_tier_bytes.map(|b| s(b, g)),
            fine_tier_dram_bytes: t.fine_tier_dram_bytes.map(|b| s(b, g)),
        })
        .collect::<Vec<_>>();
    // Tile count itself scales with pixels: replicate tiles cyclically.
    let n_native = ((frame.tiles.len() as f64) * p).round().max(1.0) as usize;
    let mut native_tiles = Vec::with_capacity(n_native);
    for i in 0..n_native {
        native_tiles.push(tiles[i % tiles.len().max(1)]);
    }
    FrameWorkload {
        tiles: native_tiles,
        width: (frame.width as f64 * p.sqrt()).round() as u32,
        height: (frame.height as f64 * p.sqrt()).round() as u32,
        scene_voxels: frame.scene_voxels,
        scene_gaussians: s(frame.scene_gaussians, g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scaling_is_identity_for_stats() {
        let stats = RenderStats {
            total_gaussians: 100,
            visible_gaussians: 50,
            tile_pairs: 300,
            pixels: 1000,
            blended_fragments: 5000,
            ..Default::default()
        };
        assert_eq!(scale_render_stats(&stats, &ScaleFactors::identity()), stats);
    }

    #[test]
    fn gaussian_factor_scales_projection_inputs() {
        let stats = RenderStats {
            total_gaussians: 100,
            tile_pairs: 10,
            ..Default::default()
        };
        let f = ScaleFactors {
            gaussians: 10.0,
            pixels: 1.0,
        };
        let out = scale_render_stats(&stats, &f);
        assert_eq!(out.total_gaussians, 1000);
        assert_eq!(out.tile_pairs, 100);
    }

    #[test]
    fn scene_factors_are_greater_than_one_for_tiny_standins() {
        let f = ScaleFactors::for_scene(SceneKind::Train, 30_000, 320, 208);
        assert!(f.gaussians > 10.0);
        assert!(f.pixels > 5.0);
    }

    #[test]
    fn frame_workload_tile_count_scales_with_pixels() {
        let frame = FrameWorkload {
            tiles: vec![gs_voxel::TileWorkload::default(); 10],
            width: 160,
            height: 120,
            scene_voxels: 50,
            scene_gaussians: 1000,
        };
        let f = ScaleFactors {
            gaussians: 2.0,
            pixels: 4.0,
        };
        let out = scale_frame_workload(&frame, &f);
        assert_eq!(out.tiles.len(), 40);
        assert_eq!(out.scene_gaussians, 2000);
    }
}
