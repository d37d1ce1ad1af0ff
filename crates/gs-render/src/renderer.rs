//! The complete tile-centric renderer: projection → sorting → rendering.
//!
//! The hot path is allocation-free in steady state: all intermediate
//! buffers live in a [`FrameArena`] and tile rasterization runs on a
//! persistent [`WorkerPool`], both reused across frames. Committed golden
//! digests (`tests/exactness.rs`) pin its output.

use crate::arena::{FrameArena, TileChunk, TILE_PIXELS};
use crate::binning::{bin_and_sort_into, bin_and_sort_parallel};
use crate::pool::{resolve_threads, WorkerPool};
use crate::projection::{project_splats_into, project_splats_parallel, tile_grid};
use crate::rasterize::rasterize_tile;
use crate::stats::RenderStats;
use crate::TILE_SIZE;
use gs_core::camera::Camera;
use gs_core::image::ImageRgb;
use gs_core::vec::Vec3;
use gs_scene::GaussianCloud;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Renderer configuration.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RenderConfig {
    /// Background colour composited behind the splats.
    pub background: Vec3,
    /// SH degree used for colour evaluation (0–3).
    pub sh_degree: u8,
    /// Worker threads for tile rasterization; 0 = use all available cores.
    pub threads: usize,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            background: Vec3::ZERO,
            sh_degree: 3,
            threads: 0,
        }
    }
}

/// Splat count below which the parallel front-end is skipped: under ~1k
/// splats the three extra pool dispatches (projection, histogram+scatter,
/// tile sorts) cost more than the parallelism recovers, and the serial path
/// is bit-identical anyway.
const PARALLEL_FRONT_END_MIN_SPLATS: usize = 1024;

/// A rendered frame plus its functional workload statistics.
#[derive(Clone, Debug)]
pub struct RenderOutput {
    /// The image.
    pub image: ImageRgb,
    /// Workload counters feeding the performance models.
    pub stats: RenderStats,
}

/// Reusable frame state: arena + worker pool, behind a mutex so `render`
/// can stay `&self`. Concurrent `render` calls on one renderer serialize;
/// clone the renderer for independent parallel use.
#[derive(Debug, Default)]
struct RenderScratch {
    arena: FrameArena,
    pool: Option<WorkerPool>,
}

/// The tile-centric reference renderer (paper Fig. 2 pipeline).
///
/// ```
/// use gs_render::{RenderConfig, TileRenderer};
/// use gs_scene::{Gaussian, GaussianCloud};
/// use gs_core::camera::Camera;
/// use gs_core::vec::Vec3;
///
/// let cloud: GaussianCloud =
///     std::iter::once(Gaussian::isotropic(Vec3::ZERO, 0.2, Vec3::new(1.0, 0.0, 0.0), 0.95)).collect();
/// let cam = Camera::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y, 64, 64, 1.0);
/// let out = TileRenderer::new(RenderConfig::default()).render(&cloud, &cam);
/// // The red Gaussian lands in the centre of the frame.
/// assert!(out.image.get(32, 32).x > 0.5);
/// ```
#[derive(Debug)]
pub struct TileRenderer {
    config: RenderConfig,
    scratch: Mutex<RenderScratch>,
}

impl Default for TileRenderer {
    fn default() -> Self {
        TileRenderer::new(RenderConfig::default())
    }
}

impl Clone for TileRenderer {
    /// Clones the configuration; the clone starts with a fresh arena and
    /// worker pool (frame state is not shared between renderers).
    fn clone(&self) -> Self {
        TileRenderer::new(self.config)
    }
}

impl TileRenderer {
    /// Creates a renderer with the given configuration.
    pub fn new(config: RenderConfig) -> TileRenderer {
        TileRenderer {
            config,
            scratch: Mutex::new(RenderScratch::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RenderConfig {
        &self.config
    }

    /// Renders `cloud` from `cam`.
    pub fn render(&self, cloud: &GaussianCloud, cam: &Camera) -> RenderOutput {
        let width = cam.width();
        let height = cam.height();
        let (tiles_x, tiles_y) = tile_grid(width, height);
        let n_tiles = (tiles_x * tiles_y) as usize;
        let background = self.config.background;

        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let RenderScratch { arena, pool } = &mut *guard;
        let workers = resolve_threads(self.config.threads);

        // Stages 1+2: the front-end, splat-parallel when more than one
        // worker is available and the cloud is large enough to amortize
        // the dispatches (bit-identical to the serial path either way —
        // see the determinism contracts in `projection` and `binning`).
        // One chunk per worker: projection and binning are compute-dense
        // enough that finer-grained chunking only adds dispatch overhead.
        if workers > 1 && cloud.len() >= PARALLEL_FRONT_END_MIN_SPLATS {
            let pool = WorkerPool::ensure(pool, workers);
            project_splats_parallel(
                cloud.as_slice(),
                cam,
                self.config.sh_degree,
                &mut arena.splats,
                &mut arena.project,
                pool,
                workers,
            );
            bin_and_sort_parallel(
                &arena.splats,
                tiles_x,
                tiles_y,
                &mut arena.keys,
                &mut arena.ranges,
                &mut arena.bin,
                pool,
                workers,
            );
        } else {
            // Stage 1: projection.
            project_splats_into(
                cloud.as_slice(),
                cam,
                self.config.sh_degree,
                &mut arena.splats,
            );
            // Stage 2: sorting (two-pass counting sort, see `binning`).
            bin_and_sort_into(
                &arena.splats,
                tiles_x,
                tiles_y,
                &mut arena.keys,
                &mut arena.ranges,
            );
        }

        // Stage 3: per-tile rasterization. Chunk c renders tiles
        // [c·chunk, (c+1)·chunk) into its own `TileChunk`; one chunk runs
        // on the calling thread, more fan out over the pool.
        let threads = workers.min(n_tiles.max(1));
        let chunk = arena.ensure_tiles(n_tiles, threads);
        let splats = &arena.splats[..];
        let keys = &arena.keys[..];
        let ranges = &arena.ranges[..];
        let raster = |c: usize, tc: &mut TileChunk| {
            let bufs = tc.pixels.chunks_exact_mut(TILE_PIXELS);
            for (k, (outcome, buf)) in tc.outcomes.iter_mut().zip(bufs).enumerate() {
                let t = c * chunk + k;
                *outcome = rasterize_tile(
                    splats,
                    keys,
                    ranges[t],
                    tile_origin(t, tiles_x),
                    width,
                    height,
                    background,
                    &mut tc.scratch,
                    buf,
                );
            }
        };
        let tiles = &mut arena.tiles[..threads];
        if threads <= 1 {
            raster(0, &mut tiles[0]);
        } else {
            WorkerPool::ensure(pool, threads)
                .run_chunks_mut(tiles, 1, |c, tc| raster(c, &mut tc[0]));
        }

        // Composite tiles and fold stats (serial, deterministic order).
        let mut image = ImageRgb::new(width, height);
        let mut fragments = 0u64;
        let mut skipped = 0u64;
        let mut early = 0u64;
        let mut consumed = 0u64;
        for (c, tc) in arena.tiles[..threads].iter().enumerate() {
            let bufs = tc.pixels.chunks_exact(TILE_PIXELS);
            for (k, (outcome, buf)) in tc.outcomes.iter().zip(bufs).enumerate() {
                let (ox, oy) = tile_origin(c * chunk + k, tiles_x);
                for ly in 0..TILE_SIZE {
                    for lx in 0..TILE_SIZE {
                        let px = ox + lx;
                        let py = oy + ly;
                        if px < width && py < height {
                            image.set(px, py, buf[(ly * TILE_SIZE + lx) as usize]);
                        }
                    }
                }
                fragments += outcome.fragments;
                skipped += outcome.skipped;
                early += outcome.early_terminated;
                consumed += outcome.consumed_entries;
            }
        }

        let occupied = ranges.iter().filter(|(a, b)| b > a).count() as u64;
        let max_list = ranges
            .iter()
            .map(|(a, b)| (b - a) as u64)
            .max()
            .unwrap_or(0);
        let stats = RenderStats {
            total_gaussians: cloud.len() as u64,
            visible_gaussians: arena.splats.len() as u64,
            tile_pairs: arena.keys.len() as u64,
            occupied_tiles: occupied,
            total_tiles: n_tiles as u64,
            pixels: width as u64 * height as u64,
            blended_fragments: fragments,
            skipped_fragments: skipped,
            early_terminated_pixels: early,
            consumed_entries: consumed,
            max_tile_list: max_list,
        };
        RenderOutput { image, stats }
    }
}

/// Top-left pixel of a tile index in a `tiles_x`-wide grid.
fn tile_origin(tile_index: usize, tiles_x: u32) -> (u32, u32) {
    let tx = tile_index as u32 % tiles_x;
    let ty = tile_index as u32 / tiles_x;
    (tx * TILE_SIZE, ty * TILE_SIZE)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gs_scene::{Gaussian, SceneConfig, SceneKind};

    #[test]
    fn single_gaussian_renders_deterministically() {
        let cloud: GaussianCloud = std::iter::once(Gaussian::isotropic(
            Vec3::ZERO,
            0.15,
            Vec3::new(0.0, 1.0, 0.0),
            0.9,
        ))
        .collect();
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y, 96, 64, 1.0);
        let r = TileRenderer::new(RenderConfig::default());
        let a = r.render(&cloud, &cam);
        let b = r.render(&cloud, &cam);
        assert_eq!(a.image, b.image);
        assert!(a.image.get(48, 32).y > 0.3);
        assert_eq!(a.stats.visible_gaussians, 1);
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let seq = TileRenderer::new(RenderConfig {
            threads: 1,
            ..RenderConfig::default()
        })
        .render(&scene.ground_truth, cam);
        let par = TileRenderer::new(RenderConfig {
            threads: 4,
            ..RenderConfig::default()
        })
        .render(&scene.ground_truth, cam);
        assert_eq!(seq.image, par.image);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn pool_grows_for_larger_frames() {
        // Regression: a small first frame (few tiles) must not permanently
        // cap the worker pool for later, larger frames.
        let cloud: GaussianCloud =
            std::iter::once(Gaussian::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9)).collect();
        let r = TileRenderer::new(RenderConfig {
            threads: 4,
            ..RenderConfig::default()
        });
        // 32x16 -> 2 tiles -> pool sized 2.
        let small_cam =
            Camera::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y, 32, 16, 1.0);
        r.render(&cloud, &small_cam);
        assert_eq!(r.scratch.lock().unwrap().pool.as_ref().unwrap().size(), 2);
        // 128x128 -> 64 tiles -> pool must grow to the full 4 workers.
        let big_cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -3.0),
            Vec3::ZERO,
            Vec3::Y,
            128,
            128,
            1.0,
        );
        let big = r.render(&cloud, &big_cam);
        assert_eq!(r.scratch.lock().unwrap().pool.as_ref().unwrap().size(), 4);
        let fresh = TileRenderer::new(RenderConfig {
            threads: 4,
            ..RenderConfig::default()
        })
        .render(&cloud, &big_cam);
        assert_eq!(big.image, fresh.image);
        assert_eq!(big.stats, fresh.stats);
    }

    fn tile_pixel_capacity(a: &FrameArena) -> usize {
        a.tiles.iter().map(|t| t.pixels.capacity()).sum()
    }

    #[test]
    fn repeated_frames_reuse_arena_capacity() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let r = TileRenderer::new(RenderConfig {
            threads: 2,
            ..RenderConfig::default()
        });
        let first = r.render(&scene.ground_truth, cam);
        let caps = {
            let guard = r.scratch.lock().unwrap();
            let a = &guard.arena;
            (
                a.splats.capacity(),
                a.keys.capacity(),
                tile_pixel_capacity(a),
            )
        };
        for _ in 0..3 {
            let again = r.render(&scene.ground_truth, cam);
            assert_eq!(again.image, first.image);
            assert_eq!(again.stats, first.stats);
        }
        let guard = r.scratch.lock().unwrap();
        let a = &guard.arena;
        assert_eq!(
            caps,
            (
                a.splats.capacity(),
                a.keys.capacity(),
                tile_pixel_capacity(a)
            ),
            "steady-state frames must not grow the arena"
        );
    }

    #[test]
    fn background_shows_through_empty_regions() {
        let cloud = GaussianCloud::new();
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y, 32, 32, 1.0);
        let bg = Vec3::new(0.2, 0.4, 0.6);
        let out = TileRenderer::new(RenderConfig {
            background: bg,
            ..RenderConfig::default()
        })
        .render(&cloud, &cam);
        assert!((out.image.get(16, 16) - bg).length() < 1e-6);
        assert_eq!(out.stats.blended_fragments, 0);
    }

    #[test]
    fn scene_renders_with_sane_stats() {
        let scene = SceneKind::Truck.build(&SceneConfig::tiny());
        let out = TileRenderer::new(RenderConfig::default())
            .render(&scene.ground_truth, &scene.eval_cameras[0]);
        let s = out.stats;
        assert!(s.visible_gaussians > 100, "visible {}", s.visible_gaussians);
        assert!(s.tile_pairs >= s.visible_gaussians);
        assert!(s.blended_fragments > 0);
        assert!(s.occupied_tiles > 0 && s.occupied_tiles <= s.total_tiles);
        // A camera inside the scene must produce non-trivial imagery.
        let mean: f32 = out
            .image
            .as_slice()
            .iter()
            .map(|p| p.x + p.y + p.z)
            .sum::<f32>()
            / (out.image.pixels() as f32 * 3.0);
        assert!(mean > 0.01, "image nearly black: mean {mean}");
    }

    #[test]
    fn trained_cloud_close_to_ground_truth_in_psnr() {
        let scene = SceneKind::Palace.build(&SceneConfig::tiny());
        let r = TileRenderer::new(RenderConfig::default());
        let cam = &scene.eval_cameras[0];
        let gt = r.render(&scene.ground_truth, cam);
        let trained = r.render(&scene.trained, cam);
        let psnr = trained.image.psnr(&gt.image);
        assert!(psnr > 18.0, "trained cloud PSNR too low: {psnr}");
        assert!(psnr < 80.0, "perturbation had no effect: {psnr}");
    }

    #[test]
    fn sh_degree_zero_removes_view_dependence_cost() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let full = TileRenderer::new(RenderConfig::default()).render(&scene.ground_truth, cam);
        let dc = TileRenderer::new(RenderConfig {
            sh_degree: 0,
            ..RenderConfig::default()
        })
        .render(&scene.ground_truth, cam);
        // Images differ (view-dependent terms dropped) but only slightly.
        let psnr = dc.image.psnr(&full.image);
        assert!(psnr > 20.0, "degree truncation changed too much: {psnr}");
        assert!(psnr.is_finite(), "images should differ");
    }
}
