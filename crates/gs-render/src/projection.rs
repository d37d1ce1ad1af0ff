//! Projection stage: EWA-project Gaussians and enumerate intersected tiles.
//!
//! # Determinism contract of the parallel front-end
//!
//! [`project_splats_parallel`] splits the cloud into contiguous chunks,
//! projects each chunk on a worker of the shared pool into a per-chunk
//! buffer, and concatenates the buffers **serially in chunk order**. Chunk
//! boundaries depend only on `(cloud.len(), chunks)` and per-splat
//! projection is pure, so the concatenation reproduces input order exactly:
//! the output is bit-identical to [`project_splats_into`] for every worker
//! count — which is what keeps `tests/exactness.rs` valid with the
//! parallel front-end enabled.

use crate::pool::WorkerPool;
use crate::{ALPHA_EPS, TILE_SIZE};
use gs_core::camera::Camera;
use gs_core::ewa::Projector;
use gs_core::sym::Sym2;
use gs_core::vec::{Vec2, Vec3};
use gs_scene::Gaussian;
use serde::{Deserialize, Serialize};

/// Safety margin (pixels) added around the analytic support ellipse bbox so
/// f32 rounding in the per-pixel falloff can never resurrect a pixel the
/// bbox excluded. The boundary gradient of the quadratic form is O(1) per
/// pixel while its rounding error is O(1e-6·q), so one pixel is orders of
/// magnitude more than required.
pub const BBOX_PAD_PX: f32 = 1.0;

/// A projected Gaussian ready for rasterization — the "processed features"
/// the tile-centric pipeline writes back to DRAM between stages
/// (2-D mean, conic, RGB, opacity, depth = 10 floats, plus the derived
/// screen-space support rectangle the rasterizer clips its pixel loop to).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Splat {
    /// Screen-space mean in pixels.
    pub mean_px: Vec2,
    /// Inverse 2-D covariance.
    pub conic: Sym2,
    /// View-dependent RGB (SH already evaluated).
    pub color: Vec3,
    /// Base opacity.
    pub opacity: f32,
    /// Camera-space depth (sort key).
    pub depth: f32,
    /// Inclusive tile rectangle this splat touches: `(x0, y0, x1, y1)`.
    pub tile_rect: (u32, u32, u32, u32),
    /// Conservative pixel-space support rectangle
    /// `(x_min, y_min, x_max, y_max)`: every pixel whose centre lies outside
    /// it is guaranteed to evaluate below [`ALPHA_EPS`] for this splat. See
    /// [`support_bbox`]. May be [`EMPTY_BBOX`] when the splat can nowhere
    /// reach the alpha threshold.
    pub bbox_px: (f32, f32, f32, f32),
}

/// The empty support rectangle (`x_min > x_max`): the rasterizer's clipped
/// loop visits no pixels for such a splat.
pub const EMPTY_BBOX: (f32, f32, f32, f32) = (0.0, 0.0, -1.0, -1.0);

/// The unbounded support rectangle: the clipped loop degenerates to the full
/// tile scan. Used by tests that want naive-scan semantics from a
/// hand-built splat.
pub const FULL_BBOX: (f32, f32, f32, f32) = (
    f32::NEG_INFINITY,
    f32::NEG_INFINITY,
    f32::INFINITY,
    f32::INFINITY,
);

impl Splat {
    /// Number of tiles the splat touches.
    pub fn tile_count(&self) -> u64 {
        let (x0, y0, x1, y1) = self.tile_rect;
        (x1 - x0 + 1) as u64 * (y1 - y0 + 1) as u64
    }
}

/// Computes the splat's conservative screen-space support rectangle from the
/// conic's extent (paper-style footprint clipping; cf. "No Redundancy, No
/// Stall"'s bounding-box rasterization).
///
/// A pixel centre `p` contributes only when
/// `opacity · exp(-½ dᵀ C d) ≥ ALPHA_EPS` with `d = p − mean`, i.e. when `d`
/// lies inside the ellipse `dᵀ C d ≤ q_max`, `q_max = 2·ln(opacity/ALPHA_EPS)`.
/// The tight axis-aligned bounding box of that ellipse has half-extents
/// `eₓ = √(q_max·Σₓₓ)`, `e_y = √(q_max·Σ_yy)` where `Σ = C⁻¹` is the 2-D
/// covariance — exactly the quantities EWA projection already produced. A
/// [`BBOX_PAD_PX`] margin absorbs f32 rounding.
///
/// Returns [`EMPTY_BBOX`] when `opacity < ALPHA_EPS` (the splat can nowhere
/// reach the threshold, so its support is empty).
pub fn support_bbox(mean_px: Vec2, cov2d: Sym2, opacity: f32) -> (f32, f32, f32, f32) {
    if opacity < ALPHA_EPS {
        return EMPTY_BBOX;
    }
    let q_max = 2.0 * (opacity / ALPHA_EPS).ln().max(0.0);
    let ex = (q_max * cov2d.a.max(0.0)).sqrt() + BBOX_PAD_PX;
    let ey = (q_max * cov2d.c.max(0.0)).sqrt() + BBOX_PAD_PX;
    (
        mean_px.x - ex,
        mean_px.y - ey,
        mean_px.x + ex,
        mean_px.y + ey,
    )
}

/// Grid dimensions (in tiles) of a `width`×`height` frame.
pub fn tile_grid(width: u32, height: u32) -> (u32, u32) {
    (width.div_ceil(TILE_SIZE), height.div_ceil(TILE_SIZE))
}

/// Computes the inclusive tile rectangle covered by a disc at `center` with
/// radius `r` (pixels), clipped to the grid; `None` when fully off-screen.
pub fn tile_rect_of(
    center: Vec2,
    radius: f32,
    tiles_x: u32,
    tiles_y: u32,
) -> Option<(u32, u32, u32, u32)> {
    let min_x = center.x - radius;
    let max_x = center.x + radius;
    let min_y = center.y - radius;
    let max_y = center.y + radius;
    let limit_x = (tiles_x * TILE_SIZE) as f32;
    let limit_y = (tiles_y * TILE_SIZE) as f32;
    if max_x < 0.0 || max_y < 0.0 || min_x >= limit_x || min_y >= limit_y {
        return None;
    }
    let ts = TILE_SIZE as f32;
    let x0 = (min_x.max(0.0) / ts) as u32;
    let y0 = (min_y.max(0.0) / ts) as u32;
    let x1 = ((max_x / ts) as u32).min(tiles_x - 1);
    let y1 = ((max_y / ts) as u32).min(tiles_y - 1);
    Some((x0, y0, x1, y1))
}

/// Projects every Gaussian of `cloud` through `cam`; returns the surviving
/// splats (with per-splat tile rectangles) in input order, paired with the
/// index of the source Gaussian.
#[cfg(test)]
pub(crate) fn project_cloud(cloud: &[Gaussian], cam: &Camera, sh_degree: u8) -> Vec<(u32, Splat)> {
    let mut out = Vec::with_capacity(cloud.len());
    project_each(cloud, cam, sh_degree, |i, s| out.push((i, s)));
    out
}

/// Projection for the renderer hot path: keeps only the splats (the source
/// indices are not needed for rasterization), written into a caller-owned
/// buffer that the frame arena reuses across frames.
pub fn project_splats_into(cloud: &[Gaussian], cam: &Camera, sh_degree: u8, out: &mut Vec<Splat>) {
    out.clear();
    project_each(cloud, cam, sh_degree, |_, s| out.push(s));
}

/// Reusable per-chunk output buffers for [`project_splats_parallel`].
///
/// Buffer capacities persist across frames, so a steady-state render loop's
/// parallel projection allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ProjectScratch {
    /// One splat buffer per worker chunk.
    chunks: Vec<Vec<Splat>>,
}

/// Splat-parallel [`project_splats_into`]: chunk `c` projects
/// `cloud[c·chunk .. (c+1)·chunk]` into its own scratch buffer on the pool,
/// then the buffers are concatenated in chunk order (see the module docs
/// for why this is bit-identical to the serial path). Falls back to the
/// serial path when the work does not warrant more than one chunk.
pub fn project_splats_parallel(
    cloud: &[Gaussian],
    cam: &Camera,
    sh_degree: u8,
    out: &mut Vec<Splat>,
    scratch: &mut ProjectScratch,
    pool: &mut WorkerPool,
    chunks: usize,
) {
    let chunks = chunks.clamp(1, cloud.len().max(1));
    if chunks <= 1 {
        project_splats_into(cloud, cam, sh_degree, out);
        return;
    }
    if scratch.chunks.len() < chunks {
        scratch.chunks.resize_with(chunks, Vec::new);
    }
    let chunk = cloud.len().div_ceil(chunks);
    pool.run_chunks_mut(&mut scratch.chunks[..chunks], 1, |c, buf| {
        let buf = &mut buf[0];
        buf.clear();
        let lo = (c * chunk).min(cloud.len());
        let hi = ((c + 1) * chunk).min(cloud.len());
        project_each(&cloud[lo..hi], cam, sh_degree, |_, s| buf.push(s));
    });
    out.clear();
    for buf in &scratch.chunks[..chunks] {
        out.extend_from_slice(buf);
    }
}

fn project_each(cloud: &[Gaussian], cam: &Camera, sh_degree: u8, mut emit: impl FnMut(u32, Splat)) {
    let (tiles_x, tiles_y) = tile_grid(cam.width(), cam.height());
    let cam_center = cam.pose.center();
    let projector = Projector::new(cam);
    for (i, g) in cloud.iter().enumerate() {
        let Some(proj) = projector.full(g.pos, g.cov3d()) else {
            continue;
        };
        if proj.radius_px <= 0.0 {
            continue;
        }
        let Some(tile_rect) = tile_rect_of(proj.mean_px, proj.radius_px, tiles_x, tiles_y) else {
            continue;
        };
        let dir = (g.pos - cam_center).normalized();
        let color = gs_core::sh::eval_color(&g.sh, dir, sh_degree);
        emit(
            i as u32,
            Splat {
                mean_px: proj.mean_px,
                conic: proj.conic,
                color,
                opacity: g.opacity,
                depth: proj.depth,
                tile_rect,
                bbox_px: support_bbox(proj.mean_px, proj.cov2d, g.opacity),
            },
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gs_core::vec::Vec3;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 128, 96, 1.0)
    }

    #[test]
    fn grid_dimensions_round_up() {
        assert_eq!(tile_grid(128, 96), (8, 6));
        assert_eq!(tile_grid(130, 97), (9, 7));
        assert_eq!(tile_grid(16, 16), (1, 1));
    }

    #[test]
    fn tile_rect_clips_to_screen() {
        let r = tile_rect_of(Vec2::new(8.0, 8.0), 500.0, 8, 6).unwrap();
        assert_eq!(r, (0, 0, 7, 5));
    }

    #[test]
    fn tile_rect_offscreen_is_none() {
        assert!(tile_rect_of(Vec2::new(-50.0, 10.0), 10.0, 8, 6).is_none());
        assert!(tile_rect_of(Vec2::new(2000.0, 10.0), 10.0, 8, 6).is_none());
    }

    #[test]
    fn tile_rect_single_tile() {
        let r = tile_rect_of(Vec2::new(24.0, 24.0), 2.0, 8, 6).unwrap();
        assert_eq!(r, (1, 1, 1, 1));
    }

    #[test]
    fn center_gaussian_projects_to_center_tiles() {
        let g = Gaussian::isotropic(Vec3::ZERO, 0.1, Vec3::ONE, 0.9);
        let splats = project_cloud(std::slice::from_ref(&g), &cam(), 3);
        assert_eq!(splats.len(), 1);
        let (idx, s) = &splats[0];
        assert_eq!(*idx, 0);
        assert!((s.mean_px.x - 64.0).abs() < 1.0);
        assert!((s.mean_px.y - 48.0).abs() < 1.0);
        assert!(s.tile_count() >= 1);
    }

    #[test]
    fn behind_camera_culled() {
        let g = Gaussian::isotropic(Vec3::new(0.0, 0.0, -10.0), 0.1, Vec3::ONE, 0.9);
        assert!(project_cloud(std::slice::from_ref(&g), &cam(), 3).is_empty());
    }

    #[test]
    fn splat_indices_are_source_indices() {
        let gs: Vec<Gaussian> = vec![
            Gaussian::isotropic(Vec3::new(0.0, 0.0, -10.0), 0.1, Vec3::ONE, 0.9), // culled
            Gaussian::isotropic(Vec3::ZERO, 0.1, Vec3::ONE, 0.9),
            Gaussian::isotropic(Vec3::new(0.3, 0.0, 0.0), 0.1, Vec3::ONE, 0.9),
        ];
        let splats = project_cloud(&gs, &cam(), 3);
        let idx: Vec<u32> = splats.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![1, 2]);
    }

    #[test]
    fn parallel_projection_is_bit_identical_to_serial() {
        // A few hundred Gaussians (some culled, some visible) projected
        // serially and with every chunking the renderer might pick.
        let gs: Vec<Gaussian> = (0..317)
            .map(|i| {
                let f = i as f32 * 0.37;
                let mut g = Gaussian::isotropic(
                    Vec3::new(f.sin() * 2.0, f.cos() * 1.5, (f * 0.7).sin() * 6.0),
                    0.02 + 0.1 * (f.cos() * f.cos()),
                    Vec3::new(0.5, 0.4, 0.8),
                    0.05 + 0.9 * (f.sin() * f.sin()),
                );
                g.scale = Vec3::new(0.02 + 0.05 * f.sin().abs(), 0.04, 0.03);
                g
            })
            .collect();
        let c = cam();
        let mut serial = Vec::new();
        project_splats_into(&gs, &c, 3, &mut serial);
        let mut scratch = ProjectScratch::default();
        let mut out = Vec::new();
        for chunks in [1usize, 2, 3, 7, 64, 1024] {
            let mut pool = WorkerPool::new(chunks.min(4));
            project_splats_parallel(&gs, &c, 3, &mut out, &mut scratch, &mut pool, chunks);
            assert_eq!(out, serial, "chunks={chunks} changed projection output");
        }
    }

    #[test]
    fn parallel_projection_reuses_chunk_capacity() {
        let gs: Vec<Gaussian> = (0..200)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new((i as f32 * 0.31).sin(), 0.0, 0.0),
                    0.05,
                    Vec3::ONE,
                    0.9,
                )
            })
            .collect();
        let c = cam();
        let mut scratch = ProjectScratch::default();
        let mut pool = WorkerPool::new(3);
        let mut out = Vec::new();
        project_splats_parallel(&gs, &c, 3, &mut out, &mut scratch, &mut pool, 3);
        let caps: Vec<usize> = scratch.chunks.iter().map(|b| b.capacity()).collect();
        let out_cap = out.capacity();
        for _ in 0..4 {
            project_splats_parallel(&gs, &c, 3, &mut out, &mut scratch, &mut pool, 3);
        }
        assert_eq!(
            caps,
            scratch
                .chunks
                .iter()
                .map(|b| b.capacity())
                .collect::<Vec<_>>(),
            "steady-state parallel projection must not grow chunk buffers"
        );
        assert_eq!(out.capacity(), out_cap);
    }

    #[test]
    fn bigger_gaussian_covers_more_tiles() {
        let small = Gaussian::isotropic(Vec3::ZERO, 0.02, Vec3::ONE, 0.9);
        let large = Gaussian::isotropic(Vec3::ZERO, 0.8, Vec3::ONE, 0.9);
        let s = project_cloud(std::slice::from_ref(&small), &cam(), 3)[0]
            .1
            .tile_count();
        let l = project_cloud(std::slice::from_ref(&large), &cam(), 3)[0]
            .1
            .tile_count();
        assert!(l > s);
    }
}
