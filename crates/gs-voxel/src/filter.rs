//! Hierarchical filtering: coarse (4-parameter) and fine (full) tests.
//!
//! Phase 1 reads only position + max scale (16 B) and conservatively tests
//! the projected disc against the tile (55 MACs). Phase 2 fetches the
//! compressed remainder, projects precisely (427 MACs), and keeps only
//! Gaussians whose exact footprint overlaps the tile (paper Sec. III-B).

use gs_core::camera::Camera;
use gs_core::ewa::{CoarseProjection, Projector};
use gs_core::sym::Sym2;
use gs_core::vec::{Vec2, Vec3};
use gs_scene::Gaussian;

/// A tile's pixel-space rectangle `[x0, x1) × [y0, y1)`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TileRect {
    pub x0: f32,
    pub y0: f32,
    pub x1: f32,
    pub y1: f32,
}

impl TileRect {
    /// Builds the rect of tile `(tx, ty)` with `tile` pixel granularity,
    /// clipped to the `width`×`height` frame.
    pub fn of_tile(tx: u32, ty: u32, tile: u32, width: u32, height: u32) -> TileRect {
        TileRect {
            x0: (tx * tile) as f32,
            y0: (ty * tile) as f32,
            x1: ((tx + 1) * tile).min(width) as f32,
            y1: ((ty + 1) * tile).min(height) as f32,
        }
    }

    /// The rect's pixel bounds as half-open integer ranges
    /// `[x0, x1) × [y0, y1)`, clamped to a `width`×`height` frame.
    ///
    /// `x1`/`y1` are rounded **up** so a fractional rect never loses its
    /// last pixel column/row. Rects built by [`TileRect::of_tile`] are
    /// integer-valued, where this is exact; the streaming renderer walks
    /// these integer bounds instead of comparing a counter against the
    /// `f32` edges in its hot loop (which would drift once coordinates
    /// exceed `f32`'s exact-integer range).
    pub fn pixel_bounds(&self, width: u32, height: u32) -> (u32, u32, u32, u32) {
        let lo = |v: f32| v.max(0.0) as u32;
        let hi = |v: f32, max: u32| (v.ceil().max(0.0) as u32).min(max);
        (
            lo(self.x0).min(width),
            lo(self.y0).min(height),
            hi(self.x1, width),
            hi(self.y1, height),
        )
    }

    /// `true` when a disc (`center`, `radius`) overlaps the rect.
    ///
    /// The rect is half-open (`[x0, x1) × [y0, y1)`): a disc touching only
    /// the excluded right/bottom edge does **not** overlap. (The seed
    /// clamped to the closed rect, so such discs leaked through the coarse
    /// filter while the rect's pixels — centred at `x0 + 0.5 … x1 - 0.5` —
    /// belong to the neighbouring tile.)
    pub fn overlaps_disc(&self, center: Vec2, radius: f32) -> bool {
        let cx = center.x.clamp(self.x0, self.x1);
        let cy = center.y.clamp(self.y0, self.y1);
        let dx = center.x - cx;
        let dy = center.y - cy;
        let d2 = dx * dx + dy * dy;
        let r2 = radius * radius;
        if d2 > r2 {
            return false;
        }
        if d2 == r2 && d2 > 0.0 {
            // Tangency: the disc meets the closed rect only at the clamped
            // contact point — which counts only when it lies in the
            // half-open domain (covers the diagonal corner graze the
            // edge-extent checks below cannot see).
            return cx < self.x1 && cy < self.y1;
        }
        // Half-open exclusion: the disc must extend strictly left of `x1`
        // and strictly above `y1` to reach any point of the rect.
        center.x - radius < self.x1 && center.y - radius < self.y1
    }
}

/// Phase-1 result: the Gaussian may intersect the tile.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CoarsePass {
    /// Projected centre (pixels).
    pub mean_px: Vec2,
    /// Conservative radius (pixels).
    pub radius_px: f32,
    /// Camera-space depth.
    pub depth: f32,
}

/// Coarse filter: 4 parameters only. `None` = culled.
///
/// One-shot form of [`FilterCamera::coarse_test`].
pub fn coarse_test(cam: &Camera, pos: Vec3, s_max: f32, rect: &TileRect) -> Option<CoarsePass> {
    FilterCamera::new(cam).coarse_test(pos, s_max, rect)
}

/// Phase-2 result: everything the sorter/renderer needs for one Gaussian.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FineSplat {
    /// Projected mean (pixels).
    pub mean_px: Vec2,
    /// Inverse 2-D covariance.
    pub conic: Sym2,
    /// View-dependent RGB.
    pub color: Vec3,
    /// Opacity.
    pub opacity: f32,
    /// Camera-space depth.
    pub depth: f32,
    /// Exact screen radius (pixels).
    pub radius_px: f32,
}

/// Fine filter: full parameters, precise projection + exact tile test.
/// `None` = culled (see [`FilterCamera::fine_test`]).
///
/// One-shot form of [`FilterCamera::fine_test`].
pub fn fine_test(cam: &Camera, g: &Gaussian, rect: &TileRect, sh_degree: u8) -> Option<FineSplat> {
    FilterCamera::new(cam).fine_test(g, rect, sh_degree)
}

/// The per-camera constants of both filter phases — the projection's
/// Jacobian clamp ([`Projector`]) and the camera centre the fine phase's
/// view direction starts from — computed once per frame instead of once
/// per Gaussian. The free [`coarse_test`]/[`fine_test`] build one per
/// call.
#[derive(Copy, Clone, Debug)]
pub struct FilterCamera {
    proj: Projector,
    center: Vec3,
}

impl FilterCamera {
    /// Derives `cam`'s filter constants.
    pub fn new(cam: &Camera) -> FilterCamera {
        FilterCamera {
            proj: Projector::new(cam),
            center: cam.pose.center(),
        }
    }

    /// The camera these constants belong to.
    pub fn camera(&self) -> &Camera {
        self.proj.camera()
    }

    /// Coarse filter: 4 parameters only. `None` = culled. The composition
    /// of the per-camera [`FilterCamera::coarse_projection`] and the
    /// per-tile [`TileRect::overlaps_disc`].
    pub fn coarse_test(&self, pos: Vec3, s_max: f32, rect: &TileRect) -> Option<CoarsePass> {
        let p = self.coarse_projection(pos, s_max)?;
        rect.overlaps_disc(p.mean_px, p.radius_px)
            .then_some(CoarsePass {
                mean_px: p.mean_px,
                radius_px: p.radius_px,
                depth: p.depth,
            })
    }

    /// The tile-independent half of [`FilterCamera::coarse_test`]: the
    /// coarse projection of `(pos, s_max)` through this camera, `None`
    /// when it is culled whatever the tile. A pure function of the camera
    /// and the four inputs, so a caller may reuse its result for every
    /// tile of a frame.
    pub fn coarse_projection(&self, pos: Vec3, s_max: f32) -> Option<CoarseProjection> {
        let p = self.proj.coarse(pos, s_max)?;
        // Corrupted inputs (a blind-read page with flipped bits decodes to
        // arbitrary floats) must not leak a NaN/∞ disc downstream; finite
        // projections — every uncorrupted Gaussian — are unaffected.
        (p.mean_px.x.is_finite() && p.mean_px.y.is_finite() && p.radius_px.is_finite()).then_some(p)
    }

    /// Fine filter: full parameters, precise projection + exact tile test.
    /// `None` = culled (the coarse disc overlapped but the true ellipse
    /// does not, e.g. Gaussian 3 in paper Fig. 5).
    ///
    /// The intersection test uses the projected ellipse's per-axis 3σ
    /// extents (`3·√Σxx`, `3·√Σyy`) — strictly tighter than the coarse disc
    /// of radius `3·√λmax`, which is what makes the second filtering phase
    /// worthwhile.
    pub fn fine_test(&self, g: &Gaussian, rect: &TileRect, sh_degree: u8) -> Option<FineSplat> {
        let p = self.proj.full(g.pos, g.cov3d())?;
        let rx = 3.0 * p.cov2d.a.max(0.0).sqrt();
        let ry = 3.0 * p.cov2d.c.max(0.0).sqrt();
        // Half-open rect: the left/top edges are inclusive (`+ext < x0`
        // culls), the right/bottom edges exclusive (`-ext >= x1` culls).
        // The seed used `> rect.x1`, so a splat touching only the excluded
        // right/bottom edge passed the fine filter while `overlaps_disc`
        // (closed at the time) agreed — both now share the half-open
        // contract.
        if p.mean_px.x + rx < rect.x0
            || p.mean_px.x - rx >= rect.x1
            || p.mean_px.y + ry < rect.y0
            || p.mean_px.y - ry >= rect.y1
        {
            return None;
        }
        // Non-finite geometry, opacity or colour (possible only from
        // corrupted or degraded records) would poison every pixel it blends
        // into — NaN compares false against the alpha/saturation
        // thresholds. Cull here; finite splats are untouched.
        if !(p.mean_px.x.is_finite()
            && p.mean_px.y.is_finite()
            && rx.is_finite()
            && ry.is_finite()
            && p.depth.is_finite()
            && g.opacity.is_finite())
        {
            return None;
        }
        let dir = (g.pos - self.center).normalized();
        let color = gs_core::sh::eval_color(&g.sh, dir, sh_degree);
        if !(color.x.is_finite() && color.y.is_finite() && color.z.is_finite()) {
            return None;
        }
        Some(FineSplat {
            mean_px: p.mean_px,
            conic: p.conic,
            color,
            opacity: g.opacity,
            depth: p.depth,
            radius_px: p.radius_px,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gs_core::Quat;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 128, 96, 1.0)
    }

    fn center_rect() -> TileRect {
        // The 16×16 tile containing the principal point (64, 48).
        TileRect {
            x0: 48.0,
            y0: 32.0,
            x1: 80.0,
            y1: 64.0,
        }
    }

    #[test]
    fn rect_disc_overlap_cases() {
        let r = TileRect {
            x0: 0.0,
            y0: 0.0,
            x1: 16.0,
            y1: 16.0,
        };
        assert!(r.overlaps_disc(Vec2::new(8.0, 8.0), 1.0), "inside");
        assert!(r.overlaps_disc(Vec2::new(-2.0, 8.0), 3.0), "left edge");
        assert!(!r.overlaps_disc(Vec2::new(-5.0, 8.0), 3.0), "too far left");
        assert!(r.overlaps_disc(Vec2::new(18.0, 18.0), 3.0), "corner");
        assert!(!r.overlaps_disc(Vec2::new(20.0, 20.0), 3.0), "past corner");
    }

    #[test]
    fn disc_touching_only_excluded_edges_misses() {
        // Half-open rect [0,16)×[0,16): discs whose closest approach is
        // exactly the right or bottom edge must not overlap, while the
        // inclusive left/top edges still count.
        let r = TileRect {
            x0: 0.0,
            y0: 0.0,
            x1: 16.0,
            y1: 16.0,
        };
        // Touching exactly x = x1 from the right: excluded.
        assert!(!r.overlaps_disc(Vec2::new(19.0, 8.0), 3.0), "right edge");
        // Touching exactly y = y1 from below: excluded.
        assert!(!r.overlaps_disc(Vec2::new(8.0, 19.0), 3.0), "bottom edge");
        // Touching exactly the excluded corner point (16,16): excluded.
        assert!(
            !r.overlaps_disc(Vec2::new(16.0, 19.0), 3.0),
            "corner via bottom"
        );
        // Diagonal tangency at the excluded corner: contact point is
        // exactly (16,16) via a 3-4-5 triangle — excluded.
        assert!(
            !r.overlaps_disc(Vec2::new(19.0, 20.0), 5.0),
            "diagonal corner graze"
        );
        // The same diagonal tangency at the *included* top-left corner.
        assert!(
            r.overlaps_disc(Vec2::new(-3.0, -4.0), 5.0),
            "included corner tangency"
        );
        // A hair inside still overlaps.
        assert!(r.overlaps_disc(Vec2::new(18.99, 8.0), 3.0), "just inside");
        // The inclusive left/top edges keep closed semantics.
        assert!(r.overlaps_disc(Vec2::new(-3.0, 8.0), 3.0), "left edge");
        assert!(r.overlaps_disc(Vec2::new(8.0, -3.0), 3.0), "top edge");
    }

    #[test]
    fn of_tile_clips_to_frame() {
        let r = TileRect::of_tile(7, 5, 16, 120, 90);
        assert_eq!(r.x1, 120.0);
        assert_eq!(r.y1, 90.0);
    }

    #[test]
    fn coarse_passes_center_gaussian() {
        let c = cam();
        let p = coarse_test(&c, Vec3::ZERO, 0.1, &center_rect());
        assert!(p.is_some());
        let p = p.unwrap();
        assert!(p.depth > 0.0);
        assert!(p.radius_px > 0.0);
    }

    #[test]
    fn coarse_culls_far_offscreen_gaussian() {
        let c = cam();
        // Project onto a tile far from the centre: tiny Gaussian at the
        // frame centre cannot touch a corner tile.
        let corner = TileRect {
            x0: 0.0,
            y0: 0.0,
            x1: 16.0,
            y1: 16.0,
        };
        assert!(coarse_test(&c, Vec3::ZERO, 0.01, &corner).is_none());
        // Behind the camera is culled outright.
        assert!(coarse_test(&c, Vec3::new(0.0, 0.0, -10.0), 0.1, &corner).is_none());
    }

    #[test]
    fn coarse_is_conservative_wrt_fine() {
        // Whenever the fine test passes, the coarse test must also pass
        // (with s_max ≥ every true scale). Sweep positions and shapes.
        let c = cam();
        let rect = center_rect();
        for i in 0..100 {
            let t = i as f32 / 100.0;
            let mut g = Gaussian::isotropic(
                Vec3::new(t - 0.5, 0.4 * t - 0.2, t * 0.6),
                0.05,
                Vec3::ONE,
                0.9,
            );
            g.scale = Vec3::new(0.02 + 0.1 * t, 0.07, 0.12 * (1.0 - t) + 0.01);
            g.rot = Quat::from_axis_angle(Vec3::new(1.0, t, 0.3), 2.0 * t);
            let fine = fine_test(&c, &g, &rect, 3);
            if fine.is_some() {
                assert!(
                    coarse_test(&c, g.pos, g.max_scale(), &rect).is_some(),
                    "coarse filter wrongly culled a visible Gaussian (i={i})"
                );
            }
        }
    }

    #[test]
    fn fine_culls_what_coarse_keeps() {
        // An elongated Gaussian whose conservative disc hits the tile but
        // whose true narrow ellipse does not: coarse passes, fine culls.
        // World y = −0.6 projects *below* the image centre (v ≈ 62), so the
        // bottom-centre tile is the one the disc grazes.
        let c = cam();
        let rect = TileRect {
            x0: 48.0,
            y0: 80.0,
            x1: 80.0,
            y1: 96.0,
        };
        let mut g = Gaussian::isotropic(Vec3::new(0.0, -0.6, 0.0), 0.02, Vec3::ONE, 0.9);
        // Long axis along x (horizontal), far below the tile vertically.
        g.scale = Vec3::new(0.55, 0.01, 0.01);
        let coarse = coarse_test(&c, g.pos, g.max_scale(), &rect);
        let fine = fine_test(&c, &g, &rect, 3);
        assert!(coarse.is_some(), "conservative disc should reach the tile");
        assert!(fine.is_none(), "precise ellipse must not");
    }

    #[test]
    fn fine_test_half_open_tile_edges() {
        // Build a rect whose excluded right edge sits exactly at the
        // splat's leftmost 3σ extent: the splat touches only x = x1, so the
        // half-open fine test must cull it (the seed's `> x1` kept it).
        use gs_core::ewa::project_gaussian;
        let c = cam();
        let g = Gaussian::isotropic(Vec3::ZERO, 0.1, Vec3::ONE, 0.9);
        let p = project_gaussian(&c, g.pos, g.cov3d()).unwrap();
        let rx = 3.0 * p.cov2d.a.max(0.0).sqrt();
        let ry = 3.0 * p.cov2d.c.max(0.0).sqrt();

        let touching_right = TileRect {
            x0: p.mean_px.x - rx - 32.0,
            y0: p.mean_px.y - 8.0,
            x1: p.mean_px.x - rx,
            y1: p.mean_px.y + 8.0,
        };
        assert!(
            fine_test(&c, &g, &touching_right, 3).is_none(),
            "splat grazing only the excluded right edge must be culled"
        );
        let just_past = TileRect {
            x1: p.mean_px.x - rx + 0.25,
            ..touching_right
        };
        assert!(
            fine_test(&c, &g, &just_past, 3).is_some(),
            "splat reaching past the right edge must survive"
        );

        // The left edge is inclusive: a splat whose rightmost extent ends
        // exactly at x0 still belongs to this tile.
        let touching_left = TileRect {
            x0: p.mean_px.x + rx,
            y0: p.mean_px.y - 8.0,
            x1: p.mean_px.x + rx + 32.0,
            y1: p.mean_px.y + 8.0,
        };
        assert!(
            fine_test(&c, &g, &touching_left, 3).is_some(),
            "splat touching the inclusive left edge must survive"
        );

        // Same contract vertically.
        let touching_bottom = TileRect {
            x0: p.mean_px.x - 8.0,
            y0: p.mean_px.y - ry - 32.0,
            x1: p.mean_px.x + 8.0,
            y1: p.mean_px.y - ry,
        };
        assert!(
            fine_test(&c, &g, &touching_bottom, 3).is_none(),
            "splat grazing only the excluded bottom edge must be culled"
        );
    }

    #[test]
    fn fine_splat_carries_color_and_depth() {
        let c = cam();
        let g = Gaussian::isotropic(Vec3::ZERO, 0.1, Vec3::new(0.9, 0.1, 0.2), 0.7);
        let s = fine_test(&c, &g, &center_rect(), 3).unwrap();
        assert!((s.color - Vec3::new(0.9, 0.1, 0.2)).length() < 1e-4);
        assert!((s.depth - 5.0).abs() < 0.01);
        assert_eq!(s.opacity, 0.7);
    }
}
