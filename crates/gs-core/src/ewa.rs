//! EWA splatting primitives: covariance construction and projection.
//!
//! These functions implement the projection stage of 3DGS (paper Fig. 2):
//! building the world-space covariance `Σ = R S Sᵀ Rᵀ` from scale and
//! rotation, projecting it through the local affine (Jacobian) approximation
//! of the perspective map, and deriving the screen-space conic used by the
//! rasterizer — plus the 4-parameter *coarse* projection the hierarchical
//! filter uses ([`project_coarse`], paper Sec. III-B).

use crate::camera::Camera;
use crate::mat::Mat3;
use crate::quat::Quat;
use crate::sym::{Sym2, Sym3};
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// Low-pass dilation added to the projected covariance diagonal, exactly as
/// in the 3DGS reference implementation (ensures every splat covers at least
/// ~one pixel and keeps the conic invertible).
pub const COV2D_DILATION: f32 = 0.3;

/// Screen radius multiplier: splats are rasterized out to 3σ.
pub const RADIUS_SIGMAS: f32 = 3.0;

/// Builds the 3-D covariance `R · diag(s)² · Rᵀ` of a Gaussian.
///
/// ```
/// use gs_core::ewa::covariance3d;
/// use gs_core::quat::Quat;
/// use gs_core::vec::Vec3;
/// let cov = covariance3d(Vec3::new(0.1, 0.2, 0.3), Quat::IDENTITY);
/// assert!((cov.xx - 0.01).abs() < 1e-6);
/// assert!((cov.yy - 0.04).abs() < 1e-6);
/// ```
pub fn covariance3d(scale: Vec3, rotation: Quat) -> Sym3 {
    let r = rotation.to_rotation();
    let s2 = Sym3::diagonal(scale.hadamard(scale));
    s2.congruence(&r)
}

/// The result of a full (fine-grained) EWA projection.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Projected {
    /// Screen-space mean in pixels.
    pub mean_px: Vec2,
    /// Camera-space depth (distance along the optical axis).
    pub depth: f32,
    /// Projected 2-D covariance (after dilation).
    pub cov2d: Sym2,
    /// Inverse of `cov2d` — the conic evaluated per pixel.
    pub conic: Sym2,
    /// Conservative screen radius in pixels (3σ of the major axis).
    pub radius_px: f32,
}

/// The result of the coarse-grained (4-parameter) projection used by the
/// first phase of hierarchical filtering (paper Sec. III-B).
///
/// Only the position and the maximum scale are available, so the radius is a
/// conservative over-estimate: an isotropic Gaussian of scale `s_max` can
/// never project smaller than the true anisotropic one projects larger.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoarseProjection {
    /// Screen-space centre in pixels.
    pub mean_px: Vec2,
    /// Camera-space depth.
    pub depth: f32,
    /// Conservative screen radius in pixels.
    pub radius_px: f32,
}

/// A full projection result including the affine map rows — everything the
/// analytic backward pass (crate `gs-tune`) needs to chain gradients from
/// the 2-D conic back to the 3-D covariance.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProjectionFull {
    /// Screen-space mean in pixels.
    pub mean_px: Vec2,
    /// Camera-space depth.
    pub depth: f32,
    /// Projected 2-D covariance (after dilation).
    pub cov2d: Sym2,
    /// Inverse of `cov2d`.
    pub conic: Sym2,
    /// Conservative screen radius (3σ of the major axis).
    pub radius_px: f32,
    /// First row of `M = J·W` (the affine covariance map).
    pub m1: Vec3,
    /// Second row of `M = J·W`.
    pub m2: Vec3,
}

/// The per-camera constants of the EWA projection, computed once per
/// camera instead of once per Gaussian: the Jacobian clamp
/// `1.3·tan(fov/2)` per axis costs an `atan` and a `tan` each, more than
/// the whole coarse projection it feeds.
///
/// [`Projector::full`] and [`Projector::coarse`] are the only
/// implementations of the fine and coarse projections;
/// [`project_gaussian_full`], [`project_gaussian`] and [`project_coarse`]
/// build a `Projector` per call.
#[derive(Copy, Clone, Debug)]
pub struct Projector {
    cam: Camera,
    /// Horizontal Jacobian clamp, `1.3·tan(fov_x/2)`.
    lim_x: f32,
    /// Vertical Jacobian clamp, `1.3·tan(fov_y/2)`.
    lim_y: f32,
}

impl Projector {
    /// Derives `cam`'s projection constants.
    pub fn new(cam: &Camera) -> Projector {
        let intr = &cam.intrinsics;
        // Clamp the off-axis position used by the Jacobian, as 3DGS does, to
        // keep the affine approximation stable near the frustum edges.
        Projector {
            cam: *cam,
            lim_x: 1.3 * (intr.fov_x() * 0.5).tan(),
            lim_y: 1.3 * (intr.fov_y() * 0.5).tan(),
        }
    }

    /// The camera these constants belong to.
    pub fn camera(&self) -> &Camera {
        &self.cam
    }

    /// Projects a Gaussian and returns the full detail (see
    /// [`ProjectionFull`] and [`project_gaussian_full`]).
    pub fn full(&self, pos: Vec3, cov3d: Sym3) -> Option<ProjectionFull> {
        let cam = &self.cam;
        let t = cam.world_to_camera(pos);
        if t.z <= 0.01 {
            return None;
        }

        let intr = &cam.intrinsics;
        let (lim_x, lim_y) = (self.lim_x, self.lim_y);
        let txz = (t.x / t.z).clamp(-lim_x, lim_x) * t.z;
        let tyz = (t.y / t.z).clamp(-lim_y, lim_y) * t.z;

        let inv_z = 1.0 / t.z;
        let inv_z2 = inv_z * inv_z;
        // Rows of the 2×3 Jacobian J, padded to 3×3 (third row zero).
        let j = Mat3::from_rows(
            [intr.fx * inv_z, 0.0, -intr.fx * txz * inv_z2],
            [0.0, intr.fy * inv_z, -intr.fy * tyz * inv_z2],
            [0.0, 0.0, 0.0],
        );
        let w = cam.pose.rotation;
        let m = j * w;
        let full = cov3d.congruence(&m);
        let cov2d = Sym2::new(full.xx + COV2D_DILATION, full.xy, full.yy + COV2D_DILATION);

        let conic = cov2d.inverse()?;
        if !conic.is_finite() {
            return None;
        }
        let (lmax, _) = cov2d.eigenvalues();
        let radius_px = (RADIUS_SIGMAS * lmax.max(0.0).sqrt()).ceil();

        let mean_px = Vec2::new(
            intr.fx * t.x * inv_z + intr.cx,
            intr.fy * t.y * inv_z + intr.cy,
        );
        Some(ProjectionFull {
            mean_px,
            depth: t.z,
            cov2d,
            conic,
            radius_px,
            m1: m.row(0),
            m2: m.row(1),
        })
    }

    /// Coarse 4-parameter projection (see [`project_coarse`]).
    pub fn coarse(&self, pos: Vec3, s_max: f32) -> Option<CoarseProjection> {
        let cam = &self.cam;
        let t = cam.world_to_camera(pos);
        if t.z <= 0.01 {
            return None;
        }
        let intr = &cam.intrinsics;
        let inv_z = 1.0 / t.z;
        let mean_px = Vec2::new(
            intr.fx * t.x * inv_z + intr.cx,
            intr.fy * t.y * inv_z + intr.cy,
        );
        // Same clamped off-axis terms as the fine path's Jacobian.
        let u = (t.x * inv_z).clamp(-self.lim_x, self.lim_x); // tx/z
        let v = (t.y * inv_z).clamp(-self.lim_y, self.lim_y); // ty/z
        let a = (intr.fx * inv_z) * (intr.fx * inv_z) * (1.0 + u * u); // ‖j₁‖²
        let b = (intr.fy * inv_z) * (intr.fy * inv_z) * (1.0 + v * v); // ‖j₂‖²
        let c = (intr.fx * inv_z) * (intr.fy * inv_z) * u * v; // j₁·j₂
        let sigma_px = s_max * (a.max(b) + c.abs()).sqrt();
        let radius_px = (RADIUS_SIGMAS * (sigma_px * sigma_px + COV2D_DILATION).sqrt()).ceil();
        Some(CoarseProjection {
            mean_px,
            depth: t.z,
            radius_px,
        })
    }
}

/// Projects a Gaussian and returns the full detail (see [`ProjectionFull`]).
///
/// One-shot form of [`Projector::full`]; loops over many Gaussians should
/// build one [`Projector`] per camera.
pub fn project_gaussian_full(cam: &Camera, pos: Vec3, cov3d: Sym3) -> Option<ProjectionFull> {
    Projector::new(cam).full(pos, cov3d)
}

/// Projects a Gaussian (position + 3-D covariance) through `cam`.
///
/// Returns `None` when the Gaussian is behind the near plane or its projected
/// covariance degenerates; such Gaussians are culled exactly as in 3DGS.
pub fn project_gaussian(cam: &Camera, pos: Vec3, cov3d: Sym3) -> Option<Projected> {
    let p = Projector::new(cam).full(pos, cov3d)?;
    Some(Projected {
        mean_px: p.mean_px,
        depth: p.depth,
        cov2d: p.cov2d,
        conic: p.conic,
        radius_px: p.radius_px,
    })
}

/// Coarse 4-parameter projection: position plus maximum scale only.
///
/// This is the computation the paper's coarse-grained filter unit performs
/// (55 MACs instead of 427): project the centre and conservatively bound
/// the projected radius. An isotropic Gaussian of scale `s` projects to a
/// 2-D covariance `s²·J Jᵀ`, so the radius bound needs the largest singular
/// value of the Jacobian `J` — which *exceeds* `f/z` off-axis. We use the
/// provable bound `σ_max(J)² ≤ max(‖j₁‖², ‖j₂‖²) + |j₁·j₂|` (the largest
/// eigenvalue of the 2×2 Gram matrix is at most its largest diagonal entry
/// plus the off-diagonal magnitude), which keeps the filter conservative
/// for any position in the frustum. With the Jacobian clamp taken from a
/// per-camera [`Projector`], [`Projector::coarse`] is a ~20-MAC
/// computation per Gaussian; this one-shot wrapper also pays for the
/// clamp's `atan`/`tan`.
pub fn project_coarse(cam: &Camera, pos: Vec3, s_max: f32) -> Option<CoarseProjection> {
    Projector::new(cam).coarse(pos, s_max)
}

/// Gaussian falloff weight at pixel offset `d` from the projected mean:
/// `exp(-½ dᵀ conic d)`, or 0 when the power is positive (numerically
/// invalid), mirroring the reference rasterizer.
pub fn falloff(conic: Sym2, d: Vec2) -> f32 {
    falloff_from_power(falloff_power(conic, d))
}

/// The exponent of [`falloff`]: `-½ dᵀ conic d`.
pub fn falloff_power(conic: Sym2, d: Vec2) -> f32 {
    -0.5 * conic.quadratic_form(d)
}

/// Completes [`falloff`] from a precomputed [`falloff_power`] exponent.
pub fn falloff_from_power(power: f32) -> f32 {
    if power > 0.0 {
        return 0.0;
    }
    power.exp()
}

/// Column-hoisted conic evaluation for lane-wise blenders.
///
/// Over a splat's pixel box the quadratic form
/// `a·dx² + 2b·dx·dy + c·dy²` splits into a per-column part (`(a·dx)·dx`
/// and `(2b)·dx`, filled once per splat by [`Self::fill`]) and a per-row
/// part (`dy` and `(c·dy)·dy`, taken once per row by [`Self::row`]).
/// [`FalloffRow::power_at`] adds them in the same association order as
/// [`Sym2::quadratic_form`] (`((a·dx)·dx + ((2b)·dx)·dy) + (c·dy)·dy`), so
/// every power is **bit-identical** to the scalar
/// `falloff_power(conic, Vec2::new(dx, dy))`: the tables cache identical
/// subtree evaluations and never re-associate them. (A forward-differenced
/// quadratic would be cheaper still, but its running sums round
/// differently and break byte-exactness.)
///
/// The table keeps its capacity across splats, so a warm blender fills
/// it without allocating.
#[derive(Clone, Debug, Default)]
pub struct FalloffColumns {
    /// `[(a·dx)·dx, (2b)·dx]` per column, side by side so one bounds
    /// check and one cache line serve both.
    cols: Vec<[f32; 2]>,
    /// The conic's `c`, for the per-row term.
    c: f32,
}

impl FalloffColumns {
    /// Fills the column table of `conic` for the pixel-centre offsets
    /// `dxs` (column `j` of the box is the `j`-th offset).
    pub fn fill(&mut self, conic: Sym2, dxs: impl IntoIterator<Item = f32>) {
        let tb = 2.0 * conic.b;
        self.cols.clear();
        for dx in dxs {
            self.cols.push([conic.a * dx * dx, tb * dx]);
        }
        self.c = conic.c;
    }

    /// The row at vertical offset `dy` from the splat mean.
    #[inline]
    pub fn row(&self, dy: f32) -> FalloffRow<'_> {
        FalloffRow {
            cols: &self.cols,
            dy,
            cyy: (self.c * dy) * dy,
        }
    }

    /// Grows the table to at least `peer`'s capacity.
    pub fn reserve_like(&mut self, peer: &FalloffColumns) {
        self.cols
            .reserve_exact(peer.cols.capacity().saturating_sub(self.cols.len()));
    }
}

/// One row of a [`FalloffColumns`] box.
#[derive(Copy, Clone, Debug)]
pub struct FalloffRow<'a> {
    cols: &'a [[f32; 2]],
    dy: f32,
    cyy: f32,
}

impl FalloffRow<'_> {
    /// `falloff_power(conic, Vec2::new(dx_j, dy))` for column `j`,
    /// bit-identically.
    #[inline(always)]
    pub fn power_at(self, j: usize) -> f32 {
        let [adx2, tbdx] = self.cols[j];
        -0.5 * (adx2 + tbdx * self.dy + self.cyy)
    }
}

/// Safety margin of [`cull_power_threshold`], in nats. Far larger than the
/// combined rounding error of `ln` and `exp` (a few ulps), far smaller than
/// the spacing of interesting power values.
pub const CULL_MARGIN: f32 = 0.0625;

/// Power threshold below which `opacity * falloff` is **guaranteed** to be
/// below `alpha_eps`, so a blender may skip the pixel without evaluating
/// `exp` — taking exactly the branch the scalar code takes at its
/// `alpha < alpha_eps` test.
///
/// Conservative by construction: `power < ln(alpha_eps/opacity) − margin`
/// implies `exp(power) < (alpha_eps/opacity)·e^−margin`, and the margin
/// absorbs every rounding error in `ln`/`exp`/the final multiply. Edge
/// cases degrade to "never cull" or "always cull" soundly: a negative
/// `opacity` yields a NaN threshold (every `<` comparison false — the
/// caller's exact path handles it), while a zero or denormal-positive
/// `opacity` yields `+∞` (always cull — correct, since
/// `alpha ≤ opacity < alpha_eps` already).
pub fn cull_power_threshold(opacity: f32, alpha_eps: f32) -> f32 {
    (alpha_eps / opacity).ln() - CULL_MARGIN
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn test_cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            640,
            480,
            std::f32::consts::FRAC_PI_2,
        )
    }

    #[test]
    fn covariance_of_isotropic_gaussian_is_isotropic() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.3), 0.8);
        let cov = covariance3d(Vec3::splat(0.2), q);
        // Rotation must not change an isotropic covariance.
        assert!(approx_eq(cov.xx, 0.04, 1e-5));
        assert!(approx_eq(cov.yy, 0.04, 1e-5));
        assert!(approx_eq(cov.zz, 0.04, 1e-5));
        assert!(cov.xy.abs() < 1e-6 && cov.xz.abs() < 1e-6 && cov.yz.abs() < 1e-6);
    }

    #[test]
    fn covariance_is_psd_for_random_params() {
        let q = Quat::new(0.4, -0.3, 0.7, 0.2);
        let cov = covariance3d(Vec3::new(0.5, 0.01, 0.2), q);
        assert!(cov.is_positive_semidefinite(1e-6));
    }

    #[test]
    fn projection_centers_on_projected_mean() {
        let cam = test_cam();
        let pos = Vec3::new(0.4, -0.2, 0.3);
        let proj = project_gaussian(&cam, pos, Sym3::diagonal(Vec3::splat(0.01))).unwrap();
        let (px, depth) = cam.project(pos).unwrap();
        assert!((proj.mean_px - px).length() < 1e-3);
        assert!(approx_eq(proj.depth, depth, 1e-5));
    }

    #[test]
    fn behind_camera_is_culled() {
        let cam = test_cam();
        let behind = cam.pose.center() - cam.pose.forward();
        assert!(project_gaussian(&cam, behind, Sym3::IDENTITY).is_none());
        assert!(project_coarse(&cam, behind, 0.1).is_none());
    }

    #[test]
    fn conic_inverts_cov2d() {
        let cam = test_cam();
        let cov = covariance3d(Vec3::new(0.1, 0.05, 0.2), Quat::new(0.9, 0.1, 0.3, -0.2));
        let proj = project_gaussian(&cam, Vec3::new(0.2, 0.1, 0.0), cov).unwrap();
        let prod_det = proj.cov2d.det() * proj.conic.det();
        assert!(approx_eq(prod_det, 1.0, 1e-3));
    }

    #[test]
    fn coarse_radius_bounds_fine_radius() {
        // The coarse filter must be conservative: its radius always covers
        // the precise projected extent.
        let cam = test_cam();
        for i in 0..50 {
            let t = i as f32 / 50.0;
            let scale = Vec3::new(0.02 + 0.1 * t, 0.05, 0.15 * (1.0 - t) + 0.01);
            let q = Quat::from_axis_angle(Vec3::new(t, 1.0 - t, 0.5), t * 3.0);
            let pos = Vec3::new(t - 0.5, 0.3 * t, t * 0.8 - 0.2);
            let cov = covariance3d(scale, q);
            let fine = project_gaussian(&cam, pos, cov).unwrap();
            let coarse = project_coarse(&cam, pos, scale.max_component()).unwrap();
            assert!(
                coarse.radius_px + 1.0 >= fine.radius_px,
                "coarse {} < fine {} at i={}",
                coarse.radius_px,
                fine.radius_px,
                i
            );
        }
    }

    #[test]
    fn full_projection_rows_reproduce_cov2d() {
        // Recomputing A = m1ᵀΣm1 etc. from the exposed rows must reproduce
        // the projected covariance (minus dilation) — the invariant the
        // backward pass relies on.
        let cam = test_cam();
        let cov = covariance3d(Vec3::new(0.2, 0.07, 0.11), Quat::new(0.8, 0.2, -0.4, 0.1));
        let p = project_gaussian_full(&cam, Vec3::new(0.3, -0.2, 0.5), cov).unwrap();
        let q = |u: Vec3, v: Vec3| -> f32 {
            let m = cov.to_mat3();
            (m * v).dot(u)
        };
        assert!(approx_eq(p.cov2d.a - COV2D_DILATION, q(p.m1, p.m1), 1e-3));
        assert!(approx_eq(p.cov2d.b, q(p.m1, p.m2), 1e-3));
        assert!(approx_eq(p.cov2d.c - COV2D_DILATION, q(p.m2, p.m2), 1e-3));
    }

    #[test]
    fn falloff_is_one_at_center_and_decays() {
        let conic = Sym2::new(0.5, 0.0, 0.5);
        assert!(approx_eq(falloff(conic, Vec2::ZERO), 1.0, 1e-6));
        let near = falloff(conic, Vec2::new(1.0, 0.0));
        let far = falloff(conic, Vec2::new(3.0, 0.0));
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn column_falloff_is_bit_identical_to_scalar() {
        // The column/row-hoisted evaluation must reproduce the scalar
        // falloff to the last bit over a grid of offsets — this is what
        // lets the lane-wise blenders keep byte-identical images.
        let conics = [
            Sym2::new(0.5, 0.0, 0.5),
            Sym2::new(1.7, -0.3, 0.9),
            Sym2::new(0.02, 0.013, 3.5),
            Sym2::new(123.0, 45.0, 67.0),
            Sym2::new(3.0e-4, -2.5e-4, 7.5e-4),
        ];
        let dxs: Vec<f32> = (-9..=9).map(|ix| ix as f32 * 1.21 + 0.5).collect();
        let mut cols = FalloffColumns::default();
        for conic in conics {
            cols.fill(conic, dxs.iter().copied());
            for iy in -7..=7 {
                let dy = iy as f32 * 0.83 + 0.5;
                let row = cols.row(dy);
                for (j, &dx) in dxs.iter().enumerate() {
                    let d = Vec2::new(dx, dy);
                    let scalar = falloff_power(conic, d);
                    let hoisted = row.power_at(j);
                    assert_eq!(
                        scalar.to_bits(),
                        hoisted.to_bits(),
                        "column-hoisted power diverged at d={d:?} conic={conic:?}"
                    );
                    assert_eq!(
                        falloff(conic, d).to_bits(),
                        falloff_from_power(hoisted).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn cull_threshold_is_conservative() {
        let alpha_eps = 1.0 / 255.0;
        for &opacity in &[1.0f32, 0.99, 0.5, 0.1, 0.004, 1e-6] {
            let thr = cull_power_threshold(opacity, alpha_eps);
            // Any power below the threshold must yield alpha < eps — walk a
            // band just under it.
            for i in 1..100 {
                let power = thr - i as f32 * 0.01;
                if power < thr {
                    let alpha = opacity * falloff_from_power(power);
                    assert!(
                        alpha < alpha_eps,
                        "culled power {power} gave alpha {alpha} >= {alpha_eps} \
                         (opacity {opacity})"
                    );
                }
            }
        }
    }

    #[test]
    fn cull_threshold_degrades_on_hostile_opacity() {
        let alpha_eps = 1.0 / 255.0;
        // Negative opacity: NaN threshold — `power < thr` always false,
        // so the caller falls through to the exact path.
        let thr = cull_power_threshold(-0.5, alpha_eps);
        assert!(thr.is_nan(), "threshold must be NaN, got {thr}");
        // Zero or denormal-positive opacity: +inf threshold — always cull,
        // and that is correct because alpha <= opacity < eps everywhere.
        let tiny = f32::from_bits(1);
        for &opacity in &[0.0f32, tiny] {
            assert_eq!(cull_power_threshold(opacity, alpha_eps), f32::INFINITY);
            assert!(opacity * 1.0 < alpha_eps);
        }
    }

    #[test]
    fn bigger_scale_bigger_radius() {
        let cam = test_cam();
        let small = project_gaussian(
            &cam,
            Vec3::ZERO,
            covariance3d(Vec3::splat(0.05), Quat::IDENTITY),
        )
        .unwrap();
        let large = project_gaussian(
            &cam,
            Vec3::ZERO,
            covariance3d(Vec3::splat(0.5), Quat::IDENTITY),
        )
        .unwrap();
        assert!(large.radius_px > small.radius_px);
    }

    #[test]
    fn closer_gaussian_projects_larger() {
        let cam = test_cam();
        let cov = covariance3d(Vec3::splat(0.1), Quat::IDENTITY);
        let near = project_gaussian(&cam, Vec3::new(0.0, 0.0, -2.0), cov).unwrap();
        let far = project_gaussian(&cam, Vec3::new(0.0, 0.0, 3.0), cov).unwrap();
        assert!(near.radius_px > far.radius_px);
        assert!(near.depth < far.depth);
    }
}
