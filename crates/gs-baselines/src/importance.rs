//! Per-Gaussian importance estimation over a set of training views.

use gs_core::camera::Camera;
use gs_core::ewa::Projector;
use gs_scene::GaussianCloud;

/// Estimates each Gaussian's contribution across `views`.
///
/// The score is the sum over views of `opacity × min(projected area, cap)`
/// for visible Gaussians — the screen-space mass the Gaussian can contribute,
/// which is the quantity both Mini-Splatting's and LightGaussian's
/// importance/significance measures are built around (we omit their
/// transmittance weighting, which requires a full training run).
pub fn view_importance(cloud: &GaussianCloud, views: &[Camera]) -> Vec<f64> {
    let mut scores = vec![0.0f64; cloud.len()];
    // Cap the projected radius so a handful of huge floaters cannot dominate.
    const RADIUS_CAP: f32 = 64.0;
    for cam in views {
        let projector = Projector::new(cam);
        for (i, g) in cloud.iter().enumerate() {
            let Some(p) = projector.full(g.pos, g.cov3d()) else {
                continue;
            };
            // Skip fully off-screen Gaussians.
            let w = cam.width() as f32;
            let h = cam.height() as f32;
            if p.mean_px.x + p.radius_px < 0.0
                || p.mean_px.y + p.radius_px < 0.0
                || p.mean_px.x - p.radius_px > w
                || p.mean_px.y - p.radius_px > h
            {
                continue;
            }
            let r = p.radius_px.min(RADIUS_CAP);
            scores[i] += (g.opacity * r * r) as f64;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::vec::Vec3;
    use gs_scene::Gaussian;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 128, 96, 1.0)
    }

    #[test]
    fn visible_gaussian_scores_higher_than_hidden() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(Vec3::ZERO, 0.1, Vec3::ONE, 0.9)); // visible
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, -20.0),
            0.1,
            Vec3::ONE,
            0.9,
        )); // behind
        let s = view_importance(&cloud, &[cam()]);
        assert!(s[0] > 0.0);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn opacity_scales_importance() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(
            Vec3::new(-0.3, 0.0, 0.0),
            0.1,
            Vec3::ONE,
            0.9,
        ));
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.3, 0.0, 0.0),
            0.1,
            Vec3::ONE,
            0.09,
        ));
        let s = view_importance(&cloud, &[cam()]);
        assert!(s[0] > 5.0 * s[1]);
    }

    #[test]
    fn more_views_more_score() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(Vec3::ZERO, 0.1, Vec3::ONE, 0.9));
        let one = view_importance(&cloud, &[cam()]);
        let two = view_importance(&cloud, &[cam(), cam()]);
        assert!((two[0] - 2.0 * one[0]).abs() < 1e-9);
    }
}
