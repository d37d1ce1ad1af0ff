//! Analytic forward/backward splatting: exact gradients of the image loss
//! with respect to scale, rotation, opacity and SH coefficients.
//!
//! Positions are **not** differentiated — the paper's fine-tuning keeps
//! Gaussian positions fixed to preserve scene geometry (Sec. III-B), which
//! also means the projected mean, the Jacobian `M = J·W` and the SH viewing
//! direction are constants per (Gaussian, camera).
//!
//! The backward pass follows the reference 3DGS recomputation scheme: the
//! forward pass stores, per pixel, the final transmittance and the index of
//! the last blended splat; the backward pass walks each pixel's list in
//! reverse, recovering `Tᵢ` by division and accumulating the suffix colour.
//! Every formula here is validated against central finite differences in
//! the test suite.

use gs_core::camera::Camera;
use gs_core::ewa::{covariance3d, ProjectionFull, Projector};
use gs_core::image::ImageRgb;
use gs_core::mat::Mat3;
use gs_core::sh;
use gs_core::vec::{Vec2, Vec3};
use gs_render::binning::bin_and_sort;
use gs_render::projection::{support_bbox, tile_grid, tile_rect_of, Splat};
use gs_render::{ALPHA_EPS, ALPHA_MAX, TILE_SIZE, TRANSMITTANCE_EPS};
use gs_scene::GaussianCloud;
use serde::{Deserialize, Serialize};

/// Image loss flavour.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean absolute error (the 3DGS `L1` term; the paper's `L_origin`
    /// without the D-SSIM component, see DESIGN.md §2).
    L1,
    /// Mean squared error (smooth — used by the finite-difference tests).
    L2,
}

/// Differentiable-render configuration.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiffConfig {
    /// Loss flavour.
    pub loss: Loss,
    /// SH degree.
    pub sh_degree: u8,
    /// Background colour.
    pub background: Vec3,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            loss: Loss::L1,
            sh_degree: 3,
            background: Vec3::ZERO,
        }
    }
}

/// Gradient of the loss with respect to one Gaussian's trainable parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaussGrad {
    /// d loss / d scale.
    pub scale: Vec3,
    /// d loss / d rotation quaternion `[w, x, y, z]`.
    pub rot: [f32; 4],
    /// d loss / d opacity.
    pub opacity: f32,
    /// d loss / d SH coefficients.
    #[serde(with = "serde_sh")]
    pub sh: [f32; sh::SH_COEFFS],
}

// The vendored offline serde stub ignores `#[serde(with = ...)]`, leaving
// these adapters unreferenced; they are kept for real-serde compatibility.
#[allow(dead_code)]
mod serde_sh {
    use gs_core::sh::SH_COEFFS;
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &[f32; SH_COEFFS], s: S) -> Result<S::Ok, S::Error> {
        v.as_slice().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<[f32; SH_COEFFS], D::Error> {
        let v = Vec::<f32>::deserialize(d)?;
        v.try_into()
            .map_err(|v: Vec<f32>| D::Error::invalid_length(v.len(), &"48 floats"))
    }
}

impl Default for GaussGrad {
    fn default() -> Self {
        GaussGrad {
            scale: Vec3::ZERO,
            rot: [0.0; 4],
            opacity: 0.0,
            sh: [0.0; sh::SH_COEFFS],
        }
    }
}

/// Output of one differentiable render.
#[derive(Clone, Debug)]
pub struct DiffOutput {
    /// The rendered image (identical to the plain renderer's output).
    pub image: ImageRgb,
    /// Scalar loss value.
    pub loss: f64,
    /// Per-Gaussian gradients, indexed like the input cloud.
    pub grads: Vec<GaussGrad>,
}

/// Per-projected-splat accumulator gathered over pixels.
#[derive(Copy, Clone, Debug, Default)]
struct SplatAcc {
    d_conic: [f32; 3],
    d_color: Vec3,
    d_opacity: f32,
}

/// Per-splat constants cached at projection time.
struct ProjCache {
    gi: u32,
    proj: ProjectionFull,
    basis: [f32; sh::SH_BASIS],
    pre_clamp: Vec3,
    rot_mat: Mat3,
}

/// Renders `cloud` from `cam` and returns the loss against `target` plus
/// analytic gradients for every Gaussian.
///
/// # Panics
///
/// Panics when `target` dimensions differ from the camera's.
pub fn render_with_gradients(
    cloud: &GaussianCloud,
    cam: &Camera,
    target: &ImageRgb,
    cfg: &DiffConfig,
) -> DiffOutput {
    assert_eq!(
        (target.width(), target.height()),
        (cam.width(), cam.height()),
        "target image must match the camera resolution"
    );
    let width = cam.width();
    let height = cam.height();
    let (tiles_x, tiles_y) = tile_grid(width, height);
    let cam_center = cam.pose.center();
    let n_basis = ((cfg.sh_degree as usize) + 1) * ((cfg.sh_degree as usize) + 1);

    // ---- projection with caches -----------------------------------------
    let mut splats: Vec<Splat> = Vec::new();
    let mut caches: Vec<ProjCache> = Vec::new();
    let projector = Projector::new(cam);
    for (gi, g) in cloud.iter().enumerate() {
        let Some(proj) = projector.full(g.pos, covariance3d(g.scale, g.rot)) else {
            continue;
        };
        let Some(tile_rect) = tile_rect_of(proj.mean_px, proj.radius_px, tiles_x, tiles_y) else {
            continue;
        };
        let dir = (g.pos - cam_center).normalized();
        let basis = sh::eval_basis(dir);
        let mut pre = Vec3::splat(0.5);
        for (k, b) in basis.iter().take(n_basis).enumerate() {
            pre.x += b * g.sh[3 * k];
            pre.y += b * g.sh[3 * k + 1];
            pre.z += b * g.sh[3 * k + 2];
        }
        let color = pre.max(Vec3::ZERO);
        splats.push(Splat {
            mean_px: proj.mean_px,
            conic: proj.conic,
            color,
            opacity: g.opacity,
            depth: proj.depth,
            tile_rect,
            bbox_px: support_bbox(proj.mean_px, proj.cov2d, g.opacity),
        });
        caches.push(ProjCache {
            gi: gi as u32,
            proj,
            basis,
            pre_clamp: pre,
            rot_mat: g.rot.to_rotation(),
        });
    }

    let (keys, ranges) = bin_and_sort(&splats, tiles_x, tiles_y);

    // ---- forward + backward per tile -------------------------------------
    let n_px = (width as u64 * height as u64) as f64;
    let loss_norm = 1.0 / (n_px * 3.0);
    let mut image = ImageRgb::new(width, height);
    let mut loss = 0.0f64;
    let mut accs: Vec<SplatAcc> = vec![SplatAcc::default(); splats.len()];

    let n = TILE_SIZE as usize;
    let n_tiles = (tiles_x * tiles_y) as usize;
    #[allow(clippy::needless_range_loop)]
    for t in 0..n_tiles {
        let (r0, r1) = ranges[t];
        let ox = (t as u32 % tiles_x) * TILE_SIZE;
        let oy = (t as u32 / tiles_x) * TILE_SIZE;

        // Forward.
        let mut color = vec![Vec3::ZERO; n * n];
        let mut trans = vec![1.0f32; n * n];
        let mut last = vec![r0; n * n]; // one past the last blended key index
        for ly in 0..n {
            for lx in 0..n {
                let px = ox + lx as u32;
                let py = oy + ly as u32;
                if px >= width || py >= height {
                    continue;
                }
                let pi = ly * n + lx;
                let pc = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let mut tcur = 1.0f32;
                let mut c = Vec3::ZERO;
                for ki in r0..r1 {
                    let s = &splats[keys[ki as usize].splat as usize];
                    let d = Vec2::new(pc.x - s.mean_px.x, pc.y - s.mean_px.y);
                    let alpha = (s.opacity * gs_core::ewa::falloff(s.conic, d)).min(ALPHA_MAX);
                    if alpha < ALPHA_EPS {
                        continue;
                    }
                    c += s.color * (alpha * tcur);
                    tcur *= 1.0 - alpha;
                    last[pi] = ki + 1;
                    if tcur < TRANSMITTANCE_EPS {
                        break;
                    }
                }
                color[pi] = c + cfg.background * tcur;
                trans[pi] = tcur;
                image.set(px, py, color[pi]);

                // Loss + upstream gradient.
                let tgt = target.get(px, py);
                let diff = color[pi] - tgt;
                let (l, dldc) = match cfg.loss {
                    Loss::L1 => (
                        (diff.x.abs() + diff.y.abs() + diff.z.abs()) as f64,
                        Vec3::new(diff.x.signum(), diff.y.signum(), diff.z.signum())
                            * loss_norm as f32,
                    ),
                    Loss::L2 => (
                        (diff.x * diff.x + diff.y * diff.y + diff.z * diff.z) as f64,
                        diff * (2.0 * loss_norm as f32),
                    ),
                };
                loss += l * loss_norm;

                // Backward for this pixel: walk blended splats in reverse.
                let mut tafter = trans[pi];
                let mut suffix = cfg.background * trans[pi];
                for ki in (r0..last[pi]).rev() {
                    let si = keys[ki as usize].splat as usize;
                    let s = &splats[si];
                    let d = Vec2::new(pc.x - s.mean_px.x, pc.y - s.mean_px.y);
                    let w = gs_core::ewa::falloff(s.conic, d);
                    let alpha_raw = s.opacity * w;
                    let alpha = alpha_raw.min(ALPHA_MAX);
                    if alpha < ALPHA_EPS {
                        continue;
                    }
                    let tbefore = tafter / (1.0 - alpha);
                    // dL/dα and dL/dc.
                    let dl_dalpha = dldc.x * (s.color.x * tbefore - suffix.x / (1.0 - alpha))
                        + dldc.y * (s.color.y * tbefore - suffix.y / (1.0 - alpha))
                        + dldc.z * (s.color.z * tbefore - suffix.z / (1.0 - alpha));
                    let at = alpha * tbefore;
                    let acc = &mut accs[si];
                    acc.d_color += dldc * at;
                    // α clamp: zero gradient when pinned at ALPHA_MAX.
                    if alpha_raw < ALPHA_MAX {
                        acc.d_opacity += w * dl_dalpha;
                        let dl_dw = s.opacity * dl_dalpha;
                        acc.d_conic[0] += dl_dw * (-0.5 * d.x * d.x) * w;
                        acc.d_conic[1] += dl_dw * (-d.x * d.y) * w;
                        acc.d_conic[2] += dl_dw * (-0.5 * d.y * d.y) * w;
                    }
                    suffix += s.color * at;
                    tafter = tbefore;
                }
            }
        }
    }

    // ---- per-splat chain: conic → cov2d → Σ3D → (s, q); colour → SH -------
    let mut grads: Vec<GaussGrad> = vec![GaussGrad::default(); cloud.len()];
    for (si, cache) in caches.iter().enumerate() {
        let acc = &accs[si];
        let g = &cloud.as_slice()[cache.gi as usize];
        let out = &mut grads[cache.gi as usize];

        // Colour → SH (clamp mask per channel; the +0.5 offset has unit
        // derivative).
        for ch in 0..3 {
            let pre = cache.pre_clamp[ch];
            if pre <= 0.0 {
                continue;
            }
            let dc = acc.d_color[ch];
            for (k, b) in cache.basis.iter().take(n_basis).enumerate() {
                out.sh[3 * k + ch] += b * dc;
            }
        }
        out.opacity += acc.d_opacity;

        // conic = inverse(cov2d): closed-form derivatives.
        let (da, db, dc_) = (acc.d_conic[0], acc.d_conic[1], acc.d_conic[2]);
        if da == 0.0 && db == 0.0 && dc_ == 0.0 {
            continue;
        }
        let cov = cache.proj.cov2d;
        let (ca, cb, cc) = (cov.a, cov.b, cov.c);
        let det = ca * cc - cb * cb;
        let inv_det2 = 1.0 / (det * det);
        // a' = C/D, b' = −B/D, c' = A/D (primes: conic entries).
        let d_ca = (-cc * cc * da + cb * cc * db - cb * cb * dc_) * inv_det2;
        let d_cb =
            (2.0 * cb * cc * da + (-det - 2.0 * cb * cb) * db + 2.0 * ca * cb * dc_) * inv_det2;
        let d_cc = (-cb * cb * da + ca * cb * db - ca * ca * dc_) * inv_det2;

        // cov2d (A,B,C) → Σ3D (6 params, q-form convention). Dilation is
        // additive and passes gradients through.
        let m1 = cache.proj.m1;
        let m2 = cache.proj.m2;
        let pair = |u: Vec3, v: Vec3, a: usize, b: usize| -> f32 {
            if a == b {
                u[a] * v[a]
            } else {
                u[a] * v[b] + u[b] * v[a]
            }
        };
        // 6 params ordered (xx, xy, xz, yy, yz, zz) with index pairs:
        const PAIRS: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
        let mut d_sigma = [0.0f32; 6];
        for (p, (a, b)) in PAIRS.iter().enumerate() {
            // dA/dΣ_ab: q-form coefficient of Σ_ab in m1ᵀΣm1.
            let ka = if a == b {
                m1[*a] * m1[*b]
            } else {
                2.0 * m1[*a] * m1[*b]
            };
            let kb = pair(m1, m2, *a, *b);
            let kc = if a == b {
                m2[*a] * m2[*b]
            } else {
                2.0 * m2[*a] * m2[*b]
            };
            d_sigma[p] = d_ca * ka + d_cb * kb + d_cc * kc;
        }

        // Σ3D → (scale, rotation): Σ_ab = Σ_k s_k² R_ak R_bk.
        let r = &cache.rot_mat;
        let s = g.scale;
        let mut d_rot_mat = [[0.0f32; 3]; 3];
        for (p, (a, b)) in PAIRS.iter().enumerate() {
            let gp = d_sigma[p];
            if gp == 0.0 {
                continue;
            }
            for k in 0..3 {
                let sk = s[k];
                out.scale[k] += gp * 2.0 * sk * r.m[*a][k] * r.m[*b][k];
                let sk2 = sk * sk;
                if a == b {
                    d_rot_mat[*a][k] += gp * 2.0 * sk2 * r.m[*a][k];
                } else {
                    d_rot_mat[*a][k] += gp * sk2 * r.m[*b][k];
                    d_rot_mat[*b][k] += gp * sk2 * r.m[*a][k];
                }
            }
        }

        // Rotation matrix → quaternion (through normalization).
        let dq = rot_matrix_backward(g.rot.normalized(), &d_rot_mat);
        let qn = g.rot.normalized();
        let norm = g.rot.norm().max(1e-12);
        let dot = qn.w * dq[0] + qn.x * dq[1] + qn.y * dq[2] + qn.z * dq[3];
        out.rot[0] += (dq[0] - qn.w * dot) / norm;
        out.rot[1] += (dq[1] - qn.x * dot) / norm;
        out.rot[2] += (dq[2] - qn.y * dot) / norm;
        out.rot[3] += (dq[3] - qn.z * dot) / norm;
    }

    DiffOutput { image, loss, grads }
}

/// Backprop through `R(q)` for a unit quaternion: given `dL/dR`, returns
/// `dL/d(w,x,y,z)`.
fn rot_matrix_backward(q: gs_core::Quat, dr: &[[f32; 3]; 3]) -> [f32; 4] {
    let (w, x, y, z) = (q.w, q.x, q.y, q.z);
    // ∂R/∂w, ∂R/∂x, ∂R/∂y, ∂R/∂z for the unit-quaternion rotation matrix.
    let dw = [
        [0.0, -2.0 * z, 2.0 * y],
        [2.0 * z, 0.0, -2.0 * x],
        [-2.0 * y, 2.0 * x, 0.0],
    ];
    let dx = [
        [0.0, 2.0 * y, 2.0 * z],
        [2.0 * y, -4.0 * x, -2.0 * w],
        [2.0 * z, 2.0 * w, -4.0 * x],
    ];
    let dy = [
        [-4.0 * y, 2.0 * x, 2.0 * w],
        [2.0 * x, 0.0, 2.0 * z],
        [-2.0 * w, 2.0 * z, -4.0 * y],
    ];
    let dz = [
        [-4.0 * z, -2.0 * w, 2.0 * x],
        [2.0 * w, -4.0 * z, 2.0 * y],
        [2.0 * x, 2.0 * y, 0.0],
    ];
    let contract = |d: &[[f32; 3]; 3]| -> f32 {
        let mut acc = 0.0;
        for a in 0..3 {
            for b in 0..3 {
                acc += dr[a][b] * d[a][b];
            }
        }
        acc
    };
    [contract(&dw), contract(&dx), contract(&dy), contract(&dz)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::Quat;
    use gs_scene::Gaussian;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, -4.0), Vec3::ZERO, Vec3::Y, 48, 32, 1.0)
    }

    fn small_cloud() -> GaussianCloud {
        let mut c = GaussianCloud::new();
        let mut g0 = Gaussian::isotropic(
            Vec3::new(-0.3, 0.1, 0.0),
            0.15,
            Vec3::new(0.8, 0.3, 0.2),
            0.7,
        );
        g0.scale = Vec3::new(0.22, 0.12, 0.08);
        g0.rot = Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.7);
        g0.sh[5] = 0.1;
        let mut g1 = Gaussian::isotropic(
            Vec3::new(0.3, -0.1, 0.4),
            0.2,
            Vec3::new(0.2, 0.6, 0.9),
            0.5,
        );
        g1.scale = Vec3::new(0.1, 0.25, 0.15);
        g1.rot = Quat::from_axis_angle(Vec3::new(1.0, -0.2, 0.5), -0.4);
        g1.sh[14] = -0.08;
        let g2 = Gaussian::isotropic(
            Vec3::new(0.0, 0.25, -0.3),
            0.12,
            Vec3::new(0.5, 0.5, 0.1),
            0.85,
        );
        c.push(g0);
        c.push(g1);
        c.push(g2);
        c
    }

    fn target() -> ImageRgb {
        // A fixed non-trivial target: horizontal colour ramp.
        let mut img = ImageRgb::new(48, 32);
        for y in 0..32 {
            for x in 0..48 {
                img.set(x, y, Vec3::new(x as f32 / 48.0, 0.3, y as f32 / 32.0));
            }
        }
        img
    }

    fn loss_of(cloud: &GaussianCloud) -> f64 {
        let cfg = DiffConfig {
            loss: Loss::L2,
            ..Default::default()
        };
        render_with_gradients(cloud, &cam(), &target(), &cfg).loss
    }

    /// Central finite difference on one scalar parameter.
    fn fd(cloud: &GaussianCloud, mutate: impl Fn(&mut GaussianCloud, f32), h: f32) -> f64 {
        let mut plus = cloud.clone();
        mutate(&mut plus, h);
        let mut minus = cloud.clone();
        mutate(&mut minus, -h);
        (loss_of(&plus) - loss_of(&minus)) / (2.0 * h as f64)
    }

    fn check(analytic: f32, numeric: f64, what: &str) {
        let a = analytic as f64;
        let tol = 1e-3 * a.abs().max(numeric.abs()).max(1e-4);
        assert!(
            (a - numeric).abs() < tol.max(2e-4),
            "{what}: analytic {a} vs numeric {numeric}"
        );
    }

    #[test]
    fn forward_matches_plain_renderer() {
        use gs_render::{RenderConfig, TileRenderer};
        let cloud = small_cloud();
        let c = cam();
        let plain = TileRenderer::new(RenderConfig {
            threads: 1,
            ..Default::default()
        })
        .render(&cloud, &c);
        let diff = render_with_gradients(&cloud, &c, &target(), &DiffConfig::default());
        let psnr = diff.image.psnr(&plain.image);
        assert!(
            psnr > 70.0 || psnr.is_infinite(),
            "forward diverged: {psnr}"
        );
    }

    #[test]
    fn opacity_gradients_match_finite_differences() {
        let cloud = small_cloud();
        let out = render_with_gradients(
            &cloud,
            &cam(),
            &target(),
            &DiffConfig {
                loss: Loss::L2,
                ..Default::default()
            },
        );
        for gi in 0..cloud.len() {
            let num = fd(&cloud, |c, h| c.as_mut_slice()[gi].opacity += h, 1e-3);
            check(out.grads[gi].opacity, num, &format!("opacity[{gi}]"));
        }
    }

    #[test]
    fn sh_gradients_match_finite_differences() {
        let cloud = small_cloud();
        let out = render_with_gradients(
            &cloud,
            &cam(),
            &target(),
            &DiffConfig {
                loss: Loss::L2,
                ..Default::default()
            },
        );
        for gi in 0..cloud.len() {
            for idx in [0usize, 1, 2, 5, 14, 30] {
                let num = fd(&cloud, |c, h| c.as_mut_slice()[gi].sh[idx] += h, 1e-3);
                check(out.grads[gi].sh[idx], num, &format!("sh[{gi}][{idx}]"));
            }
        }
    }

    #[test]
    fn scale_gradients_match_finite_differences() {
        let cloud = small_cloud();
        let out = render_with_gradients(
            &cloud,
            &cam(),
            &target(),
            &DiffConfig {
                loss: Loss::L2,
                ..Default::default()
            },
        );
        for gi in 0..cloud.len() {
            for axis in 0..3 {
                let num = fd(&cloud, |c, h| c.as_mut_slice()[gi].scale[axis] += h, 1e-4);
                check(
                    out.grads[gi].scale[axis],
                    num,
                    &format!("scale[{gi}][{axis}]"),
                );
            }
        }
    }

    #[test]
    fn rotation_gradients_match_finite_differences() {
        let cloud = small_cloud();
        let out = render_with_gradients(
            &cloud,
            &cam(),
            &target(),
            &DiffConfig {
                loss: Loss::L2,
                ..Default::default()
            },
        );
        for gi in 0..cloud.len() {
            for comp in 0..4 {
                let num = fd(
                    &cloud,
                    |c, h| {
                        let g = &mut c.as_mut_slice()[gi];
                        let mut q = g.rot.to_array();
                        q[comp] += h;
                        g.rot = Quat::from_array(q);
                    },
                    1e-4,
                );
                check(out.grads[gi].rot[comp], num, &format!("rot[{gi}][{comp}]"));
            }
        }
    }

    #[test]
    fn zero_loss_when_target_is_render() {
        let cloud = small_cloud();
        let c = cam();
        let cfg = DiffConfig {
            loss: Loss::L2,
            ..Default::default()
        };
        let self_target = render_with_gradients(&cloud, &c, &target(), &cfg).image;
        let out = render_with_gradients(&cloud, &c, &self_target, &cfg);
        assert!(out.loss < 1e-12, "loss against own render: {}", out.loss);
        // All gradients vanish at the optimum.
        let max_grad: f32 = out
            .grads
            .iter()
            .map(|g| {
                g.opacity
                    .abs()
                    .max(g.scale.abs().max_component())
                    .max(g.rot.iter().fold(0.0f32, |a, v| a.max(v.abs())))
            })
            .fold(0.0, f32::max);
        assert!(max_grad < 1e-6, "gradients at optimum: {max_grad}");
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let cloud = small_cloud();
        let cfg = DiffConfig {
            loss: Loss::L2,
            ..Default::default()
        };
        let out = render_with_gradients(&cloud, &cam(), &target(), &cfg);
        // Take a tiny step against the gradient on opacity + SH.
        let mut stepped = cloud.clone();
        let lr = 0.5;
        for (g, gr) in stepped.iter_mut().zip(&out.grads) {
            g.opacity = (g.opacity - lr * gr.opacity).clamp(0.01, 0.99);
            for i in 0..sh::SH_COEFFS {
                g.sh[i] -= lr * gr.sh[i];
            }
        }
        let after = render_with_gradients(&stepped, &cam(), &target(), &cfg);
        assert!(
            after.loss < out.loss,
            "step increased loss: {} -> {}",
            out.loss,
            after.loss
        );
    }
}
