//! Rendering stage: per-tile front-to-back alpha blending.
//!
//! The optimized rasterizer clips each splat's pixel loop to the
//! intersection of its screen-space support rectangle
//! ([`crate::projection::Splat::bbox_px`]) with the tile, instead of
//! scanning all `TILE_SIZE × TILE_SIZE` pixels per splat as the seed
//! pipeline did. The bbox is conservative — every excluded pixel is
//! guaranteed below [`ALPHA_EPS`] — so the blend state, image and every
//! counter are bit-identical to a full-tile scan.

use crate::binning::TileKey;
use crate::projection::Splat;
use crate::{ALPHA_EPS, ALPHA_MAX, TILE_SIZE, TRANSMITTANCE_EPS};
use gs_core::ewa::FalloffColumns;
use gs_core::vec::Vec3;

/// Per-tile rasterization counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TileOutcome {
    /// Blend operations executed.
    pub fragments: u64,
    /// Fragments evaluated inside a splat's support rectangle but below the
    /// alpha threshold. (Pixels outside the support are *proven* below
    /// threshold and are neither evaluated nor counted, so the count does
    /// not depend on the clipping.)
    pub skipped: u64,
    /// Pixels that exhausted transmittance before the list ended.
    pub early_terminated: u64,
    /// Sorted-list entries actually fetched before the tile finished (early
    /// termination lets a tile stop reading its list — this is the quantity
    /// the rendering stage's DRAM reads scale with).
    pub consumed_entries: u64,
}

/// Reusable per-tile blend state (transmittance + early-termination flags,
/// plus the current splat's falloff column tables), owned by the frame
/// arena so steady-state rendering allocates nothing.
#[derive(Clone, Debug)]
pub struct TileScratch {
    /// Per-pixel remaining transmittance.
    pub transmittance: Vec<f32>,
    /// Per-pixel "saturated or off-screen" flag.
    pub done: Vec<bool>,
    /// The current splat's per-column falloff terms.
    pub cols: FalloffColumns,
}

impl Default for TileScratch {
    fn default() -> Self {
        let n = (TILE_SIZE * TILE_SIZE) as usize;
        TileScratch {
            transmittance: vec![1.0; n],
            done: vec![false; n],
            cols: FalloffColumns::default(),
        }
    }
}

impl TileScratch {
    /// Fresh scratch for one tile.
    pub fn new() -> TileScratch {
        TileScratch::default()
    }
}

/// Converts one axis of a support rectangle `[lo, hi]` to the inclusive
/// range of pixel *indices* whose centres (`p + 0.5`) fall inside it.
/// Saturating casts make infinite bboxes degrade to full scans.
#[inline]
fn pixel_span(lo: f32, hi: f32) -> (i64, i64) {
    ((lo - 0.5).ceil() as i64, (hi - 0.5).floor() as i64)
}

/// Blends one tile's sorted splat list into `out` (a row-major
/// `TILE_SIZE × TILE_SIZE` RGB buffer), returning the counters.
///
/// `origin` is the tile's top-left pixel; `width`/`height` clip partial
/// edge tiles. The blend is the exact 3DGS forward model:
/// `C = Σ cᵢ αᵢ Tᵢ`, `Tᵢ₊₁ = Tᵢ (1 − αᵢ)`, early-out at
/// [`TRANSMITTANCE_EPS`]. Per splat, only the pixels inside
/// `bbox_px ∩ tile` are visited.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_tile(
    splats: &[Splat],
    keys: &[TileKey],
    range: (u32, u32),
    origin: (u32, u32),
    width: u32,
    height: u32,
    background: Vec3,
    scratch: &mut TileScratch,
    out: &mut [Vec3],
) -> TileOutcome {
    debug_assert_eq!(out.len(), (TILE_SIZE * TILE_SIZE) as usize);
    let mut outcome = TileOutcome::default();
    let n = TILE_SIZE as usize;

    // Per-pixel transmittance; colour accumulates in `out`.
    let transmittance = &mut scratch.transmittance[..];
    let done = &mut scratch.done[..];
    let cols = &mut scratch.cols;
    transmittance.fill(1.0);
    done.fill(false);
    let mut live = (width.saturating_sub(origin.0)).min(TILE_SIZE) as u64
        * (height.saturating_sub(origin.1)).min(TILE_SIZE) as u64;

    out.fill(Vec3::ZERO);
    // Off-screen pixels of partial tiles never participate.
    for ly in 0..n {
        for lx in 0..n {
            let px = origin.0 + lx as u32;
            let py = origin.1 + ly as u32;
            if px >= width || py >= height {
                done[ly * n + lx] = true;
            }
        }
    }

    'splat_loop: for ki in range.0..range.1 {
        outcome.consumed_entries += 1;
        let s = &splats[keys[ki as usize].splat as usize];

        // Clip the pixel loop to the splat's support ∩ this tile. Pixels
        // outside the support are provably below ALPHA_EPS (see
        // `projection::support_bbox`), so skipping them changes no state.
        let (gx0, gx1) = pixel_span(s.bbox_px.0, s.bbox_px.2);
        let (gy0, gy1) = pixel_span(s.bbox_px.1, s.bbox_px.3);
        let lx0 = gx0.max(origin.0 as i64) - origin.0 as i64;
        let lx1 = gx1.min(origin.0 as i64 + n as i64 - 1) - origin.0 as i64;
        let ly0 = gy0.max(origin.1 as i64) - origin.1 as i64;
        let ly1 = gy1.min(origin.1 as i64 + n as i64 - 1) - origin.1 as i64;
        if lx0 > lx1 || ly0 > ly1 {
            continue;
        }

        // Margin-backed power threshold: any pixel whose Gaussian power
        // falls below it is *proven* to blend at alpha < ALPHA_EPS, so the
        // `exp` can be skipped while the `skipped` counter still advances
        // exactly as the evaluate-then-compare path would.
        let cull = gs_core::ewa::cull_power_threshold(s.opacity, ALPHA_EPS);
        let (lx0, lx1) = (lx0 as usize, lx1 as usize);
        cols.fill(
            s.conic,
            (lx0..=lx1).map(|lx| (origin.0 + lx as u32) as f32 + 0.5 - s.mean_px.x),
        );
        for ly in ly0 as usize..=ly1 as usize {
            let row = ly * n;
            let py = (origin.1 + ly as u32) as f32 + 0.5;
            let rowf = cols.row(py - s.mean_px.y);
            for lx in lx0..=lx1 {
                let pi = row + lx;
                if done[pi] {
                    continue;
                }
                let power = rowf.power_at(lx - lx0);
                if power < cull {
                    outcome.skipped += 1;
                    continue;
                }
                let alpha = (s.opacity * gs_core::ewa::falloff_from_power(power)).min(ALPHA_MAX);
                if alpha < ALPHA_EPS {
                    outcome.skipped += 1;
                    continue;
                }
                let t = transmittance[pi];
                out[pi] += s.color * (alpha * t);
                transmittance[pi] = t * (1.0 - alpha);
                outcome.fragments += 1;
                if transmittance[pi] < TRANSMITTANCE_EPS {
                    done[pi] = true;
                    outcome.early_terminated += 1;
                    live -= 1;
                    if live == 0 {
                        break 'splat_loop;
                    }
                }
            }
        }
    }

    // Composite the background through the remaining transmittance.
    for ly in 0..n {
        for lx in 0..n {
            let pi = ly * n + lx;
            let px = origin.0 + lx as u32;
            let py = origin.1 + ly as u32;
            if px < width && py < height {
                out[pi] += background * transmittance[pi];
            }
        }
    }
    outcome
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::projection::{support_bbox, FULL_BBOX};
    use gs_core::sym::Sym2;

    fn tight_splat(x: f32, y: f32, color: Vec3, opacity: f32, depth: f32) -> Splat {
        // Very tight conic → only the centre pixel sees meaningful alpha.
        let conic = Sym2::new(8.0, 0.0, 8.0);
        let cov2d = conic.inverse().unwrap();
        let mean_px = gs_core::vec::Vec2::new(x, y);
        Splat {
            mean_px,
            conic,
            color,
            opacity,
            depth,
            tile_rect: (0, 0, 0, 0),
            bbox_px: support_bbox(mean_px, cov2d, opacity),
        }
    }

    fn run(splats: &[Splat], background: Vec3) -> (Vec<Vec3>, TileOutcome) {
        let keys: Vec<TileKey> = {
            let mut ks: Vec<TileKey> = splats
                .iter()
                .enumerate()
                .map(|(i, s)| TileKey {
                    key: crate::binning::depth_bits(s.depth) as u64,
                    splat: i as u32,
                })
                .collect();
            ks.sort_unstable_by_key(|k| k.key);
            ks
        };
        let mut out = vec![Vec3::ZERO; (TILE_SIZE * TILE_SIZE) as usize];
        let mut scratch = TileScratch::new();
        let o = rasterize_tile(
            splats,
            &keys,
            (0, keys.len() as u32),
            (0, 0),
            TILE_SIZE,
            TILE_SIZE,
            background,
            &mut scratch,
            &mut out,
        );
        (out, o)
    }

    #[test]
    fn empty_tile_is_background() {
        let bg = Vec3::new(0.1, 0.2, 0.3);
        let (out, o) = run(&[], bg);
        assert!(out.iter().all(|p| (*p - bg).length() < 1e-6));
        assert_eq!(o.fragments, 0);
    }

    #[test]
    fn opaque_splat_dominates_its_pixel() {
        let s = tight_splat(8.5, 8.5, Vec3::new(1.0, 0.0, 0.0), 0.99, 1.0);
        let (out, o) = run(std::slice::from_ref(&s), Vec3::ZERO);
        let center = out[8 * TILE_SIZE as usize + 8];
        assert!(center.x > 0.9, "center {center}");
        assert!(o.fragments > 0);
    }

    #[test]
    fn front_to_back_order_matters() {
        // A near-opaque red in front of a green: pixel should be mostly red
        // regardless of submission order (sorting fixes it).
        let red = tight_splat(8.5, 8.5, Vec3::new(1.0, 0.0, 0.0), 0.95, 1.0);
        let green = tight_splat(8.5, 8.5, Vec3::new(0.0, 1.0, 0.0), 0.95, 2.0);
        let (a, _) = run(&[red, green], Vec3::ZERO);
        let (b, _) = run(&[green, red], Vec3::ZERO);
        let pa = a[8 * TILE_SIZE as usize + 8];
        let pb = b[8 * TILE_SIZE as usize + 8];
        assert!(
            (pa - pb).length() < 1e-6,
            "sorting should make order irrelevant"
        );
        assert!(pa.x > pa.y, "red should dominate");
    }

    #[test]
    fn transmittance_monotonically_reduces_background() {
        let s = tight_splat(8.5, 8.5, Vec3::ZERO, 0.9, 1.0);
        let bg = Vec3::ONE;
        let (out, _) = run(std::slice::from_ref(&s), bg);
        let center = out[8 * TILE_SIZE as usize + 8];
        // Black splat at alpha≈0.9 over a white background → ≈0.1 white left.
        assert!(center.x < 0.2);
        let corner = out[0];
        assert!((corner - bg).length() < 0.05, "far corner nearly untouched");
    }

    #[test]
    fn early_termination_counts() {
        // Many opaque splats on the same pixel: it must terminate early.
        let splats: Vec<Splat> = (0..20)
            .map(|i| tight_splat(8.5, 8.5, Vec3::ONE, 0.99, 1.0 + i as f32))
            .collect();
        let (_, o) = run(&splats, Vec3::ZERO);
        assert!(o.early_terminated >= 1);
    }

    #[test]
    fn partial_tile_clips_offscreen_pixels() {
        let s = tight_splat(2.5, 2.5, Vec3::ONE, 0.9, 1.0);
        let keys = [TileKey { key: 0, splat: 0 }];
        let mut out = vec![Vec3::ZERO; (TILE_SIZE * TILE_SIZE) as usize];
        let mut scratch = TileScratch::new();
        // Frame is only 4×4 pixels.
        let o = rasterize_tile(
            std::slice::from_ref(&s),
            &keys,
            (0, 1),
            (0, 0),
            4,
            4,
            Vec3::ONE,
            &mut scratch,
            &mut out,
        );
        // Offscreen pixel stays black (no background composite).
        assert_eq!(out[10 * TILE_SIZE as usize + 10], Vec3::ZERO);
        assert!(o.fragments > 0);
    }

    #[test]
    fn alpha_below_eps_is_skipped() {
        // Force naive-scan semantics with a full bbox: every pixel is
        // evaluated and counted as skipped.
        let mut s = tight_splat(8.5, 8.5, Vec3::ONE, 0.0005, 1.0);
        s.bbox_px = FULL_BBOX;
        let (_, o) = run(std::slice::from_ref(&s), Vec3::ZERO);
        assert_eq!(o.fragments, 0);
        assert!(o.skipped > 0);
    }

    #[test]
    fn sub_threshold_opacity_has_empty_support() {
        // The same splat with its derived (empty) bbox: nothing is even
        // evaluated, which is the whole point of footprint clipping.
        let s = tight_splat(8.5, 8.5, Vec3::ONE, 0.0005, 1.0);
        assert_eq!(s.bbox_px, crate::projection::EMPTY_BBOX);
        let (_, o) = run(std::slice::from_ref(&s), Vec3::ZERO);
        assert_eq!(o.fragments, 0);
        assert_eq!(o.skipped, 0);
        assert_eq!(o.consumed_entries, 1);
    }

    #[test]
    fn bbox_clip_matches_full_scan_state() {
        // A mid-size splat: clipped and full-bbox scans must produce the
        // same image and the same fragment counter.
        let conic = Sym2::new(0.08, 0.01, 0.06);
        let cov2d = conic.inverse().unwrap();
        let mean = gs_core::vec::Vec2::new(7.0, 9.0);
        let clipped = Splat {
            mean_px: mean,
            conic,
            color: Vec3::new(0.9, 0.5, 0.2),
            opacity: 0.8,
            depth: 1.0,
            tile_rect: (0, 0, 0, 0),
            bbox_px: support_bbox(mean, cov2d, 0.8),
        };
        let mut full = clipped;
        full.bbox_px = FULL_BBOX;
        let (img_a, o_a) = run(std::slice::from_ref(&clipped), Vec3::ZERO);
        let (img_b, o_b) = run(std::slice::from_ref(&full), Vec3::ZERO);
        assert_eq!(img_a, img_b);
        assert_eq!(o_a.fragments, o_b.fragments);
        assert_eq!(o_a.early_terminated, o_b.early_terminated);
    }
}
