//! Ray–voxel traversal (Amanatides–Woo DDA).
//!
//! The VSU samples along each pixel ray to identify intersected voxels
//! (paper Sec. IV-B). We implement exact grid traversal rather than point
//! sampling: it visits precisely the cells the ray passes through, in
//! front-to-back order, which is what the renaming/ordering hardware needs.
//!
//! The public trio ([`traverse`] / [`traverse_into`] / [`traverse_append`])
//! shares one core marcher ([`march`]) whose step loop carries an
//! **incremental linear cell index** (one stride add per step instead of
//! recomputing `(z*ny + y)*nx + x`) and replaces the post-step six-compare
//! bounds test with per-axis remaining-step counters, leaving one
//! remaining-cells check on the stepped axis as the only per-step branch
//! beyond the axis cascade. Every transformation is
//! step-for-step identical to the original loop, which this module's
//! tests keep verbatim as a test-only `reference` and compare against
//! (same voxel lists, same step counts, on awkward hand-picked rays and
//! on random grids and rays).

use crate::grid::{Cell, VoxelGrid, EMPTY_CELL};
use gs_core::geom::Ray;

/// Result of traversing one ray.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RayVoxels {
    /// Renamed ids of the non-empty voxels hit, front-to-back.
    pub voxels: Vec<u32>,
    /// Total DDA steps taken (includes empty cells) — the VSU work measure.
    pub steps: u32,
}

/// Walks `ray` through `grid`, collecting non-empty voxels front-to-back.
///
/// `max_steps` bounds the walk (a ray crossing an `n³` grid takes at most
/// ~`3n` steps; the bound guards degenerate rays).
pub fn traverse(grid: &VoxelGrid, ray: &Ray, max_steps: u32) -> RayVoxels {
    let mut out = RayVoxels::default();
    out.steps = traverse_into(grid, ray, max_steps, &mut out.voxels);
    out
}

/// [`traverse`] into a caller-owned voxel list (cleared first), returning
/// the DDA step count. The streaming renderer's per-group scratch reuses
/// flat per-chunk buffers across frames, keeping the steady-state ray loop
/// allocation-free.
pub fn traverse_into(grid: &VoxelGrid, ray: &Ray, max_steps: u32, voxels: &mut Vec<u32>) -> u32 {
    voxels.clear();
    traverse_append(grid, ray, max_steps, voxels)
}

/// [`traverse_into`] without the clear: the ray's voxels are **appended**
/// to `voxels`, so many rays can share one flat buffer (the caller records
/// the per-ray end offsets). This is the streaming renderer's ray-grid
/// building block — each DDA worker chunk appends its rays back to back.
pub fn traverse_append(grid: &VoxelGrid, ray: &Ray, max_steps: u32, voxels: &mut Vec<u32>) -> u32 {
    let table = grid.cell_table();
    march(grid, ray, max_steps, |_, lin| {
        let v = table[lin];
        if v != EMPTY_CELL {
            // A ray re-entering the same voxel id cannot happen in a convex
            // cell walk, so no dedup needed.
            voxels.push(v);
        }
    })
}

/// Instrumented marcher for the tests: records every visited cell
/// (occupied or empty) together with the incremental linear index the
/// step loop carried at that step, so a test can recompute
/// `(z*ny + y)*nx + x` from the recorded cell and assert equality.
#[cfg(test)]
fn traverse_cells(
    grid: &VoxelGrid,
    ray: &Ray,
    max_steps: u32,
    out: &mut Vec<(Cell, usize)>,
) -> u32 {
    out.clear();
    march(grid, ray, max_steps, |cell, lin| out.push((cell, lin)))
}

/// The core marcher every traversal entry point funnels into. Calls
/// `visit(cell, lin)` once per DDA step — `lin` is the linear cell-table
/// index, maintained incrementally — and returns the step count.
///
/// Bit-exactness notes (this loop must reproduce the test-only `reference` exactly):
///
/// - The `t_max`/`t_delta` setup keeps the **division** by `dir[a]`.
///   Multiplying by a precomputed `1.0 / dir[a]` is not the same rounding
///   (`vs * (1/d)` and `vs / d` can differ in the last ulp), and a one-ulp
///   flip at a `t_max` tie changes which intermediate cell the walk visits
///   — a different voxel list, hence different image bytes downstream.
/// - The axis-select cascade is the original's, verbatim (same `<=`
///   tie-toward-lower-axis rule); each arm updates its own scalar state,
///   which keeps the whole step loop in registers (a dynamically indexed
///   `t_max[axis]` forces the arrays onto the stack and costs more than
///   the cascade's branches, which predict well on coherent camera rays).
/// - The per-axis `rem` counters replace the original's post-step
///   six-compare bounds test: the entry cell is in bounds and each step
///   moves exactly one axis by ±1, so the walk leaves the grid precisely
///   when the stepped axis has no remaining cells. Breaking *before* the
///   final `t_max`/cell update (instead of after, as the original does) is
///   unobservable — both loops have already counted the step and visited
///   the cell, and the discarded updates touch only locals. An axis with
///   `step == 0` keeps `rem == u32::MAX`; it is never selected before the
///   `t_exit` break because its `t_max` stays infinite.
#[inline(always)]
fn march<F: FnMut(Cell, usize)>(grid: &VoxelGrid, ray: &Ray, max_steps: u32, mut visit: F) -> u32 {
    let mut steps = 0u32;
    let bounds = grid.bounds();
    let Some((t_enter, t_exit)) = bounds.intersect_ray(ray) else {
        return steps;
    };
    let t_start = t_enter.max(0.0);
    if t_exit < t_start {
        return steps;
    }

    let (dx, dy, dz) = grid.dims();
    let vs = grid.voxel_size();
    let origin = grid.origin();
    let dir = [ray.dir.x, ray.dir.y, ray.dir.z];
    let org = [ray.origin.x, ray.origin.y, ray.origin.z];
    let grid_org = [origin.x, origin.y, origin.z];
    let dims = [dx as i32, dy as i32, dz as i32];

    // Entry cell, derived per-axis from the **un-nudged** entry point. Each
    // axis is nudged by eps only along its own travel direction, so landing
    // exactly on a cell boundary resolves to the cell the ray moves into,
    // while a grazing (near-parallel) axis is never pushed across a face it
    // does not cross. The seed instead nudged the whole point eps along the
    // ray and clamped the result into the grid — a grazing ray whose nudge
    // landed outside got clamped into a row of cells it never enters.
    //
    // The per-axis step direction, t to next boundary, t per cell, and
    // remaining-cell counter are derived in the same pass (the setup only
    // reads this axis's entry cell).
    let eps = 1e-5 * vs.max(1.0);
    let p = ray.at(t_start);
    let entry = [p.x, p.y, p.z];
    let mut cell = [0i32; 3];
    let mut step = [0i32; 3];
    let mut t_max = [f32::INFINITY; 3];
    let mut t_delta = [f32::INFINITY; 3];
    let mut rem = [u32::MAX; 3];
    for a in 0..3 {
        let nudge = if dir[a] > 1e-12 {
            eps
        } else if dir[a] < -1e-12 {
            -eps
        } else {
            0.0
        };
        let mut c = floor_i32((entry[a] + nudge - grid_org[a]) / vs);
        let hi = dims[a] - 1;
        if c < 0 {
            // At (or within float fuzz of) the min face: the ray enters
            // cell 0 only when moving inward or running along the face.
            if dir[a] >= -1e-12 && entry[a] >= grid_org[a] - eps {
                c = 0;
            } else {
                return steps;
            }
        } else if c > hi {
            // Mirror case at the max face (which belongs to the last cell).
            let face = grid_org[a] + dims[a] as f32 * vs;
            if dir[a] <= 1e-12 && entry[a] <= face + eps {
                c = hi;
            } else {
                return steps;
            }
        }
        cell[a] = c;
        if dir[a] > 1e-12 {
            step[a] = 1;
            let boundary = grid_org[a] + (c + 1) as f32 * vs;
            t_max[a] = (boundary - org[a]) / dir[a];
            t_delta[a] = vs / dir[a];
            rem[a] = (hi - c) as u32;
        } else if dir[a] < -1e-12 {
            step[a] = -1;
            let boundary = grid_org[a] + c as f32 * vs;
            t_max[a] = (boundary - org[a]) / dir[a];
            t_delta[a] = vs / -dir[a];
            rem[a] = c as u32;
        }
    }

    // Incremental linear index: strides [1, nx, nx·ny], one add per step.
    let mut lin =
        (cell[2] as i64 * dims[1] as i64 + cell[1] as i64) * dims[0] as i64 + cell[0] as i64;
    let dlx = step[0] as i64;
    let dly = step[1] as i64 * dims[0] as i64;
    let dlz = step[2] as i64 * dims[0] as i64 * dims[1] as i64;

    // Scalar per-axis loop state (register-resident; see the doc above).
    let (mut cx, mut cy, mut cz) = (cell[0], cell[1], cell[2]);
    let (mut tmx, mut tmy, mut tmz) = (t_max[0], t_max[1], t_max[2]);
    let (tdx, tdy, tdz) = (t_delta[0], t_delta[1], t_delta[2]);
    let (mut rx, mut ry, mut rz) = (rem[0], rem[1], rem[2]);

    for _ in 0..max_steps {
        steps += 1;
        visit((cx, cy, cz), lin as usize);
        // Advance along the axis with the nearest boundary (the original
        // cascade; ties prefer the lower axis).
        if tmx <= tmy && tmx <= tmz {
            if tmx > t_exit || rx == 0 {
                break;
            }
            rx -= 1;
            tmx += tdx;
            cx += step[0];
            lin += dlx;
        } else if tmy <= tmz {
            if tmy > t_exit || ry == 0 {
                break;
            }
            ry -= 1;
            tmy += tdy;
            cy += step[1];
            lin += dly;
        } else {
            if tmz > t_exit || rz == 0 {
                break;
            }
            rz -= 1;
            tmz += tdz;
            cz += step[2];
            lin += dlz;
        }
    }
    steps
}

/// `q.floor() as i32`, without the `floorf` call that `floor` compiles
/// to on baseline x86-64 (no SSE4.1 `roundss`): truncate, then step down
/// where truncation rounded a negative non-integer up. Saturates and maps
/// NaN to 0 exactly as the `as` cast does.
#[inline]
fn floor_i32(q: f32) -> i32 {
    let i = q as i32;
    if (i as f32) > q {
        i.saturating_sub(1)
    } else {
        i
    }
}

/// The pre-overhaul traversal loop, kept verbatim as the bit-exact
/// reference the tests compare [`traverse`] against.
#[cfg(test)]
mod reference {
    use super::{Ray, RayVoxels, VoxelGrid};

    /// Reference version of [`super::traverse`].
    pub fn traverse(grid: &VoxelGrid, ray: &Ray, max_steps: u32) -> RayVoxels {
        let mut out = RayVoxels::default();
        out.steps = traverse_append(grid, ray, max_steps, &mut out.voxels);
        out
    }

    /// Reference version of [`super::traverse_append`]: the original step
    /// loop — per-step `voxel_at` (recomputed `(z*ny + y)*nx + x` plus
    /// six-compare bounds test) and the three-way axis cascade.
    fn traverse_append(grid: &VoxelGrid, ray: &Ray, max_steps: u32, voxels: &mut Vec<u32>) -> u32 {
        let mut steps = 0u32;
        let bounds = grid.bounds();
        let Some((t_enter, t_exit)) = bounds.intersect_ray(ray) else {
            return steps;
        };
        let t_start = t_enter.max(0.0);
        if t_exit < t_start {
            return steps;
        }

        let (dx, dy, dz) = grid.dims();
        let vs = grid.voxel_size();
        let origin = grid.origin();
        let dir = [ray.dir.x, ray.dir.y, ray.dir.z];
        let org = [ray.origin.x, ray.origin.y, ray.origin.z];
        let grid_org = [origin.x, origin.y, origin.z];
        let dims = [dx as i32, dy as i32, dz as i32];

        let eps = 1e-5 * vs.max(1.0);
        let p = ray.at(t_start);
        let entry = [p.x, p.y, p.z];
        let mut cell = [0i32; 3];
        for a in 0..3 {
            let nudge = if dir[a] > 1e-12 {
                eps
            } else if dir[a] < -1e-12 {
                -eps
            } else {
                0.0
            };
            let mut c = ((entry[a] + nudge - grid_org[a]) / vs).floor() as i32;
            let hi = dims[a] - 1;
            if c < 0 {
                if dir[a] >= -1e-12 && entry[a] >= grid_org[a] - eps {
                    c = 0;
                } else {
                    return steps;
                }
            } else if c > hi {
                let face = grid_org[a] + dims[a] as f32 * vs;
                if dir[a] <= 1e-12 && entry[a] <= face + eps {
                    c = hi;
                } else {
                    return steps;
                }
            }
            cell[a] = c;
        }

        let mut step = [0i32; 3];
        let mut t_max = [f32::INFINITY; 3];
        let mut t_delta = [f32::INFINITY; 3];
        for a in 0..3 {
            if dir[a] > 1e-12 {
                step[a] = 1;
                let boundary = grid_org[a] + (cell[a] + 1) as f32 * vs;
                t_max[a] = (boundary - org[a]) / dir[a];
                t_delta[a] = vs / dir[a];
            } else if dir[a] < -1e-12 {
                step[a] = -1;
                let boundary = grid_org[a] + cell[a] as f32 * vs;
                t_max[a] = (boundary - org[a]) / dir[a];
                t_delta[a] = vs / -dir[a];
            }
        }

        let (mut cx, mut cy, mut cz) = (cell[0], cell[1], cell[2]);
        for _ in 0..max_steps {
            steps += 1;
            if let Some(v) = grid.voxel_at((cx, cy, cz)) {
                voxels.push(v);
            }
            let axis = if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
                0
            } else if t_max[1] <= t_max[2] {
                1
            } else {
                2
            };
            if t_max[axis] > t_exit {
                break;
            }
            t_max[axis] += t_delta[axis];
            match axis {
                0 => cx += step[0],
                1 => cy += step[1],
                _ => cz += step[2],
            }
            if cx < 0 || cy < 0 || cz < 0 || cx >= dx as i32 || cy >= dy as i32 || cz >= dz as i32 {
                break;
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::vec::Vec3;
    use gs_scene::{Gaussian, GaussianCloud};
    use proptest::prelude::*;

    /// A 4×1×1 row of occupied voxels at y=z=0.5.
    fn row_grid() -> (GaussianCloud, VoxelGrid) {
        let mut c = GaussianCloud::new();
        for x in 0..4 {
            c.push(Gaussian::isotropic(
                Vec3::new(x as f32 + 0.5, 0.5, 0.5),
                0.05,
                Vec3::ONE,
                0.9,
            ));
        }
        let g = VoxelGrid::build(&c, 1.0);
        (c, g)
    }

    #[test]
    fn axis_ray_visits_all_cells_in_order() {
        let (_, grid) = row_grid();
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let r = traverse(&grid, &ray, 100);
        assert_eq!(r.voxels.len(), 4);
        // Front-to-back: voxel centres must be monotonically farther.
        let mut last = f32::NEG_INFINITY;
        for &v in &r.voxels {
            let d = (grid.voxel_center(v) - ray.origin).dot(ray.dir);
            assert!(d > last);
            last = d;
        }
    }

    #[test]
    fn reverse_ray_visits_reverse_order() {
        let (_, grid) = row_grid();
        let fwd = traverse(&grid, &Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X), 100);
        let bwd = traverse(&grid, &Ray::new(Vec3::new(5.0, 0.5, 0.5), -Vec3::X), 100);
        let mut rev = bwd.voxels.clone();
        rev.reverse();
        assert_eq!(fwd.voxels, rev);
    }

    #[test]
    fn missing_ray_returns_empty() {
        let (_, grid) = row_grid();
        let r = traverse(&grid, &Ray::new(Vec3::new(0.0, 10.0, 0.0), Vec3::X), 100);
        assert!(r.voxels.is_empty());
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn ray_starting_inside_works() {
        let (_, grid) = row_grid();
        let r = traverse(&grid, &Ray::new(Vec3::new(1.5, 0.5, 0.5), Vec3::X), 100);
        assert_eq!(
            r.voxels.len(),
            3,
            "voxels 1..=3 visible from inside voxel 1"
        );
    }

    #[test]
    fn diagonal_ray_monotone_depth() {
        // A 3×3×3 block of occupied voxels.
        let mut c = GaussianCloud::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    c.push(Gaussian::isotropic(
                        Vec3::new(x as f32 + 0.5, y as f32 + 0.5, z as f32 + 0.5),
                        0.05,
                        Vec3::ONE,
                        0.9,
                    ));
                }
            }
        }
        let grid = VoxelGrid::build(&c, 1.0);
        let dir = Vec3::new(1.0, 0.7, 0.4).normalized();
        let ray = Ray::new(Vec3::new(-0.5, -0.2, 0.1), dir);
        let r = traverse(&grid, &ray, 1000);
        assert!(!r.voxels.is_empty());
        let mut last = f32::NEG_INFINITY;
        for &v in &r.voxels {
            let d = (grid.voxel_center(v) - ray.origin).dot(ray.dir);
            assert!(
                d > last - 0.87,
                "non-monotone visit (allowing half-diagonal slack)"
            );
            last = last.max(d);
        }
        // No voxel repeated.
        let mut sorted = r.voxels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), r.voxels.len());
    }

    #[test]
    fn traversal_matches_brute_force_sampling() {
        // Property-style check: dense point sampling along the ray must find
        // a subset of the cells DDA reports.
        let (_, grid) = row_grid();
        let dir = Vec3::new(1.0, 0.12, -0.07).normalized();
        let ray = Ray::new(Vec3::new(-0.8, 0.4, 0.62), dir);
        let dda = traverse(&grid, &ray, 1000);
        let mut sampled = Vec::new();
        let mut t = 0.0f32;
        while t < 8.0 {
            let p = ray.at(t);
            if let Some(v) = grid.voxel_at(grid.cell_of(p)) {
                if sampled.last() != Some(&v) {
                    sampled.push(v);
                }
            }
            t += 0.01;
        }
        for v in &sampled {
            assert!(dda.voxels.contains(v), "DDA missed voxel {v}");
        }
    }

    #[test]
    fn corner_grazing_exit_ray_reports_nothing() {
        // The ray reaches the grid's entry corner (x_min, y_max) exactly
        // while moving *out* of the y-range: the box test reports a
        // single-point contact (t_enter == t_exit), and the seed's clamp
        // then pulled the nudged point back into the top row — reporting a
        // voxel whose interior the ray never enters. The per-axis entry
        // rule returns an empty visit list instead.
        let (_, grid) = row_grid();
        let b = grid.bounds();
        let z = 0.5 * (b.min.z + b.max.z);
        // y(t) = (y_max − 0.1) + 0.1·t reaches y_max exactly when x
        // reaches x_min (both at t = 1), then keeps climbing.
        let ray = Ray::new(
            Vec3::new(b.min.x - 1.0, b.max.y - 0.1, z),
            Vec3::new(1.0, 0.1, 0.0),
        );
        let r = traverse(&grid, &ray, 100);
        assert!(
            r.voxels.is_empty(),
            "corner-touching exiting ray must enter no cell, got {:?}",
            r.voxels
        );
    }

    #[test]
    fn ray_along_max_face_visits_boundary_cells() {
        // Axis-aligned ray exactly on the top face (y = y_max): the closed
        // box reports a hit and the face belongs to the adjacent inner
        // cells — the grazing rule must keep (not clamp-invent) this row.
        let (_, grid) = row_grid();
        let b = grid.bounds();
        let z = 0.5 * (b.min.z + b.max.z);
        let top = traverse(
            &grid,
            &Ray::new(Vec3::new(b.min.x - 1.0, b.max.y, z), Vec3::X),
            100,
        );
        assert_eq!(top.voxels.len(), 4, "top-face ray grazes all four cells");
        // And the min face (y = y_min) belongs to cell row 0 just the same.
        let bottom = traverse(
            &grid,
            &Ray::new(Vec3::new(b.min.x - 1.0, b.min.y, z), Vec3::X),
            100,
        );
        assert_eq!(bottom.voxels.len(), 4);
    }

    #[test]
    fn grazing_ray_drifting_inward_still_traverses() {
        // Entering exactly at the corner but moving *into* the grid: a
        // legitimate traversal that the per-axis rule must keep.
        let (_, grid) = row_grid();
        let b = grid.bounds();
        let z = 0.5 * (b.min.z + b.max.z);
        // y(t) = (y_max + 0.05) − 0.05·t hits y_max exactly when x reaches
        // x_min (t = 1), then keeps dropping into the row.
        let ray = Ray::new(
            Vec3::new(b.min.x - 1.0, b.max.y + 0.05, z),
            Vec3::new(1.0, -0.05, 0.0),
        );
        let r = traverse(&grid, &ray, 100);
        assert!(
            !r.voxels.is_empty(),
            "inward-drifting corner entry must traverse"
        );
        // Every reported voxel must genuinely be intersected by the ray.
        for &v in &r.voxels {
            assert!(
                grid.voxel_aabb(v).intersect_ray(&ray).is_some(),
                "reported voxel {v} not on the ray"
            );
        }
    }

    #[test]
    fn max_steps_bounds_work() {
        let (_, grid) = row_grid();
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let r = traverse(&grid, &ray, 2);
        assert!(r.steps <= 2);
        assert!(r.voxels.len() <= 2);
    }

    #[test]
    fn production_matches_reference_twin_on_awkward_rays() {
        // The marcher must agree with the kept original loop step for step:
        // identical voxel lists *and* identical step counts, including on
        // the grazing / corner / truncated cases above.
        let (_, grid) = row_grid();
        let b = grid.bounds();
        let z = 0.5 * (b.min.z + b.max.z);
        let rays = [
            Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X),
            Ray::new(Vec3::new(5.0, 0.5, 0.5), -Vec3::X),
            Ray::new(Vec3::new(1.5, 0.5, 0.5), Vec3::X),
            Ray::new(Vec3::new(0.0, 10.0, 0.0), Vec3::X),
            Ray::new(
                Vec3::new(-0.8, 0.4, 0.62),
                Vec3::new(1.0, 0.12, -0.07).normalized(),
            ),
            Ray::new(
                Vec3::new(b.min.x - 1.0, b.max.y - 0.1, z),
                Vec3::new(1.0, 0.1, 0.0),
            ),
            Ray::new(Vec3::new(b.min.x - 1.0, b.max.y, z), Vec3::X),
            Ray::new(
                Vec3::new(b.min.x - 1.0, b.max.y + 0.05, z),
                Vec3::new(1.0, -0.05, 0.0),
            ),
        ];
        for ray in &rays {
            for max_steps in [2u32, 100] {
                assert_eq!(
                    traverse(&grid, ray, max_steps),
                    reference::traverse(&grid, ray, max_steps),
                    "marcher diverged from reference on {ray:?} (max_steps {max_steps})"
                );
            }
        }
    }

    fn cloud_strategy() -> impl Strategy<Value = GaussianCloud> {
        proptest::collection::vec(
            (-4.0f32..4.0, -2.0f32..2.0, -3.0f32..3.0, 0.01f32..0.2),
            3..60,
        )
        .prop_map(|pts| {
            pts.into_iter()
                .map(|(x, y, z, s)| Gaussian::isotropic(Vec3::new(x, y, z), s, Vec3::ONE, 0.8))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn marcher_matches_reference_on_random_grids_and_rays(
            cloud in cloud_strategy(),
            voxel in 0.4f32..1.5,
            oy in -1.5f32..1.5,
            oz in -1.0f32..1.0,
            dir_y in -0.5f32..0.5,
            dir_z in -0.5f32..0.5,
            flip in -1.0f32..1.0,
        ) {
            // The whole walk — voxel list and step count — must match the
            // kept original loop, from either side of the grid.
            let grid = VoxelGrid::build(&cloud, voxel);
            let sign = if flip < 0.0 { -1.0 } else { 1.0 };
            let ray = Ray::new(
                Vec3::new(-8.0 * sign, oy, oz),
                Vec3::new(sign, dir_y, dir_z).normalized(),
            );
            prop_assert_eq!(
                traverse(&grid, &ray, 10_000),
                reference::traverse(&grid, &ray, 10_000),
                "marcher diverged from the reference loop"
            );
        }

        #[test]
        fn incremental_dda_index_matches_recomputation(
            cloud in cloud_strategy(),
            voxel in 0.4f32..1.5,
            oy in -1.5f32..1.5,
            oz in -1.0f32..1.0,
            dir_y in -0.5f32..0.5,
            dir_z in -0.5f32..0.5,
            flip in -1.0f32..1.0,
        ) {
            // The incrementally carried linear cell index must equal the
            // recomputed `(z*ny + y)*nx + x` at *every* step, empty cells
            // included, from either side of the grid.
            let grid = VoxelGrid::build(&cloud, voxel);
            let (nx, ny, _) = grid.dims();
            let sign = if flip < 0.0 { -1.0 } else { 1.0 };
            let ray = Ray::new(
                Vec3::new(-8.0 * sign, oy, oz),
                Vec3::new(sign, dir_y, dir_z).normalized(),
            );
            let mut cells = Vec::new();
            let steps = traverse_cells(&grid, &ray, 10_000, &mut cells);
            prop_assert_eq!(steps as usize, cells.len());
            for &((x, y, z), lin) in &cells {
                let expect = (z as usize * ny as usize + y as usize) * nx as usize + x as usize;
                prop_assert_eq!(lin, expect, "index drifted at cell {:?}", (x, y, z));
            }
        }
    }

    #[test]
    fn floor_i32_matches_floor_cast() {
        let two23 = 8_388_608.0f32;
        let two31 = 2_147_483_648.0f32;
        let cases = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            2.0,
            -3.0,
            1.5,
            -1.5,
            0.999_999_94,
            -0.999_999_94,
            two23,
            -two23,
            two23 - 0.5,
            -(two23 - 0.5),
            two31,
            -two31,
            2_147_483_520.0,
            -2_147_483_520.0,
            3.0e9,
            -3.0e9,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for q in cases {
            assert_eq!(floor_i32(q), q.floor() as i32, "floor_i32({q:e})");
        }
    }

    #[test]
    fn incremental_linear_index_matches_recomputation() {
        let (_, grid) = row_grid();
        let (nx, ny, _) = grid.dims();
        let dir = Vec3::new(1.0, 0.12, -0.07).normalized();
        let ray = Ray::new(Vec3::new(-0.8, 0.4, 0.62), dir);
        let mut cells = Vec::new();
        let steps = traverse_cells(&grid, &ray, 1000, &mut cells);
        assert_eq!(steps as usize, cells.len());
        assert!(!cells.is_empty());
        for &((x, y, z), lin) in &cells {
            let expect = (z as usize * ny as usize + y as usize) * nx as usize + x as usize;
            assert_eq!(
                lin,
                expect,
                "incremental index drifted at cell {:?}",
                (x, y, z)
            );
        }
    }
}
