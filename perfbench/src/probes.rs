//! Per-layer probes of the traced run: each times one layer's public
//! functions directly, on the workload's own scene and cameras.

use crate::clock::Clock;
use crate::stats::median;
use crate::trace::Tracer;
use gs_core::camera::Camera;
use gs_mem::TrafficLedger;
use gs_voxel::dda::traverse_into;
use gs_voxel::order::{topological_order_into, OrderScratch};
use gs_voxel::StreamingScene;
use std::hint::black_box;

/// Repetitions of each probe; the reported figure is their median.
const PROBE_REPS: u64 = 3;

/// Pixel rays of one camera, grouped like the renderer's pixel groups:
/// each group's voxel lists in row-major ray order.
fn group_ray_lists(scene: &StreamingScene, cam: &Camera, max_steps: u32) -> Vec<Vec<Vec<u32>>> {
    let gsz = scene.config().group_size;
    let (w, h) = (cam.width(), cam.height());
    let mut groups = Vec::new();
    for gy in (0..h).step_by(gsz as usize) {
        for gx in (0..w).step_by(gsz as usize) {
            let mut lists = Vec::new();
            for py in gy..(gy + gsz).min(h) {
                for px in gx..(gx + gsz).min(w) {
                    let ray = cam.pixel_ray(px as f32 + 0.5, py as f32 + 0.5);
                    let mut v = Vec::new();
                    traverse_into(scene.grid(), &ray, max_steps, &mut v);
                    lists.push(v);
                }
            }
            groups.push(lists);
        }
    }
    groups
}

/// `(dda ns per step, order ns per op)`: `dda::traverse_into` over every
/// pixel ray of `cams`, then `order::topological_order_into` over each
/// pixel group's ray lists.
pub fn dda_and_order(
    scene: &StreamingScene,
    cams: &[Camera],
    clock: &Clock,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let grid = scene.grid();
    let (dx, dy, dz) = grid.dims();
    // The renderer's own bound on one ray's walk.
    let max_steps = 3 * (dx + dy + dz) + 6;
    let mut voxels = Vec::new();
    let mut dda_ns = Vec::new();
    for rep in 0..PROBE_REPS {
        let s = tracer.enter("dda.traverse", rep);
        let t0 = clock.now_ns();
        let mut steps = 0u64;
        for cam in cams {
            for py in 0..cam.height() {
                for px in 0..cam.width() {
                    let ray = cam.pixel_ray(px as f32 + 0.5, py as f32 + 0.5);
                    steps += u64::from(traverse_into(grid, &ray, max_steps, &mut voxels));
                    black_box(&voxels);
                }
            }
        }
        let t1 = clock.now_ns();
        tracer.exit(s);
        dda_ns.push((t1 - t0) as f64 / steps.max(1) as f64);
    }

    let lists: Vec<(Camera, Vec<Vec<Vec<u32>>>)> = cams
        .iter()
        .map(|c| (*c, group_ray_lists(scene, c, max_steps)))
        .collect();
    let mut scratch = OrderScratch::new();
    let mut order = Vec::new();
    let mut order_ns = Vec::new();
    for rep in 0..PROBE_REPS {
        let s = tracer.enter("order.topological", rep);
        let t0 = clock.now_ns();
        let mut ops = 0u64;
        for (cam, groups) in &lists {
            for rays in groups {
                let stats = topological_order_into(
                    rays,
                    |v| cam.world_to_camera(grid.voxel_center(v)).z,
                    &mut scratch,
                    &mut order,
                );
                ops += stats.ops;
                black_box(&order);
            }
        }
        let t1 = clock.now_ns();
        tracer.exit(s);
        order_ns.push((t1 - t0) as f64 / ops.max(1) as f64);
    }
    (
        median(&dda_ns).unwrap_or(0.0),
        median(&order_ns).unwrap_or(0.0),
    )
}

/// `(coarse ns per record, fine ns per record)`: a `try_fetch_coarse` scan
/// over every voxel, then a `try_fetch_fine` scan over every slot, each on
/// a fresh clone of `paged` (cold pages, the workload's page config and
/// fault policy).
pub fn fetch_scan(
    paged: &StreamingScene,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let mut coarse_ns = Vec::new();
    let mut fine_ns = Vec::new();
    for rep in 0..PROBE_REPS {
        let fresh = paged.clone();
        let store = fresh.store();
        let mut ledger = TrafficLedger::new();
        let voxels = u32::try_from(store.voxel_count()).map_err(|e| e.to_string())?;
        let slots = u32::try_from(store.len()).map_err(|e| e.to_string())?;

        let s = tracer.enter("store.fetch_coarse", rep);
        let t0 = clock.now_ns();
        let mut records = 0u64;
        for vid in 0..voxels {
            let it = store
                .try_fetch_coarse(vid, &mut ledger)
                .map_err(|e| format!("fetch_coarse({vid}): {e}"))?;
            for rec in it {
                black_box(rec);
                records += 1;
            }
        }
        let t1 = clock.now_ns();
        tracer.exit(s);
        coarse_ns.push((t1 - t0) as f64 / records.max(1) as f64);

        let s = tracer.enter("store.fetch_fine", rep);
        let t0 = clock.now_ns();
        for slot in 0..slots {
            let g = store
                .try_fetch_fine(slot, &mut ledger)
                .map_err(|e| format!("fetch_fine({slot}): {e}"))?;
            black_box(g);
        }
        let t1 = clock.now_ns();
        tracer.exit(s);
        fine_ns.push((t1 - t0) as f64 / f64::from(slots.max(1)));
    }
    Ok((
        median(&coarse_ns).unwrap_or(0.0),
        median(&fine_ns).unwrap_or(0.0),
    ))
}
