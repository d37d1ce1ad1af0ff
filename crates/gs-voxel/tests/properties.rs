//! Property-based tests for the streaming pipeline's data structures.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_core::camera::Camera;
use gs_core::geom::Ray;
use gs_core::vec::Vec3;
use gs_scene::{Gaussian, GaussianCloud};
use gs_voxel::dda::traverse;
use gs_voxel::order::{
    count_order_violations, topological_order, topological_order_into, OrderScratch,
};
use gs_voxel::{StreamingConfig, StreamingScene, VoxelGrid};
use proptest::prelude::*;

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
    fn grid_partition_is_exact(cloud in cloud_strategy(), voxel in 0.3f32..2.0) {
        let grid = VoxelGrid::build(&cloud, voxel);
        // Every Gaussian appears in exactly one voxel's list.
        let mut seen = vec![0u32; cloud.len()];
        for v in 0..grid.voxel_count() as u32 {
            for &gi in grid.gaussians_of(v) {
                seen[gi as usize] += 1;
                prop_assert!(grid.voxel_aabb(v).contains(cloud.as_slice()[gi as usize].pos));
            }
        }
        prop_assert!(seen.iter().all(|c| *c == 1));
    }

    #[test]
    fn dda_visits_are_unique_and_front_to_back(
        cloud in cloud_strategy(),
        voxel in 0.4f32..1.5,
        oy in -1.5f32..1.5,
        dir_y in -0.4f32..0.4,
    ) {
        let grid = VoxelGrid::build(&cloud, voxel);
        let ray = Ray::new(
            Vec3::new(-8.0, oy, 0.2),
            Vec3::new(1.0, dir_y, 0.1).normalized(),
        );
        let r = traverse(&grid, &ray, 1_000);
        // Unique voxels.
        let mut sorted = r.voxels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), r.voxels.len());
        // Entry distances monotone (voxel centres may wiggle within half a
        // diagonal, so check via slab entry parameters).
        let mut last_entry = f32::NEG_INFINITY;
        for &v in &r.voxels {
            let (t0, _) = grid.voxel_aabb(v).intersect_ray(&ray).expect("listed voxel must be hit");
            prop_assert!(t0 >= last_entry - 1e-3, "non-monotone voxel entry");
            last_entry = t0;
        }
    }

    #[test]
    fn topological_order_respects_acyclic_ray_lists(
        chain_len in 2usize..20,
        n_rays in 1usize..10,
        seed in 0u64..1000,
    ) {
        // Rays take random subsequences of a common chain: always acyclic.
        let mut lists = Vec::new();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..n_rays {
            let mut list = Vec::new();
            for v in 0..chain_len as u32 {
                if next() % 3 != 0 {
                    list.push(v);
                }
            }
            if list.len() >= 2 {
                lists.push(list);
            }
        }
        let order = topological_order(&lists, |v| v as f32);
        prop_assert_eq!(order.cycle_breaks, 0);
        prop_assert_eq!(count_order_violations(&lists, &order.order), 0);
    }

    #[test]
    fn dda_ray_bundles_always_order_cleanly(
        cloud in cloud_strategy(),
        voxel in 0.4f32..1.5,
        cx in -1.0f32..1.0,
        cy in -0.8f32..0.8,
        dist in 6.0f32..12.0,
    ) {
        // A pixel-group-style bundle of rays from one camera through a
        // convex (regular) voxel grid: along any straight ray the per-axis
        // cell indices move monotonically, so the visit orders of two rays
        // from a common origin can never contradict each other. The DAG
        // must therefore be acyclic and the topological order violation-
        // free — the property the streaming VSU relies on.
        let grid = VoxelGrid::build(&cloud, voxel);
        let cam = Camera::look_at(
            Vec3::new(cx, cy, -dist),
            Vec3::ZERO,
            Vec3::Y,
            32,
            24,
            0.9,
        );
        let mut lists = Vec::new();
        for py in (0..24u32).step_by(2) {
            for px in (0..32u32).step_by(2) {
                let ray = cam.pixel_ray(px as f32 + 0.5, py as f32 + 0.5);
                let r = traverse(&grid, &ray, 10_000);
                if r.voxels.len() >= 2 {
                    lists.push(r.voxels);
                }
            }
        }
        prop_assume!(!lists.is_empty());
        let order = topological_order(&lists, |v| {
            cam.world_to_camera(grid.voxel_center(v)).z
        });
        prop_assert_eq!(order.cycle_breaks, 0, "convex-grid bundle produced a cycle");
        prop_assert_eq!(count_order_violations(&lists, &order.order), 0);
    }

    #[test]
    fn streaming_render_identical_across_thread_counts(
        cloud in cloud_strategy(),
        voxel in 0.5f32..1.2,
    ) {
        // Group claiming / per-worker scratch must never leak into
        // the output: threads ∈ {1, 2, 0 (= all cores)} render the same
        // bytes and the same workload totals.
        let cam = Camera::look_at(
            Vec3::new(0.4, 0.2, -7.0),
            Vec3::ZERO,
            Vec3::Y,
            64,
            48,
            0.9,
        );
        let base = StreamingConfig {
            voxel_size: voxel,
            group_size: 16,
            ..Default::default()
        };
        let render_with = |threads: usize| {
            StreamingScene::new(cloud.clone(), StreamingConfig { threads, ..base }).render(&cam)
        };
        let one = render_with(1);
        for threads in [2usize, 0] {
            let other = render_with(threads);
            prop_assert_eq!(&one.image, &other.image, "threads={} changed the image", threads);
            prop_assert_eq!(
                one.workload.totals(),
                other.workload.totals(),
                "threads={} changed the workload", threads
            );
            prop_assert_eq!(
                one.violations.violating_blends,
                other.violations.violating_blends
            );
            prop_assert_eq!(&one.violations.flags, &other.violations.flags);
        }
    }

    #[test]
    fn order_always_contains_every_listed_voxel(
        lists in proptest::collection::vec(
            proptest::collection::vec(0u32..30, 1..10), 1..8
        ),
    ) {
        let order = topological_order(&lists, |v| v as f32);
        let mut expected: Vec<u32> = lists.iter().flatten().copied().collect();
        expected.sort_unstable();
        expected.dedup();
        let mut got = order.order.clone();
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn duplicated_rays_leave_order_and_stats_unchanged(
        lists in proptest::collection::vec(
            proptest::collection::vec(0u32..30, 1..10), 1..8
        ),
        repeats in proptest::collection::vec(1usize..4, 8..9),
        copies in proptest::collection::vec((0usize..8, 0usize..8), 0..6),
    ) {
        // Metamorphic: repeating a ray in place, or copying a ray to any
        // later position, adds only voxels already seen and edges already
        // present — the node set, the edge set and the depth keys stay the
        // same, so the order and every counter must too.
        let depth = |v: u32| (v % 7) as f32;
        let mut scratch = OrderScratch::new();
        let mut want = Vec::new();
        let want_stats = topological_order_into(&lists, depth, &mut scratch, &mut want);

        let n = lists.len();
        let mut dup: Vec<Vec<u32>> = Vec::new();
        for (i, list) in lists.iter().enumerate() {
            for _ in 0..repeats[i] {
                dup.push(list.clone());
            }
            for &(src, at) in &copies {
                let src = src % n;
                if src.max(at % n) == i {
                    dup.push(lists[src].clone());
                }
            }
        }
        let mut got = Vec::new();
        let got_stats = topological_order_into(&dup, depth, &mut scratch, &mut got);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_stats, want_stats);
        // A fresh scratch agrees with the reused one.
        let fresh = topological_order(&dup, depth);
        prop_assert_eq!(&fresh.order, &want);
    }
}
