//! Property-based tests for the tile-centric pipeline.

use gs_core::sym::Sym2;
use gs_core::vec::{Vec2, Vec3};
use gs_render::binning::{bin_and_sort, depth_bits};
use gs_render::projection::{tile_rect_of, Splat};
use proptest::prelude::*;

fn splat_strategy() -> impl Strategy<Value = Splat> {
    (0.1f32..100.0, 0u32..8, 0u32..6, 1u32..3, 1u32..3).prop_map(|(depth, x0, y0, dx, dy)| Splat {
        mean_px: Vec2::new(x0 as f32 * 16.0, y0 as f32 * 16.0),
        conic: Sym2::IDENTITY,
        color: Vec3::ONE,
        opacity: 0.5,
        depth,
        tile_rect: (x0, y0, (x0 + dx - 1).min(7), (y0 + dy - 1).min(5)),
        bbox_px: gs_render::projection::FULL_BBOX,
    })
}

proptest! {
    #[test]
    fn depth_bits_are_strictly_monotone(a in 0.0f32..1e6, b in 0.0f32..1e6) {
        prop_assume!(a != b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(depth_bits(lo) < depth_bits(hi), "{lo} vs {hi}");
    }

    #[test]
    fn binning_emits_one_key_per_covered_tile(splats in proptest::collection::vec(splat_strategy(), 0..40)) {
        let (keys, ranges) = bin_and_sort(&splats, 8, 6);
        let expect: u64 = splats.iter().map(|s| s.tile_count()).sum();
        prop_assert_eq!(keys.len() as u64, expect);
        // Keys come out strictly increasing by (key, splat): the order a
        // global comparison sort would produce.
        for w in keys.windows(2) {
            prop_assert!((w[0].key, w[0].splat) < (w[1].key, w[1].splat), "keys out of order");
        }
        // Ranges partition the key array.
        let mut covered = 0u32;
        for (a, b) in &ranges {
            prop_assert!(a <= b);
            covered += b - a;
        }
        prop_assert_eq!(covered as usize, keys.len());
        // Within every tile range, depths are non-decreasing.
        for (a, b) in &ranges {
            for w in keys[*a as usize..*b as usize].windows(2) {
                let d0 = splats[w[0].splat as usize].depth;
                let d1 = splats[w[1].splat as usize].depth;
                prop_assert!(d0 <= d1, "tile list not depth sorted");
            }
        }
    }

    #[test]
    fn tile_rect_always_contains_center_tile(
        cx in 0.0f32..128.0,
        cy in 0.0f32..96.0,
        r in 0.5f32..60.0,
    ) {
        if let Some((x0, y0, x1, y1)) = tile_rect_of(Vec2::new(cx, cy), r, 8, 6) {
            let tx = ((cx / 16.0) as u32).min(7);
            let ty = ((cy / 16.0) as u32).min(5);
            prop_assert!(x0 <= tx && tx <= x1, "centre tile x outside rect");
            prop_assert!(y0 <= ty && ty <= y1, "centre tile y outside rect");
        } else {
            prop_assert!(false, "on-screen disc must map to a rect");
        }
    }
}
