//! Per-chunk tile buffers survive frame-size switches.
//!
//! Each rasterization chunk owns the pixels and counters of its tile
//! range, so one `TileRenderer` alternating between two image sizes
//! re-splits the same chunk buffers (including short and empty tail
//! chunks) every frame. Each frame must still be byte-identical to a
//! fresh serial render.

use gs_core::camera::{Camera, Intrinsics};
use gs_render::{RenderConfig, TileRenderer};
use gs_scene::{SceneConfig, SceneKind};

#[test]
fn alternating_frame_sizes_match_fresh_serial_renders() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let eval = scene.eval_cameras[0];
    // 96×72 is 30 tiles in chunks of 8, 8, 8, 6; 40×24 is 6 tiles in
    // chunks of 2, 2, 2, 0.
    let small = Camera {
        intrinsics: Intrinsics::from_fov(40, 24, eval.intrinsics.fov_x()),
        pose: eval.pose,
    };
    let config = |threads| RenderConfig {
        threads,
        ..RenderConfig::default()
    };
    let shared = TileRenderer::new(config(4));
    for (frame, cam) in [eval, small, eval, small, small, eval].iter().enumerate() {
        let out = shared.render(&scene.ground_truth, cam);
        let fresh = TileRenderer::new(config(1)).render(&scene.ground_truth, cam);
        assert_eq!(out.image, fresh.image, "frame {frame}: image");
        assert_eq!(out.stats, fresh.stats, "frame {frame}: stats");
    }
}
