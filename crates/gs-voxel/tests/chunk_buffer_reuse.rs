//! Per-group output slots and per-worker scratch survive group-count
//! changes.
//!
//! Each pixel group owns an output slot (pixels, workload, blend counts,
//! ledger, fetch trace) and each group-claiming worker a working
//! scratch, so one `StreamingScene` at 4 workers that alternates between
//! 2-group frames (two jobs) and 9-group frames (four jobs claiming
//! groups dynamically) reuses the same slots and scratch back and forth,
//! with a different number of live slots and workers per frame. Every
//! frame rendered into one reused `StreamingOutput` must still be
//! byte-identical to a fresh serial render.

use gs_core::camera::{Camera, Intrinsics};
use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{StreamingConfig, StreamingOutput, StreamingScene};

#[test]
fn alternating_two_and_nine_group_frames_match_fresh_serial_renders() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let eval = scene.eval_cameras[0];
    // 48×32 at the default 32-pixel groups is 2 groups (fewer than the
    // 4 workers); the 96×72 eval camera is 9 groups claimed by 4 workers.
    let small = Camera {
        intrinsics: Intrinsics::from_fov(48, 32, eval.intrinsics.fov_x()),
        pose: eval.pose,
    };
    let config = |threads| StreamingConfig {
        voxel_size: scene.voxel_size,
        threads,
        ..Default::default()
    };
    let shared = StreamingScene::new(scene.trained.clone(), config(4));
    let mut out = StreamingOutput::default();
    for (frame, cam) in [small, eval, small, eval, eval, small].iter().enumerate() {
        shared.render_into(cam, &mut out);
        let fresh = StreamingScene::new(scene.trained.clone(), config(1)).render(cam);
        assert_eq!(out.image, fresh.image, "frame {frame}: image");
        assert_eq!(out.workload, fresh.workload, "frame {frame}: workload");
        assert_eq!(
            out.violations, fresh.violations,
            "frame {frame}: violations"
        );
        assert_eq!(out.ledger, fresh.ledger, "frame {frame}: ledger");
        assert_eq!(
            out.degradation, fresh.degradation,
            "frame {frame}: degradation"
        );
    }
}
