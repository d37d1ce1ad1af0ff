//! Thread-count determinism of the streaming renderer and the group-size
//! validation contract.

use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{StreamingConfig, StreamingScene};

#[test]
fn streaming_render_is_thread_count_invariant() {
    for kind in [SceneKind::Lego, SceneKind::Truck] {
        let scene = kind.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let base = StreamingConfig {
            voxel_size: scene.voxel_size,
            ..Default::default()
        };
        let seq = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig { threads: 1, ..base },
        )
        .render(cam);
        for threads in [2, 5, 0] {
            let par =
                StreamingScene::new(scene.trained.clone(), StreamingConfig { threads, ..base })
                    .render(cam);
            assert_eq!(seq.image, par.image, "threads={threads} changed the image");
            assert_eq!(
                seq.workload.totals(),
                par.workload.totals(),
                "threads={threads} changed the workload"
            );
            assert_eq!(
                seq.violations.violating_blends, par.violations.violating_blends,
                "threads={threads} changed the violation count"
            );
            assert_eq!(seq.violations.flags, par.violations.flags);
        }
    }
}

#[test]
fn skewed_group_load_is_thread_count_invariant() {
    // An off-centre camera puts the model in one half of the frame, so
    // half the groups are cheap background and the rest carry the work:
    // dynamic group claiming then hands groups to workers in a different
    // pattern on every run. With a cache configured, every observable —
    // including the per-tile record order the cache replay writes into
    // and the cache report itself — must equal the 1-thread frames.
    use gs_core::camera::Camera;
    use gs_core::vec::Vec3;
    use gs_mem::cache::CacheConfig;

    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let base = StreamingConfig {
        voxel_size: scene.voxel_size,
        cache: Some(CacheConfig::default()),
        ..Default::default()
    };
    let cams: Vec<Camera> = [0.75f32, 1.0, 1.25]
        .iter()
        .map(|&side| {
            let eye = Vec3::new(0.4, 0.3, -3.0);
            Camera::look_at(eye, Vec3::new(side, 0.0, 0.0), Vec3::Y, 160, 120, 0.9)
        })
        .collect();
    // The cache model carries state across frames, so each run renders
    // the same camera sequence on a fresh scene.
    let run = |threads: usize| {
        let s = StreamingScene::new(scene.trained.clone(), StreamingConfig { threads, ..base });
        cams.iter().map(|c| s.render(c)).collect::<Vec<_>>()
    };
    let seq = run(1);
    let tiles = &seq[0].workload.tiles;
    let idle = tiles.iter().filter(|t| t.gaussians_streamed == 0).count();
    assert!(
        idle * 4 >= tiles.len() && idle * 4 <= tiles.len() * 3,
        "setup: {idle} of {} groups idle — the load is not skewed",
        tiles.len()
    );
    for threads in [2, 3, 4, 0] {
        for repeat in 0..3 {
            for (f, (a, b)) in seq.iter().zip(run(threads)).enumerate() {
                let what = format!("threads={threads} repeat={repeat} frame={f}");
                assert_eq!(a.image, b.image, "image: {what}");
                assert_eq!(a.workload, b.workload, "workload tiles: {what}");
                assert_eq!(a.violations, b.violations, "violations: {what}");
                assert_eq!(a.ledger, b.ledger, "ledger: {what}");
                assert_eq!(a.degradation, b.degradation, "degradation: {what}");
                assert_eq!(a.cache, b.cache, "cache report: {what}");
            }
        }
    }
}

#[test]
fn repeated_streaming_frames_are_stable() {
    // The persistent pool, per-worker scratch and per-group output slots
    // must not leak state across frames or cameras.
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let streaming = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            threads: 3,
            ..Default::default()
        },
    );
    let mut firsts = Vec::new();
    for cam in &scene.eval_cameras {
        firsts.push(streaming.render(cam));
    }
    for (cam, first) in scene.eval_cameras.iter().zip(&firsts) {
        let again = streaming.render(cam);
        assert_eq!(again.image, first.image);
        assert_eq!(again.workload.totals(), first.workload.totals());
    }
}

#[test]
fn fewer_groups_than_workers_is_thread_count_invariant() {
    // Group sizes that leave fewer pixel groups than workers (the 96×72
    // frame is 2×2 groups at 64 px and a single group at 128 and 256 px)
    // run one job per group, or the inline serial loop for a single
    // group. Every observable — image, per-tile workload records, ledger,
    // violations, cache and degradation reports — must be byte-identical
    // to the serial walk for any thread count.
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    for group_size in [64, 128, 256] {
        let base = StreamingConfig {
            voxel_size: scene.voxel_size,
            group_size,
            ..Default::default()
        };
        let seq = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig { threads: 1, ..base },
        );
        for threads in [2, 6, 8, 0] {
            let par =
                StreamingScene::new(scene.trained.clone(), StreamingConfig { threads, ..base });
            for cam in &scene.eval_cameras {
                let (a, b) = (seq.render(cam), par.render(cam));
                let at = format!("group_size={group_size} threads={threads}");
                assert_eq!(a.image, b.image, "{at}: image");
                assert_eq!(a.workload, b.workload, "{at}: per-tile records");
                assert_eq!(a.ledger, b.ledger, "{at}: ledger");
                assert_eq!(a.violations, b.violations, "{at}: violations");
                assert_eq!(a.cache, b.cache, "{at}: cache report");
                assert_eq!(a.degradation, b.degradation, "{at}: degradation");
            }
        }
    }
}

#[test]
fn group_size_is_validated_once_at_construction() {
    // Below-minimum group sizes are clamped when the scene is prepared —
    // not silently at every use site as the seed did.
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let tiny_groups = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            group_size: 4,
            ..Default::default()
        },
    );
    assert_eq!(
        tiny_groups.config().group_size,
        StreamingConfig::MIN_GROUP_SIZE
    );

    // And the clamped configuration renders identically to an explicit
    // minimum-size configuration.
    let explicit = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            group_size: StreamingConfig::MIN_GROUP_SIZE,
            ..Default::default()
        },
    );
    let cam = &scene.eval_cameras[0];
    let a = tiny_groups.render(cam);
    let b = explicit.render(cam);
    assert_eq!(a.image, b.image);
    assert_eq!(a.workload.totals(), b.workload.totals());
}

#[test]
fn validated_is_idempotent_and_normalizes() {
    let cfg = StreamingConfig {
        group_size: 0,
        ray_stride: 0,
        ..Default::default()
    };
    let v = cfg.validated();
    assert_eq!(v.group_size, StreamingConfig::MIN_GROUP_SIZE);
    assert_eq!(v.ray_stride, 1);
    assert_eq!(v.validated(), v);
    // Valid configs pass through untouched.
    let ok = StreamingConfig {
        group_size: 64,
        ray_stride: 2,
        ..Default::default()
    };
    assert_eq!(ok.validated(), ok);
}

#[test]
fn narrower_frames_do_not_inherit_stale_violations() {
    // Regression: a frame with fewer groups (and workers) than a previous
    // frame must not re-report the previous frame's violating Gaussians
    // from stale output slots.
    use gs_core::camera::Camera;
    use gs_core::vec::Vec3;
    use gs_scene::{Gaussian, GaussianCloud};

    let mut cloud = GaussianCloud::new();
    for i in 0..40 {
        let f = i as f32 * 0.13;
        cloud.push(Gaussian::isotropic(
            Vec3::new(f.sin() * 1.2, f.cos() * 0.9, 0.4 * f),
            0.35,
            Vec3::new(0.5 + 0.4 * f.sin(), 0.4, 0.6),
            0.55,
        ));
    }
    let cfg = StreamingConfig {
        voxel_size: 0.5,
        threads: 4,
        ..Default::default()
    };
    let scene = StreamingScene::new(cloud.clone(), cfg);

    // Wide frame: many groups on 4 workers, with real ordering violations.
    let wide = Camera::look_at(
        Vec3::new(0.5, 0.3, -8.0),
        Vec3::ZERO,
        Vec3::Y,
        256,
        192,
        0.9,
    );
    let wide_out = scene.render(&wide);
    assert!(
        wide_out.violations.gaussian_ratio() > 0.0,
        "setup: wide frame must violate"
    );

    // Narrow frame looking away from the cloud: 1 group on 1 worker, and
    // nothing visible, so zero violations.
    let narrow = Camera::look_at(
        Vec3::new(0.0, 0.0, -8.0),
        Vec3::new(0.0, 0.0, -20.0),
        Vec3::Y,
        32,
        32,
        0.9,
    );
    let narrow_out = scene.render(&narrow);
    let fresh_out = StreamingScene::new(cloud, cfg).render(&narrow);
    assert_eq!(narrow_out.violations.flags, fresh_out.violations.flags);
    assert_eq!(
        narrow_out.violations.violating_blends,
        fresh_out.violations.violating_blends
    );
    assert_eq!(narrow_out.violations.gaussian_ratio(), 0.0);
}
