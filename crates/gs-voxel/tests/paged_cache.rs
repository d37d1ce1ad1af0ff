//! Contracts of the paged store backing and the working-set cache model:
//!
//! 1. **Paged ≡ resident** — a store round-tripped through its serialized
//!    scene image (in memory or on disk, bounded page budget or not)
//!    renders byte-identical images, workloads and ledgers on every scene
//!    kind, raw and VQ. Paging is host-memory management, never modeled
//!    traffic.
//! 2. **Cache determinism** — hit/miss counts, ledgers and images are
//!    invariant across worker-thread counts {1, 2, 0}: the cache is
//!    simulated from the recorded fetch trace in global group order.
//! 3. **Cache semantics** — demand bytes are invariant under caching;
//!    warm frames hit, also along a moving camera path; DRAM transaction
//!    bytes shrink to burst-rounded miss fills.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod golden;

use gs_core::vec::Vec3;
use gs_mem::cache::CacheConfig;
use gs_mem::{Direction, Stage};
use gs_scene::trajectory::{walkthrough, RigSpec};
use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{PageConfig, StreamingConfig, StreamingOutput, StreamingScene};
use gs_vq::VqConfig;

fn raw_config(voxel_size: f32) -> StreamingConfig {
    StreamingConfig {
        voxel_size,
        ..Default::default()
    }
}

fn vq_config(voxel_size: f32) -> StreamingConfig {
    StreamingConfig {
        voxel_size,
        use_vq: true,
        vq: VqConfig::tiny(),
        ..Default::default()
    }
}

fn assert_outputs_identical(a: &StreamingOutput, b: &StreamingOutput, what: &str) {
    assert_eq!(a.image, b.image, "image diverged: {what}");
    assert_eq!(a.workload, b.workload, "workload diverged: {what}");
    assert_eq!(a.ledger, b.ledger, "ledger diverged: {what}");
    assert_eq!(a.cache, b.cache, "cache report diverged: {what}");
    assert_eq!(a.violations.flags, b.violations.flags, "flags: {what}");
    assert_eq!(a.degradation, b.degradation, "degradation diverged: {what}");
    assert!(
        a.degradation.is_clean(),
        "fault-free frame degraded: {what}"
    );
}

#[test]
fn paged_store_is_byte_identical_on_all_scene_kinds_raw_and_vq() {
    for kind in SceneKind::ALL {
        let scene = kind.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        for cfg in [raw_config(scene.voxel_size), vq_config(scene.voxel_size)] {
            let vq = cfg.use_vq;
            let resident = StreamingScene::new(scene.trained.clone(), cfg);
            let mut paged = resident.clone();
            paged.page_out(PageConfig {
                slots_per_page: 64,
                max_resident_pages: 0,
                ..PageConfig::default()
            });
            assert!(paged.store().is_paged());
            let mut bounded = resident.clone();
            bounded.page_out(PageConfig {
                slots_per_page: 32,
                max_resident_pages: 3,
                ..PageConfig::default()
            });
            let r = resident.render(cam);
            assert_outputs_identical(
                &r,
                &paged.render(cam),
                &format!("{} paged (vq={vq})", kind.name()),
            );
            assert_outputs_identical(
                &r,
                &bounded.render(cam),
                &format!("{} bounded-paged (vq={vq})", kind.name()),
            );
            // The budget really bounds residency and really evicts.
            assert!(bounded.store().page_faults() > 0);
            let cap = 2 * 3 * 32 * 220; // columns × pages × slots × widest record
            assert!(bounded.store().resident_column_bytes() <= cap);
        }
    }
}

#[test]
fn paged_scene_file_on_disk_renders_identically() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size));
    let mut paged = resident.clone();
    let path = std::env::temp_dir().join("gsvs_paged_cache_test.gsvs");
    paged
        .page_out_file(&path, PageConfig::default())
        .expect("page out to file");
    assert_outputs_identical(&resident.render(cam), &paged.render(cam), "file-paged");
    std::fs::remove_file(&path).ok();
}

fn cached_config(voxel_size: f32, threads: usize) -> StreamingConfig {
    StreamingConfig {
        threads,
        cache: Some(CacheConfig::default()),
        ..raw_config(voxel_size)
    }
}

#[test]
fn cache_counts_are_invariant_across_thread_counts() {
    let scene = SceneKind::Playroom.build(&SceneConfig::tiny());
    let cams = &scene.eval_cameras;
    let run = |threads: usize| -> Vec<StreamingOutput> {
        // A fresh scene per thread count: each starts with a cold cache
        // and renders the same two-frame trajectory.
        let s = StreamingScene::new(
            scene.trained.clone(),
            cached_config(scene.voxel_size, threads),
        );
        cams.iter().take(2).map(|c| s.render(c)).collect()
    };
    let one = run(1);
    for threads in [2usize, 0] {
        let other = run(threads);
        for (a, b) in one.iter().zip(&other) {
            assert_outputs_identical(a, b, &format!("threads={threads}"));
            let (ca, cb) = (a.cache.unwrap(), b.cache.unwrap());
            assert_eq!(ca.coarse.hits, cb.coarse.hits, "threads={threads}");
            assert_eq!(ca.coarse.misses(), cb.coarse.misses(), "threads={threads}");
            assert_eq!(ca.fine.hits, cb.fine.hits, "threads={threads}");
            assert_eq!(ca.fine.misses(), cb.fine.misses(), "threads={threads}");
        }
    }
}

#[test]
fn warm_frames_hit_and_shrink_dram_traffic() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let s = StreamingScene::new(scene.trained.clone(), cached_config(scene.voxel_size, 1));
    let cold = s.render(cam);
    let warm = s.render(cam);
    let (cold_c, warm_c) = (cold.cache.unwrap(), warm.cache.unwrap());
    // Frame 2 revisits frame 1's working set: the coarse stage must hit
    // well past the acceptance bar (identical camera ⇒ near-total reuse).
    assert!(
        warm_c.coarse.hit_rate() >= 0.5,
        "warm coarse hit rate only {:.3}",
        warm_c.coarse.hit_rate()
    );
    assert!(warm_c.coarse.hits > cold_c.coarse.hits);
    // Demand is identical frame to frame; DRAM transactions shrink to the
    // (burst-rounded) miss fills.
    assert_eq!(cold.ledger.total(), warm.ledger.total());
    assert!(warm.ledger.dram_total() < cold.ledger.dram_total());
    assert_eq!(
        warm.ledger.dram(Stage::VoxelCoarse, Direction::Read),
        warm_c.coarse.fill_bytes
    );
    assert_eq!(
        warm.ledger.dram(Stage::VoxelFine, Direction::Read),
        warm_c.fine.fill_bytes
    );
    assert_eq!(warm.ledger.hit_total(), warm_c.hit_bytes());
    // reset_cache makes the next frame cold again.
    s.reset_cache();
    let recold = s.render(cam);
    assert_eq!(recold.ledger, cold.ledger);
    assert_eq!(recold.cache, cold.cache);
}

#[test]
fn trajectory_frames_hit_the_warm_coarse_cache() {
    // A short walkthrough, not a re-rendered camera: consecutive frames
    // overlap in the voxels they stream, so from frame 1 on at least half
    // of the coarse fetches must hit the working set.
    let rig = RigSpec {
        width: 160,
        height: 120,
        fov_x: 0.9,
    };
    let cams = walkthrough(
        Vec3::new(-1.5, 0.8, -7.0),
        Vec3::new(1.5, 1.1, -5.5),
        Vec3::ZERO,
        6,
        &rig,
    );
    for kind in [SceneKind::Truck, SceneKind::Playroom] {
        let scene = kind.build(&SceneConfig::tiny());
        for base in [raw_config(scene.voxel_size), vq_config(scene.voxel_size)] {
            let cfg = StreamingConfig {
                cache: Some(CacheConfig::default()),
                ..base
            };
            let s = StreamingScene::new(scene.trained.clone(), cfg);
            for (i, cam) in cams.iter().enumerate() {
                let hit = s.render(cam).cache.unwrap().coarse.hit_rate();
                assert!(
                    i == 0 || hit >= 0.5,
                    "{} (vq={}) frame {i}: warm coarse hit rate only {hit:.3}",
                    kind.name(),
                    cfg.use_vq
                );
            }
        }
    }
}

#[test]
fn caching_never_changes_demand_bytes_or_pixels() {
    let scene = SceneKind::Palace.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let plain = StreamingScene::new(scene.trained.clone(), raw_config(scene.voxel_size));
    let cached = StreamingScene::new(scene.trained.clone(), cached_config(scene.voxel_size, 1));
    let a = plain.render(cam);
    let b = cached.render(cam);
    assert_eq!(a.image, b.image, "the cache is a model, not a data path");
    for stage in [Stage::VoxelCoarse, Stage::VoxelFine] {
        assert_eq!(
            a.ledger.get(stage, Direction::Read),
            b.ledger.get(stage, Direction::Read),
            "demand bytes must be cache-invariant ({stage})"
        );
    }
    assert_eq!(a.ledger.total(), b.ledger.total());
    // Uncached DRAM counts every burst-rounded transfer; a cold cache can
    // only coalesce repeat fetches, never add traffic beyond line padding.
    assert!(b.ledger.dram_total() > 0);
    assert!(a.cache.is_none() && b.cache.is_some());
}

#[test]
fn paged_and_resident_backings_agree_under_caching() {
    let scene = SceneKind::Train.build(&SceneConfig::tiny());
    let cams = &scene.eval_cameras;
    let resident = StreamingScene::new(scene.trained.clone(), cached_config(scene.voxel_size, 2));
    let mut paged = resident.clone();
    paged.page_out(PageConfig {
        slots_per_page: 16,
        max_resident_pages: 4,
        ..PageConfig::default()
    });
    for (i, cam) in cams.iter().take(2).enumerate() {
        assert_outputs_identical(
            &resident.render(cam),
            &paged.render(cam),
            &format!("cached frame {i}"),
        );
    }
}

#[test]
fn cloud_twin_stays_byte_exact_with_cache_enabled() {
    // The cloud-backed twin is gone; the cached VQ Lego frame it matched
    // is the committed golden row `lego/vq/cache`. Resident and paged
    // clones both start cold and must reproduce it.
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let cfg = StreamingConfig {
        cache: Some(CacheConfig::default()),
        threads: 1,
        ..vq_config(scene.voxel_size)
    };
    let resident = StreamingScene::new(scene.trained.clone(), cfg);
    let mut paged = resident.clone();
    paged.page_out(PageConfig::default());
    for (what, s) in [("resident", &resident), ("paged", &paged)] {
        let out = s.render(cam);
        assert!(
            out.degradation.is_clean(),
            "fault-free frame degraded: {what}"
        );
        assert_eq!(
            golden::frame_digest(&out),
            golden::digest("lego/vq/cache"),
            "cached VQ Lego diverged from its golden row: {what}"
        );
    }
}
