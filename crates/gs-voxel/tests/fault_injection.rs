//! Fault-injection contracts of the paged streaming renderer (PR 6):
//!
//! (a) **Transient faults are invisible** — with a seeded [`FaultPolicy`]
//!     injecting ≥1 % transient page faults on a paged+VQ trajectory,
//!     `try_render` output is bit-identical to the fault-free frame for
//!     any worker count, and the [`DegradationReport`] counts the retries
//!     exactly (`page_retries == injected.total()` when no fault is
//!     permanent).
//! (b) **Permanent faults degrade deterministically** — rendering
//!     completes without panicking, frames are bit-reproducible and the
//!     `DegradationReport`s identical across {1, 2, 0} threads.
//! (c) **Paged ≡ resident with checksums on** — CRC verification never
//!     changes a byte of output.
//! (d) **Fail-fast mode** — with `degrade_on_fault` off, permanent faults
//!     surface the lowest-index failing group's error for any worker
//!     count, frame after frame on one scene.
//! (e) **Version-1 images** — the committed v1 images still render
//!     identically, with checksum verification flagged off in the
//!     effective `PageConfig`.
//! (f) **File-backed faults** — the same transient-recovery contract
//!     holds when the faulty pages are read from an on-disk scene image
//!     (`page_out_file_with_faults` / `open_paged_file_with_faults`).
//! (g) **Dead-page map** — `dead_page_map` starts all-healthy, marks
//!     pages lost to permanent faults, and agrees with the aggregate
//!     `fault_snapshot().dead_pages` count.
//! (h) **Tier columns are fault domains** — a paged v3 store's extra LOD
//!     tier columns recover from transient faults bit-identically and
//!     dead-mark per (tier, page), agreeing with the snapshot.
//! (i) **Replica reads heal dead pages** (ISSUE 10) — with a
//!     byte-compatible replica attached, pages lost to permanent faults
//!     re-fetch from the replica instead of degrading: frames come back
//!     bit-identical to fault-free rendering for any worker count, heals
//!     are counted in the [`DegradationReport`], healed pages re-verify
//!     their CRC chunks (a corrupt replica is rejected page-by-page),
//!     and attach validates byte-compatibility up front.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{
    DegradationReport, FaultPolicy, PageConfig, StreamingConfig, StreamingOutput, StreamingScene,
};
use gs_vq::VqConfig;

fn vq_config(voxel_size: f32, threads: usize) -> StreamingConfig {
    StreamingConfig {
        voxel_size,
        use_vq: true,
        vq: VqConfig::tiny(),
        threads,
        ..Default::default()
    }
}

/// Small pages so a tiny scene still spans many page reads (= many fault
/// draws), generous retry budget so transient runs cannot exhaust it.
fn page_config() -> PageConfig {
    PageConfig {
        slots_per_page: 16,
        max_read_attempts: 8,
        ..PageConfig::default()
    }
}

fn outputs_identical(a: &StreamingOutput, b: &StreamingOutput, what: &str) {
    assert_eq!(a.image, b.image, "image diverged: {what}");
    assert_eq!(a.workload, b.workload, "workload diverged: {what}");
    assert_eq!(a.ledger, b.ledger, "ledger diverged: {what}");
    assert_eq!(a.violations, b.violations, "violations diverged: {what}");
    assert_eq!(a.cache, b.cache, "cache report diverged: {what}");
}

#[test]
fn transient_faults_render_bit_identically_and_count_retries() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cams = &scene.eval_cameras[..2.min(scene.eval_cameras.len())];
    // 2 % transient faults — past the ≥1 % acceptance bar.
    let policy = FaultPolicy::transient(0xFA17_5EED, 20);

    let clean = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    let mut clean = clean;
    clean.page_out(page_config());
    let clean_frames: Vec<StreamingOutput> = cams
        .iter()
        .map(|c| clean.try_render(c).expect("fault-free render"))
        .collect();
    for f in &clean_frames {
        assert!(f.degradation.is_clean(), "fault-free paged frame degraded");
    }

    let mut reference: Option<Vec<StreamingOutput>> = None;
    for threads in [1usize, 2, 0] {
        let mut faulty =
            StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, threads));
        faulty
            .page_out_with_faults(page_config(), policy)
            .expect("serialize + reopen with faults");
        let frames: Vec<StreamingOutput> = cams
            .iter()
            .map(|c| faulty.try_render(c).expect("transient faults must recover"))
            .collect();
        let mut injected_total = 0;
        for (i, (f, c)) in frames.iter().zip(&clean_frames).enumerate() {
            // Recovery is invisible in every output byte…
            outputs_identical(f, c, &format!("threads={threads} frame={i}"));
            // …and accounted exactly: every injected fault (all transient
            // here) caused exactly one retry, no page was lost, nothing
            // was degraded.
            let d = f.degradation;
            assert_eq!(d.injected.permanent, 0, "transient-only policy");
            assert_eq!(
                d.page_retries,
                d.injected.total(),
                "retries must count injected faults exactly (frame {i})"
            );
            assert_eq!(d.pages_lost, 0);
            assert_eq!(d.voxels_skipped + d.fine_degraded + d.fine_skipped, 0);
            injected_total += d.injected.total();
        }
        assert!(
            injected_total > 0,
            "the policy never fired — the test is vacuous"
        );
        // The injected fault sequence itself is thread-invariant.
        match &reference {
            None => reference = Some(frames),
            Some(r) => {
                for (i, (a, b)) in r.iter().zip(&frames).enumerate() {
                    assert_eq!(
                        a.degradation, b.degradation,
                        "degradation diverged at threads={threads} frame={i}"
                    );
                }
            }
        }
    }
}

#[test]
fn permanent_faults_degrade_without_panicking_and_deterministically() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cams = &scene.eval_cameras[..2.min(scene.eval_cameras.len())];
    let policy = FaultPolicy {
        seed: 0xDEAD_BEEF,
        permanent_per_mille: 150,
        ..FaultPolicy::default()
    };

    let mut reference: Option<Vec<(gs_core::image::ImageRgb, DegradationReport)>> = None;
    for threads in [1usize, 2, 0] {
        let mut faulty =
            StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, threads));
        faulty
            .page_out_with_faults(page_config(), policy)
            .expect("reopen with faults");
        let frames: Vec<(gs_core::image::ImageRgb, DegradationReport)> = cams
            .iter()
            .map(|c| {
                let out = faulty
                    .try_render(c)
                    .expect("degradation must absorb permanent faults");
                (out.image, out.degradation)
            })
            .collect();
        let lost: u64 = frames.iter().map(|(_, d)| d.pages_lost).sum();
        let degraded: u64 = frames
            .iter()
            .map(|(_, d)| d.voxels_skipped + d.fine_degraded + d.fine_skipped)
            .sum();
        assert!(lost > 0, "no page went dead — the test is vacuous");
        assert!(degraded > 0, "dead pages must surface as degraded voxels");
        match &reference {
            None => reference = Some(frames),
            Some(r) => assert_eq!(
                r, &frames,
                "permanent-fault frames must be deterministic (threads={threads})"
            ),
        }
    }
}

#[test]
fn checksummed_paged_rendering_matches_resident() {
    let scene = SceneKind::Palace.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 2));
    let mut paged = resident.clone();
    paged.page_out(page_config());
    assert!(
        paged
            .store()
            .page_config()
            .expect("paged store")
            .verify_checksums,
        "v2 images must verify by default"
    );
    outputs_identical(&resident.render(cam), &paged.render(cam), "verified paged");
}

#[test]
fn fail_fast_mode_surfaces_the_same_error_for_any_worker_count() {
    use gs_core::camera::Camera;
    use gs_core::vec::Vec3;
    use gs_voxel::ColumnKind;
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    // After the eval view, a close view fails in groups from the top row
    // down; the last looks further up and right, sees nothing in the top
    // row and fails only further down — so an error left behind in one
    // of the previous frame's output slots would surface ahead of the
    // last frame's own.
    let look = |side: f32, up: f32| {
        let eye = Vec3::new(0.4, 0.3, -3.0);
        Camera::look_at(eye, Vec3::new(side, up, 0.0), Vec3::Y, 160, 120, 0.9)
    };
    let cams = [scene.eval_cameras[0], look(1.0, 0.0), look(1.5, 1.0)];
    let policy = FaultPolicy {
        seed: 0xBAD_F00D,
        permanent_per_mille: 400,
        ..FaultPolicy::default()
    };
    let cfg = StreamingConfig {
        degrade_on_fault: false,
        ..vq_config(scene.voxel_size, 1)
    };
    let faulty = |threads: usize| {
        let mut s = StreamingScene::new(scene.trained.clone(), StreamingConfig { threads, ..cfg });
        s.page_out_with_faults(page_config(), policy)
            .expect("reopen with faults");
        s
    };
    let error_of = |s: &StreamingScene, cam| match s.try_render(cam) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("fail-fast mode must surface the fault"),
    };
    // Each camera's error as the first frame of a fresh serial scene.
    let fresh: Vec<String> = cams.iter().map(|c| error_of(&faulty(1), c)).collect();
    assert_ne!(
        fresh[1], fresh[2],
        "setup: the last two frames must fail apart"
    );
    let dead_map = |s: &StreamingScene| {
        (
            s.dead_page_map(ColumnKind::Coarse),
            s.dead_page_map(ColumnKind::Fine),
        )
    };
    let mut reference_dead = None;
    for threads in [1usize, 2, 3, 0] {
        let s = faulty(threads);
        // Consecutive failing frames on one scene: each surfaces its own
        // lowest-index failing group's error — never an error some
        // group's output slot kept from the frame before.
        for (f, cam) in cams.iter().enumerate() {
            assert_eq!(
                error_of(&s, cam),
                fresh[f],
                "error diverged at threads={threads} frame={f}"
            );
        }
        // A failing frame still renders its other groups, so the pages
        // it killed are the same set for any worker count.
        let dead = dead_map(&s);
        match &reference_dead {
            None => reference_dead = Some(dead),
            Some(r) => assert_eq!(r, &dead, "dead pages diverged at threads={threads}"),
        }
    }
}

#[test]
fn file_backed_transient_faults_recover_bit_identically() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let path = std::env::temp_dir().join(format!("gs_fault_file_{}.scene", std::process::id()));

    // Fault-free file-backed reference (exercises `open_paged_file`).
    let mut clean = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    clean
        .page_out_file(&path, page_config())
        .expect("serialize + reopen from file");
    let clean_frame = clean
        .try_render(cam)
        .expect("fault-free file-backed render");
    assert!(
        clean_frame.degradation.is_clean(),
        "fault-free file-backed frame degraded"
    );

    // Same image, same file, transient faults on the positional reads.
    let policy = FaultPolicy::transient(0xFA17_5EED, 20);
    let mut faulty = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    faulty
        .page_out_file_with_faults(&path, page_config(), policy)
        .expect("serialize + reopen from file with faults");
    let frame = faulty
        .try_render(cam)
        .expect("transient faults must recover");
    outputs_identical(&frame, &clean_frame, "file-backed transient faults");
    let d = frame.degradation;
    assert!(
        d.injected.total() > 0,
        "the policy never fired — the test is vacuous"
    );
    assert_eq!(
        d.page_retries,
        d.injected.total(),
        "retries must count injected faults exactly"
    );
    assert_eq!(d.pages_lost, 0, "transient-only policy");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dead_page_map_exposes_permanent_faults() {
    use gs_voxel::ColumnKind;
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];

    // Resident backings have no pages at all.
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    assert!(resident.dead_page_map(ColumnKind::Coarse).is_empty());
    assert!(resident.dead_page_map(ColumnKind::Fine).is_empty());

    let mut faulty = resident.clone();
    faulty
        .page_out_with_faults(
            page_config(),
            FaultPolicy {
                seed: 0xDEAD_BEEF,
                permanent_per_mille: 150,
                ..FaultPolicy::default()
            },
        )
        .expect("reopen with faults");
    // Faults fire on page reads, never at open: everything starts healthy.
    let coarse0 = faulty.dead_page_map(ColumnKind::Coarse);
    let fine0 = faulty.dead_page_map(ColumnKind::Fine);
    assert!(
        !coarse0.is_empty() || !fine0.is_empty(),
        "paged columns must expose page tables"
    );
    assert!(
        coarse0.iter().chain(&fine0).all(|&dead| !dead),
        "pages must start healthy"
    );

    let out = faulty
        .try_render(cam)
        .expect("degradation must absorb permanent faults");
    assert!(
        out.degradation.pages_lost > 0,
        "no page went dead — the test is vacuous"
    );
    let dead: u64 = [ColumnKind::Coarse, ColumnKind::Fine]
        .iter()
        .map(|&c| faulty.dead_page_map(c).iter().filter(|&&dead| dead).count() as u64)
        .sum();
    assert!(dead > 0, "permanent faults must surface in the map");
    assert_eq!(
        dead,
        faulty.store().fault_snapshot().dead_pages,
        "map must agree with the aggregate snapshot"
    );
}

#[test]
fn v1_images_render_identically_with_verification_flagged_off() {
    // The committed v1 images hold the 48-Gaussian Lego cloud, raw and VQ.
    let scene = SceneKind::Lego.build(&SceneConfig {
        gaussians: 48,
        ..SceneConfig::tiny()
    });
    let cam = &scene.eval_cameras[0];
    let images: [(&[u8], bool); 2] = [
        (include_bytes!("golden/images/v1_raw.bin"), false),
        (include_bytes!("golden/images/v1_vq.bin"), true),
    ];
    for (image, use_vq) in images {
        let cfg = StreamingConfig {
            use_vq,
            ..vq_config(scene.voxel_size, 1)
        };
        let resident = StreamingScene::new(scene.trained.clone(), cfg);
        let mut v1 = resident.clone();
        v1.open_paged_bytes(image.to_vec(), page_config())
            .expect("v1 image must stay readable");
        let effective = v1.store().page_config().expect("paged store");
        assert!(
            !effective.verify_checksums,
            "a v1 image has no checksums to verify"
        );
        let out = v1.render(cam);
        assert!(
            out.image.as_slice().iter().any(|p| p.x > 0.0),
            "blank frame"
        );
        outputs_identical(
            &resident.render(cam),
            &out,
            &format!("v1 paged (vq={use_vq})"),
        );
    }
    // An image of another cloud is refused, not rendered.
    let mut other = StreamingScene::new(
        SceneKind::Lego.build(&SceneConfig::tiny()).trained,
        StreamingConfig {
            use_vq: false,
            ..vq_config(scene.voxel_size, 1)
        },
    );
    let image = include_bytes!("golden/images/v1_raw.bin").to_vec();
    assert!(other.open_paged_bytes(image, page_config()).is_err());
}

/// (h) Tier columns are first-class fault domains: a paged tiered (v3)
/// store exposes a per-tier page table, transient faults on the render's
/// tier reads recover bit-identically, and permanent faults dead-mark
/// per (tier, page) in agreement with the aggregate snapshot.
#[test]
fn tier_columns_recover_and_dead_mark_like_the_fine_column() {
    use gs_voxel::{ColumnKind, QualityPolicy, StreamingConfig};
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    // Force the coarsest tier so every fine fetch goes through a tier
    // column — the fault draws land where this test looks.
    let cfg = StreamingConfig {
        tiers: StreamingConfig::default_tier_ladder(),
        quality: QualityPolicy::ForcedTier { tier: 3 },
        ..vq_config(scene.voxel_size, 1)
    };
    let resident = StreamingScene::new(scene.trained.clone(), cfg);
    let n_tiers = resident.store().tier_count();
    assert!(n_tiers >= 2, "ladder must build multiple tiers");
    let clean = resident.render(cam);
    assert!(
        clean.tiers.fetched_bytes[3] > 0,
        "forced tier 3 must fetch tier records"
    );

    // Transient faults: bit-identical recovery, retries counted.
    let mut transient = resident.clone();
    transient
        .page_out_with_faults(page_config(), FaultPolicy::transient(0x7151_0001, 200))
        .expect("reopen with faults");
    let out = transient.try_render(cam).expect("transient faults retry");
    outputs_identical(&clean, &out, "tiered + transient faults");
    assert!(out.degradation.page_retries > 0, "no fault fired — vacuous");

    // Permanent faults: pages die per (tier, page), others stay healthy,
    // and the per-column maps agree with the aggregate count.
    let mut perma = resident.clone();
    perma
        .page_out_with_faults(
            page_config(),
            FaultPolicy {
                seed: 0x7151_0002,
                permanent_per_mille: 150,
                ..FaultPolicy::default()
            },
        )
        .expect("reopen with faults");
    for t in 0..n_tiers {
        let map = perma.dead_page_map(ColumnKind::Tier(t as u8));
        assert!(!map.is_empty(), "paged tier {t} must expose a page table");
        assert!(map.iter().all(|&dead| !dead), "pages must start healthy");
    }
    let out = perma
        .try_render(cam)
        .expect("degradation must absorb permanent faults");
    assert!(out.degradation.pages_lost > 0, "no page died — vacuous");
    let dead: u64 = (0..n_tiers)
        .map(|t| ColumnKind::Tier(t as u8))
        .chain([ColumnKind::Coarse, ColumnKind::Fine])
        .map(|c| perma.dead_page_map(c).iter().filter(|&&d| d).count() as u64)
        .sum();
    assert_eq!(
        dead,
        perma.store().fault_snapshot().dead_pages,
        "per-column maps must agree with the aggregate snapshot"
    );
}

/// A permanent-fault policy hot enough that a trajectory loses pages.
fn permanent_policy() -> FaultPolicy {
    FaultPolicy {
        seed: 0xDEAD_BEEF,
        permanent_per_mille: 150,
        ..FaultPolicy::default()
    }
}

#[test]
fn replica_heals_permanently_faulted_pages_bit_identically() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cams = &scene.eval_cameras[..2.min(scene.eval_cameras.len())];
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    // The replica is the same serialized image the paged store reads —
    // serialization is deterministic, so these bytes are what
    // `page_out_with_faults` pages from (minus the injected faults).
    let replica_image = resident.store().to_scene_bytes();

    let mut clean = resident.clone();
    clean.page_out(page_config());
    let clean_frames: Vec<StreamingOutput> = cams.iter().map(|c| clean.render(c)).collect();

    let mut reference: Option<Vec<StreamingOutput>> = None;
    for threads in [1usize, 2, 0] {
        let mut faulty =
            StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, threads));
        faulty
            .page_out_with_faults(page_config(), permanent_policy())
            .expect("reopen with permanent faults");
        faulty
            .attach_replica_bytes(replica_image.clone())
            .expect("byte-compatible replica must attach");
        let frames: Vec<StreamingOutput> = cams
            .iter()
            .map(|c| faulty.try_render(c).expect("replica must absorb faults"))
            .collect();
        let mut healed_total = 0;
        for (i, (f, c)) in frames.iter().zip(&clean_frames).enumerate() {
            // Healing is invisible in every output byte…
            outputs_identical(f, c, &format!("healed threads={threads} frame={i}"));
            // …and the frame degrades nothing: pages heal instead of dying.
            let d = f.degradation;
            assert_eq!(d.pages_lost, 0, "healed pages must not count as lost");
            assert_eq!(d.voxels_skipped + d.fine_degraded + d.fine_skipped, 0);
            healed_total += d.pages_healed;
        }
        assert!(
            healed_total > 0,
            "the policy never killed a page — the test is vacuous"
        );
        let snap = faulty.store().fault_snapshot();
        assert_eq!(snap.dead_pages, 0, "every dead page must have healed");
        assert_eq!(snap.pages_healed, healed_total);
        // The heal sequence itself is thread-invariant.
        match &reference {
            None => reference = Some(frames),
            Some(r) => {
                for (i, (a, b)) in r.iter().zip(&frames).enumerate() {
                    outputs_identical(a, b, &format!("threads={threads} frame={i}"));
                    assert_eq!(a.degradation, b.degradation);
                }
            }
        }
    }
}

#[test]
fn replica_file_heals_like_the_in_memory_replica() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let path = std::env::temp_dir().join(format!("gs_replica_{}.scene", std::process::id()));
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    std::fs::write(&path, resident.store().to_scene_bytes()).expect("write replica image");

    let mut clean = resident.clone();
    clean.page_out(page_config());
    let clean_frame = clean.render(cam);

    let mut faulty = resident.clone();
    faulty
        .page_out_with_faults(page_config(), permanent_policy())
        .expect("reopen with permanent faults");
    faulty
        .attach_replica_file(&path)
        .expect("on-disk replica must attach");
    let frame = faulty.try_render(cam).expect("replica must absorb faults");
    outputs_identical(&frame, &clean_frame, "file-backed replica heal");
    assert!(frame.degradation.pages_healed > 0, "no heal happened");
    assert_eq!(frame.degradation.pages_lost, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_replica_chunks_fail_reverification_and_pages_stay_dead() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    let image = resident.store().to_scene_bytes();
    // Corrupt the column payload (the image's back quarter — far past the
    // metadata prefix) densely enough that every page there fails its CRC
    // re-verification at heal time. The metadata prefix stays intact, so
    // the attach-time compatibility check cannot catch this — only the
    // per-chunk checksums can.
    let mut corrupt = image.clone();
    let start = corrupt.len() * 3 / 4;
    for i in (start..corrupt.len()).step_by(16) {
        corrupt[i] ^= 0xFF;
    }

    let mut reference: Option<(StreamingOutput, u64, u64)> = None;
    for threads in [1usize, 2, 0] {
        let mut faulty =
            StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, threads));
        faulty
            .page_out_with_faults(page_config(), permanent_policy())
            .expect("reopen with permanent faults");
        faulty
            .attach_replica_bytes(corrupt.clone())
            .expect("intact metadata prefix must attach");
        let out = faulty
            .try_render(cam)
            .expect("degradation must absorb heal failures");
        let snap = faulty.store().fault_snapshot();
        assert!(
            snap.dead_pages > 0,
            "a corrupt replica must not resurrect pages it cannot verify"
        );
        assert!(
            out.degradation.pages_lost > 0 || out.degradation.pages_healed > 0,
            "the policy never killed a page — the test is vacuous"
        );
        // Heal failures degrade exactly like replica-less losses:
        // deterministically, for any worker count.
        match &reference {
            None => reference = Some((out, snap.dead_pages, snap.pages_healed)),
            Some((r, dead, healed)) => {
                outputs_identical(r, &out, &format!("corrupt replica threads={threads}"));
                assert_eq!(r.degradation, out.degradation);
                assert_eq!((*dead, *healed), (snap.dead_pages, snap.pages_healed));
            }
        }
    }
}

#[test]
fn replica_attach_validates_byte_compatibility_up_front() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let resident = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size, 1));
    let image = resident.store().to_scene_bytes();

    // Resident stores have no pages to heal.
    assert!(resident.attach_replica_bytes(image.clone()).is_err());

    let mut paged = resident.clone();
    paged.page_out(page_config());
    // Wrong length.
    assert!(paged
        .attach_replica_bytes(image[..image.len() - 1].to_vec())
        .is_err());
    // Diverging metadata prefix (a flipped byte in the header tables).
    let mut bad_meta = image.clone();
    bad_meta[30] ^= 0xFF;
    assert!(paged.attach_replica_bytes(bad_meta).is_err());
    // The real image attaches fine after all those rejections.
    paged
        .attach_replica_bytes(image)
        .expect("byte-compatible replica must attach");
}
