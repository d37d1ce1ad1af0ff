//! Golden frame digests: the streaming renderer's output pinned against
//! committed values instead of against a second in-tree render path.
//!
//! Each row of `tests/golden/frames.txt` is `<row> <crc32>`: the
//! `gs_mem::crc::crc32` of one frame's canonical bytes (`golden::frame_bytes`
//! — image f32 bits, every tile's workload record, the ledger, the
//! violations and the cache / degradation / tier reports, all
//! little-endian in a fixed field order). The matrix is the six scene
//! kinds × {raw, VQ} at `SceneConfig::tiny()` and the first eval camera,
//! plus two cached rows: Playroom with `ray_stride: 3` over two
//! consecutive cameras (the second frame starts from the first frame's
//! warm cache) and VQ Lego. Every row must be hit by resident rendering
//! at `threads` ∈ {1, 2, 0 = all cores} and by a demand-paged clone, so
//! parallel ≡ serial and paged ≡ resident are pinned against fixed bytes,
//! not only against each other.
//!
//! Truck rows pin the LOD-tier fetch path and the fault-degradation path
//! with `default_tier_ladder()`:
//!
//! * `truck/vq/tiers/hysteresis/cam0` and `/cam1`: VQ, uncached,
//!   `Hysteresis { threshold: 64.0, margin: 0.2 }` over two consecutive
//!   cameras (the second frame selects against the first one's tiers);
//! * `truck/raw/tiers/budget/cache`: raw, `ByteBudget { bytes: 200_000 }`
//!   with the default cache;
//! * `truck/vq/faults` (uncached, tierless) and
//!   `truck/vq/tiers/faults/cache` (cached, ladder,
//!   `ScreenSpaceError { threshold: 64.0 }`), both paged out with
//!   permanent faults (`FaultPolicy { seed: 0xDEAD_BEEF,
//!   permanent_per_mille: 150 }`, 16 slots per page, 8 read attempts).
//!
//! Every tier frame must put voxels in at least two tier lanes and every
//! fault frame must degrade, so a row cannot silently stop covering its
//! path. The fault rows render on clones of the faulted scene (cold,
//! independent page state each) and skip the demand-paged pass: their
//! scene is paged already.
//!
//! `tests/golden/images.txt` pins the scene-image writer the same way:
//! one CRC-32 of `to_scene_bytes()` for tiny Lego, raw and VQ, without
//! tiers (v2) and with `default_tier_ladder()` (v3). A twin reader would
//! share any drift with the writer; a committed digest does not. The
//! digest leaves out the image's metadata-CRC word: a CRC-32 over a
//! message followed by that message's own CRC is a constant, so digesting
//! the word would blind the row to the whole metadata prefix (header, id
//! tables, codebooks, tier directory). The reader re-verifies the word on
//! every open. The read-only
//! formats (v1, tierless v3) are pinned by the committed images under
//! `tests/golden/images/`, which the store, fault-injection and LOD
//! suites open.
//!
//! The fixtures change only when a change is *meant* to move output.
//! Regenerate them with
//! `cargo test -p gs-voxel --test golden_frames -- --ignored --nocapture`
//! and copy the printed rows over the files.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod golden;

use gs_core::camera::Camera;
use gs_mem::cache::CacheConfig;
use gs_mem::crc::{crc32, Crc32};
use gs_scene::{Scene, SceneConfig, SceneKind};
use gs_voxel::{
    FaultPolicy, PageConfig, QualityPolicy, StreamingConfig, StreamingOutput, StreamingScene,
};
use gs_vq::VqConfig;

/// One golden sequence: a prepared scene and the cameras it renders in
/// order, one fixture row per camera (consecutive frames share the
/// scene's persistent cache and tier-hysteresis state).
struct Sequence {
    rows: Vec<String>,
    scene: StreamingScene,
    cams: Vec<Camera>,
    /// Every frame must put voxels in at least two tier lanes.
    tiers: bool,
    /// Every frame must degrade around faulted pages.
    faults: bool,
}

impl Sequence {
    fn new(rows: &[&str], scene: StreamingScene, cams: &[Camera]) -> Sequence {
        Sequence {
            rows: rows.iter().map(|r| r.to_string()).collect(),
            scene,
            cams: cams.to_vec(),
            tiers: false,
            faults: false,
        }
    }
}

/// Rows of the cached Playroom sequence (two consecutive cameras).
const PLAYROOM_CACHED_ROWS: [&str; 2] = [
    "playroom/raw/cache/stride3/cam0",
    "playroom/raw/cache/stride3/cam1",
];
/// Row of the cached VQ Lego frame.
const LEGO_CACHED_ROW: &str = "lego/vq/cache";
/// Rows of the tiered VQ Truck sequence under hysteresis (two
/// consecutive cameras).
const TRUCK_HYSTERESIS_ROWS: [&str; 2] = [
    "truck/vq/tiers/hysteresis/cam0",
    "truck/vq/tiers/hysteresis/cam1",
];
/// Row of the cached, byte-budgeted raw Truck frame.
const TRUCK_BUDGET_ROW: &str = "truck/raw/tiers/budget/cache";
/// Row of the uncached, tierless VQ Truck frame with permanent faults.
const TRUCK_FAULTS_ROW: &str = "truck/vq/faults";
/// Row of the cached, tiered VQ Truck frame with permanent faults.
const TRUCK_TIER_FAULTS_ROW: &str = "truck/vq/tiers/faults/cache";

/// The committed scene-image digests, one `<row> <crc32 hex>` per writer
/// variant.
const IMAGES: &str = include_str!("golden/images.txt");
/// The writer variants `images.txt` pins: (row, VQ, LOD tiers).
const IMAGE_ROWS: [(&str, bool, bool); 4] = [
    ("lego/raw/v2", false, false),
    ("lego/vq/v2", true, false),
    ("lego/raw/tiers/v3", false, true),
    ("lego/vq/tiers/v3", true, true),
];

fn matrix_row(kind: SceneKind, use_vq: bool) -> String {
    format!("{}/{}", kind.name(), if use_vq { "vq" } else { "raw" })
}

fn config(voxel_size: f32, use_vq: bool) -> StreamingConfig {
    StreamingConfig {
        voxel_size,
        use_vq,
        vq: VqConfig::tiny(),
        threads: 1,
        ..Default::default()
    }
}

/// The 6 scene kinds × {raw, VQ}, one frame each at the first eval
/// camera.
fn matrix() -> Vec<Sequence> {
    let mut out = Vec::new();
    for kind in SceneKind::ALL {
        let scene = kind.build(&SceneConfig::tiny());
        for use_vq in [false, true] {
            out.push(Sequence::new(
                &[&matrix_row(kind, use_vq)],
                StreamingScene::new(scene.trained.clone(), config(scene.voxel_size, use_vq)),
                &scene.eval_cameras[..1],
            ));
        }
    }
    out
}

/// The cached rows: strided raw Playroom over two consecutive cameras,
/// and VQ Lego.
fn cached() -> Vec<Sequence> {
    let playroom = SceneKind::Playroom.build(&SceneConfig::tiny());
    let lego = SceneKind::Lego.build(&SceneConfig::tiny());
    vec![
        Sequence::new(
            &PLAYROOM_CACHED_ROWS,
            StreamingScene::new(
                playroom.trained.clone(),
                StreamingConfig {
                    ray_stride: 3,
                    cache: Some(CacheConfig::default()),
                    ..config(playroom.voxel_size, false)
                },
            ),
            &playroom.eval_cameras[..2],
        ),
        Sequence::new(
            &[LEGO_CACHED_ROW],
            StreamingScene::new(
                lego.trained.clone(),
                StreamingConfig {
                    cache: Some(CacheConfig::default()),
                    ..config(lego.voxel_size, true)
                },
            ),
            &lego.eval_cameras[..1],
        ),
    ]
}

/// Tiny Truck with the default tier ladder under `quality`.
fn truck_tiers(
    truck: &Scene,
    use_vq: bool,
    quality: QualityPolicy,
    cache: Option<CacheConfig>,
) -> StreamingScene {
    StreamingScene::new(
        truck.trained.clone(),
        StreamingConfig {
            tiers: StreamingConfig::default_tier_ladder(),
            quality,
            cache,
            ..config(truck.voxel_size, use_vq)
        },
    )
}

/// The tier rows: VQ Truck under hysteresis over two consecutive
/// cameras, and cached raw Truck under a byte budget.
fn tiered() -> Vec<Sequence> {
    let truck = SceneKind::Truck.build(&SceneConfig::tiny());
    let hysteresis = QualityPolicy::Hysteresis {
        threshold: 64.0,
        margin: 0.2,
    };
    let budget = QualityPolicy::ByteBudget { bytes: 200_000 };
    [
        Sequence::new(
            &TRUCK_HYSTERESIS_ROWS,
            truck_tiers(&truck, true, hysteresis, None),
            &truck.eval_cameras[..2],
        ),
        Sequence::new(
            &[TRUCK_BUDGET_ROW],
            truck_tiers(&truck, false, budget, Some(CacheConfig::default())),
            &truck.eval_cameras[..1],
        ),
    ]
    .map(|seq| Sequence { tiers: true, ..seq })
    .into_iter()
    .collect()
}

/// The fault rows: VQ Truck paged out with permanent faults, uncached
/// and tierless, then cached with the tier ladder.
fn faulted() -> Vec<Sequence> {
    let truck = SceneKind::Truck.build(&SceneConfig::tiny());
    let page = PageConfig {
        slots_per_page: 16,
        max_read_attempts: 8,
        ..PageConfig::default()
    };
    let policy = FaultPolicy {
        seed: 0xDEAD_BEEF,
        permanent_per_mille: 150,
        ..FaultPolicy::default()
    };
    let sse = QualityPolicy::ScreenSpaceError { threshold: 64.0 };
    let tierless = StreamingScene::new(truck.trained.clone(), config(truck.voxel_size, true));
    let cached = truck_tiers(&truck, true, sse, Some(CacheConfig::default()));
    [
        (TRUCK_FAULTS_ROW, tierless, false),
        (TRUCK_TIER_FAULTS_ROW, cached, true),
    ]
    .map(|(row, mut scene, tiers)| {
        scene.page_out_with_faults(page, policy).unwrap();
        Sequence {
            tiers,
            faults: true,
            ..Sequence::new(&[row], scene, &truck.eval_cameras[..1])
        }
    })
    .into_iter()
    .collect()
}

/// The scene image of tiny Lego (with the default tier ladder when
/// `tiers` is set) and its `images.txt` digest: CRC-32 of every byte but
/// the metadata-CRC word (see the module docs).
fn scene_image(use_vq: bool, tiers: bool) -> (Vec<u8>, u32) {
    let lego = SceneKind::Lego.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        tiers: if tiers {
            StreamingConfig::default_tier_ladder()
        } else {
            [None; 3]
        },
        ..config(lego.voxel_size, use_vq)
    };
    let scene = StreamingScene::new(lego.trained, cfg);
    let store = scene.store();
    let image = store.to_scene_bytes();
    // The columns close the image; the metadata CRC sits just before them.
    let columns = store.coarse_column_bytes()
        + store.fine_column_bytes()
        + (0..store.tier_count())
            .map(|t| store.tier_column_bytes(t))
            .sum::<u64>();
    let meta_end = image.len() - columns as usize;
    let meta = &image[..meta_end - 4];
    assert_eq!(image[meta_end - 4..meta_end], crc32(meta).to_le_bytes());
    let digest = Crc32::new()
        .update(meta)
        .update(&image[meta_end..])
        .finish();
    (image, digest)
}

/// Renders `seq`'s cameras in order on `scene` (`seq.scene` or a clone
/// of it), checks that every frame covers the paths `seq` claims, and
/// returns the frame digests.
fn digests(seq: &Sequence, scene: &StreamingScene) -> Vec<u32> {
    seq.rows
        .iter()
        .zip(&seq.cams)
        .map(|(row, cam)| {
            let out = scene.render(cam);
            if seq.tiers {
                let lanes = out.tiers.voxels.iter().filter(|&&v| v > 0).count();
                assert!(lanes >= 2, "{row}: {lanes} tier lane(s) used, want >= 2");
            }
            if seq.faults {
                assert!(!out.degradation.is_clean(), "{row}: frame did not degrade");
            }
            golden::frame_digest(&out)
        })
        .collect()
}

/// Asserts that `scene` — a fresh clone, so its cache starts cold —
/// renders every row of `seq` to its golden digest.
fn assert_golden(seq: &Sequence, scene: &StreamingScene, variant: &str) {
    for (row, got) in seq.rows.iter().zip(digests(seq, scene)) {
        let want = golden::digest(row);
        assert_eq!(
            got, want,
            "{row} ({variant}): digest {got:08x}, golden {want:08x}"
        );
    }
}

fn assert_threads(seqs: &[Sequence]) {
    for seq in seqs {
        for threads in [1usize, 2, 0] {
            let mut scene = seq.scene.clone();
            scene.set_threads(threads);
            assert_golden(seq, &scene, &format!("threads={threads}"));
        }
    }
}

fn assert_paged(seqs: &[Sequence]) {
    for seq in seqs {
        let mut scene = seq.scene.clone();
        scene.page_out(PageConfig::default());
        assert_golden(seq, &scene, "paged");
    }
}

#[test]
fn resident_frames_match_goldens_at_every_thread_count() {
    assert_threads(&matrix());
}

#[test]
fn paged_clones_match_goldens() {
    assert_paged(&matrix());
}

#[test]
fn cached_frames_match_goldens_resident_and_paged() {
    let seqs = cached();
    assert_threads(&seqs);
    assert_paged(&seqs);
}

#[test]
fn tiered_frames_match_goldens_resident_and_paged() {
    let seqs = tiered();
    assert_threads(&seqs);
    assert_paged(&seqs);
}

#[test]
fn faulted_frames_match_goldens_at_every_thread_count() {
    assert_threads(&faulted());
}

#[test]
fn fixture_has_one_row_per_golden_frame() {
    let rows: Vec<&str> = golden::GOLDEN
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut expected: Vec<String> = SceneKind::ALL
        .into_iter()
        .flat_map(|kind| [false, true].map(|use_vq| matrix_row(kind, use_vq)))
        .collect();
    expected.extend(PLAYROOM_CACHED_ROWS.map(String::from));
    expected.push(LEGO_CACHED_ROW.to_string());
    expected.extend(TRUCK_HYSTERESIS_ROWS.map(String::from));
    expected.extend([TRUCK_BUDGET_ROW, TRUCK_FAULTS_ROW, TRUCK_TIER_FAULTS_ROW].map(String::from));
    assert_eq!(rows, expected, "fixture rows out of step with the matrix");
}

#[test]
fn scene_images_match_goldens() {
    let rows: Vec<&str> = IMAGES
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(rows, IMAGE_ROWS.map(|(row, ..)| row), "images.txt rows");
    for (row, use_vq, tiers) in IMAGE_ROWS {
        let (image, got) = scene_image(use_vq, tiers);
        let version = u32::from_le_bytes(image[4..8].try_into().unwrap());
        assert_eq!(version, if tiers { 3 } else { 2 }, "{row}: format version");
        let want = golden::row_digest(IMAGES, row);
        assert_eq!(got, want, "{row}: digest {got:08x}, golden {want:08x}");
    }
}

/// Prints the scene-image fixture. Run only to regenerate
/// `tests/golden/images.txt` after a change that is meant to move the
/// image bytes.
#[test]
#[ignore]
fn print_image_table() {
    for (row, use_vq, tiers) in IMAGE_ROWS {
        println!("{row} {:08x}", scene_image(use_vq, tiers).1);
    }
}

/// Prints the fixture (resident, one thread). Run only to regenerate
/// `tests/golden/frames.txt` after a change that is meant to move output.
#[test]
#[ignore]
fn print_golden_table() {
    for seq in [matrix(), cached(), tiered(), faulted()].iter().flatten() {
        for (row, d) in seq.rows.iter().zip(digests(seq, &seq.scene)) {
            println!("{row} {d:08x}");
        }
    }
}
