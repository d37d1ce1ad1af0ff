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
use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{PageConfig, StreamingConfig, StreamingOutput, StreamingScene};
use gs_vq::VqConfig;

/// One golden sequence: a prepared scene and the cameras it renders in
/// order, one fixture row per camera (consecutive frames share the
/// scene's persistent cache state).
struct Sequence {
    rows: Vec<String>,
    scene: StreamingScene,
    cams: Vec<Camera>,
}

/// Rows of the cached Playroom sequence (two consecutive cameras).
const PLAYROOM_CACHED_ROWS: [&str; 2] = [
    "playroom/raw/cache/stride3/cam0",
    "playroom/raw/cache/stride3/cam1",
];
/// Row of the cached VQ Lego frame.
const LEGO_CACHED_ROW: &str = "lego/vq/cache";

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
            out.push(Sequence {
                rows: vec![matrix_row(kind, use_vq)],
                scene: StreamingScene::new(scene.trained.clone(), config(scene.voxel_size, use_vq)),
                cams: vec![scene.eval_cameras[0]],
            });
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
        Sequence {
            rows: PLAYROOM_CACHED_ROWS.map(String::from).to_vec(),
            scene: StreamingScene::new(
                playroom.trained.clone(),
                StreamingConfig {
                    ray_stride: 3,
                    cache: Some(CacheConfig::default()),
                    ..config(playroom.voxel_size, false)
                },
            ),
            cams: playroom.eval_cameras[..2].to_vec(),
        },
        Sequence {
            rows: vec![LEGO_CACHED_ROW.to_string()],
            scene: StreamingScene::new(
                lego.trained.clone(),
                StreamingConfig {
                    cache: Some(CacheConfig::default()),
                    ..config(lego.voxel_size, true)
                },
            ),
            cams: vec![lego.eval_cameras[0]],
        },
    ]
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

/// Renders `cams` in order on `scene` and returns the frame digests.
fn digests(scene: &StreamingScene, cams: &[Camera]) -> Vec<u32> {
    cams.iter()
        .map(|cam| golden::frame_digest(&scene.render(cam)))
        .collect()
}

/// Asserts that `scene` — a fresh clone, so its cache starts cold —
/// renders every row of `seq` to its golden digest.
fn assert_golden(seq: &Sequence, scene: &StreamingScene, variant: &str) {
    for (row, got) in seq.rows.iter().zip(digests(scene, &seq.cams)) {
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
    for seq in matrix().iter().chain(&cached()) {
        for (row, d) in seq.rows.iter().zip(digests(&seq.scene, &seq.cams)) {
            println!("{row} {d:08x}");
        }
    }
}
