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
//! The fixture changes only when a change is *meant* to move output.
//! Regenerate it with
//! `cargo test -p gs-voxel --test golden_frames -- --ignored --nocapture`
//! and copy the printed rows over the file.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod golden;

use gs_core::camera::Camera;
use gs_mem::cache::CacheConfig;
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
