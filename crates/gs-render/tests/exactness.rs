//! Bit-exactness of the tile renderer against committed golden digests.
//!
//! The optimized pipeline (bbox-clipped rasterization + counting-sort
//! binning + frame arena + worker pool) must reproduce the **identical**
//! image and the **identical** `RenderStats` — every counter — that the
//! seed pipeline produced, on every stand-in scene. The digests were
//! recorded while the naive seed renderer still lived in the tree and
//! matched it bit for bit, so they keep pinning the paper's tile-centric
//! baseline (Fig. 2) that every PSNR reference and workload count uses.
//!
//! Each row of `tests/golden/render_frames.txt` is `<row> <crc32>`: the
//! `gs_mem::crc::crc32` of one frame's canonical bytes (image f32 bits,
//! then the 11 `RenderStats` counters in declaration order, all
//! little-endian). The rows are the six scene kinds × {trained, ground
//! truth} at `SceneConfig::tiny()` and the first eval camera, plus
//! Truck's trained cloud at the second eval camera. Every row must be hit
//! at `threads` ∈ {1, 2, 0 = all cores}. The fixture changes only when a
//! change is *meant* to move output; regenerate it with
//! `cargo test -p gs-render --test exactness -- --ignored --nocapture`.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_core::camera::Camera;
use gs_mem::crc::crc32;
use gs_render::{RenderConfig, RenderOutput, TileRenderer};
use gs_scene::{GaussianCloud, SceneConfig, SceneKind};

/// The committed fixture, one `<row> <crc32 hex>` line per frame.
const GOLDEN: &str = include_str!("golden/render_frames.txt");

/// One golden frame: its fixture row and what renders it.
struct Frame {
    row: String,
    cloud: GaussianCloud,
    cam: Camera,
}

/// The six scene kinds × {trained, ground truth} at the first eval camera.
fn scene_frames() -> Vec<Frame> {
    let mut out = Vec::new();
    for kind in SceneKind::ALL {
        let scene = kind.build(&SceneConfig::tiny());
        for (label, cloud) in [
            ("trained", scene.trained),
            ("ground_truth", scene.ground_truth),
        ] {
            out.push(Frame {
                row: format!("{}/{label}/cam0", kind.name()),
                cloud,
                cam: scene.eval_cameras[0],
            });
        }
    }
    out
}

/// Truck's trained cloud at every eval camera.
fn truck_frames() -> Vec<Frame> {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cams = scene.eval_cameras.iter().enumerate();
    cams.map(|(i, &cam)| Frame {
        row: format!("truck/trained/cam{i}"),
        cloud: scene.trained.clone(),
        cam,
    })
    .collect()
}

/// CRC-32 of the frame's canonical bytes (see the module docs).
fn frame_digest(out: &RenderOutput) -> u32 {
    let mut bytes = Vec::new();
    for p in out.image.as_slice() {
        for c in [p.x, p.y, p.z] {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    let s = &out.stats;
    for v in [
        s.total_gaussians,
        s.visible_gaussians,
        s.tile_pairs,
        s.occupied_tiles,
        s.total_tiles,
        s.pixels,
        s.blended_fragments,
        s.skipped_fragments,
        s.early_terminated_pixels,
        s.consumed_entries,
        s.max_tile_list,
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    crc32(&bytes)
}

/// The committed digest of `row`.
fn golden(row: &str) -> u32 {
    let line = GOLDEN
        .lines()
        .find(|l| l.split_whitespace().next() == Some(row))
        .unwrap_or_else(|| panic!("golden row {row} missing from render_frames.txt"));
    u32::from_str_radix(line.split_whitespace().nth(1).unwrap(), 16).unwrap()
}

/// Asserts every frame renders to its golden digest at threads 1, 2 and
/// all cores.
fn assert_goldens(frames: &[Frame]) {
    for threads in [1usize, 2, 0] {
        let renderer = TileRenderer::new(RenderConfig {
            threads,
            ..RenderConfig::default()
        });
        for f in frames {
            let (got, want) = (
                frame_digest(&renderer.render(&f.cloud, &f.cam)),
                golden(&f.row),
            );
            assert_eq!(
                got, want,
                "{} (threads={threads}): digest {got:08x}, golden {want:08x}",
                f.row
            );
        }
    }
}

#[test]
fn optimized_matches_reference_on_all_scenes() {
    assert_goldens(&scene_frames());
}

#[test]
fn optimized_matches_reference_on_every_eval_camera() {
    // Multiple viewpoints of one scene, catching view-dependent edge cases
    // (partial tiles, off-centre splats, frustum-edge Jacobian clamps).
    assert_goldens(&truck_frames());
}

#[test]
fn thread_count_never_changes_output() {
    // threads=1 vs several worker-pool widths (including one that does not
    // divide the tile count evenly) on every scene kind.
    for kind in SceneKind::ALL {
        let scene = kind.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let seq = TileRenderer::new(RenderConfig {
            threads: 1,
            ..RenderConfig::default()
        })
        .render(&scene.trained, cam);
        for threads in [2, 3, 8] {
            let par = TileRenderer::new(RenderConfig {
                threads,
                ..RenderConfig::default()
            })
            .render(&scene.trained, cam);
            assert_eq!(
                seq.image,
                par.image,
                "threads={threads} changed the image on {}",
                kind.name()
            );
            assert_eq!(
                seq.stats,
                par.stats,
                "threads={threads} changed the stats on {}",
                kind.name()
            );
        }
    }
}

#[test]
fn repeated_frames_on_one_renderer_are_stable() {
    // The arena/pool must not leak state between frames, including when the
    // camera (and thus tile count) changes between frames.
    let scene = SceneKind::Palace.build(&SceneConfig::tiny());
    let renderer = TileRenderer::new(RenderConfig {
        threads: 4,
        ..RenderConfig::default()
    });
    let mut firsts = Vec::new();
    for cam in &scene.eval_cameras {
        firsts.push(renderer.render(&scene.trained, cam));
    }
    for (cam, first) in scene.eval_cameras.iter().zip(&firsts) {
        let again = renderer.render(&scene.trained, cam);
        assert_eq!(again.image, first.image);
        assert_eq!(again.stats, first.stats);
    }
}

#[test]
fn fixture_has_one_row_per_golden_frame() {
    let rows: Vec<&str> = GOLDEN
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut expected: Vec<String> = scene_frames().into_iter().map(|f| f.row).collect();
    expected.push("truck/trained/cam1".to_string());
    assert_eq!(rows, expected, "fixture rows out of step with the frames");
}

/// Prints the fixture (one thread). Run only to regenerate
/// `tests/golden/render_frames.txt` after a change that is meant to move
/// output.
#[test]
#[ignore]
fn print_golden_table() {
    let renderer = TileRenderer::new(RenderConfig {
        threads: 1,
        ..RenderConfig::default()
    });
    let extra = truck_frames().into_iter().skip(1);
    for f in scene_frames().into_iter().chain(extra) {
        println!(
            "{} {:08x}",
            f.row,
            frame_digest(&renderer.render(&f.cloud, &f.cam))
        );
    }
}
