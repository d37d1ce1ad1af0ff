//! The store-backed data path's contracts:
//!
//! 1. **Byte-identical rendering** — the production path (coarse/fine
//!    phases reading only the [`gs_voxel::VoxelStore`] columns)
//!    reproduces, on every scene kind with and without VQ, the committed
//!    golden digest of image, workload, ledger and violations that the
//!    deleted cloud-backed twin also produced (`tests/golden/frames.txt`).
//! 2. **Ledger/workload consistency** — the frame's merged
//!    [`gs_mem::TrafficLedger`] stages agree exactly with the
//!    `TileWorkload` byte counters (the counters are *derived* from the
//!    ledger; this pins the contract).
//! 3. **Bit-exact store decode** — property tests that the second-half
//!    decode round-trips the raw parameters and the VQ quantizer exactly.

mod golden;

use gs_mem::{Direction, Stage, TrafficLedger};
use gs_scene::{Gaussian, GaussianCloud, SceneConfig, SceneKind};
use gs_voxel::{StreamingConfig, StreamingOutput, StreamingScene, VoxelGrid, VoxelStore};
use gs_vq::{GaussianQuantizer, VqConfig};
use proptest::prelude::*;

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

#[test]
fn store_path_is_byte_identical_to_cloud_twin_on_all_scene_kinds() {
    for kind in SceneKind::ALL {
        let scene = kind.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        for cfg in [raw_config(scene.voxel_size), vq_config(scene.voxel_size)] {
            let row = format!("{}/{}", kind.name(), if cfg.use_vq { "vq" } else { "raw" });
            let out = StreamingScene::new(scene.trained.clone(), cfg).render(cam);
            assert_eq!(
                golden::frame_digest(&out),
                golden::digest(&row),
                "store-backed frame diverged from its golden row {row}"
            );
        }
    }
}

#[test]
fn ledger_stages_match_workload_counters_on_every_scene_kind() {
    for kind in SceneKind::ALL {
        let scene = kind.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let out =
            StreamingScene::new(scene.trained.clone(), raw_config(scene.voxel_size)).render(cam);
        let t = out.workload.totals();
        assert_eq!(
            out.ledger.get(Stage::VoxelCoarse, Direction::Read),
            t.coarse_bytes,
            "coarse bytes diverged on {}",
            kind.name()
        );
        assert_eq!(
            out.ledger.get(Stage::VoxelFine, Direction::Read),
            t.fine_bytes,
            "fine bytes diverged on {}",
            kind.name()
        );
        assert_eq!(
            out.ledger.get(Stage::PixelOut, Direction::Write),
            t.pixel_bytes,
            "pixel bytes diverged on {}",
            kind.name()
        );
        assert_eq!(out.ledger.total(), out.workload.dram_bytes());
        // Rebuilding the ledger from the workload is exact in the other
        // direction too.
        assert_eq!(out.workload.to_ledger(), out.ledger);
    }
}

#[test]
fn ledger_is_deterministic_across_thread_counts() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let render_with = |threads: usize| {
        let cfg = StreamingConfig {
            threads,
            ..raw_config(scene.voxel_size)
        };
        StreamingScene::new(scene.trained.clone(), cfg).render(cam)
    };
    let one = render_with(1);
    for threads in [2usize, 4, 0] {
        let other = render_with(threads);
        assert_eq!(one.ledger, other.ledger, "threads={threads}");
        assert_eq!(one.image, other.image, "threads={threads}");
    }
}

#[test]
fn vq_second_half_traffic_reduction_meets_paper_bar() {
    // With VQ the fine stage's per-record width shrinks from 220 B to the
    // codebooks' record width; coarse survivors are identical (the first
    // half is raw either way), so the ledger's fine-stage reduction is
    // exactly the record-width ratio — ≥ 90 % (paper: 92.3 %).
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let raw = StreamingScene::new(scene.trained.clone(), raw_config(scene.voxel_size)).render(cam);
    let vq = StreamingScene::new(scene.trained.clone(), vq_config(scene.voxel_size)).render(cam);
    let raw_fine = raw.ledger.get(Stage::VoxelFine, Direction::Read);
    let vq_fine = vq.ledger.get(Stage::VoxelFine, Direction::Read);
    assert!(raw_fine > 0);
    let reduction = 1.0 - vq_fine as f64 / raw_fine as f64;
    assert!(
        reduction >= 0.9,
        "VQ second-half reduction only {reduction:.3}"
    );
    // Coarse traffic is unchanged by VQ.
    assert_eq!(
        raw.ledger.get(Stage::VoxelCoarse, Direction::Read),
        vq.ledger.get(Stage::VoxelCoarse, Direction::Read)
    );
}

fn cloud_strategy() -> impl Strategy<Value = GaussianCloud> {
    proptest::collection::vec(
        (
            -4.0f32..4.0,
            -2.0f32..2.0,
            -3.0f32..3.0,
            0.01f32..0.4,
            0.05f32..0.95,
        ),
        3..50,
    )
    .prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y, z, s, o))| {
                let mut g = Gaussian::isotropic(
                    gs_core::vec::Vec3::new(x, y, z),
                    s,
                    gs_core::vec::Vec3::new(0.2, 0.6, 0.8),
                    o,
                );
                // Anisotropic scales so the max-axis tag is exercised.
                g.scale[i % 3] *= 1.5;
                g.sh[5 + i % 40] = 0.31 * (i as f32);
                g
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn raw_store_decode_roundtrips_the_cloud_bit_exactly(
        cloud in cloud_strategy(),
        voxel in 0.3f32..2.0,
    ) {
        let grid = VoxelGrid::build(&cloud, voxel);
        let store = VoxelStore::from_cloud(&cloud, &grid);
        let mut ledger = TrafficLedger::new();
        for slot in 0..store.len() as u32 {
            let g = &cloud.as_slice()[store.id_of(slot) as usize];
            prop_assert_eq!(&store.fetch_fine(slot, &mut ledger), g);
        }
        prop_assert_eq!(
            ledger.get(Stage::VoxelFine, Direction::Read),
            store.len() as u64 * 220
        );
    }

    #[test]
    fn vq_store_decode_roundtrips_the_quantizer_bit_exactly(
        cloud in cloud_strategy(),
        voxel in 0.3f32..2.0,
    ) {
        let quant = GaussianQuantizer::train(&cloud, &VqConfig::tiny());
        let grid = VoxelGrid::build(&cloud, voxel);
        let store = VoxelStore::from_quantized(&quant, &grid);
        let mut ledger = TrafficLedger::new();
        for slot in 0..store.len() as u32 {
            let gi = store.id_of(slot) as usize;
            // The store's fetch-decode (bytes → record → codebooks) must be
            // exactly the quantizer's own decode.
            prop_assert_eq!(store.fetch_fine(slot, &mut ledger), quant.decode_one(gi));
        }
        prop_assert_eq!(
            ledger.get(Stage::VoxelFine, Direction::Read),
            store.len() as u64 * quant.fine_bytes_per_gaussian()
        );
    }
}
