//! Golden pricing digests: the accelerator model's numbers on real
//! rendered frames, pinned against committed values.
//!
//! Each row of `tests/golden/pricing.txt` is `<row> <crc32>`: the
//! `gs_mem::crc::crc32` of one priced frame, little-endian in a fixed
//! field order — the `PerfReport` (`seconds` bits, `dram_bytes`, then the
//! compute, SRAM and DRAM energy bits) followed by every tile's
//! `TileCycles` (vsu, fetch, coarse, fine, sort, render and fill bits).
//!
//! Rows render `SceneConfig::tiny()` scenes at the first eval camera:
//! raw and VQ, uncached and with `CacheConfig::default()`, and VQ Truck
//! with `default_tier_ladder()` under `ScreenSpaceError`. A rendered row
//! prices the renderer's measured ledger, and every rendered frame must
//! price the same through `evaluate` (the ledger rebuilt from the
//! workload) as through `evaluate_measured`. The native row is `fig11`'s
//! path: the VQ Lego workload extrapolated with `scale_frame_workload`
//! and `ScaleFactors::for_scene`, priced from its `to_ledger()`.
//!
//! The fixture changes only when a change is *meant* to move the model's
//! numbers. Regenerate it with
//! `cargo test -p gs-accel --test golden_pricing -- --ignored --nocapture`
//! and copy the printed rows over the file.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_accel::scaling::{scale_frame_workload, ScaleFactors};
use gs_accel::{PerfReport, StreamingGsModel};
use gs_mem::cache::CacheConfig;
use gs_mem::crc::crc32;
use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{FrameWorkload, QualityPolicy, StreamingConfig, StreamingScene};
use gs_vq::VqConfig;

/// The committed fixture, one `<row> <crc32 hex>` line per case.
const GOLDEN: &str = include_str!("golden/pricing.txt");

/// One priced frame.
struct Case {
    row: &'static str,
    kind: SceneKind,
    use_vq: bool,
    cache: bool,
    /// The default tier ladder under `ScreenSpaceError`.
    tiers: bool,
    /// Price the workload extrapolated to the native scene size.
    native: bool,
}

const fn case(row: &'static str, kind: SceneKind, use_vq: bool) -> Case {
    Case {
        row,
        kind,
        use_vq,
        cache: false,
        tiers: false,
        native: false,
    }
}

const CASES: [Case; 7] = [
    case("lego/raw", SceneKind::Lego, false),
    case("lego/vq", SceneKind::Lego, true),
    Case {
        cache: true,
        ..case("playroom/raw/cache", SceneKind::Playroom, false)
    },
    Case {
        cache: true,
        ..case("lego/vq/cache", SceneKind::Lego, true)
    },
    Case {
        tiers: true,
        ..case("truck/vq/tiers/sse", SceneKind::Truck, true)
    },
    Case {
        tiers: true,
        cache: true,
        ..case("truck/vq/tiers/sse/cache", SceneKind::Truck, true)
    },
    Case {
        native: true,
        ..case("lego/vq/native", SceneKind::Lego, true)
    },
];

/// Renders `case`, checks that its frame covers the paths it claims and
/// that both pricing entry points agree, and returns the priced digest.
fn priced_digest(model: &StreamingGsModel, case: &Case) -> u32 {
    let scene = case.kind.build(&SceneConfig::tiny());
    let cam = &scene.eval_cameras[0];
    let mut config = StreamingConfig {
        voxel_size: scene.voxel_size,
        use_vq: case.use_vq,
        vq: VqConfig::tiny(),
        threads: 1,
        cache: case.cache.then(CacheConfig::default),
        ..Default::default()
    };
    if case.tiers {
        config.tiers = StreamingConfig::default_tier_ladder();
        config.quality = QualityPolicy::ScreenSpaceError { threshold: 64.0 };
    }
    let row = case.row;
    let out = StreamingScene::new(scene.trained.clone(), config).render(cam);
    if case.cache {
        assert!(out.ledger.hit_total() > 0, "{row}: no cache hits");
    }
    if case.tiers {
        let lanes = out.tiers.voxels.iter().filter(|&&v| v > 0).count();
        assert!(lanes >= 2, "{row}: {lanes} tier lane(s) used, want >= 2");
    }
    let measured = model.evaluate_measured(&out.workload, &out.ledger);
    assert_eq!(
        model.evaluate(&out.workload),
        measured,
        "{row}: evaluate and evaluate_measured disagree"
    );
    if case.native {
        let factors =
            ScaleFactors::for_scene(case.kind, scene.trained.len(), cam.width(), cam.height());
        let scaled = scale_frame_workload(&out.workload, &factors);
        let report = model.evaluate_measured(&scaled, &scaled.to_ledger());
        digest(model, &scaled, &report)
    } else {
        digest(model, &out.workload, &measured)
    }
}

/// CRC-32 of `report` followed by every tile's cycle breakdown.
fn digest(model: &StreamingGsModel, frame: &FrameWorkload, report: &PerfReport) -> u32 {
    let mut b = Vec::new();
    b.extend_from_slice(&report.seconds.to_bits().to_le_bytes());
    b.extend_from_slice(&report.dram_bytes.to_le_bytes());
    let e = &report.energy;
    for v in [e.compute_pj, e.sram_pj, e.dram_pj] {
        b.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for t in &frame.tiles {
        let c = model.tile_cycles(t);
        for v in [c.vsu, c.fetch, c.coarse, c.fine, c.sort, c.render, c.fill] {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    crc32(&b)
}

/// The committed digest of `row`.
fn golden(row: &str) -> u32 {
    let line = GOLDEN
        .lines()
        .find(|l| l.split_whitespace().next() == Some(row))
        .unwrap_or_else(|| panic!("golden row {row} missing from pricing.txt"));
    let hex = line.split_whitespace().nth(1).expect("row without digest");
    u32::from_str_radix(hex, 16).expect("digest is not hex")
}

#[test]
fn priced_frames_match_goldens() {
    let model = StreamingGsModel::default();
    for case in &CASES {
        let (got, want) = (priced_digest(&model, case), golden(case.row));
        assert_eq!(
            got, want,
            "{}: digest {got:08x}, golden {want:08x}",
            case.row
        );
    }
}

#[test]
fn fixture_has_one_row_per_case() {
    let rows: Vec<&str> = GOLDEN
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(rows, CASES.map(|c| c.row), "fixture rows out of step");
}

/// Prints the fixture. Run only to regenerate `tests/golden/pricing.txt`
/// after a change that is meant to move the model's numbers.
#[test]
#[ignore]
fn print_golden_table() {
    let model = StreamingGsModel::default();
    for case in &CASES {
        println!("{} {:08x}", case.row, priced_digest(&model, case));
    }
}
