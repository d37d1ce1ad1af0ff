//! End-to-end DRAM traffic ledger: the measured per-stage byte table of
//! the streaming pipeline (paper Sec. III-C; the headline −92.3 %
//! second-half traffic claim).
//!
//! For every scene kind this renders the store-backed streaming pipeline
//! twice — raw second halves vs VQ index records, coarse filter on in both
//! — and reports each frame's merged [`gs_mem::TrafficLedger`]:
//! voxel-coarse reads, voxel-fine reads and pixel writes, all metered at
//! the `VoxelStore` fetch sites rather than modeled. The accelerator
//! model's frame time is priced from the same measured ledgers
//! (`StreamingGsModel::evaluate_measured`).
//!
//! The run ends with one machine-readable `TRAFFIC_JSON {...}` line:
//! per-scene stage bytes, the second-half reduction (paper bar ≥ 90 %),
//! and `ledger_ok` (ledger stages exactly equal the workload byte
//! counters). CI persists the line as `BENCH_traffic.json`.

use gs_accel::StreamingGsModel;
use gs_bench::fmt::{banner, mb, pct, Table};
use gs_bench::setup::{bench_scale, build_scene};
use gs_mem::{Direction, Stage, TrafficLedger};
use gs_scene::SceneKind;
use gs_voxel::{StreamingConfig, StreamingOutput, StreamingScene};

/// The three streaming stage counters of one frame's ledger.
struct StageBytes {
    coarse: u64,
    fine: u64,
    pixel: u64,
}

impl StageBytes {
    fn of(ledger: &TrafficLedger) -> StageBytes {
        StageBytes {
            coarse: ledger.get(Stage::VoxelCoarse, Direction::Read),
            fine: ledger.get(Stage::VoxelFine, Direction::Read),
            pixel: ledger.get(Stage::PixelOut, Direction::Write),
        }
    }

    fn total(&self) -> u64 {
        self.coarse + self.fine + self.pixel
    }

    fn json(&self) -> String {
        format!(
            "{{\"coarse\":{},\"fine\":{},\"pixel\":{},\"total\":{}}}",
            self.coarse,
            self.fine,
            self.pixel,
            self.total()
        )
    }
}

/// Ledger stages must equal the workload byte counters exactly — the
/// ledger is the source the counters are derived from.
fn ledger_consistent(out: &StreamingOutput) -> bool {
    let t = out.workload.totals();
    let s = StageBytes::of(&out.ledger);
    s.coarse == t.coarse_bytes
        && s.fine == t.fine_bytes
        && s.pixel == t.pixel_bytes
        && out.ledger.total() == out.workload.dram_bytes()
}

fn main() {
    let scale = bench_scale();
    let vq_cfg = scale.vq_config();
    banner("Traffic — measured per-stage DRAM ledger, raw vs VQ second halves");
    println!("paper: VQ cuts second-half (fine) traffic by 92.3%; bar >= 90%\n");

    let model = StreamingGsModel::default();
    let mut table = Table::new(&[
        "scene",
        "coarse(MB)",
        "fine_raw(MB)",
        "fine_vq(MB)",
        "pixel(MB)",
        "2nd-half cut",
        "dram_raw(ms)",
        "dram_vq(ms)",
    ]);

    let mut rows = Vec::new();
    let mut mean_reduction = 0.0f64;
    let mut all_ledger_ok = true;
    for kind in SceneKind::ALL {
        let scene = build_scene(kind);
        let cam = &scene.eval_cameras[0];
        let raw = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                ..Default::default()
            },
        )
        .render(cam);
        let vq = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                use_vq: true,
                vq: vq_cfg,
                ..Default::default()
            },
        )
        .render(cam);

        let raw_b = StageBytes::of(&raw.ledger);
        let vq_b = StageBytes::of(&vq.ledger);
        let reduction = if raw_b.fine > 0 {
            1.0 - vq_b.fine as f64 / raw_b.fine as f64
        } else {
            0.0
        };
        let ledger_ok = ledger_consistent(&raw) && ledger_consistent(&vq);
        all_ledger_ok &= ledger_ok;
        mean_reduction += reduction;

        // Accelerator frame time priced from the measured ledgers.
        let raw_s = model.evaluate_measured(&raw.workload, &raw.ledger).seconds;
        let vq_s = model.evaluate_measured(&vq.workload, &vq.ledger).seconds;

        table.row(&[
            kind.name().to_string(),
            mb(raw_b.coarse),
            mb(raw_b.fine),
            mb(vq_b.fine),
            mb(raw_b.pixel),
            pct(reduction),
            format!("{:.3}", raw_s * 1e3),
            format!("{:.3}", vq_s * 1e3),
        ]);
        rows.push(format!(
            "{{\"scene\":\"{}\",\"raw\":{},\"vq\":{},\"second_half_reduction\":{:.4},\"ledger_ok\":{}}}",
            kind.name(),
            raw_b.json(),
            vq_b.json(),
            reduction,
            ledger_ok
        ));
    }
    mean_reduction /= SceneKind::ALL.len() as f64;
    println!("{table}");
    println!("paper anchor -> second-half traffic reduction 92.3% (bar 90%)");

    let reduction_ok = mean_reduction >= 0.9;
    println!(
        "TRAFFIC_JSON {{\"bench\":\"traffic\",\"cores\":{},\"scenes\":[{}],\"mean_reduction\":{:.4},\"reduction_ok\":{},\"ledger_ok\":{}}}",
        gs_bench::setup::cores(),
        rows.join(","),
        mean_reduction,
        reduction_ok,
        all_ledger_ok
    );
}
