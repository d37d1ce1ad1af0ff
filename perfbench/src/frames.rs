//! Per-frame output handling: the digest that pins a frame's bytes, and
//! the tally of the counters every layer reports about a frame.

use gs_accel::StreamingGsModel;
use gs_mem::crc::Crc32;
use gs_mem::{Direction, Stage, MAX_TIERS};
use gs_voxel::{StreamingOutput, TileWorkload};

/// CRC-32 over a frame's image bytes and its traffic ledger.
pub fn frame_digest(out: &StreamingOutput, buf: &mut Vec<u8>) -> u32 {
    buf.clear();
    buf.extend_from_slice(&out.image.width().to_le_bytes());
    buf.extend_from_slice(&out.image.height().to_le_bytes());
    for p in out.image.as_slice() {
        for c in [p.x, p.y, p.z] {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    let l = &out.ledger;
    for stage in Stage::ALL {
        for dir in [Direction::Read, Direction::Write] {
            for v in [l.get(stage, dir), l.dram(stage, dir), l.hit(stage, dir)] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    for v in l.tier_demand_all().into_iter().chain(l.tier_dram_all()) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Crc32::new().update(buf).finish()
}

/// The byte-truth invariant: the ledger's demand bytes equal the
/// workload's byte counters.
pub fn ledger_matches_workload(out: &StreamingOutput) -> bool {
    out.ledger.total() == out.workload.dram_bytes()
}

/// Modeled accelerator stages, in `gs_accel::TileCycles` order.
const CYCLE_STAGES: [&str; 7] = ["vsu", "fetch", "coarse", "fine", "sort", "render", "fill"];

/// Sums of every per-frame counter over a fixed set of frames. Frames are
/// added in order, so every float sum repeats exactly for the same inputs.
#[derive(Clone, Debug, Default)]
pub struct FrameTally {
    frames: u64,
    work: TileWorkload,
    violating_blends: u64,
    total_blends: u64,
    tier_voxels: [u64; MAX_TIERS],
    degraded: u64,
    page_retries: u64,
    page_faults: u64,
    coarse_hits: u64,
    coarse_accesses: u64,
    fine_hits: u64,
    fine_accesses: u64,
    dram: [u64; 3],
    dram_total: u64,
    hit_total: u64,
    model_s: f64,
    model_pj: f64,
    cycles: [f64; 7],
    fetch_bound_cycles: f64,
    latency_cycles: f64,
    psnr_sum: f64,
    psnr_frames: u64,
}

impl FrameTally {
    /// Adds one frame; `page_faults` is the store's fault delta over it.
    pub fn add(&mut self, out: &StreamingOutput, model: &StreamingGsModel, page_faults: u64) {
        self.frames += 1;
        self.work += out.workload.totals();
        self.violating_blends += out.violations.violating_blends;
        self.total_blends += out.violations.total_blends;
        for (sum, v) in self.tier_voxels.iter_mut().zip(out.tiers.voxels) {
            *sum += v;
        }
        let d = &out.degradation;
        self.degraded += d.voxels_skipped + d.fine_degraded + d.fine_skipped;
        self.page_retries += d.page_retries;
        self.page_faults += page_faults;
        if let Some(c) = &out.cache {
            self.coarse_hits += c.coarse.hits;
            self.coarse_accesses += c.coarse.accesses;
            self.fine_hits += c.fine.hits;
            self.fine_accesses += c.fine.accesses;
        }
        let l = &out.ledger;
        self.dram[0] += l.dram(Stage::VoxelCoarse, Direction::Read);
        self.dram[1] += l.dram(Stage::VoxelFine, Direction::Read);
        self.dram[2] += l.dram(Stage::PixelOut, Direction::Write);
        self.dram_total += l.dram_total();
        self.hit_total += l.hit_total();
        let report = model.evaluate_measured(&out.workload, l);
        self.model_s += report.seconds;
        self.model_pj += report.energy.total_pj();
        for t in &out.workload.tiles {
            let c = model.tile_cycles(t);
            let stages = [c.vsu, c.fetch, c.coarse, c.fine, c.sort, c.render, c.fill];
            for (sum, v) in self.cycles.iter_mut().zip(stages) {
                *sum += v;
            }
            let latency = c.latency();
            self.latency_cycles += latency;
            if c.bottleneck() == "fetch" {
                self.fetch_bound_cycles += latency;
            }
        }
    }

    pub fn add_psnr(&mut self, db: f64) {
        self.psnr_sum += db;
        self.psnr_frames += 1;
    }

    fn per_frame(&self, v: f64) -> f64 {
        v / self.frames.max(1) as f64
    }

    pub fn psnr_db(&self) -> f64 {
        self.psnr_sum / self.psnr_frames.max(1) as f64
    }

    pub fn dram_kib_per_frame(&self) -> f64 {
        self.per_frame(self.dram_total as f64 / 1024.0)
    }

    pub fn model_fps(&self) -> f64 {
        self.frames as f64 / self.model_s
    }

    pub fn model_uj_per_frame(&self) -> f64 {
        self.per_frame(self.model_pj / 1e6)
    }

    /// Per-layer metrics derived from the counters, by name.
    pub fn layer_metrics(&self) -> Vec<(String, f64)> {
        let w = &self.work;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut m: Vec<(String, f64)> = vec![
            ("voxel.dda_steps".into(), self.per_frame(w.dda_steps as f64)),
            ("voxel.order_ops".into(), self.per_frame(w.order_ops as f64)),
            (
                "voxel.voxels_processed".into(),
                self.per_frame(w.voxels_processed as f64),
            ),
            (
                "voxel.gaussians_streamed".into(),
                self.per_frame(w.gaussians_streamed as f64),
            ),
            (
                "voxel.coarse_survivors".into(),
                self.per_frame(w.coarse_survivors as f64),
            ),
            (
                "voxel.fine_survivors".into(),
                self.per_frame(w.fine_survivors as f64),
            ),
            (
                "voxel.blend_lanes".into(),
                self.per_frame(w.blend_lanes as f64),
            ),
            (
                "voxel.fine_useful_ratio".into(),
                ratio(w.fine_survivors, w.gaussians_streamed),
            ),
            (
                "voxel.order_violation_ratio".into(),
                ratio(self.violating_blends, self.total_blends),
            ),
        ];
        let voxels: u64 = self.tier_voxels.iter().sum();
        for (t, v) in self.tier_voxels.iter().enumerate() {
            m.push((format!("voxel.tier_share.t{t}"), ratio(*v, voxels)));
        }
        m.extend([
            (
                "voxel.degraded_per_frame".into(),
                self.per_frame(self.degraded as f64),
            ),
            (
                "store.page_faults_per_frame".into(),
                self.per_frame(self.page_faults as f64),
            ),
            (
                "store.page_retries_per_frame".into(),
                self.per_frame(self.page_retries as f64),
            ),
            (
                "mem.coarse_hit_rate".into(),
                ratio(self.coarse_hits, self.coarse_accesses),
            ),
            (
                "mem.fine_hit_rate".into(),
                ratio(self.fine_hits, self.fine_accesses),
            ),
        ]);
        for (name, bytes) in ["coarse", "fine", "pixel"].iter().zip(self.dram) {
            m.push((
                format!("mem.dram_kb.{name}"),
                self.per_frame(bytes as f64 / 1024.0),
            ));
        }
        m.push((
            "mem.hit_kb_per_frame".into(),
            self.per_frame(self.hit_total as f64 / 1024.0),
        ));
        for (name, c) in CYCLE_STAGES.iter().zip(self.cycles) {
            m.push((format!("accel.cycles.{name}"), self.per_frame(c)));
        }
        m.push((
            "accel.fetch_bound_share".into(),
            if self.latency_cycles > 0.0 {
                self.fetch_bound_cycles / self.latency_cycles
            } else {
                0.0
            },
        ));
        m
    }
}
