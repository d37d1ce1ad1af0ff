//! Workload records the streaming pipeline emits for the accelerator model.
//!
//! The byte counters (`coarse_bytes`, `fine_bytes`, `pixel_bytes`) are
//! *derived* from the frame's [`TrafficLedger`] stages — the renderer
//! meters every store fetch and pixel writeback into per-worker ledgers
//! and reads the per-tile counters back out of them, so ledger totals and
//! workload totals agree exactly by construction. [`FrameWorkload::to_ledger`]
//! converts in the other direction (e.g. after workload extrapolation).

use gs_mem::{Direction, Stage, TrafficLedger, MAX_TIERS};
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Everything one tile did — the per-tile input to the timing model.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileWorkload {
    /// Pixel rays sampled by the VSU.
    pub rays: u32,
    /// DDA steps across all rays (VSU ray-sample work).
    pub dda_steps: u64,
    /// Distinct voxels intersected by the tile.
    pub voxels_intersected: u32,
    /// Unique DAG edges among them.
    pub dag_edges: u32,
    /// Cycle-break events during the topological sort.
    pub cycle_breaks: u32,
    /// Topological-ordering work: nodes emitted plus edges relaxed by
    /// Kahn's algorithm (the VSU ordering-stage work measure).
    pub order_ops: u64,
    /// Voxels actually streamed (≤ intersected thanks to early termination).
    pub voxels_processed: u32,
    /// Gaussian records streamed from DRAM (coarse phase).
    pub gaussians_streamed: u64,
    /// Gaussians passing the coarse filter (fine records fetched).
    pub coarse_survivors: u64,
    /// Gaussians passing the fine filter (sorted + rendered).
    pub fine_survivors: u64,
    /// Largest per-voxel survivor count sorted at once.
    pub max_sort_batch: u32,
    /// (splat, pixel) lanes evaluated by the render array.
    pub blend_lanes: u64,
    /// Fragments actually blended (alpha above threshold).
    pub blend_fragments: u64,
    /// Demand bytes fetched for the coarse phase.
    pub coarse_bytes: u64,
    /// Demand bytes fetched for the fine phase.
    pub fine_bytes: u64,
    /// Demand bytes written for final pixels.
    pub pixel_bytes: u64,
    /// Coarse-phase DRAM *transaction* bytes: burst-rounded per transfer,
    /// cache-miss fills only when the renderer's working-set cache is
    /// enabled. Derived from the ledger's DRAM counters, like the demand
    /// bytes above.
    pub coarse_dram_bytes: u64,
    /// Fine-phase DRAM transaction bytes (see `coarse_dram_bytes`).
    pub fine_dram_bytes: u64,
    /// Pixel-writeback DRAM transaction bytes (burst-rounded; the
    /// writeback is never cached).
    pub pixel_dram_bytes: u64,
    /// Coarse-phase demand bytes served on-chip by the working-set cache.
    pub coarse_hit_bytes: u64,
    /// Fine-phase demand bytes served on-chip by the working-set cache.
    pub fine_hit_bytes: u64,
    /// Fine-phase demand bytes split by quality tier (lane 0 = the
    /// full-quality column, lanes 1.. = the LOD tiers); the lanes sum to
    /// `fine_bytes`.
    pub fine_tier_bytes: [u64; MAX_TIERS],
    /// Fine-phase DRAM transaction bytes split by quality tier (see
    /// `fine_tier_bytes`; the lanes sum to `fine_dram_bytes`).
    pub fine_tier_dram_bytes: [u64; MAX_TIERS],
}

impl AddAssign for TileWorkload {
    fn add_assign(&mut self, o: TileWorkload) {
        self.rays += o.rays;
        self.dda_steps += o.dda_steps;
        self.voxels_intersected += o.voxels_intersected;
        self.dag_edges += o.dag_edges;
        self.cycle_breaks += o.cycle_breaks;
        self.order_ops += o.order_ops;
        self.voxels_processed += o.voxels_processed;
        self.gaussians_streamed += o.gaussians_streamed;
        self.coarse_survivors += o.coarse_survivors;
        self.fine_survivors += o.fine_survivors;
        self.max_sort_batch = self.max_sort_batch.max(o.max_sort_batch);
        self.blend_lanes += o.blend_lanes;
        self.blend_fragments += o.blend_fragments;
        self.coarse_bytes += o.coarse_bytes;
        self.fine_bytes += o.fine_bytes;
        self.pixel_bytes += o.pixel_bytes;
        self.coarse_dram_bytes += o.coarse_dram_bytes;
        self.fine_dram_bytes += o.fine_dram_bytes;
        self.pixel_dram_bytes += o.pixel_dram_bytes;
        self.coarse_hit_bytes += o.coarse_hit_bytes;
        self.fine_hit_bytes += o.fine_hit_bytes;
        for t in 0..MAX_TIERS {
            self.fine_tier_bytes[t] += o.fine_tier_bytes[t];
            self.fine_tier_dram_bytes[t] += o.fine_tier_dram_bytes[t];
        }
    }
}

impl TileWorkload {
    /// Total demand bytes this tile asked the memory system for (the
    /// byte-exactness invariant; equal to the ledger's demand stages).
    pub fn dram_bytes(&self) -> u64 {
        self.coarse_bytes + self.fine_bytes + self.pixel_bytes
    }

    /// Total DRAM *transaction* bytes this tile moved (burst-rounded,
    /// post-cache).
    pub fn dram_transaction_bytes(&self) -> u64 {
        self.coarse_dram_bytes + self.fine_dram_bytes + self.pixel_dram_bytes
    }

    /// Demand bytes the working-set cache served on-chip.
    pub fn cache_hit_bytes(&self) -> u64 {
        self.coarse_hit_bytes + self.fine_hit_bytes
    }

    /// Fraction of streamed Gaussians removed by hierarchical filtering
    /// (paper: 76.3 % on average).
    pub fn filter_kill_rate(&self) -> f64 {
        if self.gaussians_streamed == 0 {
            0.0
        } else {
            1.0 - self.fine_survivors as f64 / self.gaussians_streamed as f64
        }
    }
}

/// A whole frame's workload: per-tile records plus frame-level constants.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FrameWorkload {
    /// Per-tile records (row-major tile order).
    pub tiles: Vec<TileWorkload>,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Non-empty voxels in the scene grid.
    pub scene_voxels: u32,
    /// Gaussians in the scene.
    pub scene_gaussians: u64,
}

impl FrameWorkload {
    /// Sum over all tiles.
    pub fn totals(&self) -> TileWorkload {
        let mut t = TileWorkload::default();
        for w in &self.tiles {
            t += *w;
        }
        t
    }

    /// Frame pixels.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Total DRAM bytes for the frame.
    pub fn dram_bytes(&self) -> u64 {
        self.totals().dram_bytes()
    }

    /// Rebuilds the frame's per-stage traffic ledger from the byte
    /// counters (coarse/fine reads + pixel writes), including the DRAM
    /// transaction, cache-hit and per-tier fine classes.
    ///
    /// For a freshly rendered frame this equals the measured ledger the
    /// renderer returns (the counters are derived from it); use this for
    /// *derived* workloads — extrapolated, synthetic or deserialized —
    /// where no measured ledger exists.
    pub fn to_ledger(&self) -> TrafficLedger {
        let t = self.totals();
        let mut l = TrafficLedger::new();
        l.add(Stage::VoxelCoarse, Direction::Read, t.coarse_bytes);
        l.add(Stage::VoxelFine, Direction::Read, t.fine_bytes);
        l.add(Stage::PixelOut, Direction::Write, t.pixel_bytes);
        l.note_dram(Stage::VoxelCoarse, Direction::Read, t.coarse_dram_bytes);
        l.note_dram(Stage::VoxelFine, Direction::Read, t.fine_dram_bytes);
        l.note_dram(Stage::PixelOut, Direction::Write, t.pixel_dram_bytes);
        l.note_hit(Stage::VoxelCoarse, Direction::Read, t.coarse_hit_bytes);
        l.note_hit(Stage::VoxelFine, Direction::Read, t.fine_hit_bytes);
        for tier in 0..MAX_TIERS {
            l.note_tier(tier, t.fine_tier_bytes[tier]);
            l.note_tier_dram(tier, t.fine_tier_dram_bytes[tier]);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut f = FrameWorkload {
            width: 32,
            height: 16,
            ..Default::default()
        };
        f.tiles.push(TileWorkload {
            gaussians_streamed: 10,
            fine_survivors: 4,
            ..Default::default()
        });
        f.tiles.push(TileWorkload {
            gaussians_streamed: 20,
            fine_survivors: 2,
            ..Default::default()
        });
        let t = f.totals();
        assert_eq!(t.gaussians_streamed, 30);
        assert_eq!(t.fine_survivors, 6);
        assert_eq!(f.pixels(), 512);
        assert!((t.filter_kill_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn kill_rate_zero_when_nothing_streamed() {
        assert_eq!(TileWorkload::default().filter_kill_rate(), 0.0);
    }

    #[test]
    fn dram_bytes_sum_components() {
        let w = TileWorkload {
            coarse_bytes: 100,
            fine_bytes: 50,
            pixel_bytes: 25,
            ..Default::default()
        };
        assert_eq!(w.dram_bytes(), 175);
    }

    #[test]
    fn to_ledger_mirrors_byte_counters() {
        let mut f = FrameWorkload::default();
        f.tiles.push(TileWorkload {
            coarse_bytes: 160,
            fine_bytes: 440,
            pixel_bytes: 64,
            ..Default::default()
        });
        f.tiles.push(TileWorkload {
            coarse_bytes: 32,
            fine_bytes: 13,
            pixel_bytes: 16,
            ..Default::default()
        });
        let l = f.to_ledger();
        assert_eq!(l.get(Stage::VoxelCoarse, Direction::Read), 192);
        assert_eq!(l.get(Stage::VoxelFine, Direction::Read), 453);
        assert_eq!(l.get(Stage::PixelOut, Direction::Write), 80);
        assert_eq!(l.total(), f.dram_bytes());
        // The recorded DRAM, hit and tier-lane fields round-trip exactly.
        f.tiles[0].coarse_dram_bytes = 7_000;
        f.tiles[0].fine_dram_bytes = 960;
        f.tiles[1].fine_dram_bytes = 32;
        f.tiles[0].pixel_dram_bytes = 4_096;
        f.tiles[0].coarse_hit_bytes = 123;
        f.tiles[1].fine_hit_bytes = 45;
        f.tiles[0].fine_tier_bytes = [300, 0, 140, 0];
        f.tiles[1].fine_tier_bytes = [13, 0, 0, 0];
        f.tiles[0].fine_tier_dram_bytes = [640, 0, 320, 0];
        f.tiles[1].fine_tier_dram_bytes = [32, 0, 0, 0];
        let l = f.to_ledger();
        assert_eq!(l.dram(Stage::VoxelCoarse, Direction::Read), 7_000);
        assert_eq!(l.dram(Stage::VoxelFine, Direction::Read), 992);
        assert_eq!(l.dram(Stage::PixelOut, Direction::Write), 4_096);
        assert_eq!(l.hit(Stage::VoxelCoarse, Direction::Read), 123);
        assert_eq!(l.hit(Stage::VoxelFine, Direction::Read), 45);
        assert_eq!(l.tier_demand_all(), [313, 0, 140, 0]);
        assert_eq!(l.tier_dram_all(), [672, 0, 320, 0]);
    }
}
