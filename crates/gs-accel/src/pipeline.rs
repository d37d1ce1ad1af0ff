//! Timing/energy model of the StreamingGS accelerator (paper Sec. IV).
//!
//! The accelerator processes tiles sequentially; within a tile, voxels are
//! double-buffered so DRAM streaming overlaps compute, and the four stages
//! (coarse filter → fine filter → sort → render) form a pipeline at voxel
//! granularity. The per-tile latency is therefore the *maximum* of the
//! stage throughput demands plus a per-voxel handoff fill; the VSU for the
//! next tile runs in the shadow of the current tile's streaming.

use crate::config::{AccelConfig, EnergyConfig};
use crate::report::PerfReport;
use gs_core::{COARSE_FILTER_MACS, FINE_FILTER_MACS};
use gs_mem::dram::DramModel;
use gs_mem::{EnergyBreakdown, TrafficLedger};
use gs_voxel::{FrameWorkload, TileWorkload};

/// Per-fragment blend cost in MACs (conic eval, alpha, colour accumulate).
const BLEND_MACS: u64 = 20;

/// The accelerator model.
#[derive(Clone, Debug)]
pub struct StreamingGsModel {
    /// Unit configuration.
    pub config: AccelConfig,
    /// Memory system.
    pub dram: DramModel,
    /// Energy constants.
    pub energy: EnergyConfig,
}

impl Default for StreamingGsModel {
    fn default() -> Self {
        StreamingGsModel {
            config: AccelConfig::paper(),
            dram: DramModel::lpddr3_x4(),
            energy: EnergyConfig::node32nm(),
        }
    }
}

/// Per-tile cycle breakdown (exposed for the sensitivity studies).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TileCycles {
    pub vsu: f64,
    pub fetch: f64,
    pub coarse: f64,
    pub fine: f64,
    pub sort: f64,
    pub render: f64,
    pub fill: f64,
}

impl TileCycles {
    /// The tile's latency: VSU overlaps the streaming pipeline; the
    /// streaming pipeline is bounded by its slowest stage plus fill.
    pub fn latency(&self) -> f64 {
        let stream = self
            .fetch
            .max(self.coarse)
            .max(self.fine)
            .max(self.sort)
            .max(self.render)
            + self.fill;
        self.vsu.max(stream)
    }

    /// Which stage binds this tile (for diagnostics).
    pub fn bottleneck(&self) -> &'static str {
        let stream = [
            (self.fetch, "fetch"),
            (self.coarse, "coarse"),
            (self.fine, "fine"),
            (self.sort, "sort"),
            (self.render, "render"),
        ];
        let (best, name) =
            stream.iter().fold(
                (f64::MIN, "fetch"),
                |acc, (v, n)| if *v > acc.0 { (*v, n) } else { acc },
            );
        if self.vsu > best + self.fill {
            "vsu"
        } else {
            name
        }
    }
}

impl StreamingGsModel {
    /// Creates a model with a custom configuration.
    pub fn new(config: AccelConfig) -> StreamingGsModel {
        StreamingGsModel {
            config,
            ..Default::default()
        }
    }

    /// Cycle breakdown for one tile's workload.
    pub fn tile_cycles(&self, w: &TileWorkload) -> TileCycles {
        let c = &self.config;
        // Sustained streaming bandwidth in bytes per cycle (1 cycle = 1 ns
        // at 1 GHz; scaled for other clocks).
        let bytes_per_cycle =
            self.dram.bandwidth() * self.config.seq_dram_efficiency / (c.clock_ghz * 1e9);

        // VSU: DDA stepping plus the measured topological-ordering work
        // (`order_ops` = nodes emitted + edges relaxed; the pre-PR-3 model
        // approximated this as `dag_edges + 2·voxels`, now it is priced
        // from the recorded count).
        let vsu = w.dda_steps as f64 / (c.vsu_lanes * c.n_vsu) as f64
            + w.order_ops as f64 / (c.order_ops_per_cycle * c.n_vsu as f64);
        // The streaming stage moves DRAM *transactions*: burst-rounded,
        // and only cache misses when the renderer's working-set cache is
        // enabled (hits come from on-chip SRAM in the stage's shadow).
        let fetch = (w.coarse_dram_bytes + w.fine_dram_bytes) as f64 / bytes_per_cycle;
        let coarse = w.gaussians_streamed as f64 * c.cfu_ii / c.total_cfus() as f64;
        let fine = w.coarse_survivors as f64 * c.ffu_ii / c.total_ffus() as f64;
        let sort = w.fine_survivors as f64 / (c.sorter_elems_per_cycle * c.n_sorters as f64);
        // Render array: 4 Gaussians × 16 pixels per cycle.
        let render = w.blend_lanes as f64 / c.render_units as f64 + w.fine_survivors as f64 / 4.0;
        let fill = w.voxels_processed as f64 * c.voxel_fill_cycles;
        TileCycles {
            vsu,
            fetch,
            coarse,
            fine,
            sort,
            render,
            fill,
        }
    }

    /// Frame latency/energy from a functional frame workload, pricing DRAM
    /// from the workload's reconstructed ledger. For a measured frame,
    /// prefer [`Self::evaluate_measured`] with the renderer's own ledger —
    /// for freshly rendered frames the two agree exactly (the workload's
    /// byte counters are derived from that ledger).
    pub fn evaluate(&self, frame: &FrameWorkload) -> PerfReport {
        self.evaluate_measured(frame, &frame.to_ledger())
    }

    /// Frame latency/energy with DRAM time and energy priced from
    /// **measured** ledger traffic (the streaming renderer's merged
    /// per-worker ledger) instead of modeled byte estimates.
    ///
    /// DRAM is priced from the ledger's **transaction** counters: each
    /// transfer burst-rounded at the metering site, and only cache-miss
    /// fills when the renderer's working-set cache is enabled (a 13 B VQ
    /// index record really costs a whole 32 B burst). Cache-hit bytes are
    /// priced as SRAM traffic. The ledger must carry the same demand,
    /// DRAM and hit bytes as the workload, whose DRAM fields price the
    /// per-tile fetch term, so one report never mixes two byte counts.
    pub fn evaluate_measured(&self, frame: &FrameWorkload, ledger: &TrafficLedger) -> PerfReport {
        let mut cycles = 0.0f64;
        for t in &frame.tiles {
            cycles += self.tile_cycles(t).latency();
        }
        // Pixel writeback overlaps tile compute except for the last tile.
        let totals = frame.totals();
        let seconds = cycles / (self.config.clock_ghz * 1e9);

        debug_assert_eq!(
            ledger.total(),
            totals.dram_bytes(),
            "ledger and workload demand counters diverged"
        );
        debug_assert_eq!(
            ledger.dram_total(),
            totals.dram_transaction_bytes(),
            "ledger and workload DRAM counters diverged"
        );
        debug_assert_eq!(
            ledger.hit_total(),
            totals.cache_hit_bytes(),
            "ledger and workload cache-hit counters diverged"
        );
        let dram_bytes = ledger.dram_total();
        let macs = totals.gaussians_streamed * COARSE_FILTER_MACS
            + totals.coarse_survivors * FINE_FILTER_MACS
            + totals.blend_lanes * BLEND_MACS
            + totals.dda_steps; // VSU datapath ops
                                // Every DRAM byte lands in SRAM and is read at least once; filter
                                // survivors bounce through the FIFO/sort/render buffers, and
                                // working-set cache hits are on-chip reads.
        let sram_bytes = 2 * dram_bytes
            + ledger.hit_total()
            + totals.fine_survivors * 40 * 3
            + totals.blend_lanes * 8;

        let energy = EnergyBreakdown::new(
            macs as f64 * self.energy.mac_pj,
            sram_bytes as f64 * self.energy.sram_pj_per_byte,
            self.dram.dynamic_pj(dram_bytes)
                + self.dram.static_pj(seconds)
                + self.energy.static_w * seconds * 1e12,
        );
        PerfReport {
            seconds,
            dram_bytes,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_mem::dram::{round_to_burst, DEFAULT_BURST_BYTES};

    /// A hand-built uncached tile. Its DRAM bytes are burst-rounded per
    /// transfer, the way the renderer meters them: one coarse block per
    /// processed voxel (the coarse demand split evenly), one 13 B record
    /// per coarse survivor and one pixel writeback.
    fn tile(streamed: u64, survivors: u64) -> TileWorkload {
        const VOXELS: u64 = 18;
        let burst = |bytes: u64| round_to_burst(bytes, DEFAULT_BURST_BYTES);
        let coarse_bytes = streamed * 16;
        TileWorkload {
            rays: 256,
            dda_steps: 4_000,
            voxels_intersected: 20,
            dag_edges: 30,
            voxels_processed: VOXELS as u32,
            gaussians_streamed: streamed,
            coarse_survivors: survivors,
            fine_survivors: survivors / 2,
            blend_lanes: survivors * 40,
            blend_fragments: survivors * 25,
            coarse_bytes,
            fine_bytes: survivors * 13,
            pixel_bytes: 4096,
            coarse_dram_bytes: VOXELS * burst(coarse_bytes.div_ceil(VOXELS)),
            fine_dram_bytes: survivors * burst(13),
            pixel_dram_bytes: burst(4096),
            ..Default::default()
        }
    }

    fn frame(tiles: Vec<TileWorkload>) -> FrameWorkload {
        FrameWorkload {
            tiles,
            width: 160,
            height: 120,
            scene_voxels: 100,
            scene_gaussians: 10_000,
        }
    }

    #[test]
    fn more_cfus_never_slower() {
        let w = tile(4_000, 1_200);
        let mut cfg1 = AccelConfig::paper();
        cfg1.cfus_per_hfu = 1;
        let mut cfg4 = AccelConfig::paper();
        cfg4.cfus_per_hfu = 4;
        let t1 = StreamingGsModel::new(cfg1).tile_cycles(&w).latency();
        let t4 = StreamingGsModel::new(cfg4).tile_cycles(&w).latency();
        assert!(t4 <= t1);
        assert!(t1 / t4 > 1.5, "CFU scaling should matter when coarse-bound");
    }

    #[test]
    fn ffus_beyond_cfus_give_little() {
        // Paper Fig. 13: with 1 CFU the pipeline is coarse-bound, so extra
        // FFUs change nothing.
        let w = tile(8_000, 2_000);
        let mut base = AccelConfig::paper();
        base.cfus_per_hfu = 1;
        base.ffus_per_hfu = 1;
        let mut more_ffu = base;
        more_ffu.ffus_per_hfu = 4;
        let t1 = StreamingGsModel::new(base).tile_cycles(&w).latency();
        let t4 = StreamingGsModel::new(more_ffu).tile_cycles(&w).latency();
        assert!(
            (t1 - t4).abs() / t1 < 0.02,
            "FFUs shouldn't matter when coarse-bound"
        );
    }

    #[test]
    fn latency_is_max_of_stages_plus_fill() {
        let m = StreamingGsModel::default();
        let c = m.tile_cycles(&tile(4_000, 1_000));
        let stages = [c.fetch, c.coarse, c.fine, c.sort, c.render];
        let max = stages.iter().cloned().fold(f64::MIN, f64::max);
        assert!((c.latency() - (max + c.fill).max(c.vsu)).abs() < 1e-9);
        assert!(!c.bottleneck().is_empty());
    }

    #[test]
    fn evaluate_scales_with_tiles() {
        let m = StreamingGsModel::default();
        let one = m.evaluate(&frame(vec![tile(4_000, 1_000)]));
        let two = m.evaluate(&frame(vec![tile(4_000, 1_000); 2]));
        assert!((two.seconds / one.seconds - 2.0).abs() < 1e-6);
        assert_eq!(two.dram_bytes, 2 * one.dram_bytes);
        assert!(two.energy.total_pj() > one.energy.total_pj());
    }

    #[test]
    fn traffic_reduction_reduces_energy() {
        let m = StreamingGsModel::default();
        let heavy = m.evaluate(&frame(vec![tile(4_000, 4_000)]));
        let light = m.evaluate(&frame(vec![tile(4_000, 500)]));
        assert!(light.energy.total_pj() < heavy.energy.total_pj());
    }

    #[test]
    fn evaluate_equals_evaluate_measured_on_matching_ledger() {
        let m = StreamingGsModel::default();
        let f = frame(vec![tile(4_000, 1_000); 3]);
        let a = m.evaluate(&f);
        let b = m.evaluate_measured(&f, &f.to_ledger());
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.dram_bytes, b.dram_bytes);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn sub_burst_records_are_priced_as_whole_bursts() {
        use gs_mem::{Direction, Stage};
        // The regression the rounding exists for: a 13 B VQ index record
        // is one scattered DRAM transaction and really moves a whole 32 B
        // burst. Pricing raw demand bytes understated fine traffic by
        // ~59 %.
        let m = StreamingGsModel::default();
        let survivors = 1_000u64;
        let mut metered = TrafficLedger::new();
        for _ in 0..survivors {
            metered.add_transfer(Stage::VoxelFine, Direction::Read, 13, m.dram.burst_bytes);
        }
        let mut w = tile(4_000, survivors);
        w.fine_bytes = metered.get(Stage::VoxelFine, Direction::Read);
        w.fine_dram_bytes = metered.dram(Stage::VoxelFine, Direction::Read);
        let f = frame(vec![w]);
        let ledger = f.to_ledger();
        assert_eq!(
            ledger.get(Stage::VoxelFine, Direction::Read),
            survivors * 13,
            "demand stays at the raw record width"
        );
        let r = m.evaluate(&f);
        assert_eq!(
            r.dram_bytes - w.coarse_dram_bytes - w.pixel_dram_bytes,
            survivors * 32,
            "each sub-burst record must be priced as one whole burst"
        );
        assert_eq!(r.dram_bytes, ledger.dram_total());
        assert!(
            r.dram_bytes > f.dram_bytes(),
            "burst-rounded transactions must exceed raw demand bytes"
        );
        // And the measured path prices identically from the same ledger.
        assert_eq!(m.evaluate_measured(&f, &ledger).dram_bytes, r.dram_bytes);
    }

    #[test]
    fn cached_workloads_price_only_miss_traffic() {
        use gs_mem::{Direction, Stage};
        let m = StreamingGsModel::default();
        let mut w = tile(4_000, 1_000);
        // Pretend a warm working-set cache: most coarse demand hits.
        w.coarse_dram_bytes = 2_048; // burst-rounded fills
        w.coarse_hit_bytes = w.coarse_bytes - 1_600;
        w.fine_dram_bytes = 1_000 * 32;
        w.pixel_dram_bytes = 4_096;
        let uncached = tile(4_000, 1_000);
        let fw = frame(vec![w]);
        let fu = frame(vec![uncached]);
        let (rw, ru) = (m.evaluate(&fw), m.evaluate(&fu));
        assert!(
            rw.dram_bytes < ru.dram_bytes,
            "cache hits must reduce priced DRAM bytes"
        );
        let lw = fw.to_ledger();
        assert_eq!(
            lw.hit(Stage::VoxelCoarse, Direction::Read),
            w.coarse_hit_bytes
        );
        assert_eq!(rw.dram_bytes, lw.dram_total());
        // The cached tile's streaming-fetch term shrinks with it.
        assert!(m.tile_cycles(&w).fetch < m.tile_cycles(&uncached).fetch);
    }

    #[test]
    fn order_ops_are_priced_in_the_vsu() {
        let m = StreamingGsModel::default();
        let mut w = tile(4_000, 1_000);
        let base = m.tile_cycles(&w);
        w.order_ops = 1_000_000;
        let heavy = m.tile_cycles(&w);
        assert!(
            heavy.vsu > base.vsu,
            "ordering work must show up in the VSU term"
        );
        let expected = base.vsu + 1_000_000.0 / m.config.order_ops_per_cycle;
        assert!((heavy.vsu - expected).abs() < 1e-6);
    }
}
