//! Behavioural sweeps of the hardware models: the monotonicities an
//! architect relies on when reading Figs. 11–13.

use gs_accel::bitonic::{bitonic_sort_by_key, network_stats};
use gs_accel::config::{AccelConfig, GpuConfig};
use gs_accel::{GpuModel, GscoreModel, StreamingGsModel};
use gs_mem::dram::{round_to_burst, DEFAULT_BURST_BYTES};
use gs_render::RenderStats;
use gs_voxel::{FrameWorkload, TileWorkload};

/// A hand-built uncached tile. Its DRAM bytes are burst-rounded per
/// transfer, the way the renderer meters them: one coarse block per
/// processed voxel (the coarse demand split evenly), one 13 B record per
/// coarse survivor and one pixel writeback.
fn tile(streamed: u64) -> TileWorkload {
    const VOXELS: u64 = 25;
    let burst = |bytes: u64| round_to_burst(bytes, DEFAULT_BURST_BYTES);
    let coarse_survivors = streamed * 2 / 5;
    let coarse_bytes = streamed * 16;
    TileWorkload {
        rays: 1024,
        dda_steps: 20_000,
        voxels_intersected: 30,
        dag_edges: 45,
        voxels_processed: VOXELS as u32,
        gaussians_streamed: streamed,
        coarse_survivors,
        fine_survivors: streamed / 3,
        max_sort_batch: 128,
        blend_lanes: streamed * 30,
        blend_fragments: streamed * 18,
        coarse_bytes,
        fine_bytes: coarse_survivors * 13,
        pixel_bytes: 16_384,
        coarse_dram_bytes: VOXELS * burst(coarse_bytes.div_ceil(VOXELS)),
        fine_dram_bytes: coarse_survivors * burst(13),
        pixel_dram_bytes: burst(16_384),
        ..Default::default()
    }
}

fn frame(n_tiles: usize, streamed: u64) -> FrameWorkload {
    FrameWorkload {
        tiles: vec![tile(streamed); n_tiles],
        width: 160,
        height: 128,
        scene_voxels: 300,
        scene_gaussians: 20_000,
    }
}

fn stats() -> RenderStats {
    RenderStats {
        total_gaussians: 20_000,
        visible_gaussians: 14_000,
        tile_pairs: 50_000,
        occupied_tiles: 70,
        total_tiles: 80,
        pixels: 20_480,
        blended_fragments: 400_000,
        skipped_fragments: 250_000,
        early_terminated_pixels: 9_000,
        consumed_entries: 30_000,
        max_tile_list: 1_500,
    }
}

#[test]
fn speedup_saturates_with_cfus() {
    // Latency must be non-increasing in CFU count and eventually flat
    // (DRAM-bound) — the Fig. 13 row shape.
    let w = frame(20, 2_000);
    let mut last = f64::INFINITY;
    let mut deltas = Vec::new();
    for cfu in 1..=8u32 {
        let mut cfg = AccelConfig::paper();
        cfg.cfus_per_hfu = cfu;
        let t = StreamingGsModel::new(cfg).evaluate(&w).seconds;
        assert!(t <= last + 1e-12, "latency increased with more CFUs");
        deltas.push(last - t);
        last = t;
    }
    // The improvement from 7→8 CFUs is much smaller than from 1→2.
    assert!(deltas[7] < 0.2 * deltas[1].max(1e-15));
}

#[test]
fn ffus_matter_less_than_cfus_at_paper_point() {
    let w = frame(20, 2_000);
    let base = StreamingGsModel::new(AccelConfig::paper())
        .evaluate(&w)
        .seconds;
    let mut more_ffu = AccelConfig::paper();
    more_ffu.ffus_per_hfu = 4;
    let t_ffu = StreamingGsModel::new(more_ffu).evaluate(&w).seconds;
    let mut more_cfu = AccelConfig::paper();
    more_cfu.cfus_per_hfu = 1;
    let t_less_cfu = StreamingGsModel::new(more_cfu).evaluate(&w).seconds;
    let ffu_gain = (base - t_ffu) / base;
    let cfu_loss = (t_less_cfu - base) / base;
    assert!(ffu_gain < 0.25, "FFUs shouldn't dominate: gain {ffu_gain}");
    assert!(cfu_loss > 0.5, "removing CFUs must hurt a lot: {cfu_loss}");
}

#[test]
fn streaming_latency_scales_linearly_in_tiles() {
    let m = StreamingGsModel::default();
    let t1 = m.evaluate(&frame(10, 2_000)).seconds;
    let t2 = m.evaluate(&frame(20, 2_000)).seconds;
    assert!((t2 / t1 - 2.0).abs() < 1e-9);
}

#[test]
fn gpu_slows_down_with_lower_efficiency() {
    let s = stats();
    let fast = GpuModel {
        config: GpuConfig::orin_nx(),
        ..Default::default()
    };
    let mut slow_cfg = GpuConfig::orin_nx();
    slow_cfg.bw_efficiency *= 0.5;
    let slow = GpuModel {
        config: slow_cfg,
        ..Default::default()
    };
    assert!(slow.evaluate(&s).seconds > fast.evaluate(&s).seconds);
}

#[test]
fn gscore_sits_between_gpu_and_streaming() {
    let s = stats();
    let gpu = GpuModel::default().evaluate(&s);
    let gscore = GscoreModel::default().evaluate(&s);
    let sgs = StreamingGsModel::default().evaluate(&frame(20, 800));
    assert!(gscore.seconds < gpu.seconds);
    assert!(sgs.seconds < gscore.seconds);
    assert!(gscore.dram_bytes < gpu.dram_bytes);
}

#[test]
fn bitonic_network_backs_the_sorter_model() {
    // The sorter model's elements/cycle throughput must be consistent with
    // the real network's op counts at the paper's 32-key granularity: a
    // 32-key network has 15 stages of 16 comparators = 240 ops.
    let s = network_stats(32);
    assert_eq!(s.stages, 15);
    assert_eq!(s.compare_ops, 240);
    // And it really sorts.
    let mut keys: Vec<u32> = (0..32)
        .map(|i: u32| i.wrapping_mul(2654435761) >> 8)
        .collect();
    bitonic_sort_by_key(&mut keys, |k| *k);
    for w in keys.windows(2) {
        assert!(w[0] <= w[1]);
    }
}

#[test]
fn energy_is_dominated_by_system_floor_plus_dram() {
    // At the calibrated constants the accelerator's energy is mostly the
    // system-power floor and DRAM traffic, matching the paper's argument
    // that traffic reduction is where the energy savings come from.
    let m = StreamingGsModel::default();
    let r = m.evaluate(&frame(20, 2_000));
    let dram_plus_floor = r.energy.dram_pj;
    assert!(dram_plus_floor > r.energy.compute_pj);
    assert!(dram_plus_floor > r.energy.sram_pj);
}
