//! Canonical frame encoding and fixture lookup shared by the golden
//! frame tests (`tests/golden_frames.rs`, `tests/store_ledger.rs`,
//! `tests/paged_cache.rs` and `gs-voxel`'s streaming unit tests).
//!
//! A golden row is the `gs_mem::crc::crc32` of [`frame_bytes`]: image f32
//! bits, every tile's workload record, the ledger, the violations and the
//! cache / degradation / tier reports, all little-endian in a fixed field
//! order. The includer must have `StreamingOutput` in scope.

// Tests may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::expect_used)]

use super::StreamingOutput;
use gs_mem::cache::CacheStats;
use gs_mem::crc::crc32;
use gs_mem::{Direction, Stage, TrafficLedger};

/// The committed fixture, one `<row> <crc32 hex>` line per frame.
pub const GOLDEN: &str = include_str!("frames.txt");

/// Little-endian canonical encoding of one frame. Field order is fixed
/// here; nothing iterates a hash map.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64s(&mut self, vs: &[u64]) {
        for &v in vs {
            self.u64(v);
        }
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn ledger(&mut self, l: &TrafficLedger) {
        for stage in Stage::ALL {
            for dir in [Direction::Read, Direction::Write] {
                self.u64s(&[l.get(stage, dir), l.dram(stage, dir), l.hit(stage, dir)]);
            }
        }
        self.u64s(&l.tier_demand_all());
        self.u64s(&l.tier_dram_all());
    }

    fn cache_stats(&mut self, s: &CacheStats) {
        self.u64s(&[s.accesses, s.hits, s.hit_bytes, s.miss_bytes, s.fill_bytes]);
    }
}

/// The canonical bytes of `out` that a golden row digests.
fn frame_bytes(out: &StreamingOutput) -> Vec<u8> {
    let mut b = Bytes::default();
    let img = &out.image;
    b.u32(img.width());
    b.u32(img.height());
    for p in img.as_slice() {
        b.f32(p.x);
        b.f32(p.y);
        b.f32(p.z);
    }

    let w = &out.workload;
    b.u32(w.width);
    b.u32(w.height);
    b.u32(w.scene_voxels);
    b.u64(w.scene_gaussians);
    b.u64(w.tiles.len() as u64);
    for t in &w.tiles {
        b.u32(t.rays);
        b.u64(t.dda_steps);
        b.u32(t.voxels_intersected);
        b.u32(t.dag_edges);
        b.u32(t.cycle_breaks);
        b.u64(t.order_ops);
        b.u32(t.voxels_processed);
        b.u64s(&[t.gaussians_streamed, t.coarse_survivors, t.fine_survivors]);
        b.u32(t.max_sort_batch);
        b.u64s(&[
            t.blend_lanes,
            t.blend_fragments,
            t.coarse_bytes,
            t.fine_bytes,
            t.pixel_bytes,
            t.coarse_dram_bytes,
            t.fine_dram_bytes,
            t.pixel_dram_bytes,
            t.coarse_hit_bytes,
            t.fine_hit_bytes,
        ]);
        b.u64s(&t.fine_tier_bytes);
        b.u64s(&t.fine_tier_dram_bytes);
    }

    b.ledger(&out.ledger);

    let v = &out.violations;
    b.u64(v.violating_blends);
    b.u64(v.total_blends);
    b.u64(v.flags.len() as u64);
    b.0.extend(v.flags.iter().map(|&f| u8::from(f)));

    match &out.cache {
        None => b.0.push(0),
        Some(c) => {
            b.0.push(1);
            b.cache_stats(&c.coarse);
            b.cache_stats(&c.fine);
        }
    }

    let d = &out.degradation;
    b.u64s(&[
        d.page_retries,
        d.pages_lost,
        d.pages_healed,
        d.voxels_skipped,
        d.fine_degraded,
        d.fine_skipped,
        d.injected.transient,
        d.injected.torn,
        d.injected.bit_flips,
        d.injected.permanent,
    ]);

    let t = &out.tiers;
    b.u64s(&t.voxels);
    b.u64s(&t.fetched_bytes);
    b.u64s(&t.dram_bytes);
    b.0
}

/// The committed digest of `row` in `table` (`<row> <crc32 hex>` lines).
pub fn row_digest(table: &str, row: &str) -> u32 {
    let line = table
        .lines()
        .find(|l| l.split_whitespace().next() == Some(row))
        .unwrap_or_else(|| panic!("golden row {row} missing from its fixture"));
    let hex = line.split_whitespace().nth(1).expect("row without digest");
    u32::from_str_radix(hex, 16).expect("digest is not hex")
}

/// The committed digest of `row` in `tests/golden/frames.txt`.
pub fn digest(row: &str) -> u32 {
    row_digest(GOLDEN, row)
}

/// The digest of `out`, comparable with [`digest`].
pub fn frame_digest(out: &StreamingOutput) -> u32 {
    crc32(&frame_bytes(out))
}
