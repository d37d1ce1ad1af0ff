//! Sorting stage: build (tile, depth) keys and derive per-tile ranges.
//!
//! The GPU pipeline materializes one 64-bit key per (Gaussian, tile) pair —
//! tile id in the high bits, depth bits below — radix-sorts the whole array,
//! then finds each tile's contiguous range. We reproduce the same key
//! construction (so ordering semantics match bit-for-bit) and record the
//! pair count that determines the sorting stage's DRAM traffic.
//!
//! # Determinism contract of the parallel merge
//!
//! [`bin_and_sort_parallel`] runs the counting sort's histogram and scatter
//! phases splat-parallel. Its output is **bit-identical** to
//! [`bin_and_sort_into`] for every chunk count because each phase is either
//! deterministic by construction or normalized afterwards:
//!
//! 1. per-chunk histograms count disjoint splat ranges — a pure reduction;
//! 2. the prefix sum merges them serially in **chunk-major order**, so the
//!    cursor every `(chunk, tile)` pair receives depends only on
//!    `(splats, chunks, tiles)`, never on worker scheduling;
//! 3. the parallel scatter writes each pair to the slot its chunk's cursor
//!    assigns — disjoint slots, deterministic content, though the raw slot
//!    layout inside a tile differs from the serial scatter's;
//! 4. the per-tile depth sort orders every run by the **total** key
//!    `(packed key, splat index)` — a splat contributes at most one pair
//!    per tile, so the key is unique within a run and the sort erases the
//!    layout difference from step 3 entirely.
//!
//! After step 4 the key array equals the serial result byte for byte, which
//! is what lets `tests/exactness.rs` hold with the parallel front-end on.

use crate::pool::WorkerPool;
use crate::projection::Splat;

/// One sort record: key = `tile_id << 32 | depth_bits`, payload = splat index.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TileKey {
    /// Combined sort key.
    pub key: u64,
    /// Index into the splat array.
    pub splat: u32,
}

/// Converts an f32 depth (> 0) into monotonically ordered u32 bits.
///
/// For positive floats the IEEE-754 bit pattern is already monotone, which is
/// exactly the trick the CUDA implementation relies on.
pub fn depth_bits(depth: f32) -> u32 {
    debug_assert!(depth >= 0.0, "depth keys assume positive depths");
    depth.to_bits()
}

/// Emits the sorted key list plus, per tile, the `(start, end)` range into it.
///
/// `tiles_x`/`tiles_y` define the tile grid; splats outside it were already
/// clipped by projection.
///
/// The output buffers are allocated with exact capacity (summed
/// `tile_rect` areas); use [`bin_and_sort_into`] to reuse buffers across
/// frames.
pub fn bin_and_sort(
    splats: &[Splat],
    tiles_x: u32,
    tiles_y: u32,
) -> (Vec<TileKey>, Vec<(u32, u32)>) {
    let total: u64 = splats.iter().map(|s| s.tile_count()).sum();
    let mut keys = Vec::with_capacity(total as usize);
    let mut ranges = Vec::with_capacity((tiles_x * tiles_y) as usize);
    bin_and_sort_into(splats, tiles_x, tiles_y, &mut keys, &mut ranges);
    (keys, ranges)
}

/// [`bin_and_sort`] into caller-owned buffers (cleared first) — the frame
/// arena's zero-alloc entry point.
///
/// Replaces the seed's global `sort_unstable_by_key` over all
/// (tile, depth) pairs with a two-pass **counting sort**:
///
/// 1. histogram pairs per tile (tile ids come straight from each splat's
///    `tile_rect`, no key decoding),
/// 2. exclusive prefix-sum into per-tile `(start, cursor)` ranges,
/// 3. scatter each pair to `keys[cursor++]` of its tile — the tile id is
///    tracked directly in this pass rather than re-derived from the packed
///    key,
/// 4. depth-sort each tile's (short) run, tie-breaking on splat index so
///    the order is fully deterministic.
///
/// This is O(pairs + tiles + Σ runᵢ·log runᵢ) instead of
/// O(pairs·log pairs), and the per-tile runs are small and cache-resident.
/// The packed `tile << 32 | depth_bits` key layout is preserved so the
/// ordering semantics (and the GPU sort-stage traffic model reading
/// `keys.len()`) are unchanged.
pub fn bin_and_sort_into(
    splats: &[Splat],
    tiles_x: u32,
    tiles_y: u32,
    keys: &mut Vec<TileKey>,
    ranges: &mut Vec<(u32, u32)>,
) {
    let n_tiles = (tiles_x * tiles_y) as usize;
    ranges.clear();
    ranges.resize(n_tiles, (0u32, 0u32));

    // Pass 1: per-tile pair counts (kept in the range's second slot).
    let mut total: u64 = 0;
    for s in splats {
        let (x0, y0, x1, y1) = s.tile_rect;
        debug_assert!(x1 < tiles_x && y1 < tiles_y, "tile_rect outside grid");
        total += s.tile_count();
        for ty in y0..=y1 {
            let row = ty * tiles_x;
            for tx in x0..=x1 {
                ranges[(row + tx) as usize].1 += 1;
            }
        }
    }
    // The key list is indexed by u32 ranges; a frame overflowing that is a
    // logic error upstream (≈4.3 G pairs), not something to truncate.
    debug_assert!(
        total <= u32::MAX as u64,
        "{total} tile pairs overflow u32 key ranges"
    );

    // Pass 2: exclusive prefix sum. Each range becomes (start, cursor) with
    // cursor advancing to `end` during the scatter.
    let mut acc = 0u32;
    for r in ranges.iter_mut() {
        let count = r.1;
        *r = (acc, acc);
        acc += count;
    }

    // Pass 3: scatter. The tile id is carried by the loop (not re-derived
    // from the packed key), and the cursor in `ranges` assigns slots.
    keys.clear();
    keys.resize(total as usize, TileKey { key: 0, splat: 0 });
    for (si, s) in splats.iter().enumerate() {
        let (x0, y0, x1, y1) = s.tile_rect;
        let d = depth_bits(s.depth) as u64;
        for ty in y0..=y1 {
            let row = ty * tiles_x;
            for tx in x0..=x1 {
                let tile = (row + tx) as usize;
                let slot = ranges[tile].1;
                ranges[tile].1 += 1;
                keys[slot as usize] = TileKey {
                    key: ((tile as u64) << 32) | d,
                    splat: si as u32,
                };
            }
        }
    }

    // Pass 4: depth-sort each tile's run. Within a run the high key bits are
    // constant, so sorting by (key, splat) is (depth, submission order).
    for &(start, end) in ranges.iter() {
        let run = &mut keys[start as usize..end as usize];
        if run.len() > 1 {
            run.sort_unstable_by_key(|k| (k.key, k.splat));
        }
    }
}

/// Reusable scratch for [`bin_and_sort_parallel`]: the per-chunk tile
/// histograms / scatter cursors (`chunks × n_tiles`, chunk-major).
#[derive(Clone, Debug, Default)]
pub struct BinScratch {
    cursors: Vec<u32>,
}

/// Splat-parallel [`bin_and_sort_into`] on a shared worker pool.
///
/// Histogram, scatter and the per-tile sorts run across `chunks` jobs; only
/// the prefix-sum merge is serial. See the module docs for the determinism
/// contract — the output is bit-identical to the serial counting sort for
/// every chunk count. Falls back to the serial path when the work does not
/// warrant more than one chunk.
#[allow(clippy::too_many_arguments)]
pub fn bin_and_sort_parallel(
    splats: &[Splat],
    tiles_x: u32,
    tiles_y: u32,
    keys: &mut Vec<TileKey>,
    ranges: &mut Vec<(u32, u32)>,
    scratch: &mut BinScratch,
    pool: &mut WorkerPool,
    chunks: usize,
) {
    let n_tiles = (tiles_x * tiles_y) as usize;
    let chunks = chunks.clamp(1, splats.len().max(1));
    if chunks <= 1 {
        bin_and_sort_into(splats, tiles_x, tiles_y, keys, ranges);
        return;
    }
    let chunk = splats.len().div_ceil(chunks);
    scratch.cursors.clear();
    scratch.cursors.resize(chunks * n_tiles, 0);

    // Phase 1 (parallel): per-chunk tile histograms, one `n_tiles` stripe
    // of `cursors` per chunk.
    pool.run_chunks_mut(&mut scratch.cursors, n_tiles, |c, hist| {
        let lo = (c * chunk).min(splats.len());
        let hi = ((c + 1) * chunk).min(splats.len());
        for s in &splats[lo..hi] {
            let (x0, y0, x1, y1) = s.tile_rect;
            debug_assert!(x1 < tiles_x && y1 < tiles_y, "tile_rect outside grid");
            for ty in y0..=y1 {
                let row = ty * tiles_x;
                for tx in x0..=x1 {
                    hist[(row + tx) as usize] += 1;
                }
            }
        }
    });

    // Phase 2 (serial, deterministic): chunk-major exclusive prefix sum.
    // Tile t's range is [start, end); within it, chunk c's pairs occupy the
    // cursor window the merge assigns here — a function of the inputs only.
    let total: u64 = scratch.cursors.iter().map(|&c| c as u64).sum();
    debug_assert!(
        total <= u32::MAX as u64,
        "{total} tile pairs overflow u32 key ranges"
    );
    ranges.clear();
    ranges.resize(n_tiles, (0u32, 0u32));
    let mut acc = 0u32;
    for (t, range) in ranges.iter_mut().enumerate() {
        let start = acc;
        for c in 0..chunks {
            let slot = c * n_tiles + t;
            let count = scratch.cursors[slot];
            scratch.cursors[slot] = acc;
            acc += count;
        }
        *range = (start, acc);
    }

    // Phase 3 (parallel): scatter into the disjoint cursor windows. Each
    // chunk owns its cursor stripe, but its key slots interleave with the
    // other chunks' across tiles, so `run_chunks_mut` cannot split `keys`:
    // the writes go through a raw pointer instead.
    keys.clear();
    keys.resize(total as usize, TileKey { key: 0, splat: 0 });
    let keys_base = keys.as_mut_ptr() as usize;
    pool.run_chunks_mut(&mut scratch.cursors, n_tiles, |c, cursors| {
        let keys = keys_base as *mut TileKey;
        let lo = (c * chunk).min(splats.len());
        let hi = ((c + 1) * chunk).min(splats.len());
        for (si, s) in splats[lo..hi].iter().enumerate() {
            let (x0, y0, x1, y1) = s.tile_rect;
            let d = depth_bits(s.depth) as u64;
            for ty in y0..=y1 {
                let row = ty * tiles_x;
                for tx in x0..=x1 {
                    let tile = (row + tx) as usize;
                    let slot = cursors[tile] as usize;
                    cursors[tile] += 1;
                    debug_assert!(slot < total as usize);
                    // SAFETY: every (chunk, tile) cursor window the prefix
                    // sum carved out is pairwise disjoint, `slot` lies in
                    // this job's window, and writes go through the raw
                    // pointer (never overlapping `&mut` slices of the whole
                    // buffer), so no slot is written twice. `keys` outlives
                    // the call, which blocks until every job finished.
                    #[allow(unsafe_code)] // interleaved windows: see above
                    unsafe {
                        *keys.add(slot) = TileKey {
                            key: ((tile as u64) << 32) | d,
                            splat: (lo + si) as u32,
                        };
                    }
                }
            }
        }
    });

    // Phase 4 (parallel): per-tile depth sorts over contiguous tile chunks.
    // Sorting by the total (key, splat) order normalizes the scatter layout,
    // finishing the bit-identity with the serial path.
    let tchunk = n_tiles.div_ceil(chunks);
    let ranges_ro = &ranges[..];
    pool.run(chunks, |c| {
        let tlo = (c * tchunk).min(n_tiles);
        let thi = ((c + 1) * tchunk).min(n_tiles);
        for &(start, end) in &ranges_ro[tlo..thi] {
            // SAFETY: tile runs are disjoint, and the tiles of job `c` are
            // disjoint from every other job's tiles. The runs have
            // data-dependent lengths, so `run_chunks_mut`'s fixed-length
            // chunks cannot express this split.
            #[allow(unsafe_code)] // variable-length runs: see above
            let run = unsafe {
                std::slice::from_raw_parts_mut(
                    (keys_base as *mut TileKey).add(start as usize),
                    (end - start) as usize,
                )
            };
            if run.len() > 1 {
                run.sort_unstable_by_key(|k| (k.key, k.splat));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::{project_cloud, tile_grid};
    use gs_core::sym::Sym2;
    use gs_core::vec::{Vec2, Vec3};
    use gs_scene::{SceneConfig, SceneKind};

    fn splat(depth: f32, rect: (u32, u32, u32, u32)) -> Splat {
        Splat {
            mean_px: Vec2::ZERO,
            conic: Sym2::IDENTITY,
            color: Vec3::ONE,
            opacity: 0.5,
            depth,
            tile_rect: rect,
            bbox_px: crate::projection::FULL_BBOX,
        }
    }

    #[test]
    fn reference_binning_matches_counting_sort() {
        // The counting sort must emit exactly the keys a global comparison
        // sort by (tile, depth, splat) would: strictly increasing, one per
        // covered tile.
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let splats: Vec<Splat> = project_cloud(scene.trained.as_slice(), cam, 3)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let (tiles_x, tiles_y) = tile_grid(cam.width(), cam.height());
        let (keys, _) = bin_and_sort(&splats, tiles_x, tiles_y);
        assert!(!keys.is_empty());
        assert!(
            keys.windows(2)
                .all(|w| (w[0].key, w[0].splat) < (w[1].key, w[1].splat)),
            "keys must be strictly increasing by (key, splat)"
        );
        let pairs: u64 = splats.iter().map(Splat::tile_count).sum();
        assert_eq!(keys.len() as u64, pairs);
    }

    #[test]
    fn ties_break_on_submission_order() {
        let splats = vec![
            splat(1.0, (0, 0, 0, 0)),
            splat(1.0, (0, 0, 0, 0)),
            splat(1.0, (0, 0, 0, 0)),
        ];
        let (keys, ranges) = bin_and_sort(&splats, 1, 1);
        assert_eq!(ranges[0], (0, 3));
        let order: Vec<u32> = keys.iter().map(|k| k.splat).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn into_variant_reuses_buffers() {
        let splats = vec![splat(1.0, (0, 0, 1, 1)), splat(2.0, (1, 0, 1, 1))];
        let mut keys = Vec::new();
        let mut ranges = Vec::new();
        bin_and_sort_into(&splats, 2, 2, &mut keys, &mut ranges);
        let (k2, r2) = bin_and_sort(&splats, 2, 2);
        assert_eq!(keys, k2);
        assert_eq!(ranges, r2);
        // Second frame with fewer pairs shrinks lengths, not capacity.
        let cap = keys.capacity();
        bin_and_sort_into(&splats[..1], 2, 2, &mut keys, &mut ranges);
        assert_eq!(keys.len(), 4);
        assert_eq!(keys.capacity(), cap);
    }

    #[test]
    fn depth_bits_are_monotone() {
        let depths = [0.01f32, 0.5, 1.0, 1.5, 2.0, 10.0, 1e6];
        for w in depths.windows(2) {
            assert!(depth_bits(w[0]) < depth_bits(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn keys_grouped_by_tile_then_depth() {
        let splats = vec![
            splat(2.0, (0, 0, 0, 0)),
            splat(1.0, (0, 0, 0, 0)),
            splat(3.0, (1, 0, 1, 0)),
        ];
        let (keys, ranges) = bin_and_sort(&splats, 2, 1);
        assert_eq!(keys.len(), 3);
        // Tile 0 holds splats 1 (depth 1) then 0 (depth 2).
        assert_eq!(ranges[0], (0, 2));
        assert_eq!(keys[0].splat, 1);
        assert_eq!(keys[1].splat, 0);
        // Tile 1 holds splat 2.
        assert_eq!(ranges[1], (2, 3));
        assert_eq!(keys[2].splat, 2);
    }

    #[test]
    fn multi_tile_splat_is_duplicated() {
        let splats = vec![splat(1.0, (0, 0, 1, 1))];
        let (keys, ranges) = bin_and_sort(&splats, 2, 2);
        assert_eq!(keys.len(), 4);
        for r in ranges {
            assert_eq!(r.1 - r.0, 1);
        }
    }

    #[test]
    fn empty_tiles_have_empty_ranges() {
        let splats = vec![splat(1.0, (1, 1, 1, 1))];
        let (_, ranges) = bin_and_sort(&splats, 2, 2);
        assert_eq!(ranges[0], (0, 0));
        assert_eq!(ranges[3], (0, 1)); // tile (1,1) = index 3
    }

    #[test]
    fn no_splats_no_keys() {
        let (keys, ranges) = bin_and_sort(&[], 4, 4);
        assert!(keys.is_empty());
        assert_eq!(ranges.len(), 16);
    }

    /// A pseudo-random splat population covering many tiles with depth ties.
    fn crowd(n: u32, tiles_x: u32, tiles_y: u32) -> Vec<Splat> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x0 = h % tiles_x;
                let y0 = (h >> 8) % tiles_y;
                let x1 = (x0 + (h >> 16) % 3).min(tiles_x - 1);
                let y1 = (y0 + (h >> 20) % 3).min(tiles_y - 1);
                // Quantized depths produce plenty of exact ties, exercising
                // the (key, splat) tie-break in every path.
                splat(((h >> 4) % 7) as f32 * 0.5 + 0.25, (x0, y0, x1, y1))
            })
            .collect()
    }

    #[test]
    fn parallel_binning_is_bit_identical_to_serial() {
        let splats = crowd(500, 8, 6);
        let (serial_keys, serial_ranges) = bin_and_sort(&splats, 8, 6);
        let mut scratch = BinScratch::default();
        let mut keys = Vec::new();
        let mut ranges = Vec::new();
        for chunks in [1usize, 2, 3, 5, 16, 499, 500, 2000] {
            let mut pool = WorkerPool::new(chunks.min(4));
            bin_and_sort_parallel(
                &splats,
                8,
                6,
                &mut keys,
                &mut ranges,
                &mut scratch,
                &mut pool,
                chunks,
            );
            assert_eq!(keys, serial_keys, "chunks={chunks} changed the keys");
            assert_eq!(ranges, serial_ranges, "chunks={chunks} changed the ranges");
        }
    }

    #[test]
    fn parallel_binning_reuses_buffers() {
        let splats = crowd(300, 4, 4);
        let mut scratch = BinScratch::default();
        let mut keys = Vec::new();
        let mut ranges = Vec::new();
        let mut pool = WorkerPool::new(3);
        bin_and_sort_parallel(
            &splats,
            4,
            4,
            &mut keys,
            &mut ranges,
            &mut scratch,
            &mut pool,
            3,
        );
        let caps = (
            keys.capacity(),
            ranges.capacity(),
            scratch.cursors.capacity(),
        );
        for _ in 0..4 {
            bin_and_sort_parallel(
                &splats,
                4,
                4,
                &mut keys,
                &mut ranges,
                &mut scratch,
                &mut pool,
                3,
            );
        }
        assert_eq!(
            caps,
            (
                keys.capacity(),
                ranges.capacity(),
                scratch.cursors.capacity()
            ),
            "steady-state parallel binning must not grow buffers"
        );
    }
}
