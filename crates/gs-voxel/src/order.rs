//! Global voxel ordering: per-ray lists → DAG → topological sort.
//!
//! Pixels in a group intersect different voxel sequences; the tile needs one
//! global order that respects every pixel's front-to-back order (paper
//! Sec. III-B, "Inter-Voxel Order"). Consecutive voxels in a ray's list
//! become DAG edges; Kahn's algorithm produces the order. Coherent tile rays
//! normally yield an acyclic graph, but wide tiles can produce cycles — we
//! break those by releasing the remaining node nearest to the camera
//! (smallest reference depth) and record the event.
//!
//! The seed implementation rebuilt hash maps (`in_degree`, `adj`,
//! `edge_set`) for every pixel group and deduplicated force-released nodes
//! with an O(n²) `order.contains` scan. The hot path now runs on a
//! reusable [`OrderScratch`]: voxel ids are remapped to dense local indices
//! through an epoch-stamped table, edges live in one sorted+deduplicated
//! CSR-style list, duplicate emissions are caught by an `emitted` bitmap,
//! and every buffer (including the ready heap) keeps its capacity across
//! calls — steady-state ordering performs **zero allocations**.
//!
//! Neighbouring rays of a group mostly cross the same voxel list, so the
//! raw consecutive pairs are overwhelmingly repeats (thousands of pairs
//! per group for a few dozen unique edges). Repeats are dropped before
//! the sort: a ray whose list equals the previous ray's is skipped, and a
//! node's edge to the successor it last pushed is not pushed again. The
//! sort+dedup then removes what is left. Kahn's output depends only on the
//! node set, the edge set and the `(depth, id)` keys — none of which
//! these skips change — so the order and every [`OrderStats`] counter are
//! those of the plain pairwise collection.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Result of ordering one tile's voxels.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VoxelOrder {
    /// Voxel ids in rendering order.
    pub order: Vec<u32>,
    /// Number of unique dependency edges in the DAG.
    pub edges: u32,
    /// Number of cycle-break events (0 for a true DAG).
    pub cycle_breaks: u32,
}

/// Counters from one [`topological_order_into`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OrderStats {
    /// Number of unique dependency edges in the DAG.
    pub edges: u32,
    /// Number of cycle-break events (0 for a true DAG).
    pub cycle_breaks: u32,
    /// Ordering work performed: nodes emitted plus edges relaxed — the
    /// VSU's sort-stage work measure for the accelerator model.
    pub ops: u64,
}

/// Reusable working state for [`topological_order_into`].
///
/// All buffers only ever grow; after the first few groups of a frame the
/// ordering path allocates nothing. The id→local mapping is invalidated in
/// O(1) per call by bumping `epoch` instead of clearing the table.
#[derive(Clone, Debug, Default)]
pub struct OrderScratch {
    /// Voxel id → local index; valid only when `stamp[id] == epoch`.
    local: Vec<u32>,
    /// Epoch stamp per voxel id slot.
    stamp: Vec<u32>,
    /// Current call's epoch.
    epoch: u32,
    /// Local index → voxel id.
    ids: Vec<u32>,
    /// Local index → depth key bits (see `depth_key`).
    depth: Vec<u32>,
    /// Local index → the successor of its last pushed edge (`u32::MAX`
    /// before the first), so a run of rays repeating an edge pushes it
    /// once.
    last_succ: Vec<u32>,
    /// Local index → remaining in-degree during Kahn's algorithm.
    in_degree: Vec<u32>,
    /// Unique DAG edges as local `(from, to)` pairs, sorted; doubles as the
    /// CSR adjacency payload (a node's successors are one contiguous run).
    edges: Vec<(u32, u32)>,
    /// CSR offsets into `edges` (length `n + 1`).
    adj_off: Vec<u32>,
    /// Local index → already emitted to the order (replaces the seed's
    /// quadratic `order.contains(&next)` scan).
    emitted: Vec<bool>,
    /// Ready set ordered by `(depth key, voxel id)`, front first.
    ready: BinaryHeap<Reverse<(u32, u32)>>,
}

impl OrderScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> OrderScratch {
        OrderScratch::default()
    }

    /// Maps a voxel id to its dense local index, interning it on first
    /// sight in this epoch.
    fn intern(&mut self, id: u32, depth_key: impl Fn(u32) -> u32) -> u32 {
        let slot = id as usize;
        if slot >= self.local.len() {
            self.local.resize(slot + 1, 0);
            self.stamp.resize(slot + 1, 0);
        }
        if self.stamp[slot] == self.epoch {
            return self.local[slot];
        }
        let l = self.ids.len() as u32;
        self.stamp[slot] = self.epoch;
        self.local[slot] = l;
        self.ids.push(id);
        self.depth.push(depth_key(id));
        self.last_succ.push(u32::MAX);
        l
    }

    /// Begins a new epoch, resetting the per-call buffers without freeing.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 epoch wrapped: old stamps could alias. Reset once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.ids.clear();
        self.depth.clear();
        self.last_succ.clear();
        self.edges.clear();
        self.ready.clear();
    }

    /// Grows every buffer to at least `peer`'s capacity, so this scratch
    /// can order any ray set `peer` already ordered without allocating.
    pub(crate) fn reserve_like(&mut self, peer: &OrderScratch) {
        reserve_to(&mut self.local, peer.local.capacity());
        reserve_to(&mut self.stamp, peer.stamp.capacity());
        reserve_to(&mut self.ids, peer.ids.capacity());
        reserve_to(&mut self.depth, peer.depth.capacity());
        reserve_to(&mut self.last_succ, peer.last_succ.capacity());
        reserve_to(&mut self.in_degree, peer.in_degree.capacity());
        reserve_to(&mut self.edges, peer.edges.capacity());
        reserve_to(&mut self.adj_off, peer.adj_off.capacity());
        reserve_to(&mut self.emitted, peer.emitted.capacity());
        let ready = peer.ready.capacity().saturating_sub(self.ready.len());
        self.ready.reserve_exact(ready);
    }
}

/// Grows `v`'s capacity to at least `cap` (no-op when it already has it).
pub(crate) fn reserve_to<T>(v: &mut Vec<T>, cap: usize) {
    v.reserve_exact(cap.saturating_sub(v.len()));
}

/// Converts a reference depth to monotone, totally ordered key bits
/// (positive IEEE-754 floats compare like their bit patterns).
fn depth_key(d: f32) -> u32 {
    d.max(0.0).to_bits()
}

/// Builds the global order from per-ray voxel lists.
///
/// `depth_of(v)` supplies a reference depth per voxel (distance of its centre
/// from the camera) used to (a) order independent voxels deterministically
/// front-to-back and (b) break cycles.
///
/// Convenience wrapper over [`topological_order_into`] that allocates a
/// fresh [`OrderScratch`] per call; hot paths should hold a scratch and an
/// output buffer and call the `_into` variant directly.
pub fn topological_order<F: Fn(u32) -> f32>(ray_lists: &[Vec<u32>], depth_of: F) -> VoxelOrder {
    let mut scratch = OrderScratch::new();
    let mut order = Vec::new();
    let stats = topological_order_into(ray_lists, depth_of, &mut scratch, &mut order);
    VoxelOrder {
        order,
        edges: stats.edges,
        cycle_breaks: stats.cycle_breaks,
    }
}

/// [`topological_order`] into caller-owned buffers: the voxel order is
/// written to `out` (cleared first) and all intermediate state lives in
/// `scratch`, so repeated calls allocate nothing once the buffers warmed
/// up. Output is identical to [`topological_order`] — dense local indices
/// change the bookkeeping, not the `(depth, voxel id)` tie-breaking.
///
/// `ray_lists` is anything that yields per-ray voxel slices (``&[Vec<u32>]``
/// works as before; the streaming renderer feeds flat per-chunk ray buffers
/// without materializing one `Vec` per ray). Only the concatenation of rays
/// matters, not how they are batched.
///
/// Runs entirely on the calling thread. `tests/alloc_free_order.rs` counts
/// allocations per thread, so a parallel path added here must extend that
/// test to count its workers' allocations too.
pub fn topological_order_into<I, F>(
    ray_lists: I,
    depth_of: F,
    scratch: &mut OrderScratch,
    out: &mut Vec<u32>,
) -> OrderStats
where
    I: IntoIterator,
    I::Item: AsRef<[u32]>,
    F: Fn(u32) -> f32,
{
    out.clear();
    scratch.begin();

    // Collect nodes and edges (consecutive pairs per ray). Neighbouring
    // rays mostly cross the same voxels, so most candidate edges repeat:
    // a ray equal to the previous one adds nothing and is skipped whole,
    // and an edge equal to its source's last pushed edge is not pushed
    // again. Both only drop duplicates, so the edge *set* is unchanged.
    let mut prev_ray: Option<I::Item> = None;
    for list in ray_lists {
        if prev_ray
            .as_ref()
            .is_some_and(|p| p.as_ref() == list.as_ref())
        {
            continue;
        }
        let mut prev: Option<u32> = None;
        for &v in list.as_ref() {
            let l = scratch.intern(v, |id| depth_key(depth_of(id)));
            if let Some(p) = prev {
                if p != l && scratch.last_succ[p as usize] != l {
                    scratch.last_succ[p as usize] = l;
                    scratch.edges.push((p, l));
                }
            }
            prev = Some(l);
        }
        prev_ray = Some(list);
    }
    let n = scratch.ids.len();

    // Deduplicate the remaining repeats in place; sorted edges are
    // CSR-ready (a node's successors form one contiguous run).
    scratch.edges.sort_unstable();
    scratch.edges.dedup();
    let edges = scratch.edges.len() as u32;

    scratch.in_degree.clear();
    scratch.in_degree.resize(n, 0);
    for &(_, b) in &scratch.edges {
        scratch.in_degree[b as usize] += 1;
    }
    scratch.adj_off.clear();
    scratch.adj_off.resize(n + 1, 0);
    for &(a, _) in &scratch.edges {
        scratch.adj_off[a as usize + 1] += 1;
    }
    for i in 0..n {
        scratch.adj_off[i + 1] += scratch.adj_off[i];
    }

    scratch.emitted.clear();
    scratch.emitted.resize(n, false);
    for l in 0..n {
        if scratch.in_degree[l] == 0 {
            scratch
                .ready
                .push(Reverse((scratch.depth[l], scratch.ids[l])));
        }
    }

    let mut cycle_breaks = 0u32;
    let mut ops = 0u64;
    if out.capacity() < n {
        out.reserve(n);
    }
    while out.len() < n {
        let l = match scratch.ready.pop() {
            Some(Reverse((_, id))) => scratch.local[id as usize],
            None => {
                // Cycle: release the nearest unemitted voxel (all unemitted
                // nodes have in-degree > 0 here, or they would be ready).
                let mut best: Option<u32> = None;
                for cand in 0..n as u32 {
                    let ci = cand as usize;
                    if scratch.emitted[ci] {
                        continue;
                    }
                    let key = (scratch.depth[ci], scratch.ids[ci]);
                    if best
                        .is_none_or(|b| key < (scratch.depth[b as usize], scratch.ids[b as usize]))
                    {
                        best = Some(cand);
                    }
                }
                let l = match best {
                    Some(l) => l,
                    // `out.len() < n` ⇒ some node is unemitted, so the
                    // scan above always finds a candidate.
                    None => unreachable!("unemitted nodes exist while order is incomplete"),
                };
                // Zeroing the in-degree mirrors the seed's removal from the
                // `remaining` map: later decrements are ignored and the node
                // never re-enters the ready set.
                scratch.in_degree[l as usize] = 0;
                cycle_breaks += 1;
                l
            }
        };
        let li = l as usize;
        // A node may be popped after having been force-released; the
        // emitted bitmap replaces the seed's O(n²) `order.contains` scan.
        if scratch.emitted[li] {
            continue;
        }
        scratch.emitted[li] = true;
        out.push(scratch.ids[li]);
        ops += 1;
        let (s, e) = (
            scratch.adj_off[li] as usize,
            scratch.adj_off[li + 1] as usize,
        );
        for k in s..e {
            let succ = scratch.edges[k].1 as usize;
            ops += 1;
            if !scratch.emitted[succ] && scratch.in_degree[succ] > 0 {
                scratch.in_degree[succ] -= 1;
                if scratch.in_degree[succ] == 0 {
                    scratch
                        .ready
                        .push(Reverse((scratch.depth[succ], scratch.ids[succ])));
                }
            }
        }
    }

    OrderStats {
        edges,
        cycle_breaks,
        ops,
    }
}

/// Verifies that `order` respects every consecutive constraint in
/// `ray_lists`; returns the number of violated pairs (0 = perfect).
pub fn count_order_violations(ray_lists: &[Vec<u32>], order: &[u32]) -> usize {
    let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, v)| (*v, i)).collect();
    let mut violations = 0;
    for list in ray_lists {
        for w in list.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            match (pos.get(&w[0]), pos.get(&w[1])) {
                (Some(a), Some(b)) if a >= b => violations += 1,
                (None, _) | (_, None) => violations += 1,
                _ => {}
            }
        }
    }
    violations
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn by_id(v: u32) -> f32 {
        v as f32
    }

    #[test]
    fn single_ray_preserves_its_order() {
        let lists = vec![vec![3, 1, 4, 2]];
        let r = topological_order(&lists, by_id);
        assert_eq!(r.order, vec![3, 1, 4, 2]);
        assert_eq!(r.cycle_breaks, 0);
        assert_eq!(count_order_violations(&lists, &r.order), 0);
    }

    #[test]
    fn merges_consistent_rays() {
        // Paper Fig. 5: R0=[4,5,2,3], R1=[4,5,6,3], R2=[4,5,6] →
        // one valid global order is 4,5,2,6,3 (or 4,5,6,2,3).
        let lists = vec![vec![4, 5, 2, 3], vec![4, 5, 6, 3], vec![4, 5, 6]];
        let r = topological_order(&lists, by_id);
        assert_eq!(r.cycle_breaks, 0);
        assert_eq!(count_order_violations(&lists, &r.order), 0);
        assert_eq!(r.order.len(), 5);
        assert_eq!(r.order[0], 4);
        assert_eq!(r.order[1], 5);
        assert_eq!(*r.order.last().unwrap(), 3);
    }

    #[test]
    fn independent_nodes_sorted_by_depth() {
        let lists = vec![vec![7], vec![2], vec![5]];
        let r = topological_order(&lists, by_id);
        assert_eq!(r.order, vec![2, 5, 7]);
        assert_eq!(r.edges, 0);
    }

    #[test]
    fn cycle_is_broken_near_first() {
        // Contradictory rays: 1→2 and 2→1.
        let lists = vec![vec![1, 2], vec![2, 1]];
        let r = topological_order(&lists, by_id);
        assert_eq!(r.order.len(), 2);
        assert!(r.cycle_breaks >= 1);
        // The nearer voxel (smaller depth) must come first.
        assert_eq!(r.order[0], 1);
    }

    #[test]
    fn duplicate_edges_counted_once() {
        let lists = vec![vec![1, 2], vec![1, 2], vec![1, 2]];
        let r = topological_order(&lists, by_id);
        assert_eq!(r.edges, 1);
    }

    #[test]
    fn empty_input_is_empty_order() {
        let r = topological_order(&[], by_id);
        assert!(r.order.is_empty());
    }

    #[test]
    fn violation_counter_detects_bad_order() {
        let lists = vec![vec![1, 2, 3]];
        assert_eq!(count_order_violations(&lists, &[3, 2, 1]), 2);
        assert_eq!(count_order_violations(&lists, &[1, 2, 3]), 0);
        // Missing node counts as violation.
        assert_eq!(count_order_violations(&lists, &[1, 2]), 1);
    }

    #[test]
    fn long_chain_many_rays() {
        // 50 rays over a 30-node chain with random suffixes stays acyclic.
        let mut lists = Vec::new();
        for start in 0..20u32 {
            lists.push((start..30).collect::<Vec<_>>());
        }
        let r = topological_order(&lists, by_id);
        assert_eq!(r.cycle_breaks, 0);
        assert_eq!(count_order_violations(&lists, &r.order), 0);
        assert_eq!(r.order, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One scratch across many differently-shaped inputs must behave
        // exactly like fresh per-call state (epoch invalidation, buffer
        // reuse, heap leftovers).
        let inputs: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![3, 1, 4, 2]],
            vec![vec![4, 5, 2, 3], vec![4, 5, 6, 3], vec![4, 5, 6]],
            vec![vec![1, 2], vec![2, 1]],
            vec![],
            vec![vec![7], vec![2], vec![5]],
            vec![vec![9, 8, 7, 6, 5], vec![9, 8, 7], vec![5, 4]],
        ];
        let mut scratch = OrderScratch::new();
        let mut out = Vec::new();
        for lists in &inputs {
            let fresh = topological_order(lists, by_id);
            let stats = topological_order_into(lists, by_id, &mut scratch, &mut out);
            assert_eq!(out, fresh.order);
            assert_eq!(stats.edges, fresh.edges);
            assert_eq!(stats.cycle_breaks, fresh.cycle_breaks);
        }
    }

    #[test]
    fn large_cyclic_ray_set_completes_without_quadratic_dedup() {
        // Regression for the seed's `order.contains(&next)` scan: a large
        // set of contradictory rays forces many cycle breaks; the emitted
        // bitmap keeps this O(n + E) instead of O(n²) per forced release.
        // (With n = 4000 the seed's quadratic scan made this take seconds.)
        let n: u32 = 4000;
        // A long forward chain 0..n and the full reverse chain,
        // contradicting every edge.
        let lists = vec![(0..n).collect::<Vec<_>>(), (0..n).rev().collect::<Vec<_>>()];
        let start = std::time::Instant::now();
        let r = topological_order(&lists, by_id);
        assert_eq!(r.order.len(), n as usize);
        assert!(r.cycle_breaks > 0, "reverse chain must force releases");
        // No duplicates despite every node being force-release-eligible.
        let mut sorted = r.order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n as usize);
        // Generous wall-clock guard: quadratic behaviour took whole seconds
        // at this size; the linear path finishes in milliseconds.
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "ordering degenerated: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn steady_state_ordering_keeps_capacities() {
        // Warm the scratch with the largest input, then re-run: every
        // internal buffer must keep its capacity (zero steady-state
        // allocations; the allocation counter test in
        // `tests/alloc_free_order.rs` proves the stronger property).
        let lists: Vec<Vec<u32>> = (0..16u32)
            .map(|r| (r..r + 40).collect::<Vec<u32>>())
            .collect();
        let mut scratch = OrderScratch::new();
        let mut out = Vec::new();
        topological_order_into(&lists, by_id, &mut scratch, &mut out);
        let caps = (
            scratch.local.capacity(),
            scratch.stamp.capacity(),
            scratch.ids.capacity(),
            scratch.depth.capacity(),
            scratch.in_degree.capacity(),
            scratch.edges.capacity(),
            scratch.adj_off.capacity(),
            scratch.emitted.capacity(),
            out.capacity(),
        );
        for _ in 0..5 {
            topological_order_into(&lists, by_id, &mut scratch, &mut out);
        }
        assert_eq!(
            caps,
            (
                scratch.local.capacity(),
                scratch.stamp.capacity(),
                scratch.ids.capacity(),
                scratch.depth.capacity(),
                scratch.in_degree.capacity(),
                scratch.edges.capacity(),
                scratch.adj_off.capacity(),
                scratch.emitted.capacity(),
                out.capacity(),
            ),
            "steady-state ordering must not grow any buffer"
        );
    }
}
