//! Proves the VSU ordering path is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; after warming an
//! [`OrderScratch`] with the workload, re-running the exact ordering must
//! perform **zero** heap allocations. This is the strong form of the
//! capacity-stability unit test in `order.rs` — it catches hidden
//! allocations (heap growth, temporary collections) that capacity checks on
//! known buffers would miss.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration-test binary. It counts per thread: libtest's runner thread
//! does its own bookkeeping allocations right after spawning the test
//! thread, and this test reaches its measured window within microseconds,
//! so a process-wide count picks those up at random on a loaded host. The
//! ordering path is single-threaded, so every allocation it makes lands
//! on the measuring thread's counter.

use gs_voxel::order::{topological_order_into, OrderScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialized with no
    /// destructor, so the allocator can update it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// The counting allocator is the one `unsafe` these tests need: it only
// forwards to `System`, adding a counter.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn warm_order_scratch_performs_zero_allocations() {
    // A group-sized workload: overlapping forward chains plus a couple of
    // contradictory rays so the cycle-break path is exercised too.
    let mut lists: Vec<Vec<u32>> = (0..32u32).map(|r| (r..r + 48).collect()).collect();
    lists.push((0..40u32).rev().collect());
    let depth_of = |v: u32| v as f32 * 0.25;

    let mut scratch = OrderScratch::new();
    let mut out = Vec::new();
    // Warm-up: grows every buffer to its steady-state size.
    topological_order_into(&lists, depth_of, &mut scratch, &mut out);
    let warm_len = out.len();

    let before = allocs();
    for _ in 0..8 {
        let stats = topological_order_into(&lists, depth_of, &mut scratch, &mut out);
        assert_eq!(out.len(), warm_len);
        assert!(stats.edges > 0);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state topological ordering must not allocate"
    );
}
