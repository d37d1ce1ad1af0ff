//! Proves the whole warm group render is allocation-free in steady state.
//!
//! PR 2's counting-allocator test covered the ordering path alone; the CSR
//! group-loop rework extends the zero-alloc property to the entire frame:
//! after warming a [`StreamingScene`] and a reusable [`StreamingOutput`],
//! re-rendering the same camera through [`StreamingScene::render_into`]
//! must perform **zero** heap allocations — resident store, cache on or
//! off, one worker or two claiming groups dynamically (whichever worker
//! renders a group, it must not grow a buffer). Paged stores are covered
//! too: after the page set and the staging
//! buffer pool warmed up, paged coarse fetches (and whole paged frames)
//! allocate nothing either — also under a page budget that keeps faulting,
//! where every fault fills the evicted page's recycled buffer.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration-test binary with a **single** `#[test]` that runs the cases
//! in sequence: libtest runs separate tests on parallel threads, and one
//! case's scene build would land in another case's measured window.

use gs_mem::cache::CacheConfig;
use gs_mem::TrafficLedger;
use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{PageConfig, StreamingConfig, StreamingOutput, StreamingScene};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counting allocator is the one `unsafe` these tests need: it only
// forwards to `System`, adding a counter.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The measured camera.
fn cam() -> gs_core::camera::Camera {
    gs_core::camera::Camera::look_at(
        gs_core::vec::Vec3::new(0.4, 0.3, -7.5),
        gs_core::vec::Vec3::ZERO,
        gs_core::vec::Vec3::Y,
        160,
        120,
        0.9,
    )
}

/// Renders `frames` warm frames and returns the allocations they made.
fn allocs_over_warm_frames(scene: &StreamingScene, frames: u32) -> u64 {
    let cam = cam();
    let mut out = StreamingOutput::default();
    // Warm-up: grows every scratch buffer, the output's buffers, and (for
    // cached configs) the working-set cache's per-set tag lists.
    scene.render_into(&cam, &mut out);
    scene.render_into(&cam, &mut out);
    assert!(out.workload.totals().gaussians_streamed > 0);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..frames {
        scene.render_into(&cam, &mut out);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn scene_with(cache: Option<CacheConfig>) -> StreamingScene {
    scene_on(cache, 1)
}

fn scene_on(cache: Option<CacheConfig>, threads: usize) -> StreamingScene {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            // An explicit worker count: no `available_parallelism` query
            // inside the measured region.
            threads,
            cache,
            ..Default::default()
        },
    )
}

fn resident_case() -> u64 {
    allocs_over_warm_frames(&scene_with(None), 4)
}

fn cached_case() -> u64 {
    allocs_over_warm_frames(&scene_with(Some(CacheConfig::default())), 4)
}

fn cached_two_worker_case() -> u64 {
    // Two workers claim the 20 groups dynamically, so which worker's
    // scratch renders which group changes from frame to frame.
    allocs_over_warm_frames(&scene_on(Some(CacheConfig::default()), 2), 8)
}

fn paged_case() -> u64 {
    // Unbounded page budget: after warm-up every page is resident and the
    // staging-buffer pool covers the largest voxel, so even the paged
    // backing renders without allocating.
    let mut scene = scene_with(None);
    scene.page_out(PageConfig {
        slots_per_page: 64,
        max_resident_pages: 0,
        ..PageConfig::default()
    });
    allocs_over_warm_frames(&scene, 4)
}

fn bounded_paged_case() -> u64 {
    // Four resident pages, checksums verified: every warm frame evicts
    // and refills pages, each fault recycling its victim's buffer and the
    // column's verification staging.
    let mut scene = scene_with(None);
    scene.page_out(PageConfig {
        slots_per_page: 64,
        max_resident_pages: 4,
        verify_checksums: true,
        ..PageConfig::default()
    });
    let allocs = allocs_over_warm_frames(&scene, 4);
    let faults = scene.store().page_faults();
    scene.render(&cam());
    assert!(
        scene.store().page_faults() > faults + 4,
        "bounded paged case: a warm frame must keep faulting"
    );
    allocs
}

fn paged_coarse_fetch_case() -> u64 {
    // The satellite fix in isolation: paged `fetch_coarse` used to build
    // one staging `Vec` per voxel; the return-on-drop buffer pool makes
    // the steady state allocation-free.
    let scene = scene_with(None);
    let paged = scene.store().paged_twin(PageConfig {
        slots_per_page: 32,
        max_resident_pages: 0,
        ..PageConfig::default()
    });
    let mut ledger = TrafficLedger::new();
    let mut checksum = 0u64;
    // Warm-up: materializes every page and grows the pooled buffer.
    for v in 0..paged.voxel_count() as u32 {
        for (slot, _, _) in paged.fetch_coarse(v, &mut ledger) {
            checksum += slot as u64;
        }
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut again = 0u64;
    for _ in 0..3 {
        again = 0;
        for v in 0..paged.voxel_count() as u32 {
            for (slot, _, _) in paged.fetch_coarse(v, &mut ledger) {
                again += slot as u64;
            }
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(again, checksum, "paged coarse fetch: checksum changed");
    allocs
}

#[test]
fn warm_streaming_paths_perform_zero_allocations() {
    assert_eq!(
        resident_case(),
        0,
        "resident case: steady-state resident streaming render must not allocate"
    );
    assert_eq!(
        cached_case(),
        0,
        "cached case: steady-state cached streaming render must not allocate"
    );
    assert_eq!(
        cached_two_worker_case(),
        0,
        "cached two-worker case: warm group-claiming frames must not allocate"
    );
    assert_eq!(
        paged_case(),
        0,
        "paged case: steady-state paged streaming render must not allocate"
    );
    assert_eq!(
        bounded_paged_case(),
        0,
        "bounded paged case: warm faults must recycle evicted page buffers"
    );
    assert_eq!(
        paged_coarse_fetch_case(),
        0,
        "paged coarse fetch case: warm paged coarse fetches must not allocate (buffer pool)"
    );
}
