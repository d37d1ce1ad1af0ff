//! # gs-voxel — the fully-streaming, memory-centric 3DGS pipeline
//!
//! This crate is the reproduction of the StreamingGS **core contribution**
//! (paper Sec. III): rendering a frame *voxel-by-voxel* instead of
//! tile-stage-by-tile-stage, so that all intermediate data fits on-chip and
//! the only DRAM traffic is (a) streaming each voxel's Gaussians in once and
//! (b) writing final pixels out once.
//!
//! Pipeline per pixel group (tile):
//!
//! 1. **Ray–voxel intersection** ([`dda`]): every pixel ray marches the
//!    [`grid::VoxelGrid`] front-to-back, producing its ordered voxel list.
//! 2. **Voxel ordering** ([`order`]): per-ray lists become a DAG whose
//!    topological order (Kahn) is the tile's global voxel rendering order.
//! 3. **Hierarchical filtering** ([`filter`]): per voxel, the coarse filter
//!    reads only `(x, y, z, s_max)` (16 B) and culls against the tile; only
//!    survivors fetch the VQ-compressed second half and run the precise
//!    (fine) projection.
//! 4. **In-voxel sorting + blending** ([`streaming`]): survivors sort by
//!    depth within the voxel and blend into on-chip partial pixel values
//!    that persist across voxels; pixels saturate early and the tile stops
//!    streaming further voxels once fully opaque.
//!
//! ## The data path is byte-exact (PR 3)
//!
//! At scene preparation the cloud is materialized into a
//! **voxel-resident columnar store** ([`store::VoxelStore`]): a raw
//! first-half column (16 B `[x, y, z, s_max]` per Gaussian, the coarse
//! filter's only input) and a second-half column holding either the raw
//! 220 B parameter remainder or VQ index records decoded through the
//! codebooks on fetch — both voxel-contiguous, the paper's Fig. 8 DRAM
//! layout realized as actual bytes. The render phases read **only** from
//! the store, and every fetch plus the final pixel writeback is metered
//! through per-worker [`gs_mem::TrafficLedger`]s merged once per frame in
//! deterministic worker order. The per-tile byte counters
//! ([`workload::TileWorkload`]) are *derived from* the ledger, making it
//! the single source of byte truth end to end; `gs-accel` prices DRAM
//! time and energy from the same measured ledger. Store decodes are
//! bit-exact (`tests/store_ledger.rs` round-trips them), and committed
//! golden frame digests (`tests/golden_frames.rs`) pin the images,
//! workloads and ledgers of every scene kind, raw and VQ.
//!
//! ## Paging and the working-set cache (PR 4)
//!
//! The store's columns live behind a backing abstraction: fully resident,
//! or **demand-paged** at slot-range granularity from a compact
//! serialized scene image (in memory or on disk, with an optional
//! LRU-evicted page budget) for scenes larger than host memory —
//! bit-exact either way (`tests/paged_cache.rs`). Orthogonally, every
//! coarse/fine fetch is traced per group and the traces are always
//! replayed in global group order at frame end; the replay is the only
//! place their DRAM and hit bytes are metered, and the cache decides hit
//! or fill. Without [`streaming::StreamingConfig::cache`] every fetch is
//! its own burst-rounded DRAM transaction. With it, a deterministic
//! [`gs_mem::cache::WorkingSetCache`] model fronts the coarse/fine fetch
//! stages (hit/miss counts are thread-count invariant): hits are metered
//! as on-chip bytes and only burst-rounded miss fills reach the ledger's
//! DRAM transaction counters — the bytes `gs-accel` prices.
//!
//! ## Fault tolerance and the error-handling contract (PR 6)
//!
//! The paged backing is fallible by design: scene images carry a
//! versioned header with per-chunk CRC32 checksums (verified on page
//! materialization), page reads retry transient faults with capped
//! deterministic backoff, and permanent faults mark pages dead. The
//! contract:
//!
//! * **Returns `Err(`[`store::StoreError`]`)`** — everything that depends
//!   on external bytes: `open_paged_*` (malformed/truncated/corrupt
//!   images), `try_fetch_coarse`/`try_fetch_fine`/`try_coarse_of` on a
//!   paged store (I/O errors, exhausted retries, dead pages), and
//!   [`streaming::StreamingScene::try_render`]/`try_render_into`, which
//!   propagate the globally-first failing group's error for any worker
//!   count.
//! * **Panics** — only the infallible convenience wrappers
//!   (`fetch_coarse`, `fetch_fine`, `render`, `render_into`, `paged_twin`,
//!   `page_out`) and only on a `StoreError` that the fallible twin would
//!   have returned; on resident stores these can never fire. Logic bugs
//!   (out-of-range slot/voxel ids) stay panics everywhere — they are
//!   caller errors, not data faults.
//! * **Degrades** — with [`streaming::StreamingConfig::degrade_on_fault`]
//!   (default), mid-frame page faults that survive retry don't fail the
//!   frame: the affected voxel is skipped (coarse column unavailable) or
//!   the fine record blends as its grey coarse-approximation stand-in;
//!   every event is counted in the thread-invariant
//!   [`streaming::DegradationReport`] returned with the frame.
//!
//! Deterministic fault injection ([`store::FaultPolicy`], seeded and
//! keyed on read offset + attempt only) drives the recovery suites
//! (`tests/fault_injection.rs`, `tests/fuzz_scene_image.rs`) and the
//! `perfbench` `paged-churn` workload.
//!
//! The functional renderer also measures everything the accelerator model
//! needs ([`workload`]) and the depth-order violations that the
//! boundary-aware fine-tuning (crate `gs-tune`) penalizes.
//!
//! ## Example
//!
//! ```
//! use gs_scene::{SceneConfig, SceneKind};
//! use gs_voxel::{StreamingConfig, StreamingScene};
//!
//! let scene = SceneKind::Lego.build(&SceneConfig::tiny());
//! let cfg = StreamingConfig { voxel_size: scene.voxel_size, ..StreamingConfig::default() };
//! let streaming = StreamingScene::new(scene.trained.clone(), cfg);
//! let out = streaming.render(&scene.eval_cameras[0]);
//! assert!(out.workload.totals().gaussians_streamed > 0);
//! ```

pub mod dda;
pub mod filter;
pub mod grid;
pub mod order;
pub mod store;
pub mod streaming;
pub mod workload;

pub use grid::VoxelGrid;
pub use store::{
    CoarseIter, ColumnKind, FaultPolicy, FaultStats, PageConfig, StoreError, StoreFaultSnapshot,
    VoxelStore,
};
pub use streaming::{
    DegradationReport, QualityPolicy, StreamingConfig, StreamingOutput, StreamingScene,
    TierUsageReport, MAX_EXTRA_TIERS,
};
pub use workload::{FrameWorkload, TileWorkload};

// The tier layout type lives in `gs-vq` (the codec layer); re-exported
// here because `StreamingConfig::tiers` is the usual way to name one.
pub use gs_vq::TierSpec;
