//! The fully-streaming, memory-centric renderer (paper Fig. 5).
//!
//! The frame is processed in **pixel groups** (paper Sec. III-A: "renders a
//! group of pixels together"). The group is the on-chip working set: its
//! partial pixel values persist in SRAM across voxels (a 64×64 group of
//! 16-byte partials fits the paper's 89 KB intermediate buffer). For each
//! group: intersect rays with the voxel grid, topologically sort the
//! intersected voxels, then stream voxels one at a time through
//! hierarchical filtering → in-voxel sort → blending. A voxel is skipped
//! entirely (no DRAM fetch) once every pixel whose ray intersects it has
//! saturated — the front-to-back order makes this exact.
//!
//! The steady-state group loop touches no hash map, no byte-per-pixel
//! mask, and performs no allocation:
//!
//! * every crossed voxel's ray mask is built in one pass over the ray
//!   lists: an epoch-stamped dense-id remap (the
//!   [`crate::order::OrderScratch`] trick) gives each voxel a packed
//!   `u64` bitset, and each ray ORs its pixel's precomputed stride-dilation
//!   spans into the masks of the voxels it crosses (`VoxelMasks`);
//! * the voxel masks and the blender's saturation set are packed `u64`
//!   bitset words, so the "any live pixel?" test is `mask & !done != 0`
//!   per word;
//! * per-camera projection constants (`FilterCamera`) are derived once
//!   per frame, and the blender fills each splat's falloff column table
//!   once ([`gs_core::ewa::FalloffColumns`]) — both cache identical float
//!   subtrees, so no output bit moves;
//! * groups are claimed dynamically by the workers of the shared
//!   [`gs_render::pool::WorkerPool`] (`run_claimed`, one job per worker
//!   up to one per group; a single job renders inline without a pool):
//!   each worker owns its working scratch, each group writes only its
//!   own output slot (pixels, workload, ledger, fetch trace, violations,
//!   degradation, error), and the frame reads the slots back in group
//!   order — so a frame never waits on a fixed heavier share of groups,
//!   which worker rendered a group is unobservable, and output stays
//!   **bit-identical** for any worker count (the same determinism
//!   contract as the parallel front-end in `gs_render`);
//! * every coarse and fine fetch is recorded in its group's trace, and
//!   one frame-end replay in group order meters their DRAM and hit bytes
//!   — each fetch its own burst-rounded transaction, or through the
//!   working-set cache when one is configured.
//!
//! There is one render path: every frame reads the store's columns and
//! runs one DDA marcher, one fine-fetch loop for every tier and one
//! blend kernel. Committed golden frame digests (`tests/golden_frames.rs`)
//! pin its output bytes; the kernels' original loops survive only as
//! test-only references they are compared against per ray (`dda.rs`) and
//! per splat (this module's tests).
//!
//! ## Fault tolerance (PR 6)
//!
//! When the store's backing is paged, a page read can fail: the fallible
//! twins [`StreamingScene::try_render`]/[`StreamingScene::try_render_into`]
//! surface [`StoreError`]s instead of panicking. With
//! [`StreamingConfig::degrade_on_fault`] set (the default), an unavailable
//! coarse column skips the voxel and an unavailable fine record blends its
//! coarse approximation (position + bounding scale as a grey isotropic
//! stand-in) or is dropped; every such event is counted in the frame's
//! [`DegradationReport`], which — like the ledger — is **thread-invariant**.
//! With degradation off, the frame fails with the error of its
//! lowest-index failing group (other groups may still have rendered).

// Render-time paths must propagate faults, not panic — enforced
// workspace-wide by `[workspace.lints]` (tests are exempt via a
// mod-level allow).

use crate::dda::traverse_append;
use crate::filter::{FilterCamera, FineSplat, TileRect};
use crate::grid::VoxelGrid;
use crate::order::{reserve_to, topological_order_into, OrderScratch};
use crate::store::{
    lock_unpoisoned, ColumnKind, FaultPolicy, FaultStats, PageConfig, StoreError, VoxelStore,
};
use crate::workload::{FrameWorkload, TileWorkload};
use gs_core::camera::Camera;
use gs_core::ewa::FalloffColumns;
use gs_core::image::ImageRgb;
use gs_core::vec::{Vec2, Vec3};
use gs_mem::cache::{AccessOutcome, CacheConfig, CacheReport, CacheStats, WorkingSetCache};
use gs_mem::dram::{round_to_burst, DEFAULT_BURST_BYTES};
use gs_mem::{Direction, Stage, TrafficLedger, MAX_TIERS};
use gs_render::pool::{resolve_threads, WorkerPool};
use gs_render::{ALPHA_EPS, ALPHA_MAX, TRANSMITTANCE_EPS};
use gs_scene::{Gaussian, GaussianCloud};
use gs_vq::{GaussianQuantizer, QuantizedCloud, TierSpec, VqConfig};
use serde::{Deserialize, Serialize};
use std::io;
use std::sync::{Arc, Mutex};

/// An out-of-order blend counts as a violation only when the depth
/// inversion exceeds this fraction of the voxel size — smaller inversions
/// are benign co-located-splat noise that even tiny ordering jitter
/// produces, not the cross-boundary errors of paper Fig. 6.
const VIOLATION_VOXEL_FRACTION: f32 = 0.1;

/// How the renderer picks a quality tier per voxel per frame (ISSUE 9).
///
/// Tier 0 is the full-quality second-half column every store carries;
/// tiers 1.. are the extra LOD columns built from
/// [`StreamingConfig::tiers`]. Selection happens once per frame in a
/// **serial pre-pass over scene voxels in ascending voxel id** — a pure
/// function of `(camera, policy, store layout)` — so the per-voxel tier
/// map is invariant across worker-thread counts, like every other frame
/// output. [`QualityPolicy::FullQuality`] skips the pre-pass entirely and
/// renders bit-identically to a tierless scene.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum QualityPolicy {
    /// Always fetch tier 0 (the default): byte-identical to the renderer
    /// before tiers existed, even on a store that carries extra tiers.
    #[default]
    FullQuality,
    /// Pick the tier from the voxel's projected screen-space footprint
    /// (`voxel_size · fy / depth`, in pixels): footprints at or above
    /// `threshold` render full quality, and each halving of the footprint
    /// below it drops one more tier (clamped to the coarsest built).
    /// Voxels behind the camera render full quality (their rays never
    /// reach them anyway).
    ScreenSpaceError {
        /// Footprint (pixels) at which quality starts dropping.
        threshold: f32,
    },
    /// [`QualityPolicy::ScreenSpaceError`] with a temporal enter/exit
    /// margin: the tier a voxel rendered at last frame persists while its
    /// footprint stays inside `threshold · (1 ∓ margin)`, so boundary
    /// voxels stop flickering between adjacent tiers across adjacent
    /// trajectory frames. The first frame (and any frame after
    /// [`StreamingScene::set_quality`]) selects exactly like
    /// `ScreenSpaceError`; later frames clamp the previous tier into the
    /// `[finer-bound, coarser-bound]` window the margin opens. The
    /// previous-tier map lives in the scene's per-session scratch, so the
    /// selection depends only on this session's own frame sequence —
    /// shared-store serving stays bit-identical to rendering solo.
    Hysteresis {
        /// Footprint (pixels) at which quality starts dropping.
        threshold: f32,
        /// Enter/exit margin as a fraction of `threshold` (clamped to
        /// `[0, 0.9]`); `0.0` degenerates to plain `ScreenSpaceError`.
        margin: f32,
    },
    /// Spend at most `bytes` of second-half demand per frame: voxels are
    /// ranked by projected footprint (descending, voxel id ascending on
    /// ties) and each takes the finest tier whose whole-voxel cost still
    /// fits the remaining budget, falling back to the coarsest tier when
    /// nothing fits.
    ByteBudget {
        /// Frame budget for fine-record demand bytes.
        bytes: u64,
    },
    /// Every voxel renders tier `tier` (clamped to the coarsest built) —
    /// the ablation knob that isolates one tier's quality/traffic point
    /// (`tests/lod_tiers.rs` sweeps it).
    ForcedTier {
        /// Overall tier index (0 = full quality).
        tier: u8,
    },
}

/// Configuration of the streaming pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Voxel edge length (paper: 2.0 real-world, 0.4 synthetic).
    pub voxel_size: f32,
    /// Pixel-group edge length in pixels, at least
    /// [`StreamingConfig::MIN_GROUP_SIZE`]. Values below the minimum are
    /// clamped once, by [`StreamingConfig::validated`], when the scene is
    /// prepared (the seed silently re-clamped at every use site instead).
    pub group_size: u32,
    /// Fetch the VQ-compressed second half (paper Sec. III-C). When set,
    /// codebooks are trained at scene preparation with [`StreamingConfig::vq`].
    pub use_vq: bool,
    /// Enable the coarse-grained filter (phase 1). Disabling reproduces the
    /// paper's "w/o CGF" ablation: every streamed Gaussian fetches its full
    /// second half.
    pub use_coarse_filter: bool,
    /// VQ codebook configuration (only used when `use_vq`).
    pub vq: VqConfig,
    /// SH evaluation degree.
    pub sh_degree: u8,
    /// Background colour.
    pub background: Vec3,
    /// VSU ray sampling stride within a group (1 = every pixel ray).
    pub ray_stride: u32,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Working-set cache model in front of the store's coarse/fine
    /// fetches. When set, one [`WorkingSetCache`] per stage persists
    /// across frames (trajectory temporal locality): repeat fetches are
    /// metered as on-chip hits and only burst-rounded line fills reach the
    /// ledger's DRAM counters. The simulation is trace-driven in
    /// deterministic group order, so hit/miss counts are invariant across
    /// worker-thread counts. `None` (the default) meters every fetch as
    /// its own burst-rounded DRAM transaction.
    pub cache: Option<CacheConfig>,
    /// Degrade instead of failing when a paged fetch errors mid-frame:
    /// an unavailable coarse column skips the voxel, an unavailable fine
    /// record blends its coarse approximation (or is dropped when even
    /// that is unreadable), and the frame completes with the events
    /// counted in [`StreamingOutput::degradation`]. When `false`, the
    /// first failing group (deterministic group order) aborts
    /// [`StreamingScene::try_render`] with the error. Resident stores
    /// never fault, so the flag is inert for them. Default `true`.
    pub degrade_on_fault: bool,
    /// Extra LOD tiers to build at scene preparation (tier 0, full
    /// quality, always exists). `Some` entries become tiers 1.. in order;
    /// `None` slots are skipped. Default: no extra tiers — the store
    /// stays single-tier and serializes to the bit-identical v2 image.
    /// (The length is a literal — [`MAX_EXTRA_TIERS`] — because rustc
    /// 1.95's borrowck ICEs on named-const field array lengths captured
    /// by closures across crates.)
    pub tiers: [Option<TierSpec>; 3],
    /// Per-frame tier selection policy (see [`QualityPolicy`]). Inert
    /// without built tiers; the default [`QualityPolicy::FullQuality`] is
    /// byte-identical to the pre-tier renderer either way.
    pub quality: QualityPolicy,
    /// DRAM burst (transaction) size in bytes: every uncached fetch and
    /// the pixel writeback round up to a multiple of it. When
    /// [`StreamingConfig::cache`] is set, the cache's `burst_bytes` wins
    /// (one knob governs the line-fill size) — [`StreamingConfig::validated`]
    /// copies it over. Default [`gs_mem::dram::DEFAULT_BURST_BYTES`].
    pub burst_bytes: u64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            voxel_size: 1.0,
            group_size: 32,
            use_vq: false,
            use_coarse_filter: true,
            vq: VqConfig::default(),
            sh_degree: 3,
            background: Vec3::ZERO,
            ray_stride: 1,
            threads: 0,
            cache: None,
            degrade_on_fault: true,
            tiers: [None; MAX_EXTRA_TIERS],
            quality: QualityPolicy::FullQuality,
            burst_bytes: DEFAULT_BURST_BYTES,
        }
    }
}

/// Extra LOD tiers a config can ask for (tier 0 plus these fill
/// [`gs_mem::MAX_TIERS`] accounting lanes). A literal, not
/// `MAX_TIERS - 1`, so the array length in [`StreamingConfig::tiers`] is
/// a plain constant (rustc 1.95 ICEs on cross-crate const expressions in
/// field array lengths captured by closures); the assert keeps the two in
/// lockstep.
pub const MAX_EXTRA_TIERS: usize = 3;
const _: () = assert!(MAX_EXTRA_TIERS == MAX_TIERS - 1);

impl StreamingConfig {
    /// Smallest supported pixel-group edge. Below 16 px the per-group fixed
    /// costs (ray setup, voxel ordering tables) dominate any streaming win,
    /// and a group no longer amortizes even one voxel fetch — the paper's
    /// design space starts at 16 px groups.
    pub const MIN_GROUP_SIZE: u32 = 16;

    /// Normalizes the configuration once: clamps `group_size` up to
    /// [`Self::MIN_GROUP_SIZE`], `ray_stride` up to 1 and `burst_bytes`
    /// up to 1, and lets a configured cache's `burst_bytes` override the
    /// standalone knob (one knob governs the line-fill size). Called by
    /// [`StreamingScene::new`]/[`StreamingScene::with_quantization`], so
    /// every use site downstream can rely on the invariants instead of
    /// re-clamping.
    pub fn validated(mut self) -> StreamingConfig {
        self.group_size = self.group_size.max(Self::MIN_GROUP_SIZE);
        self.ray_stride = self.ray_stride.max(1);
        if let Some(c) = self.cache {
            self.burst_bytes = c.burst_bytes;
        }
        self.burst_bytes = self.burst_bytes.max(1);
        self
    }

    /// The configured extra tiers, in tier order (`Some` slots only).
    pub fn tier_specs(&self) -> Vec<TierSpec> {
        self.tiers.iter().flatten().copied().collect()
    }

    /// A three-step coarsening ladder (SH 2 / SH 1 / SH 0, each pruning
    /// harder and, for VQ stores, shrinking the codebooks one shift per
    /// step) — the shape the tier tests sweep and a reasonable starting
    /// point for real scenes. Every step prunes at least some records so
    /// each tier moves strictly fewer DRAM transactions than the last.
    pub fn default_tier_ladder() -> [Option<TierSpec>; MAX_EXTRA_TIERS] {
        [
            Some(TierSpec {
                sh_degree: 2,
                keep_permille: 900,
                codebook_shift: 1,
            }),
            Some(TierSpec {
                sh_degree: 1,
                keep_permille: 700,
                codebook_shift: 2,
            }),
            Some(TierSpec {
                sh_degree: 0,
                keep_permille: 400,
                codebook_shift: 3,
            }),
        ]
    }

    /// The paper's full-fledged configuration (VQ + coarse filter) for a
    /// given voxel size and codebook setup.
    pub fn full(voxel_size: f32, vq: VqConfig) -> StreamingConfig {
        StreamingConfig {
            voxel_size,
            use_vq: true,
            use_coarse_filter: true,
            vq,
            ..Default::default()
        }
    }

    /// The "w/o CGF" ablation (VQ on, coarse filter off).
    pub fn without_cgf(voxel_size: f32, vq: VqConfig) -> StreamingConfig {
        StreamingConfig {
            voxel_size,
            use_vq: true,
            use_coarse_filter: false,
            vq,
            ..Default::default()
        }
    }

    /// The "w/o VQ+CGF" ablation (plain streaming).
    pub fn without_vq_cgf(voxel_size: f32) -> StreamingConfig {
        StreamingConfig {
            voxel_size,
            use_vq: false,
            use_coarse_filter: false,
            ..Default::default()
        }
    }

    /// Bytes of on-chip partial-pixel state one group needs (16 B/pixel).
    pub fn group_partial_bytes(&self) -> u64 {
        self.group_size as u64 * self.group_size as u64 * 16
    }
}

/// Depth-order violation measurements (feeds Fig. 7 and the CBP loss).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ViolationReport {
    /// Per-Gaussian flag: blended out of depth order at least once.
    pub flags: Vec<bool>,
    /// Blend operations that happened out of order.
    pub violating_blends: u64,
    /// Total blend operations.
    pub total_blends: u64,
}

impl ViolationReport {
    /// Fraction of scene Gaussians flagged (the paper's "error Gaussian
    /// ratio", Fig. 7).
    pub fn gaussian_ratio(&self) -> f64 {
        if self.flags.is_empty() {
            return 0.0;
        }
        self.flags.iter().filter(|f| **f).count() as f64 / self.flags.len() as f64
    }

    /// Merges another report (OR on flags, sums on counters).
    pub fn merge(&mut self, other: &ViolationReport) {
        if self.flags.len() < other.flags.len() {
            self.flags.resize(other.flags.len(), false);
        }
        for (a, b) in self.flags.iter_mut().zip(&other.flags) {
            *a |= *b;
        }
        self.violating_blends += other.violating_blends;
        self.total_blends += other.total_blends;
    }
}

/// Fault-recovery accounting of one rendered frame.
///
/// Thread-invariant like the ledger: per-voxel events are summed over the
/// pixel groups (order-independent) and the page/fault counters are a
/// snapshot delta over the store, whose page materializations happen in a
/// deterministic set regardless of which worker triggers them first.
/// All-zero (see [`DegradationReport::is_clean`]) on resident stores and
/// on fault-free paged frames.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Page-read attempts that failed and were retried (or exhausted)
    /// during this frame, both columns.
    pub page_retries: u64,
    /// Pages newly marked dead by permanent faults during this frame.
    pub pages_lost: u64,
    /// Dead pages re-fetched and healed from an attached replica during
    /// this frame ([`StreamingScene::attach_replica_bytes`]); healed
    /// pages re-verified their CRC chunks, so the frame's bytes are the
    /// exact fault-free bytes.
    pub pages_healed: u64,
    /// Voxels skipped because their coarse column was unavailable.
    pub voxels_skipped: u64,
    /// Fine records replaced by their coarse approximation.
    pub fine_degraded: u64,
    /// Fine records dropped entirely (coarse fallback also unreadable).
    pub fine_skipped: u64,
    /// Faults injected by the store's [`FaultPolicy`] wrapper during this
    /// frame (zero without one).
    pub injected: FaultStats,
}

impl DegradationReport {
    /// `true` when the frame rendered without any fault, retry or
    /// degradation — the output is the exact fault-free image.
    pub fn is_clean(&self) -> bool {
        *self == DegradationReport::default()
    }
}

/// Per-tier usage of one rendered frame, indexed by overall tier (0 =
/// full quality, 1.. = the extra LOD tiers). Thread-invariant: the voxel
/// counts come from the serial tier-map pre-pass and the byte counters
/// from the merged frame ledger's per-tier lanes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierUsageReport {
    /// Scene voxels assigned to each tier this frame (sums to the scene's
    /// voxel count; all in lane 0 under [`QualityPolicy::FullQuality`]).
    pub voxels: [u64; MAX_TIERS],
    /// Fine-record demand bytes fetched from each tier.
    pub fetched_bytes: [u64; MAX_TIERS],
    /// Fine-record DRAM transaction bytes each tier moved (burst-rounded;
    /// cache-miss fills only when a cache is configured).
    pub dram_bytes: [u64; MAX_TIERS],
}

/// One rendered frame from the streaming pipeline.
#[derive(Clone, Debug)]
pub struct StreamingOutput {
    /// The image.
    pub image: ImageRgb,
    /// Workload counters for the accelerator model (one record per pixel
    /// group).
    pub workload: FrameWorkload,
    /// Depth-order violation measurements.
    pub violations: ViolationReport,
    /// Measured per-stage DRAM traffic: every store fetch and pixel
    /// writeback of this frame, metered as the bytes moved (per-group
    /// ledgers merged in group order). The workload's byte
    /// counters are derived from this ledger, so
    /// `ledger.total() == workload.dram_bytes()` always holds. The
    /// ledger's DRAM-transaction counters carry the burst-rounded traffic
    /// (cache-miss fills only when [`StreamingConfig::cache`] is set) and
    /// its hit counters the on-chip bytes.
    pub ledger: TrafficLedger,
    /// Per-stage working-set cache accounting of this frame (hit rates,
    /// fill traffic); `None` when no cache is configured.
    pub cache: Option<CacheReport>,
    /// Fault-recovery accounting of this frame (retries performed, pages
    /// lost, voxels degraded/skipped). Thread-invariant; all-zero on
    /// resident stores and fault-free paged frames.
    pub degradation: DegradationReport,
    /// Per-tier usage: which tier each voxel rendered at and what each
    /// tier cost in demand/DRAM bytes. All traffic sits in lane 0 for
    /// tierless scenes and under [`QualityPolicy::FullQuality`].
    pub tiers: TierUsageReport,
}

impl Default for StreamingOutput {
    /// An empty frame, ready for [`StreamingScene::render_into`] — every
    /// buffer starts unallocated and grows once on first use.
    fn default() -> StreamingOutput {
        StreamingOutput {
            image: ImageRgb::new(0, 0),
            workload: FrameWorkload::default(),
            violations: ViolationReport::default(),
            ledger: TrafficLedger::new(),
            cache: None,
            degradation: DegradationReport::default(),
            tiers: TierUsageReport::default(),
        }
    }
}

/// A scene prepared for streaming: voxelized layout, the voxel-resident
/// columnar store, and optional codebooks.
///
/// Preparation (voxelization, store construction, VQ training) happens
/// offline in the paper; the per-frame work is [`StreamingScene::render`],
/// whose intermediate buffers and worker threads persist across frames
/// (zero-alloc steady state; the returned image/workload/ledger are the
/// caller-owned outputs).
///
/// The immutable prepared state (grid, source cloud, store, codebooks) is
/// `Arc`-shared: [`StreamingScene::fork_session`] hands out sessions that
/// read the **same** store (paged columns included — pages one session
/// materializes are warm for all, see `gs-serve`), while [`Clone`] keeps
/// its historical deep-copy semantics for the store so clones stay fully
/// independent (cold page state, separate fault counters).
#[derive(Debug)]
pub struct StreamingScene {
    grid: Arc<VoxelGrid>,
    source: Arc<GaussianCloud>,
    store: Arc<VoxelStore>,
    quant: Option<Arc<QuantizedCloud>>,
    config: StreamingConfig,
    scratch: Mutex<StreamScratch>,
}

impl Clone for StreamingScene {
    /// Clones the prepared scene; the clone starts with a fresh frame
    /// arena and worker pool (frame state is never shared). The immutable
    /// grid/cloud/codebooks are `Arc`-shared (indistinguishable from a
    /// deep copy), but the store is deep-cloned: a paged clone starts with
    /// **cold, independent** page state — the suites and benches that
    /// clone a scene to measure it twice rely on that. To share the store
    /// (and its page warmth) instead, use
    /// [`StreamingScene::fork_session`].
    fn clone(&self) -> Self {
        StreamingScene {
            grid: Arc::clone(&self.grid),
            source: Arc::clone(&self.source),
            store: Arc::new(VoxelStore::clone(&self.store)),
            quant: self.quant.clone(),
            config: self.config,
            scratch: Mutex::new(StreamScratch::default()),
        }
    }
}

impl StreamingScene {
    /// Prepares a cloud for streaming. Trains VQ codebooks when
    /// `config.use_vq` is set, builds the voxel-resident store (raw or
    /// VQ-indexed second halves), and — when [`StreamingConfig::tiers`]
    /// names any — builds the extra LOD tiers with the store's pure
    /// per-Gaussian importance fallback. The configuration is normalized
    /// via [`StreamingConfig::validated`].
    pub fn new(cloud: GaussianCloud, config: StreamingConfig) -> StreamingScene {
        Self::build(cloud, config, None)
    }

    /// [`StreamingScene::new`] with externally computed per-Gaussian
    /// importance scores (global Gaussian id order — the
    /// `gs-baselines` view-importance convention) steering each tier's
    /// pruning instead of the opacity × extent fallback.
    ///
    /// # Panics
    ///
    /// Panics when tiers are configured and `importance` does not cover
    /// the cloud.
    pub fn new_with_importance(
        cloud: GaussianCloud,
        config: StreamingConfig,
        importance: &[f64],
    ) -> StreamingScene {
        Self::build(cloud, config, Some(importance))
    }

    fn build(
        cloud: GaussianCloud,
        config: StreamingConfig,
        importance: Option<&[f64]>,
    ) -> StreamingScene {
        let config = config.validated();
        let grid = VoxelGrid::build(&cloud, config.voxel_size);
        let (quant, mut store) = if config.use_vq {
            let q = GaussianQuantizer::train(&cloud, &config.vq);
            let store = VoxelStore::from_quantized(&q, &grid);
            (Some(q), store)
        } else {
            (None, VoxelStore::from_cloud(&cloud, &grid))
        };
        let specs = config.tier_specs();
        if !specs.is_empty() {
            let vq = config.use_vq.then_some(&config.vq);
            store.build_tiers(&cloud, vq, &specs, importance);
        }
        StreamingScene {
            grid: Arc::new(grid),
            source: Arc::new(cloud),
            store: Arc::new(store),
            quant: quant.map(Arc::new),
            config,
            scratch: Mutex::new(StreamScratch::default()),
        }
    }

    /// Prepares with an externally trained quantizer (e.g. after
    /// quantization-aware fine-tuning). Extra LOD tiers from
    /// [`StreamingConfig::tiers`] are built like in
    /// [`StreamingScene::new`] (tier codebooks retrain from
    /// [`StreamingConfig::vq`]).
    pub fn with_quantization(
        cloud: GaussianCloud,
        quant: QuantizedCloud,
        mut config: StreamingConfig,
    ) -> StreamingScene {
        config.use_vq = true;
        let config = config.validated();
        let grid = VoxelGrid::build(&cloud, config.voxel_size);
        let mut store = VoxelStore::from_quantized(&quant, &grid);
        let specs = config.tier_specs();
        if !specs.is_empty() {
            store.build_tiers(&cloud, Some(&config.vq), &specs, None);
        }
        StreamingScene {
            grid: Arc::new(grid),
            source: Arc::new(cloud),
            store: Arc::new(store),
            quant: Some(Arc::new(quant)),
            config,
            scratch: Mutex::new(StreamScratch::default()),
        }
    }

    /// Forks a per-client **session** over this scene: the grid, source
    /// cloud, codebooks **and the store itself** are `Arc`-shared (a paged
    /// store's page state included — pages any session materializes are
    /// warm for every session), while all frame-persistent state (frame
    /// arena, worker pool, working-set cache, tier-hysteresis history)
    /// starts fresh and stays private to the fork.
    ///
    /// Rendered output is bit-identical to a deep [`Clone`]: pixels depend
    /// only on the store's *bytes*, which paging never changes (paged ≡
    /// resident is the determinism contract), and the cache/hysteresis
    /// models depend only on the session's own frame sequence. Sharing
    /// changes who pays the page-fill cost, never what any session
    /// renders — `gs-serve` builds on exactly this.
    pub fn fork_session(&self) -> StreamingScene {
        StreamingScene {
            grid: Arc::clone(&self.grid),
            source: Arc::clone(&self.source),
            store: Arc::clone(&self.store),
            quant: self.quant.clone(),
            config: self.config,
            scratch: Mutex::new(StreamScratch::default()),
        }
    }

    /// Overrides the per-frame tier-selection policy for this scene (or
    /// session — forks carry their own config copy, so per-client quality
    /// never leaks across sessions sharing a store). Clears the
    /// tier-hysteresis history: the next frame selects as a first frame.
    pub fn set_quality(&mut self, quality: QualityPolicy) {
        self.config.quality = quality;
        lock_unpoisoned(&self.scratch).prev_tiers.clear();
    }

    /// Overrides the worker-thread count for this scene (or session).
    /// Purely a scheduling knob: every frame output is bit-identical for
    /// any value (0 = all cores).
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// The voxel grid.
    pub fn grid(&self) -> &VoxelGrid {
        &self.grid
    }

    /// The voxel-resident columnar store the render phases read from.
    pub fn store(&self) -> &VoxelStore {
        &self.store
    }

    /// Swaps the store's backing for a demand-paged twin materialized from
    /// its serialized in-memory scene image ([`VoxelStore::paged_twin`]).
    /// Rendering stays byte-identical — paging is host-memory management,
    /// not modeled traffic.
    pub fn page_out(&mut self, config: PageConfig) {
        self.store = Arc::new(self.store.paged_twin(config));
    }

    /// [`StreamingScene::page_out`] with a deterministic [`FaultPolicy`]
    /// wrapped around the paged backing's page reads — the fault-injection
    /// harness for the recovery suites and perfbench's `paged-churn`.
    pub fn page_out_with_faults(
        &mut self,
        config: PageConfig,
        policy: FaultPolicy,
    ) -> Result<(), StoreError> {
        self.store = Arc::new(self.store.paged_twin_with_faults(config, policy)?);
        Ok(())
    }

    /// Swaps the store's backing for a demand-paged store opened from a
    /// scene image written earlier ([`VoxelStore::open_paged_bytes`]) —
    /// any readable format version, so a pre-checksum version-1 image
    /// serves with verification flagged off. Rendering stays
    /// byte-identical when the image holds this scene's store.
    ///
    /// # Errors
    ///
    /// Every [`VoxelStore::open_paged_bytes`] error, and
    /// [`StoreError::Malformed`] when the image's slot layout disagrees
    /// with this scene's store.
    pub fn open_paged_bytes(
        &mut self,
        image: Vec<u8>,
        config: PageConfig,
    ) -> Result<(), StoreError> {
        let paged = VoxelStore::open_paged_bytes(image, config)?;
        if !self.store.same_layout(&paged) {
            return Err(StoreError::Malformed {
                what: "scene image layout disagrees with the prepared scene",
            });
        }
        self.store = Arc::new(paged);
        Ok(())
    }

    /// Serializes the store to `path` and reopens it demand-paged from
    /// that file — the columns now live on disk and only materialized
    /// pages occupy host memory.
    pub fn page_out_file(&mut self, path: &std::path::Path, config: PageConfig) -> io::Result<()> {
        self.store.write_scene_file(path)?;
        self.store = Arc::new(VoxelStore::open_paged_file(path, config)?);
        Ok(())
    }

    /// [`StreamingScene::page_out_file`] with a deterministic
    /// [`FaultPolicy`] wrapped around the on-disk page reads — the
    /// file-backed half of the fault-injection harness
    /// (`tests/fault_injection.rs` drives both backings through it).
    pub fn page_out_file_with_faults(
        &mut self,
        path: &std::path::Path,
        config: PageConfig,
        policy: FaultPolicy,
    ) -> Result<(), StoreError> {
        self.store.write_scene_file(path)?;
        self.store = Arc::new(VoxelStore::open_paged_file_with_faults(
            path, config, policy,
        )?);
        Ok(())
    }

    /// Attaches a fallback (replica) scene image to the paged store so
    /// pages lost to permanent faults can be re-fetched and healed
    /// ([`VoxelStore::attach_replica_bytes`]). Errors on resident
    /// backings and on replicas whose length or metadata prefix disagrees
    /// with the primary image.
    pub fn attach_replica_bytes(&self, image: Vec<u8>) -> Result<(), StoreError> {
        self.store.attach_replica_bytes(image)
    }

    /// [`StreamingScene::attach_replica_bytes`] over an on-disk replica
    /// file ([`VoxelStore::attach_replica_file`]).
    pub fn attach_replica_file(&self, path: &std::path::Path) -> Result<(), StoreError> {
        self.store.attach_replica_file(path)
    }

    /// Per-page health map of the store's `column`
    /// ([`VoxelStore::dead_page_map`]): `true` marks a page lost to a
    /// permanent fault. Empty for resident backings.
    pub fn dead_page_map(&self, column: ColumnKind) -> Vec<bool> {
        self.store.dead_page_map(column)
    }

    /// Evicts the working-set cache model (the next frame starts cold).
    /// No-op when no cache is configured.
    pub fn reset_cache(&self) {
        let mut guard = lock_unpoisoned(&self.scratch);
        guard.cache = None;
    }

    /// The configuration.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The source cloud.
    pub fn cloud(&self) -> &GaussianCloud {
        &self.source
    }

    /// The trained quantizer, if VQ is enabled.
    pub fn quantized(&self) -> Option<&QuantizedCloud> {
        self.quant.as_deref()
    }

    /// This frame's per-voxel tier map (the serial pre-pass output of the
    /// last rendered frame; empty under [`QualityPolicy::FullQuality`],
    /// on tierless scenes, and before the first frame). Exposed for the
    /// LOD suites to measure tier flicker across trajectory frames.
    #[doc(hidden)]
    pub fn last_tier_map(&self) -> Vec<u8> {
        lock_unpoisoned(&self.scratch).tier_map.clone()
    }

    /// Renders one frame. The coarse and fine phases read **only** from the
    /// voxel-resident [`VoxelStore`]; every fetch is metered through its
    /// pixel group's [`TrafficLedger`] and the merged frame ledger is
    /// returned in the output.
    ///
    /// All intermediate buffers (per-group output slots with their pixels
    /// and ledgers, per-worker DDA / filter / blend scratch) live in a frame arena
    /// and the group workers run on a persistent pool, both reused across
    /// frames: steady-state rendering allocates only the returned
    /// image/workload ([`StreamingScene::render_into`] reuses even those).
    ///
    /// # Panics
    ///
    /// On a [`StoreError`] from a paged backing (impossible for resident
    /// stores). Paged callers that need to survive faults use
    /// [`StreamingScene::try_render`].
    pub fn render(&self, cam: &Camera) -> StreamingOutput {
        let mut out = StreamingOutput::default();
        self.render_into(cam, &mut out);
        out
    }

    /// Fallible twin of [`StreamingScene::render`]: surfaces paged-store
    /// faults as [`StoreError`] instead of panicking. With
    /// [`StreamingConfig::degrade_on_fault`] (the default), only faults
    /// that defeat retry **and** degradation reach the error path; the
    /// recovery that did happen is reported in
    /// [`StreamingOutput::degradation`].
    pub fn try_render(&self, cam: &Camera) -> Result<StreamingOutput, StoreError> {
        let mut out = StreamingOutput::default();
        self.try_render_into(cam, &mut out)?;
        Ok(out)
    }

    /// [`StreamingScene::render`] into a caller-owned output: the image,
    /// per-tile workload records, violation flags and ledger of `out` are
    /// all rewritten in place, keeping their allocations. A warm frame
    /// loop through here performs **zero** heap allocations
    /// (`tests/alloc_free_streaming.rs` proves it with a counting
    /// allocator).
    ///
    /// # Panics
    ///
    /// On a [`StoreError`] from a paged backing, like
    /// [`StreamingScene::render`].
    pub fn render_into(&self, cam: &Camera, out: &mut StreamingOutput) {
        if let Err(e) = self.try_render_into(cam, out) {
            panic!("streaming render failed: {e}");
        }
    }

    /// Fallible twin of [`StreamingScene::render_into`]. On `Err` the
    /// frame was abandoned: `out`'s contents are unspecified (buffers are
    /// reusable, values meaningless) and the frame-persistent cache model
    /// did not advance.
    pub fn try_render_into(
        &self,
        cam: &Camera,
        out: &mut StreamingOutput,
    ) -> Result<(), StoreError> {
        // The frame's degradation counters are deltas over this snapshot
        // (retries/dead pages/injected faults accumulate in the store).
        let fault_base = self.store.fault_snapshot();
        let width = cam.width();
        let height = cam.height();
        let gsz = self.config.group_size;
        let groups_x = width.div_ceil(gsz);
        let groups_y = height.div_ceil(gsz);
        let n_groups = (groups_x * groups_y) as usize;

        let jobs = resolve_threads(self.config.threads).min(n_groups).max(1);

        let mut guard = lock_unpoisoned(&self.scratch);
        let StreamScratch {
            pool,
            workers,
            groups,
            cache,
            tier_map,
            prev_tiers,
            frame,
        } = &mut *guard;
        if workers.len() < jobs {
            workers.resize_with(jobs, WorkerScratch::default);
        }
        // A fresh stamp for the coarse memos: entries of earlier frames
        // (earlier cameras) never match. When the u32 counter wraps, old
        // stamps could alias, so every memo forgets its entries once.
        *frame = frame.wrapping_add(1);
        if *frame == 0 {
            for w in workers.iter_mut() {
                w.memo.reset();
            }
            *frame = 1;
        }
        let memo_slots = if self.config.use_coarse_filter {
            self.store.len()
        } else {
            0
        };
        for w in &mut workers[..jobs] {
            w.memo.begin_frame(*frame, memo_slots);
        }
        if groups.len() < n_groups {
            groups.resize_with(n_groups, GroupOut::default);
        }

        // Serial per-voxel tier selection (ascending voxel id): a pure
        // function of camera + policy + store layout, so the map — and
        // therefore every tiered fetch — is invariant across worker
        // counts. `FullQuality` skips the pre-pass entirely: every voxel
        // then fetches tier 0, the full-quality column, which is what
        // makes `FullQuality` bit-identical to the pre-tier renderer.
        let use_tiers =
            self.store.tier_count() > 0 && self.config.quality != QualityPolicy::FullQuality;
        let tmap: Option<&[u8]> = if use_tiers {
            self.fill_tier_map(cam, tier_map, prev_tiers);
            Some(tier_map.as_slice())
        } else {
            None
        };

        // The filters' per-camera constants, derived once per frame.
        let view = FilterCamera::new(cam);

        // Group t renders into its own output slot `groups[t]` (pixels,
        // workload, ledger, trace, ...), which the serial passes below
        // read in group order. One job runs every group on the calling
        // thread, without a pool; more jobs claim groups dynamically from
        // the pool, each with its own working scratch.
        let render_group = |scratch: &mut WorkerScratch, t: usize, slot: &mut GroupOut| {
            let (gx, gy) = (t as u32 % groups_x, t as u32 / groups_x);
            self.render_group_into(&view, gx, gy, width, height, tmap, scratch, slot);
        };
        let groups = &mut groups[..n_groups];
        if jobs == 1 {
            for (t, slot) in groups.iter_mut().enumerate() {
                render_group(&mut workers[0], t, slot);
            }
        } else {
            let workers = &mut workers[..jobs];
            WorkerPool::ensure(pool, jobs).run_claimed(workers, groups, render_group);
            // Grow every worker to the largest one's buffers (worker 0
            // first collects the maximum), so the next frame allocates
            // nothing whichever groups each worker claims.
            let (first, rest) = workers.split_at_mut(1);
            for w in rest.iter() {
                first[0].reserve_like(w);
            }
            for w in rest.iter_mut() {
                w.reserve_like(&first[0]);
            }
        }

        // A failed group aborts the frame *before* the assembly and cache
        // replay — the cache model never advances on an abandoned frame.
        // The lowest-index failing group wins, so the surfaced error is
        // the one the serial walk would hit first, for any worker count.
        // (Every slot is rewritten each frame, so no error outlives it.)
        if let Some(e) = groups.iter_mut().find_map(|slot| slot.error.take()) {
            return Err(e);
        }

        // Assemble image, workload, violations, ledger and degradation
        // (serial, in group order) into the caller's output, reusing every
        // buffer in place. The ledger is the frame's single source of byte
        // truth; the per-tile byte counters were derived from the same
        // per-group ledgers, so totals agree exactly.
        let image = &mut out.image;
        image.reset(width, height);
        let workload = &mut out.workload;
        workload.tiles.clear();
        workload.width = width;
        workload.height = height;
        workload.scene_voxels = self.grid.voxel_count() as u32;
        workload.scene_gaussians = self.source.len() as u64;
        let violations = &mut out.violations;
        violations.flags.clear();
        violations.flags.resize(self.source.len(), false);
        violations.violating_blends = 0;
        violations.total_blends = 0;
        let ledger = &mut out.ledger;
        ledger.clear();
        let mut degradation = DegradationReport::default();
        let n = gsz as usize;
        for (t, slot) in groups.iter().enumerate() {
            let ox = (t as u32 % groups_x) * gsz;
            let oy = (t as u32 / groups_x) * gsz;
            for ly in 0..gsz {
                for lx in 0..gsz {
                    let px = ox + lx;
                    let py = oy + ly;
                    if px < width && py < height {
                        image.set(px, py, slot.pixels[(ly as usize) * n + lx as usize]);
                    }
                }
            }
            workload.tiles.push(slot.workload);
            violations.violating_blends += slot.vblends;
            violations.total_blends += slot.workload.blend_fragments;
            for &gi in &slot.violating {
                violations.flags[gi as usize] = true;
            }
            ledger.merge(&slot.ledger);
            degradation.voxels_skipped += slot.degradation.voxels_skipped;
            degradation.fine_degraded += slot.degradation.fine_degraded;
            degradation.fine_skipped += slot.degradation.fine_skipped;
        }
        // Page/fault counters come from the store itself as a snapshot
        // delta: which pages materialize (and therefore which reads fault)
        // is a deterministic set for the frame, so the delta is invariant
        // across worker counts like the per-voxel sums above.
        let snap = self.store.fault_snapshot().since(fault_base);
        degradation.page_retries = snap.retries;
        degradation.pages_lost = snap.dead_pages;
        degradation.pages_healed = snap.pages_healed;
        degradation.injected = snap.injected;
        out.degradation = degradation;

        // Fetch metering: replay the groups' recorded coarse/fine fetch
        // traces in group order — the only place their DRAM and hit bytes
        // are metered. Without a cache every fetch is its own
        // burst-rounded DRAM transaction. With one, the traces run through
        // the frame-persistent caches, whose outcome is a pure function of
        // that order and therefore invariant across worker-thread counts:
        // hits become on-chip bytes, misses burst-rounded line fills.
        let mut sim = self.config.cache.map(|cache_cfg| {
            &mut *cache.get_or_insert_with(|| FrameCacheSim {
                coarse: WorkingSetCache::new(cache_cfg),
                fine: WorkingSetCache::new(cache_cfg),
            })
        });
        let burst = self.config.burst_bytes;
        let coarse_bpg = self.store.coarse_bytes_per_gaussian();
        // Each tier's records live in their own address region past the
        // tier-0 fine column, mirroring the v3 scene image's column order
        // — so tiers never alias in the fine cache.
        let mut tier_base = [0u64; MAX_TIERS];
        let mut tier_width = [0u64; MAX_TIERS];
        tier_width[0] = self.store.fine_bytes_per_gaussian();
        let mut base = self.store.fine_column_bytes();
        for tt in 0..self.store.tier_count() {
            tier_base[tt + 1] = base;
            tier_width[tt + 1] = self.store.tier_record_bytes(tt);
            base += self.store.tier_column_bytes(tt);
        }
        let mut rep = CacheReport::default();
        for (w, slot) in workload.tiles.iter_mut().zip(groups.iter()) {
            for op in &slot.trace {
                match *op {
                    TraceOp::Coarse(vid) => {
                        let slots = self.store.slots_of(vid);
                        let o = meter_fetch(
                            sim.as_mut().map(|s| &mut s.coarse),
                            slots.start as u64 * coarse_bpg,
                            slots.len() as u64 * coarse_bpg,
                            burst,
                            &mut rep.coarse,
                        );
                        ledger.note_hit(Stage::VoxelCoarse, Direction::Read, o.hit_bytes);
                        ledger.note_dram(Stage::VoxelCoarse, Direction::Read, o.fill_bytes);
                        w.coarse_hit_bytes += o.hit_bytes;
                        w.coarse_dram_bytes += o.fill_bytes;
                    }
                    TraceOp::Fine { tier, slot } => {
                        let tu = usize::from(tier);
                        let o = meter_fetch(
                            sim.as_mut().map(|s| &mut s.fine),
                            tier_base[tu] + slot as u64 * tier_width[tu],
                            tier_width[tu],
                            burst,
                            &mut rep.fine,
                        );
                        ledger.note_hit(Stage::VoxelFine, Direction::Read, o.hit_bytes);
                        ledger.note_dram(Stage::VoxelFine, Direction::Read, o.fill_bytes);
                        ledger.note_tier_dram(tu, o.fill_bytes);
                        w.fine_hit_bytes += o.hit_bytes;
                        w.fine_dram_bytes += o.fill_bytes;
                        w.fine_tier_dram_bytes[tu] += o.fill_bytes;
                    }
                }
            }
        }
        out.cache = sim.is_some().then_some(rep);

        // Per-tier usage: voxel assignments from the serial pre-pass, byte
        // counters from the merged ledger's tier lanes.
        let mut tiers = TierUsageReport::default();
        match tmap {
            Some(m) => {
                for &tt in m {
                    tiers.voxels[tt as usize] += 1;
                }
            }
            None => tiers.voxels[0] = self.grid.voxel_count() as u64,
        }
        tiers.fetched_bytes = out.ledger.tier_demand_all();
        tiers.dram_bytes = out.ledger.tier_dram_all();
        out.tiers = tiers;

        let (ledger, workload) = (&out.ledger, &out.workload);
        debug_assert_eq!(ledger.total(), workload.dram_bytes());
        debug_assert_eq!(
            ledger.dram_total(),
            workload.totals().dram_transaction_bytes()
        );
        debug_assert_eq!(ledger.hit_total(), workload.totals().cache_hit_bytes());
        Ok(())
    }

    /// Renders several views and merges their violation reports — the
    /// aggregate the boundary-aware fine-tuning consumes.
    pub fn render_views(&self, cams: &[Camera]) -> (Vec<StreamingOutput>, ViolationReport) {
        let outputs: Vec<StreamingOutput> = cams.iter().map(|c| self.render(c)).collect();
        let mut merged = ViolationReport::default();
        for o in &outputs {
            merged.merge(&o.violations);
        }
        (outputs, merged)
    }

    /// Fills `map[vid]` with each scene voxel's tier for this frame
    /// (0 = full quality, `t` = extra tier `t - 1`), per
    /// [`StreamingConfig::quality`]. Serial, ascending voxel id; every
    /// float it consumes is a pure per-voxel projection, so the result is
    /// a deterministic function of `(camera, policy, store layout)` —
    /// plus, for [`QualityPolicy::Hysteresis`], the previous frame's map
    /// (`prev`, private to this scene/session), which keeps the result
    /// thread-invariant and solo-identical under shared-store serving.
    fn fill_tier_map(&self, cam: &Camera, map: &mut Vec<u8>, prev: &mut Vec<u8>) {
        // gs-lint: allow(D004) tier count < MAX_TIERS
        let n_tiers = self.store.tier_count() as u8;
        let nv = self.grid.voxel_count();
        map.clear();
        map.resize(nv, 0);
        // Projected screen-space edge of a voxel, in pixels; voxels at or
        // behind the camera plane report an infinite footprint (full
        // quality — their rays never march them anyway).
        let fy = cam.intrinsics.fy;
        let footprint = |v: u32| -> f32 {
            let c = cam.world_to_camera(self.grid.voxel_center(v));
            if c.z > 1e-6 {
                self.config.voxel_size * fy / c.z
            } else {
                f32::INFINITY
            }
        };
        // The SSE rule shared by the plain and hysteresis policies: each
        // halving of the footprint below `thr` drops one more tier.
        let sse_tier = |fp: f32, thr: f32| -> u8 {
            let mut t = 0u8;
            while t < n_tiers && fp < thr * 0.5f32.powi(i32::from(t)) {
                t += 1;
            }
            t
        };
        match self.config.quality {
            QualityPolicy::FullQuality => {}
            QualityPolicy::ForcedTier { tier } => map.fill(tier.min(n_tiers)),
            QualityPolicy::ScreenSpaceError { threshold } => {
                for (v, slot) in map.iter_mut().enumerate() {
                    *slot = sse_tier(footprint(v as u32), threshold);
                }
            }
            QualityPolicy::Hysteresis { threshold, margin } => {
                let m = margin.clamp(0.0, 0.9);
                // First frame of a session (or after `set_quality`): no
                // history, select exactly like plain SSE at the unscaled
                // threshold.
                let has_prev = prev.len() == nv;
                for (v, slot) in map.iter_mut().enumerate() {
                    let fp = footprint(v as u32);
                    *slot = if has_prev {
                        // The margin opens a window: a larger threshold
                        // drops tiers earlier (coarser bound), a smaller
                        // one later (finer bound). The previous tier
                        // persists while it stays inside the window.
                        let finest = sse_tier(fp, threshold * (1.0 - m));
                        let coarsest = sse_tier(fp, threshold * (1.0 + m));
                        prev[v].clamp(finest, coarsest)
                    } else {
                        sse_tier(fp, threshold)
                    };
                }
                prev.clear();
                prev.extend_from_slice(map);
            }
            QualityPolicy::ByteBudget { bytes } => {
                // Voxels claim budget in descending-footprint order (voxel
                // id breaks ties), each taking the finest tier whose
                // whole-voxel fine cost still fits.
                // gs-lint: allow(D004) voxel count fits u32 (grid ids are u32)
                let mut order: Vec<u32> = (0..nv as u32).collect();
                order.sort_unstable_by(|&a, &b| {
                    footprint(b)
                        .total_cmp(&footprint(a))
                        .then_with(|| a.cmp(&b))
                });
                let fine_bpg = self.store.fine_bytes_per_gaussian();
                let cost = |v: u32, t: u8| -> u64 {
                    if t == 0 {
                        self.store.slots_of(v).len() as u64 * fine_bpg
                    } else {
                        let tr = self.store.tier_slots_of(usize::from(t) - 1, v);
                        tr.len() as u64 * self.store.tier_record_bytes(usize::from(t) - 1)
                    }
                };
                let mut remaining = bytes;
                for &v in &order {
                    let chosen = (0..=n_tiers)
                        .find(|&t| cost(v, t) <= remaining)
                        .unwrap_or(n_tiers);
                    remaining = remaining.saturating_sub(cost(v, chosen));
                    map[v as usize] = chosen;
                }
            }
        }
    }

    /// Renders one pixel group into its output slot `out`: the group's
    /// `group_size²` pixels, its workload (demand and pixel-writeback
    /// byte counters read back from the slot's own ledger), its
    /// out-of-order blend count and violating Gaussian ids, and its
    /// coarse/fine fetch trace, whose DRAM and hit bytes the frame-end
    /// replay meters. Every field of `out` is rewritten; `scratch` is
    /// working state only.
    #[allow(clippy::too_many_arguments)]
    fn render_group_into(
        &self,
        view: &FilterCamera,
        gx: u32,
        gy: u32,
        width: u32,
        height: u32,
        tier_map: Option<&[u8]>,
        scratch: &mut WorkerScratch,
        out: &mut GroupOut,
    ) {
        let cam = view.camera();
        let gsz = self.config.group_size;
        let rect = TileRect::of_tile(gx, gy, gsz, width, height);
        let mut w = TileWorkload::default();
        let WorkerScratch {
            rays,
            masks,
            order,
            order_out,
            survivors,
            splats,
            blend,
            memo,
        } = scratch;
        let GroupOut {
            pixels,
            workload,
            vblends,
            violating,
            trace,
            ledger,
            degradation,
            error,
        } = out;
        *vblends = 0;
        violating.clear();
        trace.clear();
        ledger.clear();
        *degradation = DegradationReport::default();
        *error = None;

        // --- VSU: ray sampling + voxel ordering --------------------------
        let (dx, dy, dz) = self.grid.dims();
        let max_steps = 3 * (dx + dy + dz) + 6;
        let stride = self.config.ray_stride;
        // Integer pixel bounds, derived once from the rect (the old loop
        // compared a `u32` counter against the `f32` edges per step).
        let (px0, py0, px1, py1) = rect.pixel_bounds(width, height);
        let nx = (px1 - px0).div_ceil(stride);
        let ny = (py1 - py0).div_ceil(stride);
        // DDA over the ray grid in row-major ray order, each ray's
        // front-to-back voxel list appended to the ray lists.
        rays.voxels.clear();
        rays.ends.clear();
        for ry in 0..ny {
            for rx in 0..nx {
                let px = px0 + rx * stride;
                let py = py0 + ry * stride;
                let ray = cam.pixel_ray(px as f32 + 0.5, py as f32 + 0.5);
                w.dda_steps +=
                    traverse_append(&self.grid, &ray, max_steps, &mut rays.voxels) as u64;
                rays.ends.push(rays.voxels.len() as u32);
            }
        }
        w.rays = nx * ny;

        // Each crossed voxel's ray mask, built in one pass over the ray
        // lists (replaces the seed's per-group voxel → pixel hash map).
        masks.build(rays, nx, stride, gsz);

        let order_stats = topological_order_into(
            rays.ray_slices(),
            |v| cam.world_to_camera(self.grid.voxel_center(v)).z,
            order,
            order_out,
        );
        w.voxels_intersected = order_out.len() as u32;
        w.dag_edges = order_stats.edges;
        w.cycle_breaks = order_stats.cycle_breaks;
        w.order_ops = order_stats.ops;

        // --- per-voxel streaming ------------------------------------------
        blend.reset(rect, gsz, self.config.voxel_size);
        for &vid in order_out.iter() {
            if blend.live == 0 {
                break; // every pixel saturated: stop streaming voxels
            }
            // The voxel's pixel mask: pixels whose rays intersect it
            // (dilated to cover strided sampling). The mask gates the
            // early fetch-skip and the *violation metric* — splats still
            // blend into every covered pixel of the group, as the paper's
            // render array does. The live test is one `mask & !done` pass
            // over the packed words instead of a byte-per-pixel scan.
            let mask = masks.mask_of(vid);
            if !blend.any_live(mask) {
                continue;
            }
            let count = self.store.slots_of(vid).len() as u64;

            // Phase 1: coarse filter — streams the voxel's first-half
            // column (16 B/Gaussian burst, metered by the fetch).
            // Survivors are store *slots* (voxel-contiguous positions);
            // `store.id_of` maps a slot back to its global Gaussian id.
            // Counters and the trace run only after the fetch succeeds,
            // so a skipped voxel leaves no trace — all ledger adds are
            // commutative sums and the trace-op order is unchanged,
            // keeping fault-free frames bit-identical to the
            // pre-fault-path renderer.
            survivors.clear();
            let column = match self.store.try_fetch_coarse(vid, ledger) {
                Ok(column) => column,
                Err(e) => {
                    if self.config.degrade_on_fault {
                        degradation.voxels_skipped += 1;
                        continue;
                    }
                    *error = Some(e);
                    break;
                }
            };
            w.voxels_processed += 1;
            w.gaussians_streamed += count;
            // One whole-voxel coarse burst, traced for the frame-end meter.
            trace.push(TraceOp::Coarse(vid));
            if self.config.use_coarse_filter {
                // `coarse_test` split in two: the camera-only projection,
                // memoized per slot for the frame, then this group's
                // disc-rect overlap.
                survivors.extend(column.filter_map(|(slot, pos, s_max)| {
                    let (mean_px, radius_px) = memo.projection(view, slot, pos, s_max)?;
                    rect.overlaps_disc(mean_px, radius_px).then_some(slot)
                }));
            } else {
                // No CGF: the whole record is streamed for every Gaussian.
                survivors.extend(column.map(|(slot, _, _)| slot));
            }
            w.coarse_survivors += survivors.len() as u64;

            // Phase 2: fine filter — fetches (and for VQ, decodes) each
            // survivor's second-half record at the voxel's tier, traced
            // per record. Tier 0 fetches every survivor; a LOD tier walks
            // the ascending survivors against the voxel's ascending tier
            // slots with a two-pointer merge — survivors the tier pruned
            // fetch nothing and vanish from the frame, the rest fetch the
            // tier's narrower record. A record whose page is unavailable
            // degrades to its coarse approximation (grey isotropic
            // stand-in at the filter's position/extent) or is dropped —
            // never a panic.
            splats.clear();
            let tier = tier_map.map_or(0, |m| m[vid as usize]);
            let lod = usize::from(tier).checked_sub(1);
            let mut tslots = lod
                .map_or(0..0, |t| self.store.tier_slots_of(t, vid))
                .peekable();
            for &slot in survivors.iter() {
                let (fetched_slot, fetched) = match lod {
                    None => (slot, self.store.try_fetch_fine(slot, ledger)),
                    Some(t) => {
                        let global = |ts: &u32| self.store.tier_global_slot(t, *ts);
                        while tslots.next_if(|ts| global(ts) < slot).is_some() {}
                        let Some(tslot) = tslots.next_if(|ts| global(ts) == slot) else {
                            continue; // pruned at this tier
                        };
                        (tslot, self.store.try_fetch_tier_fine(t, tslot, ledger))
                    }
                };
                let g: Gaussian = match fetched {
                    Ok(g) => {
                        trace.push(TraceOp::Fine {
                            tier,
                            slot: fetched_slot,
                        });
                        g
                    }
                    Err(e) => {
                        if !self.config.degrade_on_fault {
                            *error = Some(e);
                            break;
                        }
                        match self.store.try_coarse_of(slot) {
                            Ok((pos, s_max)) => {
                                degradation.fine_degraded += 1;
                                Gaussian::isotropic(pos, s_max, Vec3::new(0.5, 0.5, 0.5), 0.5)
                            }
                            Err(_) => {
                                degradation.fine_skipped += 1;
                                continue;
                            }
                        }
                    }
                };
                if let Some(s) = view.fine_test(&g, &rect, self.config.sh_degree) {
                    splats.push((self.store.id_of(slot), s));
                }
            }
            if error.is_some() {
                break;
            }
            w.fine_survivors += splats.len() as u64;
            w.max_sort_batch = w.max_sort_batch.max(splats.len() as u32);

            // In-voxel depth sort (the bitonic sorter's job).
            splats.sort_unstable_by(|a, b| a.1.depth.total_cmp(&b.1.depth));

            // Blend into the whole group; violations are counted on the
            // masked (ray-intersecting) pixels only.
            for (gi, s) in splats.iter() {
                let frag = blend.blend(s, mask);
                w.blend_lanes += frag.lanes;
                w.blend_fragments += frag.blended;
                if frag.violations > 0 {
                    violating.push(*gi);
                    *vblends += frag.violations;
                }
                if blend.live == 0 {
                    break;
                }
            }
        }

        // Final pixel writeback (RGBA f32): one contiguous burst-rounded
        // DRAM transaction, metered like every other byte (never cached).
        let live_pixels = ((rect.x1 - rect.x0) * (rect.y1 - rect.y0)) as u64;
        ledger.add_transfer(
            Stage::PixelOut,
            Direction::Write,
            live_pixels * 16,
            self.config.burst_bytes,
        );

        // The group's byte counters are read back from its ledger — the
        // ledger is the source of truth, the workload a per-tile view.
        // The coarse/fine DRAM and hit counters stay zero here; the
        // frame-end replay meters them per group.
        w.coarse_bytes = ledger.get(Stage::VoxelCoarse, Direction::Read);
        w.fine_bytes = ledger.get(Stage::VoxelFine, Direction::Read);
        w.pixel_bytes = ledger.get(Stage::PixelOut, Direction::Write);
        w.pixel_dram_bytes = ledger.dram(Stage::PixelOut, Direction::Write);
        w.fine_tier_bytes = ledger.tier_demand_all();
        *workload = w;

        pixels.resize((gsz * gsz) as usize, Vec3::ZERO);
        blend.finish(self.config.background, pixels);
    }
}

/// Frame-persistent render state: the worker pool plus the frame arena
/// (per-worker working scratch and per-group output slots), behind a mutex
/// so `render` stays `&self`. Concurrent renders on one scene serialize;
/// clone the scene for independent parallel use.
#[derive(Debug, Default)]
struct StreamScratch {
    pool: Option<WorkerPool>,
    /// Per-worker reusable working state (one per group-claiming job).
    workers: Vec<WorkerScratch>,
    /// Per-group output slots, indexed by group; the first `n_groups` are
    /// this frame's (longer from an earlier, larger frame — kept so the
    /// slots' buffers survive frame-size changes).
    groups: Vec<GroupOut>,
    /// Frame-persistent working-set cache simulation (lazily built from
    /// [`StreamingConfig::cache`]); carries state across frames so
    /// trajectories exercise temporal locality.
    cache: Option<FrameCacheSim>,
    /// This frame's per-voxel tier assignment (serial pre-pass output;
    /// empty under [`QualityPolicy::FullQuality`] and on tierless scenes).
    tier_map: Vec<u8>,
    /// The previous frame's tier map, feeding
    /// [`QualityPolicy::Hysteresis`]'s enter/exit window. Per-session
    /// (forks start empty), so hysteresis depends only on this session's
    /// own frame sequence. Empty before the first tiered frame and after
    /// [`StreamingScene::set_quality`].
    prev_tiers: Vec<u8>,
    /// Frames rendered so far (wrapping, never 0 once a frame started):
    /// the stamp of this frame's [`CoarseMemo`] entries.
    frame: u32,
}

/// One working-set cache per cached pipeline stage.
#[derive(Debug)]
struct FrameCacheSim {
    coarse: WorkingSetCache,
    fine: WorkingSetCache,
}

/// Meters one traced fetch of `bytes` at `addr`: through the stage's
/// cache when one is configured, else as its own burst-rounded DRAM
/// transaction with no on-chip hit.
fn meter_fetch(
    cache: Option<&mut WorkingSetCache>,
    addr: u64,
    bytes: u64,
    burst: u64,
    stats: &mut CacheStats,
) -> AccessOutcome {
    match cache {
        Some(cache) => cache.access(addr, bytes, stats),
        None => AccessOutcome {
            fill_bytes: round_to_burst(bytes, burst),
            ..AccessOutcome::default()
        },
    }
}

/// One recorded fetch of a group's coarse/fine phases, metered in
/// deterministic group order at frame end.
#[derive(Copy, Clone, Debug)]
enum TraceOp {
    /// A whole-voxel first-half burst.
    Coarse(u32),
    /// One second-half record fetch: overall tier index (0 = the
    /// full-quality column, global slot addressing) plus the tier's slot;
    /// the replay addresses tiers ≥ 1 past the tier-0 column so tiers
    /// never alias in the fine cache.
    Fine {
        /// Overall tier (0 = full quality).
        tier: u8,
        /// Slot index within the tier's column.
        slot: u32,
    },
}

/// Reusable working buffers of one group-rendering job: whichever groups
/// the job claims reuse them in turn. Nothing here but the memo of a
/// pure function outlives a group, so which worker renders which group
/// never shows in the output.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// The current group's DDA ray lists.
    rays: RayLists,
    /// Per-voxel packed ray masks over epoch-remapped dense voxel ids
    /// (replaces the seed's `HashMap<u32, Vec<u32>>` + spare-list pool).
    masks: VoxelMasks,
    /// Reusable topological-ordering state (zero steady-state allocations).
    order: OrderScratch,
    /// The current group's voxel order (reused across groups).
    order_out: Vec<u32>,
    /// Coarse-filter survivors of the current voxel.
    survivors: Vec<u32>,
    /// Fine-filter survivors (with projected splats) of the current voxel.
    splats: Vec<(u32, FineSplat)>,
    /// Persistent partial-pixel state across the group's voxels.
    blend: GroupBlender,
    /// This frame's coarse projections, per store slot.
    memo: CoarseMemo,
}

impl WorkerScratch {
    /// Grows every group-sized buffer to at least `peer`'s capacity. The
    /// frame equalizes its workers after each claimed section, so a
    /// worker that meets a group some other worker already rendered never
    /// allocates — warm frames stay allocation-free although the
    /// group → worker assignment changes from frame to frame.
    fn reserve_like(&mut self, peer: &WorkerScratch) {
        reserve_to(&mut self.rays.voxels, peer.rays.voxels.capacity());
        reserve_to(&mut self.rays.ends, peer.rays.ends.capacity());
        self.masks.reserve_like(&peer.masks);
        self.order.reserve_like(&peer.order);
        reserve_to(&mut self.order_out, peer.order_out.capacity());
        reserve_to(&mut self.survivors, peer.survivors.capacity());
        reserve_to(&mut self.splats, peer.splats.capacity());
        self.blend.cols.0.reserve_like(&peer.blend.cols.0);
    }
}

/// One memoized coarse projection (32 B): the frame it belongs to, the
/// record's four `f32` bit patterns, and the projected disc — a NaN
/// `radius_px` when the projection culled the record.
#[derive(Copy, Clone, Debug, Default)]
struct CoarseMemoEntry {
    /// The frame stamp; 0 (the default) matches no frame.
    frame: u32,
    /// `pos.x`, `pos.y`, `pos.z`, `s_max` bit patterns.
    bits: [u32; 4],
    mean_px: Vec2,
    radius_px: f32,
}

const _: () = assert!(std::mem::size_of::<CoarseMemoEntry>() == 32);

/// A worker's memo of [`FilterCamera::coarse_projection`], indexed by
/// store slot. Every group that crosses a voxel streams it again, and the
/// projection depends only on the frame's camera and the record, so one
/// computation per slot per frame serves every group the worker renders.
/// An entry is reused only when its frame stamp and its record bits both
/// match: the key is the function's full input, so the memo is exact by
/// construction — also when an unverified blind read returns different
/// bytes for one slot.
#[derive(Debug, Default)]
struct CoarseMemo {
    /// The current frame's stamp (≥ 1).
    frame: u32,
    entries: Vec<CoarseMemoEntry>,
}

impl CoarseMemo {
    /// Starts frame `frame` (≥ 1) over `slots` store slots. Sizing every
    /// job's memo here keeps warm frames allocation-free whichever worker
    /// claims which group.
    fn begin_frame(&mut self, frame: u32, slots: usize) {
        self.frame = frame;
        self.entries.resize(slots, CoarseMemoEntry::default());
    }

    /// Forgets every entry (the frame counter wrapped).
    fn reset(&mut self) {
        self.entries.fill(CoarseMemoEntry::default());
    }

    /// `view`'s coarse projection of slot `slot`'s record
    /// `(pos, s_max)` as `(mean_px, radius_px)`; `None` when culled.
    fn projection(
        &mut self,
        view: &FilterCamera,
        slot: u32,
        pos: Vec3,
        s_max: f32,
    ) -> Option<(Vec2, f32)> {
        let bits = [
            pos.x.to_bits(),
            pos.y.to_bits(),
            pos.z.to_bits(),
            s_max.to_bits(),
        ];
        let e = &mut self.entries[slot as usize];
        if e.frame != self.frame || e.bits != bits {
            let p = view.coarse_projection(pos, s_max);
            *e = CoarseMemoEntry {
                frame: self.frame,
                bits,
                mean_px: p.map_or(Vec2::ZERO, |p| p.mean_px),
                radius_px: p.map_or(f32::NAN, |p| p.radius_px),
            };
        }
        (!e.radius_px.is_nan()).then_some((e.mean_px, e.radius_px))
    }
}

/// One pixel group's output slot: everything the group produces, written
/// only by the job that claimed the group and read back in group order.
#[derive(Debug, Default)]
struct GroupOut {
    /// The group's `group_size²` composited pixels (row-major, group-local).
    pixels: Vec<Vec3>,
    /// The group's workload record.
    workload: TileWorkload,
    /// The group's out-of-order blend count.
    vblends: u64,
    /// Gaussians the group blended out of depth order.
    violating: Vec<u32>,
    /// The group's recorded coarse/fine fetches, metered at frame end in
    /// group order (through the cache simulation when one is configured).
    trace: Vec<TraceOp>,
    /// Every store fetch and the pixel writeback of this group, merged
    /// into the frame ledger after the parallel section.
    ledger: TrafficLedger,
    /// The group's per-voxel degradation counters.
    degradation: DegradationReport,
    /// The store fault that stopped this group with degradation disabled.
    error: Option<StoreError>,
}

/// A group's DDA ray lists: every ray's voxel list appended back to
/// back, with per-ray end offsets. Ray index `i` recovers the ray's
/// pixel, so the lists carry no per-ray metadata.
#[derive(Debug, Default)]
struct RayLists {
    /// Concatenated voxel lists of the group's rays, front-to-back.
    voxels: Vec<u32>,
    /// End offset of ray `i`'s list within `voxels`.
    ends: Vec<u32>,
}

impl RayLists {
    /// The per-ray voxel slices, in ray order.
    fn ray_slices(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut start = 0usize;
        self.ends.iter().map(move |&e| {
            let s = &self.voxels[start..e as usize];
            start = e as usize;
            s
        })
    }
}

/// The group's per-voxel ray masks: for each voxel the group's rays cross,
/// one packed `u64` bitset over the group's `gsz²` pixels holding every
/// pixel whose ray crosses it, dilated to the stride×stride block a
/// strided ray samples. One pass over the ray lists builds every mask:
/// voxel ids are remapped to dense local indices through an
/// epoch-stamped table (the [`OrderScratch`] trick), and each ray ORs its
/// pixel's precomputed dilation spans into the masks of the voxels it
/// crosses — no hashing, no per-voxel pixel lists, and zero steady-state
/// allocations.
#[derive(Debug, Default)]
struct VoxelMasks {
    /// Voxel id → dense local index; valid only when `stamp[id] == epoch`.
    local: Vec<u32>,
    /// Epoch stamp per voxel id slot.
    stamp: Vec<u32>,
    /// Current group's epoch.
    epoch: u32,
    /// Mask words per voxel, `(gsz² + 63) / 64`.
    words: usize,
    /// Every crossed voxel's mask, `words` words per local index.
    masks: Vec<u64>,
    /// Geometry the span table was built for (rebuilt only on change —
    /// never, in steady state).
    gsz: u32,
    stride: u32,
    /// Per-pixel span ranges into `spans` (length `gsz² + 1`).
    span_off: Vec<u32>,
    /// `(word index, bits)` covering each pixel's dilated block: pixel
    /// `p`'s spans OR the whole clipped stride×stride block anchored at
    /// `p` (one span per covered mask row segment — a single span at
    /// stride 1), so strided sampling costs O(stride) word ORs per ray
    /// instead of the seed's stride² scalar stores.
    spans: Vec<(u32, u64)>,
}

impl VoxelMasks {
    /// Rebuilds every crossed voxel's mask from the group's ray lists.
    /// `nx`/`stride`/`gsz` recover each ray's group-local pixel index from
    /// its ray index.
    fn build(&mut self, rays: &RayLists, nx: u32, stride: u32, gsz: u32) {
        self.prepare(gsz, stride);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 epoch wrapped: old stamps could alias. Reset once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let VoxelMasks {
            local,
            stamp,
            epoch,
            words,
            masks,
            span_off,
            spans,
            ..
        } = self;
        let (epoch, words) = (*epoch, *words);
        masks.clear();
        for (r, voxels) in (0u32..).zip(rays.ray_slices()) {
            let pix = ((r / nx) * stride * gsz + (r % nx) * stride) as usize;
            let pix_spans = &spans[span_off[pix] as usize..span_off[pix + 1] as usize];
            for &v in voxels {
                let slot = v as usize;
                if slot >= local.len() {
                    local.resize(slot + 1, 0);
                    stamp.resize(slot + 1, 0);
                }
                // Intern the voxel on first sight with an all-clear mask.
                if stamp[slot] != epoch {
                    stamp[slot] = epoch;
                    local[slot] = (masks.len() / words) as u32;
                    masks.resize(masks.len() + words, 0);
                }
                let base = local[slot] as usize * words;
                let mask = &mut masks[base..base + words];
                for &(w, bits) in pix_spans {
                    mask[w as usize] |= bits;
                }
            }
        }
    }

    /// Builds (or keeps) the dilation span table for this group geometry.
    fn prepare(&mut self, gsz: u32, stride: u32) {
        if self.gsz == gsz && self.stride == stride {
            return;
        }
        self.gsz = gsz;
        self.stride = stride;
        self.words = (gsz as usize * gsz as usize).div_ceil(64);
        self.span_off.clear();
        self.spans.clear();
        self.span_off.push(0);
        for by in 0..gsz {
            for bx in 0..gsz {
                let rows = stride.min(gsz - by);
                let run = stride.min(gsz - bx) as u64;
                for my in by..by + rows {
                    let mut s = (my * gsz + bx) as u64;
                    let mut remaining = run;
                    while remaining > 0 {
                        let off = s % 64;
                        let take = (64 - off).min(remaining);
                        let bits = if take == 64 {
                            !0u64
                        } else {
                            ((1u64 << take) - 1) << off
                        };
                        self.spans.push(((s / 64) as u32, bits));
                        s += take;
                        remaining -= take;
                    }
                }
                self.span_off.push(self.spans.len() as u32);
            }
        }
    }

    /// Grows every buffer to at least `peer`'s capacity, so these masks
    /// can cover any group `peer` already covered without allocating.
    fn reserve_like(&mut self, peer: &VoxelMasks) {
        reserve_to(&mut self.local, peer.local.capacity());
        reserve_to(&mut self.stamp, peer.stamp.capacity());
        reserve_to(&mut self.masks, peer.masks.capacity());
        reserve_to(&mut self.span_off, peer.span_off.capacity());
        reserve_to(&mut self.spans, peer.spans.capacity());
    }

    /// Voxel `vid`'s packed pixel mask.
    fn mask_of(&self, vid: u32) -> &[u64] {
        debug_assert_eq!(
            self.stamp[vid as usize], self.epoch,
            "voxel {vid} was not crossed by this group's rays"
        );
        let base = self.local[vid as usize] as usize * self.words;
        &self.masks[base..base + self.words]
    }
}

/// Per-splat blend outcome counters.
#[derive(Debug, PartialEq, Eq)]
struct FragOutcome {
    /// Guard-passing bbox pixels considered (done or not).
    lanes: u64,
    /// Pixels actually blended (`alpha >= ALPHA_EPS`, not saturated).
    blended: u64,
    /// Blends that violated front-to-back order beyond the slack.
    violations: u64,
}

/// On-chip partial pixel state for one group, persisting across voxels.
/// Reusable: [`GroupBlender::reset`] re-initializes the buffers in place,
/// keeping their allocations across groups and frames. Saturation is a
/// packed `u64` bitset (`done_words`), shared with the per-voxel live test
/// (`mask & !done`); blending arithmetic is bit-identical to the seed's
/// byte-per-pixel version — only the bookkeeping representation changed.
///
/// [`GroupBlender::blend`] is the lane-wise kernel. The tests keep the
/// original pixel-at-a-time loop beside it as `blend_reference` and
/// compare the full blender state (`PartialEq`) after every splat.
#[derive(Debug, Default, PartialEq)]
struct GroupBlender {
    rect: TileRect,
    size: usize,
    violation_slack: f32,
    color: Vec<Vec3>,
    transmittance: Vec<f32>,
    /// Saturated pixels, one bit per group-local pixel index;
    /// out-of-rect pixels start done.
    done_words: Vec<u64>,
    max_depth: Vec<f32>,
    live: u32,
    /// The current splat's falloff column tables (working buffers only).
    cols: ColumnScratch,
}

/// [`FalloffColumns`] as blender working state: refilled by every splat
/// before it is read, so it carries nothing from one splat to the next
/// and never distinguishes two blenders — every pair compares equal,
/// which keeps it out of [`GroupBlender`]'s state comparison.
#[derive(Debug, Default)]
struct ColumnScratch(FalloffColumns);

impl PartialEq for ColumnScratch {
    fn eq(&self, _: &ColumnScratch) -> bool {
        true
    }
}

impl GroupBlender {
    /// `true` when any pixel of `mask` is not yet done: one `mask & !done`
    /// pass over the packed words (the seed scanned `gsz²` bytes).
    #[inline]
    fn any_live(&self, mask: &[u64]) -> bool {
        mask.iter().zip(&self.done_words).any(|(m, d)| m & !d != 0)
    }

    #[inline]
    fn set_done(&mut self, pi: usize) {
        self.done_words[pi >> 6] |= 1 << (pi & 63);
    }

    /// Re-initializes the blender for a group (buffers reused in place).
    fn reset(&mut self, rect: TileRect, group_size: u32, voxel_size: f32) {
        let n = group_size as usize;
        self.rect = rect;
        self.size = n;
        self.violation_slack = VIOLATION_VOXEL_FRACTION * voxel_size;
        self.color.clear();
        self.color.resize(n * n, Vec3::ZERO);
        self.transmittance.clear();
        self.transmittance.resize(n * n, 1.0);
        self.max_depth.clear();
        self.max_depth.resize(n * n, 0.0);
        self.done_words.clear();
        self.done_words.resize((n * n).div_ceil(64), 0);
        let mut live = 0u32;
        for ly in 0..n {
            for lx in 0..n {
                let px = rect.x0 + lx as f32;
                let py = rect.y0 + ly as f32;
                if px >= rect.x1 || py >= rect.y1 {
                    self.set_done(ly * n + lx);
                } else {
                    live += 1;
                }
            }
        }
        self.live = live;
    }

    /// Lane-wise production blend kernel: walks the row's `!done` words
    /// directly (iterating set bits instead of testing pixels one at a
    /// time), hoists the conic's per-column and per-row subterms
    /// ([`FalloffColumns`], filled once per splat), and skips the `exp`
    /// for pixels whose falloff power is provably below the
    /// `alpha < ALPHA_EPS` cutoff ([`gs_core::ewa::cull_power_threshold`]).
    ///
    /// Byte-exactness vs the test-only `blend_reference`, the original
    /// pixel-at-a-time loop:
    ///
    /// - Per-pixel state is independent (each bbox pixel is visited at
    ///   most once per splat), so skipping done pixels by bitmask instead
    ///   of a per-pixel `continue` reaches the same pixels in the same
    ///   ascending order with the same values.
    /// - `lanes` counts every guard-passing bbox pixel, done or not; the
    ///   guards are separable per axis, so the count is the product of the
    ///   clamped per-axis ranges — computed arithmetically, not by loop.
    /// - The per-pixel alpha/violation/transmittance math is the original
    ///   operation sequence: `FalloffRow::power_at` reproduces the scalar
    ///   `falloff` exponent bit-for-bit (hoisting caches identical
    ///   subtrees, never re-associates), and the exp-cull only skips
    ///   pixels the scalar path would have dropped at `alpha < ALPHA_EPS`
    ///   anyway (no state change, not counted as blended).
    fn blend(&mut self, s: &FineSplat, mask: &[u64]) -> FragOutcome {
        let n = self.size;
        let mut out = FragOutcome {
            lanes: 0,
            blended: 0,
            violations: 0,
        };
        // Restrict to the splat's bbox within the group (same float ops as
        // the reference loop).
        let x_lo = (s.mean_px.x - s.radius_px).max(self.rect.x0).floor() as i64;
        let x_hi = (s.mean_px.x + s.radius_px).min(self.rect.x1 - 1.0).ceil() as i64;
        let y_lo = (s.mean_px.y - s.radius_px).max(self.rect.y0).floor() as i64;
        let y_hi = (s.mean_px.y + s.radius_px).min(self.rect.y1 - 1.0).ceil() as i64;
        // Clamp to the guard-passing group-local pixel ranges: the
        // reference loop skips `px < x0 || py < y0` and
        // `lx >= n || ly >= n` per pixel; both conditions are per-axis,
        // so they clamp the ranges instead.
        let (x0, y0) = (self.rect.x0 as i64, self.rect.y0 as i64);
        let lx_lo = (x_lo - x0).max(0);
        let lx_hi = (x_hi - x0).min(n as i64 - 1);
        let ly_lo = (y_lo - y0).max(0);
        let ly_hi = (y_hi - y0).min(n as i64 - 1);
        if lx_lo > lx_hi || ly_lo > ly_hi {
            return out;
        }
        // Every guard-passing bbox pixel is one lane, done or not.
        out.lanes = (lx_hi - lx_lo + 1) as u64 * (ly_hi - ly_lo + 1) as u64;

        let cull = gs_core::ewa::cull_power_threshold(s.opacity, ALPHA_EPS);
        let cols = &mut self.cols.0;
        cols.fill(
            s.conic,
            (lx_lo..=lx_hi).map(|lx| (x0 + lx) as f32 + 0.5 - s.mean_px.x),
        );
        for ly in ly_lo..=ly_hi {
            let dy = (y0 + ly) as f32 + 0.5 - s.mean_px.y;
            let row = self.cols.0.row(dy);
            // Walk the set bits of `!done` within this row's lane range.
            let (row_lo, row_hi) = (
                ly as usize * n + lx_lo as usize,
                ly as usize * n + lx_hi as usize,
            );
            for wi in (row_lo >> 6)..=(row_hi >> 6) {
                let mut live = !self.done_words[wi];
                if wi == row_lo >> 6 {
                    live &= !0u64 << (row_lo & 63);
                }
                if wi == row_hi >> 6 {
                    live &= !0u64 >> (63 - (row_hi & 63));
                }
                while live != 0 {
                    let pi = (wi << 6) + live.trailing_zeros() as usize;
                    live &= live - 1;
                    let power = row.power_at(pi - row_lo);
                    if power < cull {
                        // Guaranteed alpha < ALPHA_EPS: the reference loop
                        // skips this pixel after the exp — skip before it.
                        continue;
                    }
                    let alpha =
                        (s.opacity * gs_core::ewa::falloff_from_power(power)).min(ALPHA_MAX);
                    if alpha < ALPHA_EPS {
                        continue;
                    }
                    if mask[pi >> 6] >> (pi & 63) & 1 != 0
                        && s.depth + self.violation_slack < self.max_depth[pi]
                    {
                        out.violations += 1;
                    }
                    let t = self.transmittance[pi];
                    self.color[pi] += s.color * (alpha * t);
                    self.transmittance[pi] = t * (1.0 - alpha);
                    self.max_depth[pi] = self.max_depth[pi].max(s.depth);
                    out.blended += 1;
                    if self.transmittance[pi] < TRANSMITTANCE_EPS {
                        // `set_done`, field-wise: `row` still borrows
                        // the column tables.
                        self.done_words[pi >> 6] |= 1 << (pi & 63);
                        self.live -= 1;
                    }
                }
            }
        }
        out
    }

    /// Whether group-local pixel `pi` has saturated.
    #[cfg(test)]
    fn is_done(&self, pi: usize) -> bool {
        self.done_words[pi >> 6] >> (pi & 63) & 1 != 0
    }

    /// The pre-overhaul pixel-at-a-time blend loop, kept verbatim as the
    /// bit-exact reference [`GroupBlender::blend`] must reproduce.
    #[cfg(test)]
    fn blend_reference(&mut self, s: &FineSplat, mask: &[u64]) -> FragOutcome {
        let n = self.size;
        let mut out = FragOutcome {
            lanes: 0,
            blended: 0,
            violations: 0,
        };
        // Restrict to the splat's bbox within the group.
        let x_lo = (s.mean_px.x - s.radius_px).max(self.rect.x0).floor() as i64;
        let x_hi = (s.mean_px.x + s.radius_px).min(self.rect.x1 - 1.0).ceil() as i64;
        let y_lo = (s.mean_px.y - s.radius_px).max(self.rect.y0).floor() as i64;
        let y_hi = (s.mean_px.y + s.radius_px).min(self.rect.y1 - 1.0).ceil() as i64;
        for py in y_lo..=y_hi {
            for px in x_lo..=x_hi {
                if px < self.rect.x0 as i64 || py < self.rect.y0 as i64 {
                    continue;
                }
                let lx = px as usize - self.rect.x0 as usize;
                let ly = py as usize - self.rect.y0 as usize;
                if lx >= n || ly >= n {
                    continue;
                }
                let pi = ly * n + lx;
                out.lanes += 1;
                if self.is_done(pi) {
                    continue;
                }
                let d = gs_core::vec::Vec2::new(
                    px as f32 + 0.5 - s.mean_px.x,
                    py as f32 + 0.5 - s.mean_px.y,
                );
                let alpha = (s.opacity * gs_core::ewa::falloff(s.conic, d)).min(ALPHA_MAX);
                if alpha < ALPHA_EPS {
                    continue;
                }
                if mask[pi >> 6] >> (pi & 63) & 1 != 0
                    && s.depth + self.violation_slack < self.max_depth[pi]
                {
                    out.violations += 1;
                }
                let t = self.transmittance[pi];
                self.color[pi] += s.color * (alpha * t);
                self.transmittance[pi] = t * (1.0 - alpha);
                self.max_depth[pi] = self.max_depth[pi].max(s.depth);
                out.blended += 1;
                if self.transmittance[pi] < TRANSMITTANCE_EPS {
                    self.set_done(pi);
                    self.live -= 1;
                }
            }
        }
        out
    }

    /// Composites the background and writes the group's pixels out.
    fn finish(&self, background: Vec3, pixels: &mut [Vec3]) {
        let n = self.size;
        for ly in 0..n {
            for lx in 0..n {
                let pi = ly * n + lx;
                let px = self.rect.x0 + lx as f32;
                let py = self.rect.y0 + ly as f32;
                if px < self.rect.x1 && py < self.rect.y1 {
                    pixels[pi] = self.color[pi] + background * self.transmittance[pi];
                }
            }
        }
    }
}

/// The golden frame fixture and its canonical encoding, shared with the
/// integration tests.
#[cfg(test)]
#[path = "../tests/golden/mod.rs"]
mod golden_fixture;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use golden_fixture as golden;
    use gs_render::{RenderConfig, TileRenderer};
    use gs_scene::{Gaussian, SceneConfig, SceneKind};

    /// Well-separated tiny Gaussians, each strictly inside its own voxel:
    /// streaming must match the reference renderer almost exactly.
    fn separated_cloud() -> GaussianCloud {
        let mut c = GaussianCloud::new();
        for i in 0..5 {
            for j in 0..4 {
                c.push(Gaussian::isotropic(
                    Vec3::new(i as f32 - 2.0, j as f32 - 1.5, (i + j) as f32 * 0.3),
                    0.05,
                    Vec3::new(0.2 + 0.15 * i as f32, 0.8 - 0.1 * j as f32, 0.5),
                    0.8,
                ));
            }
        }
        c
    }

    fn test_cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.5, 0.3, -8.0),
            Vec3::ZERO,
            Vec3::Y,
            160,
            120,
            0.9,
        )
    }

    #[test]
    fn matches_reference_when_no_gaussian_crosses_voxels() {
        let cloud = separated_cloud();
        let cam = test_cam();
        let reference = TileRenderer::new(RenderConfig::default()).render(&cloud, &cam);
        let streaming = StreamingScene::new(cloud, StreamingConfig::default()).render(&cam);
        let psnr = streaming.image.psnr(&reference.image);
        assert!(psnr > 38.0, "streaming diverged from reference: {psnr} dB");
        assert_eq!(streaming.violations.gaussian_ratio(), 0.0);
    }

    #[test]
    fn real_scene_stays_close_to_reference() {
        let scene = SceneKind::Truck.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let reference = TileRenderer::new(RenderConfig::default()).render(&scene.trained, cam);
        let cfg = StreamingConfig {
            voxel_size: scene.voxel_size,
            ..Default::default()
        };
        let streaming = StreamingScene::new(scene.trained.clone(), cfg).render(cam);
        let psnr = streaming.image.psnr(&reference.image);
        assert!(
            psnr > 24.0,
            "voxel ordering artifacts too strong: {psnr} dB"
        );
    }

    #[test]
    fn workload_counters_are_consistent() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cfg = StreamingConfig {
            voxel_size: scene.voxel_size,
            ..Default::default()
        };
        let out = StreamingScene::new(scene.trained.clone(), cfg).render(&scene.eval_cameras[0]);
        let t = out.workload.totals();
        assert!(t.gaussians_streamed > 0);
        assert!(t.coarse_survivors <= t.gaussians_streamed);
        assert!(t.fine_survivors <= t.coarse_survivors);
        assert!(t.blend_fragments <= t.blend_lanes);
        assert!(t.voxels_processed as u64 <= t.voxels_intersected as u64);
        assert!(t.coarse_bytes > 0 && t.pixel_bytes > 0);
    }

    #[test]
    fn coarse_filter_reduces_fine_fetches_not_image() {
        let scene = SceneKind::Palace.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let with = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                ..Default::default()
            },
        )
        .render(cam);
        let without = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                use_coarse_filter: false,
                ..Default::default()
            },
        )
        .render(cam);
        // Filtering must not change the image at all (it only culls
        // Gaussians that cannot touch the group).
        let psnr = with.image.psnr(&without.image);
        assert!(psnr > 60.0, "coarse filter changed the image: {psnr} dB");
        // But it must reduce fine-phase traffic.
        assert!(
            with.workload.totals().fine_bytes < without.workload.totals().fine_bytes,
            "coarse filter saved no traffic"
        );
    }

    #[test]
    fn vq_reduces_fine_bytes() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let raw = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                ..Default::default()
            },
        );
        let vq = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                use_vq: true,
                vq: VqConfig::tiny(),
                ..Default::default()
            },
        );
        let raw_out = raw.render(cam);
        let vq_out = vq.render(cam);
        let raw_fine = raw_out.workload.totals().fine_bytes;
        let vq_fine = vq_out.workload.totals().fine_bytes;
        assert!(
            (vq_fine as f64) < 0.15 * raw_fine as f64,
            "VQ fine bytes {vq_fine} vs raw {raw_fine}"
        );
        // Quality loss from tiny codebooks is bounded.
        let psnr = vq_out.image.psnr(&raw_out.image);
        assert!(psnr > 20.0, "VQ destroyed the image: {psnr} dB");
    }

    #[test]
    fn filter_kill_rate_is_substantial() {
        // The kill rate grows as groups cover less of the frame (the
        // paper's 76.3 % is measured at native resolutions where a 64 px
        // group is ~1 % of the frame; tiny test frames understate it).
        let scene = SceneKind::Train.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let at_group = |gsz: u32| -> f64 {
            let cfg = StreamingConfig {
                voxel_size: scene.voxel_size,
                group_size: gsz,
                ..Default::default()
            };
            StreamingScene::new(scene.trained.clone(), cfg)
                .render(cam)
                .workload
                .totals()
                .filter_kill_rate()
        };
        let k64 = at_group(64);
        let k16 = at_group(16);
        assert!(
            k64 > 0.2,
            "hierarchical filter killed only {k64} at 64px groups"
        );
        assert!(
            k16 > 0.6,
            "hierarchical filter killed only {k16} at 16px groups"
        );
        assert!(k16 > k64, "smaller groups must filter more aggressively");
    }

    #[test]
    fn violations_appear_with_large_gaussians_and_small_voxels() {
        // Large overlapping Gaussians + small voxels ⇒ ordering violations.
        let mut c = GaussianCloud::new();
        for i in 0..40 {
            let f = i as f32 * 0.13;
            c.push(Gaussian::isotropic(
                Vec3::new(f.sin() * 1.2, f.cos() * 0.9, 0.4 * f),
                0.35,
                Vec3::new(0.5 + 0.4 * f.sin(), 0.4, 0.6),
                0.55,
            ));
        }
        let cam = test_cam();
        let cfg = StreamingConfig {
            voxel_size: 0.5,
            ..Default::default()
        };
        let out = StreamingScene::new(c, cfg).render(&cam);
        assert!(
            out.violations.gaussian_ratio() > 0.0,
            "expected ordering violations with 0.35-scale Gaussians in 0.5 voxels"
        );
    }

    #[test]
    fn render_is_deterministic_across_thread_counts() {
        let scene = SceneKind::Playroom.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let a = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                threads: 1,
                ..Default::default()
            },
        )
        .render(cam);
        let b = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                threads: 4,
                ..Default::default()
            },
        )
        .render(cam);
        assert_eq!(a.image, b.image);
        assert_eq!(a.workload.totals(), b.workload.totals());
    }

    #[test]
    fn ray_stride_reduces_vsu_work() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let full = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                ray_stride: 1,
                ..Default::default()
            },
        )
        .render(cam);
        let strided = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                ray_stride: 4,
                ..Default::default()
            },
        )
        .render(cam);
        assert!(strided.workload.totals().dda_steps < full.workload.totals().dda_steps / 4);
        // Image stays close (voxel sets rarely change).
        let psnr = strided.image.psnr(&full.image);
        assert!(psnr > 28.0, "stride-4 sampling broke the image: {psnr}");
    }

    #[test]
    fn smaller_groups_stream_more_voxel_traffic() {
        // The group size is the re-streaming knob: 16×16 groups re-fetch
        // each voxel far more often than 64×64 groups.
        let scene = SceneKind::Truck.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let small = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                group_size: 16,
                ..Default::default()
            },
        )
        .render(cam);
        let large = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                group_size: 64,
                ..Default::default()
            },
        )
        .render(cam);
        assert!(
            small.workload.totals().gaussians_streamed
                > 2 * large.workload.totals().gaussians_streamed,
            "16px groups should re-stream voxels much more"
        );
        // Same image regardless of grouping (up to f32 noise).
        let psnr = small.image.psnr(&large.image);
        assert!(psnr > 35.0, "group size changed the image: {psnr}");
    }

    #[test]
    fn group_partial_state_fits_intermediate_buffer() {
        // 64×64 × 16 B = 64 KB ≤ 89 KB (paper's intermediate SRAM).
        let cfg = StreamingConfig::default();
        assert!(cfg.group_partial_bytes() <= 89 * 1024);
    }

    fn outputs_identical(a: &StreamingOutput, b: &StreamingOutput) {
        assert_eq!(a.image, b.image);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.degradation, b.degradation);
    }

    #[test]
    fn store_path_is_byte_identical_to_cloud_twin() {
        // The cloud-backed twin render path is gone; the bytes it produced
        // for these frames are the committed golden rows, recorded while
        // store path and twin still agreed bit for bit. Image, workload,
        // ledger and violations are all inside the digest.
        for kind in [SceneKind::Truck, SceneKind::Lego] {
            let scene = kind.build(&SceneConfig::tiny());
            for use_vq in [false, true] {
                let cfg = StreamingConfig {
                    voxel_size: scene.voxel_size,
                    use_vq,
                    vq: VqConfig::tiny(),
                    threads: 1,
                    ..Default::default()
                };
                let s = StreamingScene::new(scene.trained.clone(), cfg);
                let row = format!("{}/{}", kind.name(), if use_vq { "vq" } else { "raw" });
                let out = s.render(&scene.eval_cameras[0]);
                assert_eq!(golden::frame_digest(&out), golden::digest(&row), "{row}");
            }
        }
    }

    #[test]
    fn cached_strided_store_path_matches_cloud_twin() {
        // Cached + strided configuration: the trace-replayed cache
        // accounting and the dilated masks of two consecutive frames (the
        // second starts from the first's warm cache) must reproduce the
        // golden rows recorded while the cloud twin agreed with them.
        let scene = SceneKind::Playroom.build(&SceneConfig::tiny());
        let cfg = StreamingConfig {
            voxel_size: scene.voxel_size,
            ray_stride: 3,
            threads: 1,
            cache: Some(CacheConfig::default()),
            ..Default::default()
        };
        let s = StreamingScene::new(scene.trained.clone(), cfg);
        for (i, cam) in scene.eval_cameras[..2].iter().enumerate() {
            let row = format!("playroom/raw/cache/stride3/cam{i}");
            let out = s.render(cam);
            assert!(out.cache.is_some(), "{row}: cache report missing");
            assert_eq!(golden::frame_digest(&out), golden::digest(&row), "{row}");
        }
    }

    /// Xorshift stream for the blend property test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }

        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    /// A random splat whose bbox may hang off `rect` by up to 12 px; a
    /// third are fully opaque, so pixels saturate.
    fn random_splat(rng: &mut Rng, rect: &TileRect) -> FineSplat {
        let (a, c) = (rng.range(0.005, 0.8), rng.range(0.005, 0.8));
        let b = rng.range(-0.9, 0.9) * (a * c).sqrt();
        FineSplat {
            mean_px: gs_core::vec::Vec2::new(
                rng.range(rect.x0 - 12.0, rect.x1 + 12.0),
                rng.range(rect.y0 - 12.0, rect.y1 + 12.0),
            ),
            conic: gs_core::sym::Sym2::new(a, b, c),
            color: Vec3::new(
                rng.range(0.0, 1.0),
                rng.range(0.0, 1.0),
                rng.range(0.0, 1.0),
            ),
            opacity: if rng.below(3) == 0 {
                1.0
            } else {
                rng.range(0.0, 1.0)
            },
            depth: rng.range(0.5, 8.0),
            radius_px: rng.range(0.5, 16.0),
        }
    }

    #[test]
    fn blend_matches_reference_after_every_splat() {
        // Random streams replayed through the lane-wise kernel and the
        // reference loop: after every splat the outcome counters and the
        // whole blender state must be equal. Each stream is a few "voxels"
        // of depth-sorted splats (so later voxels can violate order), on
        // full and partial edge groups whose sizes straddle mask words,
        // under all-set, all-clear and random ray masks. The tallies check
        // that every one of those cases actually occurred.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut off_rect, mut partial, mut saturated) = (0u32, 0u32, 0u32);
        let (mut masked_violations, mut unmasked_blends) = (0u64, 0u64);
        for case in 0..400 {
            let gsz = 16 + rng.below(25);
            let mut edge = || match rng.below(2) {
                0 => gsz,
                _ => 1 + rng.below(gsz),
            };
            let (w_live, h_live) = (edge(), edge());
            partial += u32::from(w_live < gsz || h_live < gsz);
            let (x0, y0) = ((rng.below(3) * gsz) as f32, (rng.below(3) * gsz) as f32);
            let rect = TileRect {
                x0,
                y0,
                x1: x0 + w_live as f32,
                y1: y0 + h_live as f32,
            };
            let words = (gsz * gsz).div_ceil(64) as usize;
            let mask: Vec<u64> = match case % 3 {
                0 => vec![!0; words],
                1 => vec![0; words],
                _ => (0..words).map(|_| rng.next()).collect(),
            };
            let voxel_size = rng.range(0.1, 2.0);
            let mut fast = GroupBlender::default();
            let mut reference = GroupBlender::default();
            fast.reset(rect, gsz, voxel_size);
            reference.reset(rect, gsz, voxel_size);
            let live_at_reset = fast.live;
            for _voxel in 0..1 + rng.below(8) {
                let mut splats: Vec<FineSplat> = (0..1 + rng.below(16))
                    .map(|_| random_splat(&mut rng, &rect))
                    .collect();
                splats.sort_unstable_by(|p, q| p.depth.total_cmp(&q.depth));
                for s in &splats {
                    off_rect += u32::from(
                        s.mean_px.x - s.radius_px < rect.x0
                            || s.mean_px.x + s.radius_px > rect.x1
                            || s.mean_px.y - s.radius_px < rect.y0
                            || s.mean_px.y + s.radius_px > rect.y1,
                    );
                    let got = fast.blend(s, &mask);
                    let want = reference.blend_reference(s, &mask);
                    assert_eq!(got, want, "case {case}: outcome diverged");
                    assert_eq!(fast, reference, "case {case}: blender state diverged");
                    if case % 3 == 1 {
                        assert_eq!(got.violations, 0, "case {case}: unmasked violation");
                        unmasked_blends += got.blended;
                    } else {
                        masked_violations += got.violations;
                    }
                }
            }
            saturated += u32::from(fast.live < live_at_reset);
        }
        assert!(off_rect > 0 && saturated > 0);
        assert!(partial > 0 && partial < 400, "need full and partial groups");
        assert!(masked_violations > 0 && unmasked_blends > 0);
    }

    #[test]
    fn intra_group_ray_parallelism_is_bit_identical() {
        // Group sizes that leave fewer groups than workers used to flip the
        // renderer into a ray-parallel mode; they now run one group-claiming
        // job per group, or the inline serial loop for a single group.
        // Output must not change for any thread count (the ROADMAP
        // determinism contract).
        let scene = SceneKind::Truck.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        for group_size in [128, 256] {
            let base = StreamingConfig {
                voxel_size: scene.voxel_size,
                group_size,
                ..Default::default()
            };
            let serial = StreamingScene::new(
                scene.trained.clone(),
                StreamingConfig { threads: 1, ..base },
            )
            .render(cam);
            for threads in [2, 6, 0] {
                let par =
                    StreamingScene::new(scene.trained.clone(), StreamingConfig { threads, ..base })
                        .render(cam);
                outputs_identical(&serial, &par);
            }
        }
    }

    #[test]
    fn render_into_reuses_buffers_and_matches_render() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let s = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig {
                voxel_size: scene.voxel_size,
                threads: 2,
                ..Default::default()
            },
        );
        let mut out = StreamingOutput::default();
        for cam in &scene.eval_cameras {
            s.render_into(cam, &mut out);
            let fresh = s.render(cam);
            outputs_identical(&out, &fresh);
        }
    }

    #[test]
    fn coarse_memo_recomputes_on_new_record_bits_and_new_frames() {
        let cam_a = test_cam();
        let cam_b = Camera::look_at(Vec3::new(1.5, 0.5, -5.0), Vec3::ZERO, Vec3::Y, 64, 64, 0.9);
        let (va, vb) = (FilterCamera::new(&cam_a), FilterCamera::new(&cam_b));
        let fresh = |v: &FilterCamera, pos: Vec3, s_max: f32| {
            v.coarse_projection(pos, s_max)
                .map(|p| (p.mean_px, p.radius_px))
        };
        let (pos, s_max) = (Vec3::new(0.3, -0.2, 0.1), 0.05);
        let pos2 = Vec3::new(0.3, -0.2, 0.100_001);
        assert!(fresh(&va, pos, s_max).is_some());
        assert_ne!(fresh(&va, pos, s_max), fresh(&vb, pos, s_max));
        assert_ne!(fresh(&vb, pos, s_max), fresh(&vb, pos2, s_max));

        let mut memo = CoarseMemo::default();
        memo.begin_frame(1, 4);
        assert_eq!(memo.projection(&va, 2, pos, s_max), fresh(&va, pos, s_max));
        // Same frame, same slot, same bits: a hit. (The view is fixed per
        // frame in the renderer; a different one here only shows that the
        // stored value came back.)
        assert_eq!(memo.projection(&vb, 2, pos, s_max), fresh(&va, pos, s_max));
        // Same frame, same slot, different record bits: recomputed — also
        // for bits that differ in `s_max` alone.
        assert_eq!(
            memo.projection(&vb, 2, pos2, s_max),
            fresh(&vb, pos2, s_max)
        );
        let s_other = f32::from_bits(s_max.to_bits() + 1);
        assert_eq!(
            memo.projection(&vb, 2, pos2, s_other),
            fresh(&vb, pos2, s_other)
        );
        // The next frame: same slot, same bits, recomputed (new camera).
        memo.begin_frame(2, 4);
        assert_eq!(
            memo.projection(&va, 2, pos2, s_other),
            fresh(&va, pos2, s_other)
        );
        // A culled record memoizes as culled, and a hit keeps it culled.
        let behind = Vec3::new(0.0, 0.0, -9.0);
        assert_eq!(fresh(&va, behind, s_max), None);
        assert_eq!(memo.projection(&va, 3, behind, s_max), None);
        assert_eq!(memo.projection(&va, 3, behind, s_max), None);
        // A reset (the frame counter wrapped) forgets every entry.
        memo.reset();
        memo.begin_frame(2, 4);
        assert_eq!(
            memo.projection(&vb, 2, pos2, s_other),
            fresh(&vb, pos2, s_other)
        );
    }

    #[test]
    fn frame_stamp_wrap_keeps_frames_identical() {
        let scene = SceneKind::Lego.build(&SceneConfig::tiny());
        let config = StreamingConfig {
            voxel_size: scene.voxel_size,
            threads: 2,
            ..Default::default()
        };
        let s = StreamingScene::new(scene.trained.clone(), config);
        let reference = StreamingScene::new(scene.trained.clone(), config);
        let cams = &scene.eval_cameras;
        // Frame 1 memoizes camera 0; the counter then wraps back to 1, and
        // another camera must not hit camera 0's stale entries.
        s.render(&cams[0]);
        lock_unpoisoned(&s.scratch).frame = u32::MAX;
        for (i, cam) in [&cams[1], &cams[0], &cams[1]].into_iter().enumerate() {
            let out = s.render(cam);
            assert_eq!(lock_unpoisoned(&s.scratch).frame, i as u32 + 1);
            outputs_identical(&out, &reference.render(cam));
        }
    }
}
