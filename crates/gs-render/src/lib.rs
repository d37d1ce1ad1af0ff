//! # gs-render — the tile-centric reference 3DGS renderer
//!
//! This crate implements the *conventional* pipeline the paper characterizes
//! and accelerates (Fig. 2): **projection** (EWA-project every Gaussian and
//! enumerate intersected tiles), **sorting** (global depth order per tile)
//! and **rendering** (front-to-back alpha blending with early termination).
//!
//! Two outputs matter:
//!
//! 1. the rendered image — ground truth for PSNR comparisons with the
//!    streaming pipeline (`gs-voxel`), and
//! 2. [`stats::RenderStats`] — functional workload counts (visible Gaussians,
//!    tile pairs, blended fragments, …) from which [`traffic`] computes the
//!    per-stage DRAM traffic a GPU-style execution would incur. These numbers
//!    feed the Orin NX and GSCore models in `gs-accel` and reproduce the
//!    paper's Figs. 2–4.
//!
//! ## Hot-path architecture
//!
//! The CPU hot path is organized around the optimizations below. Its
//! output — image and every [`stats::RenderStats`] counter — is pinned by
//! committed golden digests (`tests/exactness.rs` against
//! `tests/golden/render_frames.txt`) at one, two and all worker threads:
//!
//! * **Footprint-clipped rasterization** — projection derives each splat's
//!   conservative screen-space support rectangle from the conic's extent
//!   ([`projection::support_bbox`], carried as
//!   [`projection::Splat::bbox_px`]); [`rasterize::rasterize_tile`] visits
//!   only `bbox ∩ tile` instead of all 256 pixels of every covered tile.
//! * **Counting-sort binning** — [`binning::bin_and_sort_into`] histograms
//!   (tile, depth) pairs per tile, prefix-sums into per-tile ranges,
//!   scatters, then depth-sorts each short run: O(pairs) instead of a
//!   global O(pairs·log pairs) comparison sort.
//! * **Zero-alloc frame loop** — all intermediate buffers live in a
//!   reusable [`arena::FrameArena`] and tile work runs on a persistent
//!   [`pool::WorkerPool`]; a steady-state render loop performs no
//!   intermediate allocations and spawns no threads per frame.
//! * **Splat-parallel front-end** (PR 2) — with `threads > 1`,
//!   [`projection::project_splats_parallel`] and
//!   [`binning::bin_and_sort_parallel`] run projection and binning across
//!   the same worker pool. Every parallel reduction merges in a
//!   deterministic order (chunk-order concatenation; chunk-major prefix
//!   sums; total-order per-tile sorts), so the output stays bit-identical
//!   to the serial path for every worker count — see the determinism
//!   contracts in the [`projection`] and [`binning`] module docs.
//!
//! ## Example
//!
//! ```
//! use gs_render::{RenderConfig, TileRenderer};
//! use gs_scene::{SceneConfig, SceneKind};
//!
//! let scene = SceneKind::Lego.build(&SceneConfig::tiny());
//! let renderer = TileRenderer::new(RenderConfig::default());
//! let out = renderer.render(&scene.ground_truth, &scene.eval_cameras[0]);
//! assert_eq!(out.image.width(), scene.eval_cameras[0].width());
//! assert!(out.stats.visible_gaussians > 0);
//! ```

pub mod arena;
pub mod binning;
pub mod pool;
pub mod projection;
pub mod rasterize;
pub mod renderer;
pub mod stats;
pub mod traffic;

pub use arena::FrameArena;
pub use pool::WorkerPool;
pub use renderer::{RenderConfig, RenderOutput, TileRenderer};
pub use stats::RenderStats;
pub use traffic::{tile_centric_traffic, StageTraffic, TrafficModel};

/// Side length of a rasterization tile in pixels (3DGS uses 16×16).
pub const TILE_SIZE: u32 = 16;

/// Alpha below which a fragment is skipped (1/255, as in 3DGS).
pub const ALPHA_EPS: f32 = 1.0 / 255.0;

/// Transmittance below which a pixel terminates early (as in 3DGS).
pub const TRANSMITTANCE_EPS: f32 = 1.0 / 255.0 * 0.5;

/// Maximum alpha a single Gaussian may contribute (3DGS clamps at 0.99).
pub const ALPHA_MAX: f32 = 0.99;
