//! # gs-accel — transaction-level models of the StreamingGS accelerator,
//! GSCore and the Jetson Orin NX GPU
//!
//! Every model here is *workload-driven*: the functional renderers
//! (`gs-render` for the tile-centric pipeline, `gs-voxel` for the streaming
//! pipeline) count what a frame actually did, and these models convert the
//! counts into cycles, seconds and picojoules. No timing number is assumed
//! that the functional run did not measure.
//!
//! | model | consumes | stands in for |
//! |-------|----------|----------------|
//! | [`pipeline::StreamingGsModel`] | `gs_voxel::FrameWorkload` | the paper's accelerator (1 VSU, 4 HFU, 2 sorters, 64 render units, 1 GHz, LPDDR3 ×4) |
//! | [`gscore::GscoreModel`] | `gs_render::RenderStats` | GSCore (ASPLOS'24), built from its published specs |
//! | [`gpu::GpuModel`] | `gs_render::RenderStats` | Jetson Orin NX (mobile Ampere) roofline |
//!
//! Calibration constants live in [`config`] with documented provenance;
//! [`area`] reproduces the paper's Table I; [`scaling`] extrapolates the
//! scaled-down stand-in workloads to native scene sizes.
//!
//! ## Example
//!
//! ```
//! use gs_accel::config::AccelConfig;
//! use gs_accel::area::area_table;
//! let table = area_table(&AccelConfig::paper());
//! // Paper Table I: total ≈ 5.37 mm².
//! assert!((table.total_mm2() - 5.37).abs() < 0.15);
//! ```

pub mod area;
pub mod bitonic;
pub mod config;
pub mod gpu;
pub mod gscore;
pub mod pipeline;
pub mod report;
pub mod scaling;

pub use config::AccelConfig;
pub use gpu::GpuModel;
pub use gscore::GscoreModel;
pub use pipeline::StreamingGsModel;
pub use report::PerfReport;
