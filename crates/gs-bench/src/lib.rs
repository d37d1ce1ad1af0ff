//! # gs-bench — the experiment harness
//!
//! One bench target per paper table/figure (`cargo bench` regenerates all of
//! them; each prints the paper's reference numbers next to our measured
//! ones).
//!
//! The harness runs at three workload scales selected by the
//! `GS_BENCH_SCALE` environment variable: `tiny` (CI smoke), `small`
//! (default — minutes for the whole suite) and `full` (the complete
//! stand-in scenes).

pub mod fmt;
pub mod setup;
pub mod variants;

pub use fmt::Table;
pub use setup::{bench_scale, build_scene, BenchScale};
pub use variants::{evaluate_scene, SceneEvaluation, Variant};
