//! Shared experiment setup: scales, scenes, cached ground-truth renders.

use gs_core::camera::Camera;
use gs_core::image::ImageRgb;
use gs_render::{RenderConfig, TileRenderer};
use gs_scene::{Scene, SceneConfig, SceneKind};
use gs_vq::VqConfig;

/// Workload scale of a bench run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BenchScale {
    /// Smoke-test size (seconds for the whole suite).
    Tiny,
    /// Default: minutes for the whole suite.
    Small,
    /// Full stand-in scenes.
    Full,
}

/// Reads `GS_BENCH_SCALE` (tiny/small/full); defaults to `Small`.
pub fn bench_scale() -> BenchScale {
    match std::env::var("GS_BENCH_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "tiny" => BenchScale::Tiny,
        "full" => BenchScale::Full,
        _ => BenchScale::Small,
    }
}

impl BenchScale {
    /// The scene configuration for this scale.
    pub fn scene_config(self) -> SceneConfig {
        match self {
            BenchScale::Tiny => SceneConfig::tiny(),
            BenchScale::Small => SceneConfig::small(),
            BenchScale::Full => SceneConfig::full(),
        }
    }

    /// The VQ configuration for this scale.
    pub fn vq_config(self) -> VqConfig {
        match self {
            BenchScale::Tiny => VqConfig::tiny(),
            BenchScale::Small => VqConfig::small(),
            BenchScale::Full => VqConfig::default(),
        }
    }

    /// Fine-tuning iteration budget at this scale.
    pub fn tune_iters(self) -> u32 {
        match self {
            BenchScale::Tiny => 20,
            BenchScale::Small => 80,
            BenchScale::Full => 400,
        }
    }
}

/// Builds a scene at the current bench scale.
pub fn build_scene(kind: SceneKind) -> Scene {
    kind.build(&bench_scale().scene_config())
}

/// Renders the ground-truth targets for a camera list.
pub fn ground_truth_targets(scene: &Scene, cams: &[Camera]) -> Vec<(Camera, ImageRgb)> {
    let r = TileRenderer::new(RenderConfig::default());
    cams.iter()
        .map(|c| (*c, r.render(&scene.ground_truth, c).image))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        // Only valid when the env var is unset in the test environment.
        if std::env::var("GS_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), BenchScale::Small);
        }
    }

    #[test]
    fn scale_configs_grow() {
        assert!(
            BenchScale::Tiny.scene_config().gaussians < BenchScale::Small.scene_config().gaussians
        );
        assert!(BenchScale::Tiny.tune_iters() < BenchScale::Full.tune_iters());
    }
}
