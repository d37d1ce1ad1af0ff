//! Paper Fig. 3: 3DGS FPS on the Jetson Orin NX across the six scenes.
//!
//! Paper reference: 2–9 FPS overall; synthetic scenes average ≈8.5 FPS,
//! real-world scenes ≈4.9 FPS — real-time (90 FPS) is far out of reach.

use gs_accel::scaling::{scale_render_stats, ScaleFactors};
use gs_accel::GpuModel;
use gs_bench::fmt::{banner, Table};
use gs_bench::setup::build_scene;
use gs_render::{RenderConfig, TileRenderer};
use gs_scene::SceneKind;
use std::time::Instant;

fn main() {
    banner("Fig. 3 — 3DGS FPS on a mobile SoC (Orin NX model, native workload scale)");
    println!("paper: 2–9 FPS; synthetic ≈8.5 avg, real-world ≈4.9 avg\n");

    let renderer = TileRenderer::new(RenderConfig::default());
    let gpu = GpuModel::default();
    // The measured column times this host's tile renderer on the bench's
    // stand-in scene (min of 3 renders); the model column is at native
    // workload scale. They share a row for convenience, not
    // comparability; the header says so.
    let mut table = Table::new(&[
        "scene",
        "type",
        "native_gaussians",
        "fps(model,native)",
        "cpu_ms(measured)",
    ]);
    let mut synth = Vec::new();
    let mut real = Vec::new();

    for kind in SceneKind::ALL {
        let scene = build_scene(kind);
        let cam = &scene.eval_cameras[0];
        let timed_render = || {
            let t0 = Instant::now();
            let out = renderer.render(&scene.trained, cam);
            (out, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (out, mut cpu_ms) = timed_render();
        for _ in 1..3 {
            cpu_ms = cpu_ms.min(timed_render().1);
        }
        let f = ScaleFactors::for_scene(kind, scene.trained.len(), cam.width(), cam.height());
        let stats = scale_render_stats(&out.stats, &f);
        let fps = gpu.evaluate(&stats).fps();
        if kind.is_synthetic() {
            synth.push(fps);
        } else {
            real.push(fps);
        }
        table.row(&[
            kind.name().to_string(),
            if kind.is_synthetic() {
                "synthetic"
            } else {
                "real-world"
            }
            .to_string(),
            kind.native_gaussians().to_string(),
            format!("{fps:.1}"),
            format!("{cpu_ms:.2}"),
        ]);
    }
    println!("{table}");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "measured -> synthetic avg {:.1} FPS | real-world avg {:.1} FPS",
        avg(&synth),
        avg(&real)
    );
    println!("paper    -> synthetic avg 8.5 FPS | real-world avg 4.9 FPS");
}
