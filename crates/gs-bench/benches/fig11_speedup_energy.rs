//! Paper Fig. 11: end-to-end speedup and energy savings over the GPU for
//! GSCore / w/o VQ+CGF / w/o CGF / StreamingGS, per upstream algorithm.
//!
//! Paper reference (averaged over the four datasets, 3DGS rows):
//! speedup — GSCore 21.6×, w/o VQ+CGF ≈21×, w/o CGF 22.2×, full 45.7×;
//! energy — full 62.9× vs GPU and 2.3× vs GSCore; the coarse filter and VQ
//! contribute 35.6× and 5.8× of the energy savings respectively.

use gs_baselines::{light_gaussian, mini_splatting, LightGaussianConfig, MiniSplattingConfig};
use gs_bench::fmt::{banner, pct, Table};
use gs_bench::setup::{bench_scale, build_scene};
use gs_bench::variants::{evaluate_scene, SceneEvaluation, Variant};
use gs_scene::{GaussianCloud, Scene, SceneKind};

const VARIANTS: [Variant; 4] = [
    Variant::Gscore,
    Variant::WithoutVqCgf,
    Variant::WithoutCgf,
    Variant::StreamingGs,
];

fn algorithm_cloud(scene: &Scene, algo: &str) -> GaussianCloud {
    match algo {
        "3DGS" => scene.trained.clone(),
        "Mini-Splatting" => mini_splatting(
            &scene.trained,
            &scene.train_cameras,
            &MiniSplattingConfig::default(),
        ),
        "LightGaussian" => light_gaussian(
            &scene.trained,
            &scene.train_cameras,
            &LightGaussianConfig::default(),
        ),
        _ => unreachable!(),
    }
}

fn main() {
    banner("Fig. 11 — speedup & energy savings over the Orin NX GPU (dataset average)");
    println!(
        "paper (3DGS): speedup GSCore 21.6x | w/o VQ+CGF ~21x | w/o CGF 22.2x | StreamingGS 45.7x"
    );
    println!("paper (3DGS): energy  StreamingGS 62.9x vs GPU, 2.3x vs GSCore\n");

    let vq = bench_scale().vq_config();
    // The paper averages over the four datasets: Synthetic-NeRF (lego),
    // Synthetic-NSVF (palace), Tanks&Temples (train, truck), Deep Blending
    // (playroom, drjohnson).
    let dataset_groups: [&[SceneKind]; 4] = [
        &[SceneKind::Lego],
        &[SceneKind::Palace],
        &[SceneKind::Train, SceneKind::Truck],
        &[SceneKind::Playroom, SceneKind::Drjohnson],
    ];

    let mut speed = Table::new(&[
        "algorithm",
        "GSCore",
        "w/o VQ+CGF",
        "w/o CGF",
        "StreamingGS",
    ]);
    let mut energy = Table::new(&[
        "algorithm",
        "GSCore",
        "w/o VQ+CGF",
        "w/o CGF",
        "StreamingGS",
    ]);
    let mut aux = Table::new(&[
        "algorithm",
        "filter_kill_rate",
        "vq_fine_reduction",
        "vs_GSCore_speed",
        "vs_GSCore_energy",
    ]);

    for algo in ["3DGS", "Mini-Splatting", "LightGaussian"] {
        // Average ratios per dataset group, then across groups.
        let mut speedups = [0.0f64; 4];
        let mut savings = [0.0f64; 4];
        let mut kill = 0.0f64;
        let mut vq_red = 0.0f64;
        for group in dataset_groups {
            let mut gs = [0.0f64; 4];
            let mut ge = [0.0f64; 4];
            for kind in group {
                let scene = build_scene(*kind);
                let cloud = algorithm_cloud(&scene, algo);
                let eval: SceneEvaluation = evaluate_scene(&scene, &cloud, &vq, false);
                for (i, v) in VARIANTS.iter().enumerate() {
                    gs[i] += eval.speedup(*v);
                    ge[i] += eval.energy_saving(*v);
                }
                kill += eval.kill_rate;
                vq_red += eval.vq_reduction;
            }
            for i in 0..4 {
                speedups[i] += gs[i] / group.len() as f64 / 4.0;
                savings[i] += ge[i] / group.len() as f64 / 4.0;
            }
        }
        kill /= 6.0;
        vq_red /= 6.0;

        speed.row(&[
            algo.to_string(),
            format!("{:.1}x", speedups[0]),
            format!("{:.1}x", speedups[1]),
            format!("{:.1}x", speedups[2]),
            format!("{:.1}x", speedups[3]),
        ]);
        energy.row(&[
            algo.to_string(),
            format!("{:.1}x", savings[0]),
            format!("{:.1}x", savings[1]),
            format!("{:.1}x", savings[2]),
            format!("{:.1}x", savings[3]),
        ]);
        aux.row(&[
            algo.to_string(),
            pct(kill),
            pct(vq_red),
            format!("{:.2}x", speedups[3] / speedups[0]),
            format!("{:.2}x", savings[3] / savings[0]),
        ]);
    }

    println!("Speedup over GPU:\n{speed}");
    println!("Energy savings over GPU:\n{energy}");
    println!("Auxiliary (paper: kill 76.3%, VQ reduction 92.3%, 2.1x / 2.3x vs GSCore):\n{aux}");
}
