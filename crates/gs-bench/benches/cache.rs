//! Working-set cache + paged store: the trajectory-locality experiment.
//!
//! Flies a short camera walkthrough over each scene (raw and VQ second
//! halves) three ways:
//!
//! * **cached, resident store** — the production model: coarse/fine
//!   fetches front a per-stage [`gs_mem::WorkingSetCache`], so
//!   frame-to-frame voxel reuse is served on-chip and DRAM sees only
//!   burst-rounded miss fills;
//! * **cached, demand-paged store** — the same frames over a store
//!   round-tripped through its serialized scene image with a bounded page
//!   budget; must be **byte-identical** (paging is host-memory
//!   management, not modeled traffic);
//! * **uncached** — every fetch priced as its own burst-rounded DRAM
//!   transaction (the "DRAM bytes without cache" baseline).
//!
//! The run ends with one machine-readable `CACHE_JSON {...}` line: per
//! scene/mode the demand bytes, DRAM bytes with/without cache, warm-frame
//! (frame ≥ 2) hit rates per stage and the paged-exactness verdict, plus
//! three gates CI asserts: `hit_ok` (warm coarse hit rate ≥ 50 % on every
//! trajectory), `exact_ok` (paged ≡ resident everywhere) and `priced_ok`
//! (the accelerator model's DRAM bytes equal the ledger's burst-rounded
//! miss traffic exactly). CI persists the line as `BENCH_cache.json` next
//! to `BENCH_traffic.json`.

// Benches may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_accel::StreamingGsModel;
use gs_bench::fmt::{banner, mb, pct, Table};
use gs_bench::setup::{bench_scale, build_scene, BenchScale};
use gs_mem::cache::CacheConfig;
use gs_scene::trajectory::{walkthrough, RigSpec};
use gs_scene::SceneKind;
use gs_voxel::{PageConfig, StreamingConfig, StreamingOutput, StreamingScene};
use gs_vq::VqConfig;

/// Warm-frame (≥ 2) coarse hit-rate gate of the trajectory experiment.
const WARM_COARSE_HIT_BAR: f64 = 0.5;

fn cache_config(scale: BenchScale) -> CacheConfig {
    // Size the working set to the scale's scene columns; the point is
    // trajectory reuse, not capacity pressure (gs-voxel's tests cover
    // bounded budgets).
    let capacity_bytes = match scale {
        BenchScale::Tiny => 1 << 20,
        BenchScale::Small => 4 << 20,
        BenchScale::Full => 16 << 20,
    };
    CacheConfig {
        capacity_bytes,
        ..CacheConfig::default()
    }
}

fn outputs_identical(a: &StreamingOutput, b: &StreamingOutput) -> bool {
    a.image == b.image && a.workload == b.workload && a.ledger == b.ledger && a.cache == b.cache
}

struct TrajectoryRun {
    demand: u64,
    dram_cached: u64,
    dram_uncached: u64,
    warm_coarse_hit: f64,
    warm_fine_hit: f64,
    paged_exact: bool,
    priced_exact: bool,
}

fn fly(
    scene_cloud: &gs_scene::GaussianCloud,
    cfg: StreamingConfig,
    cams: &[gs_core::camera::Camera],
) -> TrajectoryRun {
    let model = StreamingGsModel::default();
    let cached = StreamingScene::new(scene_cloud.clone(), cfg);
    let mut paged = cached.clone();
    paged.page_out(PageConfig {
        slots_per_page: 128,
        max_resident_pages: 0,
        ..PageConfig::default()
    });
    let uncached = StreamingScene::new(scene_cloud.clone(), StreamingConfig { cache: None, ..cfg });

    let mut run = TrajectoryRun {
        demand: 0,
        dram_cached: 0,
        dram_uncached: 0,
        warm_coarse_hit: 1.0,
        warm_fine_hit: 1.0,
        paged_exact: true,
        priced_exact: true,
    };
    for (i, cam) in cams.iter().enumerate() {
        let out = cached.render(cam);
        run.paged_exact &= outputs_identical(&out, &paged.render(cam));
        run.demand += out.ledger.total();
        run.dram_cached += out.ledger.dram_total();
        run.dram_uncached += uncached.render(cam).ledger.dram_total();
        // The accelerator must price exactly the burst-rounded miss bytes.
        let priced = model.evaluate_measured(&out.workload, &out.ledger);
        run.priced_exact &= priced.dram_bytes == out.ledger.dram_total();
        if i >= 1 {
            let rep = out.cache.expect("cache configured");
            run.warm_coarse_hit = run.warm_coarse_hit.min(rep.coarse.hit_rate());
            run.warm_fine_hit = run.warm_fine_hit.min(rep.fine.hit_rate());
        }
    }
    run
}

fn main() {
    let scale = bench_scale();
    let cache_cfg = cache_config(scale);
    banner("Cache — trajectory working-set reuse over the paged voxel store");
    println!(
        "walkthrough of {} frames; warm-frame coarse hit-rate bar >= {:.0}%\n",
        6,
        WARM_COARSE_HIT_BAR * 100.0
    );

    let rig = RigSpec {
        width: 160,
        height: 120,
        fov_x: 0.9,
    };
    let mut table = Table::new(&[
        "scene",
        "mode",
        "demand(MB)",
        "dram_no$ (MB)",
        "dram_$ (MB)",
        "warm coarse hit",
        "warm fine hit",
        "paged==resident",
    ]);
    let mut rows = Vec::new();
    let mut min_warm_coarse = 1.0f64;
    let mut all_exact = true;
    let mut all_priced = true;
    for kind in [SceneKind::Truck, SceneKind::Playroom] {
        let scene = build_scene(kind);
        let cams = walkthrough(
            gs_core::vec::Vec3::new(-1.5, 0.8, -7.0),
            gs_core::vec::Vec3::new(1.5, 1.1, -5.5),
            gs_core::vec::Vec3::ZERO,
            6,
            &rig,
        );
        for vq in [false, true] {
            let cfg = StreamingConfig {
                voxel_size: scene.voxel_size,
                use_vq: vq,
                vq: if vq {
                    scale.vq_config()
                } else {
                    VqConfig::tiny()
                },
                cache: Some(cache_cfg),
                ..Default::default()
            };
            let run = fly(&scene.trained, cfg, &cams);
            min_warm_coarse = min_warm_coarse.min(run.warm_coarse_hit);
            all_exact &= run.paged_exact;
            all_priced &= run.priced_exact;
            let mode = if vq { "vq" } else { "raw" };
            table.row(&[
                kind.name().to_string(),
                mode.to_string(),
                mb(run.demand),
                mb(run.dram_uncached),
                mb(run.dram_cached),
                pct(run.warm_coarse_hit),
                pct(run.warm_fine_hit),
                run.paged_exact.to_string(),
            ]);
            rows.push(format!(
                "{{\"scene\":\"{}\",\"mode\":\"{}\",\"frames\":{},\"demand_bytes\":{},\"dram_uncached\":{},\"dram_cached\":{},\"warm_coarse_hit\":{:.4},\"warm_fine_hit\":{:.4},\"paged_exact\":{},\"priced_exact\":{}}}",
                kind.name(),
                mode,
                cams.len(),
                run.demand,
                run.dram_uncached,
                run.dram_cached,
                run.warm_coarse_hit,
                run.warm_fine_hit,
                run.paged_exact,
                run.priced_exact,
            ));
        }
    }
    println!("{table}");
    println!("DRAM columns are burst-rounded transaction bytes; with the cache, miss fills only.");

    // --- capacity-pressure sweep -----------------------------------------
    // Shrinks/grows the working-set budget around the scale's nominal
    // capacity on the Truck VQ trajectory and records where the warm
    // coarse hit rate stops improving (the knee: the smallest capacity
    // within 2 % of the sweep's best). Most meaningful at `full` scale,
    // where the scene columns dwarf the smallest budgets; smaller scales
    // run the same sweep as a smoke test.
    let scene = build_scene(SceneKind::Truck);
    let cams = walkthrough(
        gs_core::vec::Vec3::new(-1.5, 0.8, -7.0),
        gs_core::vec::Vec3::new(1.5, 1.1, -5.5),
        gs_core::vec::Vec3::ZERO,
        6,
        &rig,
    );
    let base_cap = cache_cfg.capacity_bytes;
    let sweep_caps = [
        base_cap / 1024,
        base_cap / 256,
        base_cap / 64,
        base_cap / 16,
        base_cap / 4,
        base_cap,
        base_cap * 4,
    ];
    let mut sweep_table = Table::new(&["capacity", "warm coarse hit", "dram_$ (MB)"]);
    let mut sweep_rows = Vec::new();
    let mut sweep_hits = Vec::new();
    for cap in sweep_caps {
        let cfg = StreamingConfig {
            voxel_size: scene.voxel_size,
            use_vq: true,
            vq: scale.vq_config(),
            cache: Some(CacheConfig {
                capacity_bytes: cap,
                ..cache_cfg
            }),
            ..Default::default()
        };
        let st = StreamingScene::new(scene.trained.clone(), cfg);
        let mut warm_hit = 1.0f64;
        let mut dram = 0u64;
        for (i, cam) in cams.iter().enumerate() {
            let out = st.render(cam);
            dram += out.ledger.dram_total();
            if i >= 1 {
                warm_hit = warm_hit.min(out.cache.expect("cache configured").coarse.hit_rate());
            }
        }
        sweep_table.row(&[mb(cap), pct(warm_hit), mb(dram)]);
        sweep_rows.push(format!(
            "{{\"capacity_bytes\":{cap},\"warm_coarse_hit\":{warm_hit:.4},\"dram_cached\":{dram}}}"
        ));
        sweep_hits.push((cap, warm_hit));
    }
    let best_hit = sweep_hits.iter().map(|(_, h)| *h).fold(0.0f64, f64::max);
    let knee = sweep_hits
        .iter()
        .find(|(_, h)| *h >= best_hit - 0.02)
        .map_or(0, |(c, _)| *c);
    println!("{sweep_table}");
    println!(
        "knee = smallest capacity within 2% of the sweep's best warm coarse hit rate: {}\n",
        mb(knee)
    );

    let hit_ok = min_warm_coarse >= WARM_COARSE_HIT_BAR;
    println!(
        "CACHE_JSON {{\"bench\":\"cache\",\"cores\":{},\"scenes\":[{}],\"capacity_sweep\":[{}],\"knee_capacity_bytes\":{},\"min_warm_coarse_hit\":{:.4},\"hit_ok\":{},\"exact_ok\":{},\"priced_ok\":{}}}",
        gs_bench::setup::cores(),
        rows.join(","),
        sweep_rows.join(","),
        knee,
        min_warm_coarse,
        hit_ok,
        all_exact,
        all_priced
    );
}
