//! Seeded inputs and the timed scene set-up shared by every workload.

use crate::clock::{secs, Clock};
use crate::stats::median;
use crate::trace::Tracer;
use gs_core::camera::Camera;
use gs_core::vec::Vec3;
use gs_mem::cache::CacheConfig;
use gs_scene::trajectory::{orbit, walkthrough, RigSpec};
use gs_scene::{Scene, SceneConfig, SceneKind};
use gs_voxel::{FaultPolicy, PageConfig, QualityPolicy, StreamingConfig, StreamingScene};
use gs_vq::{GaussianQuantizer, VqConfig};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Everything the seed argument decides.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub scene: u64,
    pub vq: u64,
    pub faults: u64,
    /// Trajectory rotation, radians, within one camera step: every seed
    /// sees the same set of views, slightly turned.
    pub phase: f32,
    /// Trajectory start index.
    pub offset: usize,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Seeds {
    pub fn from_seed(seed: u64) -> Seeds {
        let draw = |salt: u64| splitmix64(seed ^ splitmix64(salt));
        Seeds {
            scene: draw(1),
            vq: draw(2),
            faults: draw(3),
            phase: (draw(4) % 1000) as f32 / 1000.0 * std::f32::consts::TAU
                / TRAJECTORY_CAMERAS as f32,
            offset: (draw(5) % 1024) as usize,
        }
    }
}

/// One workload's scene, store and renderer configuration.
#[derive(Clone, Copy, Debug)]
pub struct SceneSpec {
    pub kind: SceneKind,
    pub gaussians: usize,
    pub width: u32,
    pub height: u32,
    pub cache: CacheConfig,
    pub tiers: bool,
    pub quality: QualityPolicy,
    pub page: PageConfig,
    /// Seeded transient page faults, per mille of page reads.
    pub fault_per_mille: u32,
    /// Renderer worker threads.
    pub threads: usize,
}

impl SceneSpec {
    fn scene_config(&self, seeds: &Seeds) -> SceneConfig {
        SceneConfig {
            gaussians: self.gaussians,
            width: self.width,
            height: self.height,
            seed: seeds.scene,
            ..SceneConfig::small()
        }
    }

    pub fn streaming_config(&self, scene: &Scene, seeds: &Seeds) -> StreamingConfig {
        StreamingConfig {
            voxel_size: scene.voxel_size,
            use_vq: true,
            vq: VqConfig {
                seed: seeds.vq,
                ..VqConfig::small()
            },
            threads: self.threads,
            cache: Some(self.cache),
            tiers: if self.tiers {
                StreamingConfig::default_tier_ladder()
            } else {
                [None; 3]
            },
            quality: self.quality,
            ..StreamingConfig::default()
        }
    }

    fn fault_policy(&self, seeds: &Seeds) -> FaultPolicy {
        FaultPolicy::transient(seeds.faults, self.fault_per_mille)
    }

    fn rig(&self) -> RigSpec {
        RigSpec {
            width: self.width,
            height: self.height,
            fov_x: 0.9,
        }
    }
}

/// A prepared scene: `base` holds resident columns, `paged` the same
/// store paged out onto its scene image with the workload's page config
/// and fault policy.
pub struct Prepared {
    pub scene: Scene,
    pub base: StreamingScene,
    pub paged: StreamingScene,
}

/// Per-stage set-up times of one repetition, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub build: u64,
    pub train: u64,
    pub prepare: u64,
    pub page_out: u64,
}

impl SetupTimes {
    pub fn total(&self) -> u64 {
        self.build + self.train + self.prepare + self.page_out
    }
}

/// Builds the scene, trains the codebooks, prepares the streaming scene
/// and pages it out, timing each stage.
pub fn prepare(
    spec: &SceneSpec,
    seeds: &Seeds,
    clock: &Clock,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<(Prepared, SetupTimes), String> {
    let root = tracer.enter("setup", rep);
    let t0 = clock.now_ns();
    let scene = tracer.span("scene.build", rep, || {
        spec.kind.build(&spec.scene_config(seeds))
    });
    let t1 = clock.now_ns();
    let cfg = spec.streaming_config(&scene, seeds);
    let quant = tracer.span("vq.train", rep, || {
        GaussianQuantizer::train(&scene.trained, &cfg.vq)
    });
    let t2 = clock.now_ns();
    let base = tracer.span("voxel.prepare", rep, || {
        StreamingScene::with_quantization(scene.trained.clone(), quant, cfg)
    });
    let t3 = clock.now_ns();
    let mut paged = base.clone();
    let t4 = clock.now_ns();
    let policy = spec.fault_policy(seeds);
    tracer
        .span("store.page_out", rep, || {
            paged.page_out_with_faults(spec.page, policy)
        })
        .map_err(|e| format!("page_out: {e}"))?;
    let t5 = clock.now_ns();
    tracer.exit(root);
    let times = SetupTimes {
        build: t1 - t0,
        train: t2 - t1,
        prepare: t3 - t2,
        page_out: t5 - t4,
    };
    Ok((Prepared { scene, base, paged }, times))
}

/// Runs [`prepare`] [`SETUP_REPS`] times and returns every repetition's
/// product (identical by construction) with its times.
pub fn prepare_reps(
    spec: &SceneSpec,
    seeds: &Seeds,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Result<(Vec<Prepared>, Vec<SetupTimes>), String> {
    let mut products = Vec::with_capacity(SETUP_REPS);
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let (p, t) = prepare(spec, seeds, clock, tracer, rep as u64)?;
        products.push(p);
        times.push(t);
    }
    Ok((products, times))
}

/// Median seconds of one set-up stage across repetitions.
pub fn median_s(times: &[SetupTimes], stage: impl Fn(&SetupTimes) -> u64) -> f64 {
    let v: Vec<f64> = times.iter().map(|t| secs(stage(t))).collect();
    median(&v).unwrap_or(0.0)
}

/// Distinct cameras on every closed trajectory.
const TRAJECTORY_CAMERAS: usize = 48;

/// An outdoor orbit around the scene's focus, rotated by the seed.
pub fn orbit_trajectory(scene: &Scene, spec: &SceneSpec, seeds: &Seeds) -> Vec<Camera> {
    orbit(
        scene.focus(),
        10.5,
        3.5,
        TRAJECTORY_CAMERAS,
        seeds.phase,
        &spec.rig(),
    )
}

/// A closed indoor walk: four straight legs between corners inside the
/// room at varying eye heights, always looking at the room's centre. The
/// seed rotates the loop about the vertical axis.
pub fn room_walk(scene: &Scene, spec: &SceneSpec, seeds: &Seeds) -> Vec<Camera> {
    let (s, c) = seeds.phase.sin_cos();
    let rot = |x: f32, y: f32, z: f32| Vec3::new(c * x - s * z, y, s * x + c * z);
    let corners = [
        rot(-2.3, 1.4, -1.5),
        rot(2.2, 1.6, -1.2),
        rot(2.3, 1.5, 1.5),
        rot(-2.1, 1.3, 1.3),
    ];
    let per_leg = TRAJECTORY_CAMERAS / corners.len();
    let target = scene.focus() - Vec3::new(0.0, 0.2, 0.0);
    let mut cams = Vec::with_capacity(TRAJECTORY_CAMERAS);
    for (i, &from) in corners.iter().enumerate() {
        let to = corners[(i + 1) % corners.len()];
        let mut leg = walkthrough(from, to, target, per_leg + 1, &spec.rig());
        leg.pop();
        cams.extend(leg);
    }
    cams
}
