//! One client, one stream: `vr-walk` and `paged-churn`.
//!
//! Closed loop: the client requests the next pose of its trajectory as
//! soon as the previous frame is readable. A frame's latency is the
//! `try_render_into` call.

use crate::clock::ms;
use crate::frames::{frame_digest, ledger_matches_workload, FrameTally};
use crate::run::{self, Ctx, Outcome, Window, CHECKED, TALLIED, WARMUP};
use crate::setup::{prepare_reps, SceneSpec, Seeds};
use crate::stats::percentile;
use gs_accel::StreamingGsModel;
use gs_core::camera::Camera;
use gs_render::{RenderConfig, TileRenderer};
use gs_scene::Scene;
use gs_voxel::StreamingOutput;

/// Frames a fault-free clone re-renders to show injected faults change no
/// byte.
const FAULT_FREE_FRAMES: usize = 8;

pub type Trajectory = fn(&Scene, &SceneSpec, &Seeds) -> Vec<Camera>;

pub fn run(spec: &SceneSpec, trajectory: Trajectory, ctx: &mut Ctx) -> Result<Outcome, String> {
    let clock = ctx.clock;
    let (mut reps, times) = prepare_reps(spec, &ctx.seeds, &clock, &mut ctx.tracer)?;
    let (Some(replay), Some(live)) = (reps.pop(), reps.pop()) else {
        return Err("set-up produced too few scenes".into());
    };
    drop(reps);
    let cams = trajectory(&live.scene, spec, &ctx.seeds);
    let offset = ctx.seeds.offset;
    let cam_at = |i: usize| cams[(offset + i) % cams.len()];
    let mut o = Outcome::default();

    // --- Timed window: the production path at the workload's workers. --
    let mut out = StreamingOutput::default();
    let mut buf = Vec::new();
    let mut digests = Vec::with_capacity(CHECKED);
    let mut ledger_ok = true;
    let mut window = Window::default();
    let mut i = 0usize;
    while window.keep_going(i, &clock, ctx.seconds) {
        let traced = i.is_multiple_of(2);
        ctx.tracer.set_active(traced);
        let key = i as u64;
        let cam = cam_at(i);
        let frame = ctx.tracer.enter("frame", key);
        let t0 = clock.now_ns();
        let result = ctx.tracer.span("voxel.render", key, || {
            live.paged.try_render_into(&cam, &mut out)
        });
        let t1 = clock.now_ns();
        ctx.tracer.span("bench.check", key, || {
            if let Err(e) = &result {
                eprintln!("frame {i} failed: {e}");
            } else {
                ledger_ok &= ledger_matches_workload(&out);
            }
            if i < CHECKED {
                digests.push(result.as_ref().map_or(0, |_| frame_digest(&out, &mut buf)));
            }
        });
        ctx.tracer.exit(frame);
        o.attempted += 1;
        o.failed += u64::from(result.is_err());
        window.record(i, t1 - t0, u64::from(result.is_ok()), traced);
        i += 1;
    }
    ctx.tracer.set_active(true);

    // --- Replay at the other worker count (one worker after an
    // `nproc`-worker window, `nproc` after a one-worker window): thread
    // invariance, and the tally. ------------------------------------------
    let replay_threads = if spec.threads == 1 { ctx.nproc } else { 1 };
    let mut rerun = replay.paged;
    rerun.set_threads(replay_threads);
    let model = StreamingGsModel::default();
    let reference = TileRenderer::new(RenderConfig {
        threads: ctx.nproc,
        ..RenderConfig::default()
    });
    let mut tally = FrameTally::default();
    let mut replay_ms = Vec::with_capacity(TALLIED);
    let mut replay_ok = true;
    for (i, &expected) in digests.iter().enumerate() {
        let cam = cam_at(i);
        let faults = rerun.store().page_faults();
        let t0 = clock.now_ns();
        ctx.tracer
            .span("voxel.render_replay", i as u64, || {
                rerun.try_render_into(&cam, &mut out)
            })
            .map_err(|e| format!("replay frame {i}: {e}"))?;
        let t1 = clock.now_ns();
        replay_ok &= frame_digest(&out, &mut buf) == expected;
        if i >= WARMUP {
            tally.add(&out, &model, rerun.store().page_faults() - faults);
            let truth = reference.render(&live.scene.trained, &cam);
            tally.add_psnr(out.image.psnr(&truth.image));
            replay_ms.push(ms(t1 - t0));
        }
    }
    o.checks
        .push(("ledger total == workload bytes, every frame", ledger_ok));
    o.checks
        .push(("frames == replay at the other worker count", replay_ok));

    if spec.fault_per_mille > 0 {
        let mut clean = replay.base.clone();
        clean.page_out(spec.page);
        let mut same = true;
        for (i, &expected) in digests.iter().take(FAULT_FREE_FRAMES).enumerate() {
            clean
                .try_render_into(&cam_at(i), &mut out)
                .map_err(|e| format!("fault-free frame {i}: {e}"))?;
            same &= frame_digest(&out, &mut buf) == expected;
        }
        o.checks.push(("faulted frames == fault-free clone", same));
    }
    let split =
        run::split_preparation_matches(spec, &replay.scene, &ctx.seeds, &cam_at(0), digests[0])?;
    o.checks
        .push(("train + with_quantization == StreamingScene::new", split));

    run::end_to_end(&mut o, &window, &times, &tally)?;
    if ctx.tracer.enabled() {
        let probe_cams: Vec<Camera> = (0..4).map(|k| cam_at(WARMUP + k * TALLIED / 4)).collect();
        run::per_layer(&mut o, ctx, &window, &times, &tally, &rerun, &probe_cams)?;
        let render = percentile(&ctx.tracer.durations_ms("voxel.render"), 0.5)?;
        let timed = percentile(&window.latencies_ms[..TALLIED], 0.5)?;
        let replayed = percentile(&replay_ms, 0.5)?;
        let (one, all) = if spec.threads == 1 {
            (timed, replayed)
        } else {
            (replayed, timed)
        };
        let m = &mut o.metrics;
        m.set("voxel.render_ms_p50", render);
        m.set("voxel.render_1t_ms_p50", one);
        m.set("voxel.thread_speedup", one / all);
        // No serving layer on a single stream.
        for name in [
            "serve.drain_ms_p50",
            "serve.frames_per_drain",
            "serve.serial_round_ms_p50",
            "serve.parallel_speedup",
            "serve.page_amortization",
        ] {
            m.set(name, 0.0);
        }
    }
    o.info
        .push(("scene", format!("{} stand-in", spec.kind.name())));
    o.info
        .push(("gaussians", live.scene.trained.len().to_string()));
    o.info
        .push(("resolution", format!("{}x{}", spec.width, spec.height)));
    o.info.push((
        "workers",
        format!(
            "{} renderer threads timed, {replay_threads} replayed",
            spec.threads
        ),
    ));
    o.info.push((
        "frames",
        format!("{i} requested ({WARMUP} warm-up), {CHECKED} replayed, {TALLIED} tallied"),
    ));
    Ok(o)
}
