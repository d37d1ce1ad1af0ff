//! `serve-4`: four clients share one paged scene shard through the
//! `gs-serve` scheduler.
//!
//! Closed loop in rounds: each round submits one frame per client and
//! drains them together; every frame of a round waits for the whole
//! drain, so the drain time is each of its frames' latency.

use crate::clock::ms;
use crate::frames::{frame_digest, ledger_matches_workload, FrameTally};
use crate::run::{self, Ctx, Outcome, Window, CHECKED, TALLIED, WARMUP};
use crate::setup::{orbit_trajectory, prepare_reps, SceneSpec};
use crate::stats::{abandoned, percentile};
use gs_accel::StreamingGsModel;
use gs_core::camera::Camera;
use gs_render::{RenderConfig, TileRenderer};
use gs_serve::{ClientSession, FrameScheduler, SceneShard};

pub const CLIENTS: usize = 4;

pub fn run(spec: &SceneSpec, ctx: &mut Ctx) -> Result<Outcome, String> {
    let clock = ctx.clock;
    let (mut reps, times) = prepare_reps(spec, &ctx.seeds, &clock, &mut ctx.tracer)?;
    let (Some(replay), Some(live)) = (reps.pop(), reps.pop()) else {
        return Err("set-up produced too few scenes".into());
    };
    drop(reps);
    let cams = orbit_trajectory(&live.scene, spec, &ctx.seeds);
    let n = cams.len();
    let offset = ctx.seeds.offset;
    // Clients walk the same orbit a quarter turn apart.
    let cam_at = |client: usize, round: usize| cams[(offset + client * n / CLIENTS + round) % n];
    let mut o = Outcome::default();

    // --- Timed window: one shared shard, `nproc` scheduler workers. ----
    let mut shard = SceneShard::new(spec.kind.name(), live.paged);
    let mut sessions: Vec<ClientSession> = (0..CLIENTS).map(|_| shard.open_session()).collect();
    let mut scheduler = FrameScheduler::new(ctx.nproc);
    let mut buf = Vec::new();
    let mut digests: Vec<[u32; CLIENTS]> = Vec::with_capacity(CHECKED);
    let mut ledger_ok = true;
    let mut shard_faults = 0u64;
    let mut window = Window::default();
    let mut r = 0usize;
    while window.keep_going(r, &clock, ctx.seconds) {
        let traced = r.is_multiple_of(2);
        ctx.tracer.set_active(traced);
        let key = r as u64;
        let round = ctx.tracer.enter("round", key);
        for c in 0..CLIENTS {
            scheduler.submit(c, &cam_at(c, r));
        }
        let t0 = clock.now_ns();
        let result = ctx
            .tracer
            .span("serve.drain", key, || scheduler.drain(&mut sessions));
        let t1 = clock.now_ns();
        let delivered: Vec<usize> = sessions.iter().map(|s| s.frames().len()).collect();
        ctx.tracer.span("bench.check", key, || {
            if let Err(e) = &result {
                eprintln!("round {r} failed: {e}");
            }
            let mut round_digests = [0u32; CLIENTS];
            for (c, s) in sessions.iter().enumerate() {
                if let Some(frame) = s.frames().first() {
                    ledger_ok &= ledger_matches_workload(frame);
                    if r < CHECKED {
                        round_digests[c] = frame_digest(frame, &mut buf);
                    }
                }
            }
            if r < CHECKED {
                digests.push(round_digests);
            }
        });
        ctx.tracer.exit(round);
        if r + 1 == CHECKED {
            shard_faults = shard.page_faults();
        }
        let lost = abandoned(&[1; CLIENTS], &delivered);
        o.attempted += CLIENTS as u64;
        o.failed += lost;
        window.record(r, t1 - t0, CLIENTS as u64 - lost, traced);
        r += 1;
    }
    ctx.tracer.set_active(true);

    // --- Solo replay: a private shard per client, one session per drain
    // on a one-worker scheduler. -------------------------------------------
    let mut solo_shards: Vec<SceneShard> = (0..CLIENTS)
        .map(|c| SceneShard::new(format!("solo-{c}"), replay.paged.clone()))
        .collect();
    let mut solo: Vec<ClientSession> = solo_shards
        .iter_mut()
        .map(SceneShard::open_session)
        .collect();
    let mut serial = FrameScheduler::new(1);
    let model = StreamingGsModel::default();
    let reference = TileRenderer::new(RenderConfig {
        threads: ctx.nproc,
        ..RenderConfig::default()
    });
    let mut tally = FrameTally::default();
    let mut render_1t = Vec::with_capacity(TALLIED * CLIENTS);
    let mut serial_round = Vec::with_capacity(TALLIED);
    let mut replay_ok = true;
    for (r, expected) in digests.iter().enumerate() {
        let mut round_ns = 0;
        for c in 0..CLIENTS {
            let cam = cam_at(c, r);
            let faults = solo_shards[c].page_faults();
            serial.submit(0, &cam);
            let t0 = clock.now_ns();
            ctx.tracer
                .span("serve.solo_drain", r as u64, || {
                    serial.drain(std::slice::from_mut(&mut solo[c]))
                })
                .map_err(|e| format!("solo replay round {r} client {c}: {e}"))?;
            let t1 = clock.now_ns();
            round_ns += t1 - t0;
            let frame = solo[c]
                .frames()
                .first()
                .ok_or_else(|| format!("solo replay round {r} client {c}: no frame"))?;
            replay_ok &= frame_digest(frame, &mut buf) == expected[c];
            if r >= WARMUP {
                tally.add(frame, &model, solo_shards[c].page_faults() - faults);
                let truth = reference.render(&replay.scene.trained, &cam);
                tally.add_psnr(frame.image.psnr(&truth.image));
                render_1t.push(ms(t1 - t0));
            }
        }
        if r >= WARMUP {
            serial_round.push(ms(round_ns));
        }
    }
    let solo_faults: u64 = solo_shards.iter().map(SceneShard::page_faults).sum();
    o.checks
        .push(("ledger total == workload bytes, every frame", ledger_ok));
    o.checks
        .push(("scheduled frames == solo one-worker replay", replay_ok));
    let split = run::split_preparation_matches(
        spec,
        &replay.scene,
        &ctx.seeds,
        &cam_at(0, 0),
        digests[0][0],
    )?;
    o.checks
        .push(("train + with_quantization == StreamingScene::new", split));

    run::end_to_end(&mut o, &window, &times, &tally)?;
    if ctx.tracer.enabled() {
        let probe_cams: Vec<Camera> = (0..CLIENTS).map(|c| cam_at(c, WARMUP)).collect();
        run::per_layer(
            &mut o,
            ctx,
            &window,
            &times,
            &tally,
            &replay.paged,
            &probe_cams,
        )?;
        let drain = percentile(&ctx.tracer.durations_ms("serve.drain"), 0.5)?;
        let serial_p50 = percentile(&serial_round, 0.5)?;
        let same_rounds = percentile(&window.latencies_ms[..TALLIED], 0.5)?;
        let render_1t = percentile(&render_1t, 0.5)?;
        let m = &mut o.metrics;
        m.set("serve.drain_ms_p50", drain);
        m.set(
            "serve.frames_per_drain",
            window.frames as f64 / window.latencies_ms.len() as f64,
        );
        m.set("serve.serial_round_ms_p50", serial_p50);
        m.set("serve.parallel_speedup", serial_p50 / same_rounds);
        m.set(
            "serve.page_amortization",
            solo_faults as f64 / shard_faults.max(1) as f64,
        );
        // Sessions are pinned to one worker: a session's frame is a
        // one-worker render wherever it runs.
        m.set("voxel.render_ms_p50", render_1t);
        m.set("voxel.render_1t_ms_p50", render_1t);
        m.set("voxel.thread_speedup", 1.0);
    }
    o.info.push((
        "scene",
        format!("{} stand-in, one shared shard", spec.kind.name()),
    ));
    o.info
        .push(("gaussians", replay.scene.trained.len().to_string()));
    o.info
        .push(("resolution", format!("{}x{}", spec.width, spec.height)));
    o.info.push((
        "workers",
        format!(
            "{} (scheduler), 1 per session, {CLIENTS} clients",
            ctx.nproc
        ),
    ));
    o.info.push((
        "rounds",
        format!(
            "{r} requested ({WARMUP} warm-up), {CHECKED} replayed solo at 1 worker, {TALLIED} tallied; latency samples are rounds"
        ),
    ));
    Ok(o)
}
