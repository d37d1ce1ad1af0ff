//! What every workload shares: the run context, the timed window, the
//! outcome, and the metrics computed the same way for every workload.

use crate::clock::{ms, secs, Clock};
use crate::frames::{frame_digest, FrameTally};
use crate::probes;
use crate::report::Metrics;
use crate::setup::{median_s, SceneSpec, Seeds, SetupTimes};
use crate::stats::{failed_frac, median, percentile};
use crate::trace::{layer_times, Tracer};
use gs_core::camera::Camera;
use gs_scene::Scene;
use gs_voxel::{StreamingOutput, StreamingScene};

/// Frames (or serving rounds) rendered before the timed window opens.
pub const WARMUP: usize = 8;
/// Frames after the warm-up whose outputs are replayed at one worker and
/// tallied for the deterministic metrics (one trip round the trajectory).
pub const TALLIED: usize = 48;
/// Frames whose digests are checked against the one-worker replay.
pub const CHECKED: usize = WARMUP + TALLIED;
/// Latency samples the timed window needs at least, so p95 has ten
/// samples beyond it; the window runs on past `--seconds` until it has
/// them, but never past [`MAX_OVERRUN`] times `--seconds`.
const MIN_SAMPLES: usize = 200;
const MAX_OVERRUN: f64 = 4.0;

pub struct Ctx {
    pub clock: Clock,
    pub tracer: Tracer,
    pub seeds: Seeds,
    pub seconds: f64,
    /// Worker threads the program gets (`available_parallelism`).
    pub nproc: usize,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: Metrics,
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// Requests per throughput block: `fps` is the median over blocks of
/// frames completed per second, so a few seconds of interference from
/// outside the process move it less than a whole-window mean would.
const BLOCK: usize = 16;

/// The timed window's latency samples, split by whether tracing was
/// active for the frame (the traced run alternates), and its per-block
/// throughput.
#[derive(Debug, Default)]
pub struct Window {
    start_ns: Option<u64>,
    end_ns: u64,
    block_start_ns: u64,
    block_requests: usize,
    block_frames: u64,
    block_fps: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    /// Frames completed inside the window (all clients).
    pub frames: u64,
}

impl Window {
    /// Called before request `i`: opens the window after the warm-up,
    /// closes throughput blocks, and returns `false` once the window is
    /// over.
    pub fn keep_going(&mut self, i: usize, clock: &Clock, seconds: f64) -> bool {
        let now = clock.now_ns();
        let Some(start) = self.start_ns else {
            if i >= WARMUP {
                self.start_ns = Some(now);
                self.block_start_ns = now;
            }
            return true;
        };
        if self.block_requests == BLOCK {
            let block_s = secs(now - self.block_start_ns);
            self.block_fps.push(self.block_frames as f64 / block_s);
            self.block_start_ns = now;
            self.block_requests = 0;
            self.block_frames = 0;
        }
        let elapsed = secs(now - start);
        let done = i >= CHECKED
            && elapsed >= seconds
            && (self.latencies_ms.len() >= MIN_SAMPLES || elapsed >= MAX_OVERRUN * seconds);
        if done {
            self.end_ns = now;
        }
        !done
    }

    /// Records request `i`'s latency and the frames it completed.
    pub fn record(&mut self, i: usize, latency_ns: u64, frames: u64, traced: bool) {
        if i < WARMUP {
            return;
        }
        self.block_requests += 1;
        self.block_frames += frames;
        if frames == 0 {
            return;
        }
        let v = ms(latency_ns);
        self.latencies_ms.push(v);
        if traced {
            self.traced_ms.push(v);
        } else {
            self.untraced_ms.push(v);
        }
        self.frames += frames;
    }

    pub fn seconds(&self) -> f64 {
        secs(self.end_ns - self.start_ns.unwrap_or(self.end_ns))
    }
}

/// The scene spec's streaming scene prepared in one step
/// (`StreamingScene::new`, which trains the codebooks itself) renders
/// `cam` to the same bytes as the split preparation did.
pub fn split_preparation_matches(
    spec: &SceneSpec,
    scene: &Scene,
    seeds: &Seeds,
    cam: &Camera,
    expected: u32,
) -> Result<bool, String> {
    let cfg = spec.streaming_config(scene, seeds);
    let whole = StreamingScene::new(scene.trained.clone(), cfg);
    let mut out = StreamingOutput::default();
    whole
        .try_render_into(cam, &mut out)
        .map_err(|e| format!("one-step preparation render: {e}"))?;
    Ok(frame_digest(&out, &mut Vec::new()) == expected)
}

/// End-to-end metrics every workload reports the same way.
pub fn end_to_end(
    o: &mut Outcome,
    window: &Window,
    times: &[SetupTimes],
    tally: &FrameTally,
) -> Result<(), String> {
    let m = &mut o.metrics;
    let fps = median(&window.block_fps).ok_or("the timed window closed no throughput block")?;
    m.set("fps", fps);
    m.set("frame_ms_p50", percentile(&window.latencies_ms, 0.5)?);
    m.set("setup_s", median_s(times, SetupTimes::total));
    m.set("peak_rss_mb", peak_rss_mib()?);
    m.set("frames_ok_frac", 1.0 - failed_frac(o.attempted, o.failed));
    m.set("psnr_db", tally.psnr_db());
    m.set("dram_kb_per_frame", tally.dram_kib_per_frame());
    m.set("model_fps", tally.model_fps());
    m.set("model_uj_per_frame", tally.model_uj_per_frame());
    // The tail is reported, not gated: on a shared virtual machine it
    // follows the host's scheduling more than the program.
    let p95 = match percentile(&window.latencies_ms, 0.95) {
        Ok(v) => format!("{v:.3} ms over {} samples", window.latencies_ms.len()),
        Err(e) => format!("not reported: {e}"),
    };
    o.info.push(("frame_ms_p95", p95));
    o.info.push((
        "timed window",
        format!(
            "{:.2} s, {} frames, {} latency samples (p50 and p95 over all of them), fps over {} blocks of {BLOCK} requests",
            window.seconds(),
            window.frames,
            window.latencies_ms.len(),
            window.block_fps.len()
        ),
    ));
    Ok(())
}

/// Per-layer metrics every workload reports the same way: set-up stages,
/// the frame tally, the probes and the tracing overhead.
pub fn per_layer(
    o: &mut Outcome,
    ctx: &mut Ctx,
    window: &Window,
    times: &[SetupTimes],
    tally: &FrameTally,
    probe_scene: &StreamingScene,
    probe_cams: &[Camera],
) -> Result<(), String> {
    let (dda, order) = probes::dda_and_order(probe_scene, probe_cams, &ctx.clock, &mut ctx.tracer);
    let (coarse, fine) = probes::fetch_scan(probe_scene, &ctx.clock, &mut ctx.tracer)?;
    let m = &mut o.metrics;
    m.set("scene.build_s", median_s(times, |t| t.build));
    m.set("vq.train_s", median_s(times, |t| t.train));
    m.set("voxel.prepare_s", median_s(times, |t| t.prepare));
    m.set("store.page_out_s", median_s(times, |t| t.page_out));
    m.extend(tally.layer_metrics());
    m.set("dda.ns_per_step", dda);
    m.set("order.ns_per_op", order);
    m.set("store.fetch_coarse_ns", coarse);
    m.set("store.fetch_fine_ns", fine);
    let traced = percentile(&window.traced_ms, 0.5)?;
    let untraced = percentile(&window.untraced_ms, 0.5)?;
    m.set("trace.frame_ms_p50_traced", traced);
    m.set("trace.frame_ms_p50_untraced", untraced);
    m.set("trace.overhead_ratio", traced / untraced);
    let layers = layer_times(ctx.tracer.spans());
    let frame_key = if layers.contains_key("round") {
        "round"
    } else {
        "frame"
    };
    let frame = layers.get(frame_key).copied().unwrap_or_default();
    m.set(
        "bench.self_ms_per_frame",
        ms(frame.self_ns) / frame.spans.max(1) as f64,
    );
    o.info.push((
        "tracing overhead",
        format!(
            "frame_ms_p50 traced {traced:.3} ms vs untraced {untraced:.3} ms (alternate frames)"
        ),
    ));
    for (name, t) in &layers {
        o.info.push((
            "span",
            format!(
                "{name:<22} {:>6} spans  total {:>10.3} ms  self {:>10.3} ms",
                t.spans,
                ms(t.total_ns),
                ms(t.self_ns)
            ),
        ));
    }
    Ok(())
}

/// Process high-water resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
