//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload vr-walk --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload on inputs generated from `--seed`, measures
//! for `--seconds`, checks the outputs, prints a report, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run records spans around every layer call and the
//! metrics are the per-layer ones. Exits nonzero when an output check
//! fails or a metric cannot be measured.

mod clock;
mod frames;
mod probes;
mod report;
mod run;
mod serve;
mod setup;
mod single;
mod stats;
mod trace;

use clock::Clock;
use gs_mem::cache::CacheConfig;
use gs_scene::SceneKind;
use gs_voxel::{PageConfig, QualityPolicy};
use report::{result_line, END_TO_END, PER_LAYER};
use run::{Ctx, Outcome};
use setup::{orbit_trajectory, room_walk, SceneSpec, Seeds};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The three workloads. Each scene is 6 000 Gaussians with paged VQ
/// columns; they differ in what the frame path leans on.
fn spec(workload: &str, threads: usize) -> Option<SceneSpec> {
    let base = SceneSpec {
        kind: SceneKind::Truck,
        gaussians: 6_000,
        width: 320,
        height: 240,
        cache: CacheConfig::default(),
        tiers: false,
        quality: QualityPolicy::FullQuality,
        page: PageConfig::default(),
        fault_per_mille: 0,
        threads,
    };
    match workload {
        "vr-walk" => Some(base),
        "serve-4" => Some(SceneSpec {
            width: 160,
            height: 120,
            // Sessions run on one worker each (`SceneShard::open_session`).
            threads: 1,
            ..base
        }),
        "paged-churn" => Some(SceneSpec {
            kind: SceneKind::Playroom,
            cache: CacheConfig {
                capacity_bytes: 16 * 1024,
                ..CacheConfig::default()
            },
            tiers: true,
            quality: QualityPolicy::Hysteresis {
                threshold: 400.0,
                margin: 0.2,
            },
            page: PageConfig {
                max_resident_pages: 4,
                ..PageConfig::default()
            },
            fault_per_mille: 10,
            // One renderer worker: with two, both workers fault pages
            // under the store's page lock, and a descheduled lock holder
            // stalls the other, which on a shared virtual machine doubled
            // frame times from run to run. One worker keeps the page path
            // on the blocking path and the figures steady.
            threads: 1,
            ..base
        }),
        _ => None,
    }
}

fn run_workload(args: &Args, ctx: &mut Ctx) -> Result<Outcome, String> {
    let spec = spec(&args.workload, ctx.nproc).ok_or_else(|| {
        format!(
            "unknown workload {:?} (vr-walk, serve-4, paged-churn)",
            args.workload
        )
    })?;
    match args.workload.as_str() {
        "serve-4" => serve::run(&spec, ctx),
        "paged-churn" => single::run(&spec, room_walk, ctx),
        _ => single::run(&spec, orbit_trajectory, ctx),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <vr-walk|serve-4|paged-churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let clock = Clock::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        clock,
        tracer: Tracer::new(clock, args.trace),
        seeds: Seeds::from_seed(args.seed),
        seconds: args.seconds,
        nproc,
    };
    let outcome = match run_workload(&args, &mut ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench {} seed={} nproc={nproc} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (key, value) in &outcome.info {
        println!("  {key:<16} {value}");
    }
    for (check, ok) in &outcome.checks {
        println!(
            "  check {:<48} {}",
            check,
            if *ok { "ok" } else { "MISMATCH" }
        );
    }
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let set = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = match outcome.metrics.select(set) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    let correct = outcome.correct();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
