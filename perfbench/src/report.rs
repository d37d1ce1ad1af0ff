//! Metric registry and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("fps", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("frames_ok_frac", "ratio"),
    ("psnr_db", "dB"),
    ("dram_kb_per_frame", "KiB"),
    ("model_fps", "frames/s"),
    ("model_uj_per_frame", "uJ"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("scene.build_s", "s"),
    ("vq.train_s", "s"),
    ("voxel.prepare_s", "s"),
    ("store.page_out_s", "s"),
    ("store.page_faults_per_frame", "count"),
    ("store.page_retries_per_frame", "count"),
    ("store.fetch_coarse_ns", "ns"),
    ("store.fetch_fine_ns", "ns"),
    ("voxel.render_ms_p50", "ms"),
    ("voxel.render_1t_ms_p50", "ms"),
    ("voxel.thread_speedup", "x"),
    ("voxel.dda_steps", "count"),
    ("voxel.order_ops", "count"),
    ("voxel.voxels_processed", "count"),
    ("voxel.gaussians_streamed", "count"),
    ("voxel.coarse_survivors", "count"),
    ("voxel.fine_survivors", "count"),
    ("voxel.blend_lanes", "count"),
    ("voxel.fine_useful_ratio", "ratio"),
    ("voxel.order_violation_ratio", "ratio"),
    ("voxel.tier_share.t0", "ratio"),
    ("voxel.tier_share.t1", "ratio"),
    ("voxel.tier_share.t2", "ratio"),
    ("voxel.tier_share.t3", "ratio"),
    ("voxel.degraded_per_frame", "count"),
    ("dda.ns_per_step", "ns"),
    ("order.ns_per_op", "ns"),
    ("mem.coarse_hit_rate", "ratio"),
    ("mem.fine_hit_rate", "ratio"),
    ("mem.dram_kb.coarse", "KiB"),
    ("mem.dram_kb.fine", "KiB"),
    ("mem.dram_kb.pixel", "KiB"),
    ("mem.hit_kb_per_frame", "KiB"),
    ("accel.cycles.vsu", "cycles"),
    ("accel.cycles.fetch", "cycles"),
    ("accel.cycles.coarse", "cycles"),
    ("accel.cycles.fine", "cycles"),
    ("accel.cycles.sort", "cycles"),
    ("accel.cycles.render", "cycles"),
    ("accel.cycles.fill", "cycles"),
    ("accel.fetch_bound_share", "ratio"),
    ("serve.drain_ms_p50", "ms"),
    ("serve.frames_per_drain", "count"),
    ("serve.serial_round_ms_p50", "ms"),
    ("serve.parallel_speedup", "x"),
    ("serve.page_amortization", "x"),
    ("trace.frame_ms_p50_traced", "ms"),
    ("trace.frame_ms_p50_untraced", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.self_ms_per_frame", "ms"),
];

/// Named metric values collected by a workload run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn extend(&mut self, items: impl IntoIterator<Item = (String, f64)>) {
        self.values.extend(items);
    }

    /// The registered metrics of `set`, in registry order, as
    /// `(name, unit, value)`. Every registered metric must be present and
    /// finite.
    pub fn select(
        &self,
        set: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        set.iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(v) if v.is_finite() => Ok((name, unit, *v)),
                Some(v) => Err(format!("metric {name} is not finite ({v})")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// The one-line JSON result the benchmark prints last.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[("fps", "frames/s", 16.5), ("setup_s", "s", 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"fps\": {\"value\": 16.5, \"unit\": \"frames/s\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn select_refuses_missing_and_non_finite() {
        let mut m = Metrics::default();
        m.set("fps", 1.0);
        assert!(m.select(&[("fps", "frames/s")]).is_ok());
        assert!(m.select(&[("setup_s", "s")]).is_err());
        m.set("fps", f64::INFINITY);
        assert!(m.select(&[("fps", "frames/s")]).is_err());
    }

    /// The registry matches the benchmark description at the repository
    /// root, name for name and unit for unit.
    #[test]
    fn registry_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let squeezed: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                squeezed.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = squeezed.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
