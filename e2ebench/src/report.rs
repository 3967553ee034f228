//! Small measurement helpers: percentiles, peak memory, a stable hash
//! for output digests, and the metric list the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linearly interpolated quantile `q` in `0.0..=1.0` of `values`
/// (`0.0` for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a: a hash that is the same in every build and process,
/// for digests of program outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string and a separator into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Counters of one traced pass, by per-layer metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by a traced run: name and unit. Times
/// are self times per op; counts are per traced pass.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("lint.verify_ms", "ms"),
    ("lint.verify_cache_hit_ratio", "ratio"),
    ("lint.design_ms", "ms"),
    ("simt.smoke_ms", "ms"),
    ("rtl.generate_ms", "ms"),
    ("dse.optimize_ms", "ms"),
    ("dse.plan_actions", "count"),
    ("sta.query_hit_ratio", "ratio"),
    ("sta.module_hit_ratio", "ratio"),
    ("sram.raw_compiles", "count"),
    ("netlist.design_clones", "count"),
    ("netlist.module_copies", "count"),
    ("synth.synthesize_ms", "ms"),
    ("pnr.place_route_ms", "ms"),
    ("supervise.retries", "count"),
    ("supervise.degradation_steps", "count"),
    ("simt.cycles", "count"),
    ("simt.vector_instructions", "count"),
    ("simt.sched_iterations", "count"),
    ("simt.cache_miss_ratio", "ratio"),
    ("riscv.run_ms", "ms"),
    ("riscv.cycles", "count"),
    ("fault.map_ms", "ms"),
    ("fault.campaign_ms", "ms"),
    ("fault.golden_ms", "ms"),
    ("fault.trials", "count"),
    ("fault.masked_ratio", "ratio"),
    ("fault.trials_per_s", "1/s"),
    ("dse.sweep_ms", "ms"),
    ("wal.journal_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.records", "count"),
    ("wal.bytes", "bytes"),
    ("sweep.points", "count"),
    ("sweep.unreachable", "count"),
    ("pool.threads", "count"),
    ("pool.sweep_speedup", "x"),
    ("bench.glue_ms", "ms"),
    ("bench.op_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.layers_pct", "%"),
    ("trace.spans_per_op", "count"),
];

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit, in the order of `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// A finite JSON number (non-finite values print as `0`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Renders counters as a one-line JSON object.
pub fn counters_json(counters: &Counters) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
