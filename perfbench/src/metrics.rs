//! Metric names, order statistics and the result printer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Args;

/// The end-to-end metrics every workload reports with tracing off. An
/// "operation" is the workload's unit of work: one candidate-seed
/// evaluation of the Chapter-4 flow (`bist_large`), one transition-fault
/// query (`sat_catalog`) or one served job (`serve_mixed`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p75_ms", "ms"),
];

/// The per-layer metrics every traced run reports. A layer the workload
/// never calls reports 0: the benchmark made no call into it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.synth_s", "s"),
    ("netlist.parse_ms", "ms"),
    ("sim.kernel_builds", "count"),
    ("sim.kernel_hits", "count"),
    ("sim.kernel_build_s", "s"),
    ("sim.cycles", "count"),
    ("sim.swafunc_s", "s"),
    ("sim.lanes_ns_per_lane_cycle", "ns"),
    ("bist.tpg_expand_calls", "count"),
    ("bist.tpg_expand_s", "s"),
    ("bist.tpg_ns_per_cycle", "ns"),
    ("fault.fsim_calls", "count"),
    ("fault.candidate_groups", "count"),
    ("fault.active_faults", "count"),
    ("fault.ppsfp_ns_per_test_fault", "ns"),
    ("core.engine_new_s", "s"),
    ("core.construct_s", "s"),
    ("core.construct_self_s", "s"),
    ("core.policy_s", "s"),
    ("core.compact_s", "s"),
    ("core.holding_s", "s"),
    ("core.evals", "count"),
    ("core.wasted_evals", "count"),
    ("core.seeds_kept", "count"),
    ("core.useful_ratio", "ratio"),
    ("lint.preflight_s", "s"),
    ("lint.faults_skipped", "count"),
    ("lint.cache_hit_ratio", "ratio"),
    ("sat.queries", "count"),
    ("sat.unknown", "count"),
    ("sat.encode_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_us", "1/us"),
    ("serve.rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.exchanges_per_job", "count"),
    ("serve.exec_ms.unconstrained", "ms"),
    ("serve.exec_ms.constrained", "ms"),
    ("serve.exec_ms.lint", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.steals", "count"),
    ("serve.local_pops", "count"),
    ("serve.pin_hit_ratio", "ratio"),
    ("serve.kernel_hit_ratio", "ratio"),
    ("serve.dedup_hits", "count"),
    ("serve.double_commits", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (generation calls, queries, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output differed from
    /// the reference.
    pub failed: u64,
    /// End-to-end metrics (tracing-off runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed by name before the result line.
    pub named: Vec<(String, f64, String)>,
    /// Host fingerprint and resolved parallelism, as a JSON object.
    pub host: String,
    /// Reference mismatches, one line each (printed to stderr).
    pub mismatches: Vec<String>,
}

impl Report {
    /// Record one workload-specific figure for the human-readable lines.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_string(), value, unit.to_string()));
    }

    /// Count a failed operation with its reason.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Print the human-readable lines and, last, the JSON result object.
    pub fn print(&self, args: &Args) {
        for m in self.mismatches.iter().take(20) {
            eprintln!("perfbench: reference mismatch: {m}");
        }
        println!("host {}", self.host);
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric error_rate = {error_rate} ratio");
        for (name, value, unit) in &self.named {
            println!("metric {name} = {value} {unit}");
        }
        let mut metrics: Vec<String> = Vec::new();
        if args.trace {
            for (name, unit) in PER_LAYER {
                let value = self.layers.get(name).copied().unwrap_or(0.0);
                println!("layer {name} = {value} {unit}");
                metrics.push(metric_json(name, value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = *self
                    .end_to_end
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                println!("metric {name} = {value} {unit}");
                metrics.push(metric_json(name, value, unit));
            }
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory of a process in MB (`VmHWM` from `/proc`), or
/// `None` when the kernel does not expose it.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set-up repetitions per run: at least `SETUP_MIN_REPS`, and more until
/// `SETUP_MIN_S` of wall time has passed, so that a slow spell of the host
/// shorter than that cannot move the median. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1001;

/// Set up repeatedly (see `SETUP_MIN_REPS`), handing each result but the
/// last to `discard` (untimed). Returns the last result and the median
/// set-up time.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        if let Some(prev) = last.take() {
            discard(prev)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_MIN_REPS is positive"), median(&times)))
}

/// A 64-bit mix of the workload seed with a stream tag (SplitMix64), so
/// each use of the seed draws an independent value.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
