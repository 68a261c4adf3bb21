//! `perfbench` — the repository benchmark.
//!
//! One invocation runs one workload for a fixed measuring time, checks every
//! output against a reference, and prints one JSON result object as the last
//! line of standard output:
//!
//! ```text
//! perfbench --workload <bist_large|sat_catalog|serve_mixed> --seed N \
//!           --seconds S --trace <0|1> [--corrupt-reference] [--write-reference]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, measured by spans the
//! benchmark records around its own calls into each crate's public API.
//! Spans are written as JSON lines to `.bench_out/trace-<workload>-<seed>.jsonl`.
//! See `README.md` next to this crate for the metric map.

mod bist;
mod host;
mod metrics;
mod reference;
mod sat;
mod serve;
mod trace;

use std::process::ExitCode;

use metrics::Report;

/// Traces and the server's port file go here, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt_reference: bool,
    pub write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_reference: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--corrupt-reference" => args.corrupt_reference = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let result: Result<Report, String> = match args.workload.as_str() {
        "bist_large" => bist::run(&args),
        "sat_catalog" => sat::run(&args),
        "serve_mixed" => serve::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (expected bist_large, sat_catalog or serve_mixed)"
        )),
    };
    match result {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
