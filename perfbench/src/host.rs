//! Host fingerprint recorded with every result.

use fbt_netlist::json::ObjWriter;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint as a JSON object: CPU model, `nproc`, the toolchain and
/// commit the launcher recorded (`PERFBENCH_RUSTC`, `PERFBENCH_COMMIT`),
/// and the resolved thread counts. `threads_capped` flags a request for
/// more threads than the host has.
pub fn fingerprint(workload: &str, seed: u64, threads: &[(&str, usize, usize)]) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut o = ObjWriter::new();
    o.str("workload", workload)
        .num("seed", seed)
        .str("cpu", &cpu_model())
        .num("nproc", n)
        .str("rustc", &env("PERFBENCH_RUSTC"))
        .str("commit", &env("PERFBENCH_COMMIT"));
    let mut capped = false;
    for &(name, requested, resolved) in threads {
        o.num(&format!("{name}_requested"), requested)
            .num(&format!("{name}_resolved"), resolved);
        capped |= requested > n;
    }
    o.bool("threads_capped", capped);
    o.finish()
}
