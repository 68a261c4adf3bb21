//! Self-contained benches for the performance kernels: packed logic
//! simulation, the compiled kernel and the multi-lane sequential
//! simulator, the packed-parallel fault-simulation engine, the TPG
//! hardware model and K-critical-path STA. These correspond to the
//! per-sub-procedure run-time comparisons of Tables 2.5 / 2.6 at kernel
//! granularity.
//!
//! Criterion is deliberately not used: the build environment is offline, so
//! the harness is a plain `fn main()` with `std::time::Instant` timing
//! (`harness = false` in the manifest). Run with
//! `cargo bench -p fbt-bench --bench kernels`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fbt_bist::{cube, Tpg, TpgSpec};
use fbt_fault::{
    all_transition_faults, BroadsideTest, FaultSimEngine, FaultSimOptions, PackedParallelSim,
    TestSet,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth;
use fbt_sim::kernel::Kernel;
use fbt_sim::lanes::LaneSeqSim;
use fbt_sim::{comb, Bits};
use fbt_timing::sta::{k_critical_paths, Unconstrained};
use fbt_timing::DelayLibrary;

/// Time `f` adaptively: warm up once, then repeat until ~0.5 s has elapsed
/// and report the mean per-iteration time.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    let budget = Duration::from_millis(500);
    let mut iters = 0u32;
    let start = Instant::now();
    while start.elapsed() < budget {
        black_box(f());
        iters += 1;
    }
    let mean = start.elapsed() / iters.max(1);
    println!("{name:<44} {mean:>12.2?}/iter  ({iters} iters)");
    mean
}

fn net_1196() -> fbt_netlist::Netlist {
    synth::generate(&synth::find("s1196").unwrap())
}

fn random_tests(net: &fbt_netlist::Netlist, n: usize, seed: u64) -> Vec<BroadsideTest> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            BroadsideTest::new(
                (0..net.num_dffs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
            )
        })
        .collect()
}

fn bench_packed_eval() {
    let net = net_1196();
    let mut vals = vec![0u64; net.num_nodes()];
    let mut rng = Rng::new(1);
    for v in vals.iter_mut() {
        *v = rng.next_u64();
    }
    bench("packed_eval_s1196_64pat", || {
        comb::eval_packed(&net, black_box(&mut vals));
    });
}

/// The headline comparison: the packed-parallel engine one pattern per
/// word, 64 patterns per word, and at several thread counts, without fault
/// dropping so every run does the same amount of work. Reports throughput
/// in pattern·fault evaluations/s.
fn bench_fault_sim_engines() {
    let net = net_1196();
    let faults = all_transition_faults(&net);
    let tests = random_tests(&net, 256, 2);
    let work = (tests.len() * faults.len()) as f64;
    let opts = FaultSimOptions::new().fault_dropping(false).threads(1);

    // Baseline: the same one-thread engine driven one test at a time, so
    // each 64-lane word carries a single pattern. This isolates the packing
    // factor itself (identical propagation, 1/64th lane occupancy).
    let single = &tests[..64];
    let work_single = (single.len() * faults.len()) as f64;
    let mut packed1 = PackedParallelSim::new(&net);
    let t1 = bench("fault_sim_s1196_64tests/packed_t1_1pat_word", || {
        let mut detected = vec![false; faults.len()];
        for t in single {
            black_box(packed1.simulate(
                TestSet::Broadside(std::slice::from_ref(t)),
                &faults,
                &mut detected,
                &opts,
            ));
        }
    });
    let unpacked = work_single / t1.as_secs_f64();
    println!(
        "{:<44} {:>10.1} Mpat·fault/s",
        "  1-pattern/word throughput",
        unpacked / 1e6
    );

    let mut packed = PackedParallelSim::new(&net);
    let t = bench("fault_sim_s1196_256tests/packed_t1", || {
        let mut detected = vec![false; faults.len()];
        black_box(packed.simulate(TestSet::Broadside(&tests), &faults, &mut detected, &opts))
    });
    let base = t.as_secs_f64();
    println!(
        "{:<44} {:>10.1} Mpat·fault/s  ({:.1}x vs 1-pattern/word)",
        "  packed_t1 throughput",
        work / base / 1e6,
        work / base / unpacked
    );

    for threads in [2usize, 4, 8] {
        let opts = opts.clone().threads(threads);
        let mut packed = PackedParallelSim::new(&net);
        let t = bench(
            &format!("fault_sim_s1196_256tests/packed_t{threads}"),
            || {
                let mut detected = vec![false; faults.len()];
                black_box(packed.simulate(
                    TestSet::Broadside(&tests),
                    &faults,
                    &mut detected,
                    &opts,
                ))
            },
        );
        println!(
            "{:<44} {:>10.1} Mpat·fault/s  ({:.2}x vs packed_t1)",
            format!("  packed_t{threads} throughput"),
            work / t.as_secs_f64() / 1e6,
            base / t.as_secs_f64()
        );
    }
}

/// The Chapter-4 seed search's per-cycle cost on the `bist_large` target
/// size (s35932 at the Default-scale divisor 8): one compiled evaluation,
/// and one 8-lane `LaneSeqSim` step (evaluation, toggle counting, state
/// capture).
fn bench_lane_sim() {
    let net = synth::generate(&synth::find("s35932").unwrap().scaled(8));
    let kernel = Kernel::for_netlist(&net);
    let mut rng = Rng::new(3);
    let mut vals: Vec<u64> = (0..net.num_nodes()).map(|_| rng.next_u64()).collect();
    bench("eval2_s35932@8", || kernel.eval2(black_box(&mut vals)));

    let lanes = 8;
    let cycles = 64;
    let pis: Vec<Vec<Bits>> = (0..cycles)
        .map(|_| {
            (0..lanes)
                .map(|_| (0..net.num_inputs()).map(|_| rng.bit()).collect())
                .collect()
        })
        .collect();
    let mut sim = LaneSeqSim::new(&net, lanes);
    sim.broadcast_state(&Bits::zeros(net.num_dffs()));
    let mut c = 0;
    bench("lanes_step_s35932@8_8lanes", || {
        sim.step(black_box(&pis[c % cycles]), None);
        c += 1;
    });
}

fn bench_tpg() {
    let net = net_1196();
    let spec = TpgSpec::standard(cube::input_cube(&net));
    bench("tpg_s1196_1000cycles", || {
        let mut tpg = Tpg::new(spec.clone(), 0xACE1);
        black_box(tpg.sequence(1000))
    });
}

fn bench_sta() {
    let net = synth::generate(&synth::find("s953").unwrap());
    let lib = DelayLibrary::generic_018um();
    bench("k_critical_paths_s953_k200", || {
        black_box(k_critical_paths(&net, &lib, 200, &Unconstrained, 1_000_000))
    });
}

fn main() {
    println!(
        "host parallelism: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    bench_packed_eval();
    bench_lane_sim();
    bench_fault_sim_engines();
    bench_tpg();
    bench_sta();
}
