//! Hotspot probe: times the compiled `PackedParallelSim` against the
//! interpreter oracle `SerialSim` on s35932, plus the multi-lane
//! sequential simulator.
//!
//! Run with `cargo run --release -p fbt-fault --example fprof`.

use std::time::Instant;

use fbt_fault::engine::{FaultSimEngine, FaultSimOptions, PackedParallelSim, SerialSim, TestSet};
use fbt_fault::{all_transition_faults, BroadsideTest, TransitionFault};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth;
use fbt_sim::lanes::LaneSeqSim;
use fbt_sim::Bits;

fn time_fsim<E: FaultSimEngine>(
    label: &str,
    mut engine: E,
    tests: &[BroadsideTest],
    faults: &[TransitionFault],
    opts: &FaultSimOptions,
) {
    let mut det = vec![false; faults.len()];
    let t = Instant::now();
    engine.simulate(TestSet::Broadside(tests), faults, &mut det, opts);
    let detected = det.iter().filter(|&&d| d).count();
    eprintln!("{label:>28}: {:?} ({detected} detected)", t.elapsed());
}

fn main() {
    let spec = synth::find("s35932").expect("catalog circuit").clone();
    let net = synth::generate(&spec);
    let faults = all_transition_faults(&net);
    eprintln!("s35932: {} nodes, {} faults", net.num_nodes(), faults.len());

    let mut rng = Rng::new(7);
    let tests: Vec<BroadsideTest> = (0..256)
        .map(|_| {
            let scan: Bits = (0..net.num_dffs()).map(|_| rng.bit()).collect();
            let v1: Bits = (0..net.num_inputs()).map(|_| rng.bit()).collect();
            let v2: Bits = (0..net.num_inputs()).map(|_| rng.bit()).collect();
            BroadsideTest::new(scan, v1, v2)
        })
        .collect();
    let opts = FaultSimOptions::new();

    time_fsim(
        "packed compiled (cold)",
        PackedParallelSim::new(&net),
        &tests,
        &faults,
        &opts,
    );
    time_fsim(
        "SerialSim (oracle)",
        SerialSim::new(&net),
        &tests,
        &faults,
        &opts,
    );
    // Fresh engine, warm cache: the kernel and its propagation tables are
    // already in the global kernel cache, so this shows steady-state cost.
    time_fsim(
        "packed compiled (warm)",
        PackedParallelSim::new(&net),
        &tests,
        &faults,
        &opts,
    );

    let mut sim = LaneSeqSim::new(&net, 64);
    sim.broadcast_state(&Bits::zeros(net.num_dffs()));
    let pis: Vec<Bits> = (0..64)
        .map(|_| (0..net.num_inputs()).map(|_| rng.bit()).collect())
        .collect();
    let t = Instant::now();
    for _ in 0..600 {
        sim.step_with(|l| &pis[l], None);
    }
    eprintln!("{:>28}: {:?}", "LaneSeqSim 600 cycles", t.elapsed());
}
