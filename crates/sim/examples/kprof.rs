//! Quick hotspot probe on the full-size s35932: times compiled against
//! interpreted evaluation and the multi-lane sequential pass against the
//! scalar simulator, asserting each compiled result against its oracle.
//! Not part of the benchmark suite.
//!
//! Run with `cargo run --release -p fbt-sim --example kprof`.
use std::time::Instant;

use fbt_netlist::rng::Rng;
use fbt_netlist::synth;
use fbt_sim::comb;
use fbt_sim::kernel::Kernel;
use fbt_sim::lanes::{extract_lane, LaneSeqSim};
use fbt_sim::seq::SeqSim;
use fbt_sim::Bits;

fn main() {
    let spec = synth::find("s35932").expect("catalog circuit").clone();
    let net = synth::generate(&spec);
    let n = net.num_nodes();
    eprintln!("s35932: {n} nodes, {} gates", net.num_gates());
    let kernel = Kernel::for_netlist(&net);
    eprintln!("kernel: {} ops for {} nodes", kernel.num_ops(), n);

    let mut vals = vec![0u64; n];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    }
    let rounds = 2000;

    let mut a = vals.clone();
    let t = Instant::now();
    for _ in 0..rounds {
        comb::eval_packed(&net, &mut a);
    }
    let interp = t.elapsed();
    eprintln!("eval_packed : {:?} ({:?}/round)", interp, interp / rounds);

    let mut b = vals.clone();
    let t = Instant::now();
    for _ in 0..rounds {
        kernel.eval2(&mut b);
    }
    let comp = t.elapsed();
    eprintln!("eval2       : {:?} ({:?}/round)", comp, comp / rounds);
    assert_eq!(a, b);
    eprintln!("speedup: {:.2}x", interp.as_secs_f64() / comp.as_secs_f64());

    // The lane pass: 8 lanes (the seed search's batch) from a random state,
    // pinned to one scalar SeqSim per lane for the first cycles.
    let lanes = 8;
    let cycles = 400;
    let checked = 4;
    let mut rng = Rng::new(0x35932);
    let mut random_bits = |len: usize| -> Bits { (0..len).map(|_| rng.bit()).collect() };
    let start = random_bits(net.num_dffs());
    // Cycle-major: `pis[c][l]` drives lane `l` in cycle `c`.
    let pis: Vec<Vec<Bits>> = (0..cycles)
        .map(|_| (0..lanes).map(|_| random_bits(net.num_inputs())).collect())
        .collect();
    let mut sim = LaneSeqSim::new(&net, lanes);
    sim.broadcast_state(&start);
    let mut scalars: Vec<SeqSim<'_>> = (0..lanes).map(|_| SeqSim::new(&net, &start)).collect();
    for (c, cycle) in pis.iter().enumerate().take(checked) {
        sim.step(cycle, None);
        for (l, scalar) in scalars.iter_mut().enumerate() {
            let r = scalar.step(&cycle[l]);
            assert_eq!(sim.lane_state(l), r.next_state, "cycle {c} lane {l}");
            assert_eq!(extract_lane(sim.output_words(), l), r.outputs);
            assert_eq!(sim.swa().map(|s| s[l]), r.switching_activity);
        }
    }
    eprintln!("lanes       : {lanes} lanes == SeqSim for {checked} cycles");
    let t = Instant::now();
    for cycle in &pis[checked..] {
        sim.step(cycle, None);
    }
    let steps = (cycles - checked) as u32;
    let lane = t.elapsed();
    eprintln!(
        "lanes step  : {:?} ({:?}/step, {:.0} ns/lane-cycle)",
        lane,
        lane / steps,
        lane.as_nanos() as f64 / (steps as usize * lanes) as f64
    );
}
