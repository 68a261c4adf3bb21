//! The interpreter oracle never touches the compiled kernels: building a
//! `SerialSim` and running every entry point on a circuit no kernel was
//! compiled for must leave the global kernel-cache counters unchanged.
//!
//! The counters are process-global, so this is its own test binary with a
//! single test: no other test can compile or look up a kernel in between.

use fbt_fault::{all_transition_faults, BroadsideTest, FaultSimEngine, FaultSimOptions};
use fbt_fault::{SerialSim, TestGroup};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth;
use fbt_sim::kernel;

#[test]
fn serial_oracle_builds_and_looks_up_no_kernel() {
    let net = synth::generate(&synth::find("s298").expect("catalog circuit"));
    let faults = all_transition_faults(&net);
    let mut rng = Rng::new(0x0AC1E);
    let tests: Vec<BroadsideTest> = (0..70)
        .map(|_| {
            BroadsideTest::new(
                (0..net.num_dffs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
            )
        })
        .collect();
    let before = kernel::cache_stats();

    let mut oracle = SerialSim::new(&net);
    let groups = [TestGroup::new(&tests[..40]), TestGroup::new(&tests[40..])];
    let baseline = vec![false; faults.len()];
    let outs = oracle.simulate_groups(&groups, &faults, &baseline, &FaultSimOptions::new());
    assert!(outs.iter().any(|o| o.newly_detected > 0));
    let hits = faults
        .iter()
        .filter(|f| oracle.detects(&tests[0], f))
        .count();
    assert!(hits > 0);

    let used = kernel::cache_stats().since(&before);
    assert_eq!((used.builds, used.hits), (0, 0), "the oracle used a kernel");
}
