//! Pins the compiled production engine (`PackedParallelSim`) to the
//! gate-walking interpreter oracle (`SerialSim`): kernels must build for
//! every catalog circuit the CI lint step covers, and every outcome field
//! (detections, counts, detection matrix, completion) must be
//! bit-identical between the two engines for every batch shape and option
//! set.

use fbt_fault::engine::{FaultSimEngine, FaultSimOptions, PackedParallelSim, SerialSim, TestGroup};
use fbt_fault::{all_transition_faults, BroadsideTest};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::{self, CircuitSpec};
use fbt_netlist::{s27, Netlist};
use fbt_sim::kernel::Kernel;

/// The 18 catalog circuits of the CI golden steps: s27 plus the small
/// ISCAS89 set.
const CI_CIRCUITS: [&str; 17] = [
    "s298", "s344", "s349", "s382", "s386", "s444", "s510", "s526", "s641", "s713", "s820", "s832",
    "s953", "s1196", "s1238", "s1488", "s1494",
];

fn random_tests(net: &Netlist, n: usize, rng: &mut Rng) -> Vec<BroadsideTest> {
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

#[test]
fn kernels_build_for_all_ci_catalog_circuits() {
    let mut nets = vec![s27()];
    for name in CI_CIRCUITS {
        let spec = synth::find(name).unwrap_or_else(|| panic!("{name} not in catalog"));
        nets.push(synth::generate(&spec));
    }
    assert_eq!(nets.len(), 18);
    for net in &nets {
        let kernel = Kernel::for_netlist(net);
        assert_eq!(kernel.num_nodes(), net.num_nodes(), "{}", net.name());
        assert_eq!(kernel.num_ops(), net.eval_order().len(), "{}", net.name());
        // Exercise a full packed evaluation so a malformed program would
        // index out of bounds here rather than in a consumer.
        let mut vals = vec![0u64; net.num_nodes()];
        for &id in net.inputs().iter().chain(net.dffs()) {
            vals[id.index()] = 0x5555_5555_5555_5555;
        }
        kernel.eval2(&mut vals);
    }
}

#[test]
fn compiled_matches_interpreted_on_s27_grouped_batches() {
    let net = s27();
    let faults = all_transition_faults(&net);
    let mut rng = Rng::new(0xC01D);
    let tests = random_tests(&net, 96, &mut rng);
    let baseline = vec![false; faults.len()];
    for batch in [1usize, 4, 16] {
        // Split the test list into `batch` groups of equal-ish size.
        let per = tests.len().div_ceil(batch);
        let groups: Vec<TestGroup<'_>> = tests.chunks(per).map(TestGroup::new).collect();
        for opts in [
            FaultSimOptions::new(),
            FaultSimOptions::new().until_first_accept(true),
            FaultSimOptions::new().n_detect(3).detection_matrix(true),
        ] {
            let compiled =
                PackedParallelSim::new(&net).simulate_groups(&groups, &faults, &baseline, &opts);
            let interpreted =
                SerialSim::new(&net).simulate_groups(&groups, &faults, &baseline, &opts);
            assert_eq!(compiled, interpreted, "batch {batch}");
        }
    }
}

#[test]
fn compiled_matches_interpreted_on_iscas_and_random_netlists() {
    let mut rng = Rng::new(0xFA57);
    let mut nets: Vec<Netlist> = ["s298", "s386", "s526", "s832"]
        .iter()
        .map(|n| synth::generate(&synth::find(n).unwrap()))
        .collect();
    for _ in 0..4 {
        let pi = 2 + rng.below(7);
        let po = 1 + rng.below(4);
        let ff = 1 + rng.below(10);
        let gates = 30 + rng.below(220);
        let mut spec = CircuitSpec::new("ck", pi, po, ff, gates);
        spec.seed = rng.next_u64();
        nets.push(synth::generate(&spec));
    }
    for net in &nets {
        let faults = all_transition_faults(net);
        let tests = random_tests(net, 70, &mut rng);
        let opts = FaultSimOptions::new().n_detect(2);
        let mut det_c = vec![false; faults.len()];
        let out_c =
            PackedParallelSim::new(net).simulate((&tests[..]).into(), &faults, &mut det_c, &opts);
        let mut det_i = vec![false; faults.len()];
        let out_i = SerialSim::new(net).simulate((&tests[..]).into(), &faults, &mut det_i, &opts);
        assert_eq!(out_c, out_i, "{}", net.name());
        assert_eq!(det_c, det_i, "{}", net.name());
    }
}

#[test]
fn compiled_golden_two_pattern_holding_path() {
    // The state-holding DFT packs explicit second states into the same
    // words; the compiled good machine must honour the s2 overlay mask.
    use fbt_fault::TwoPatternTest;
    let net = s27();
    let faults = all_transition_faults(&net);
    let mut rng = Rng::new(0x7A11);
    let broadside = random_tests(&net, 40, &mut rng);
    let two: Vec<TwoPatternTest> = broadside
        .iter()
        .map(|t| {
            let mut tp = TwoPatternTest::from_broadside(&net, t);
            // Perturb some second states so the explicit path is actually
            // exercised (pure natural second states would mask a bug).
            if rng.bit() {
                let flip = rng.below(net.num_dffs());
                let v = tp.s2.get(flip);
                tp.s2.set(flip, !v);
            }
            tp
        })
        .collect();
    let mut det_c = vec![false; faults.len()];
    let out_c = PackedParallelSim::new(&net).simulate(
        (&two[..]).into(),
        &faults,
        &mut det_c,
        &FaultSimOptions::new(),
    );
    let mut det_i = vec![false; faults.len()];
    let out_i = SerialSim::new(&net).simulate(
        (&two[..]).into(),
        &faults,
        &mut det_i,
        &FaultSimOptions::new(),
    );
    assert_eq!(out_c, out_i);
    assert_eq!(det_c, det_i);
}

#[test]
fn one_test_per_bit_uses_partial_lane_masks() {
    // 1, 63, 64 and 65 tests cover the partial-word lane masks on the
    // compiled path (a kernel bug that reads beyond the lane mask shows up
    // only here).
    let net = s27();
    let faults = all_transition_faults(&net);
    let mut rng = Rng::new(0x1A5E);
    for n in [1usize, 63, 64, 65] {
        let tests = random_tests(&net, n, &mut rng);
        let mut det_c = vec![false; faults.len()];
        let n_c = PackedParallelSim::new(&net)
            .simulate(
                (&tests[..]).into(),
                &faults,
                &mut det_c,
                &FaultSimOptions::new(),
            )
            .newly_detected;
        let mut det_i = vec![false; faults.len()];
        let n_i = SerialSim::new(&net)
            .simulate(
                (&tests[..]).into(),
                &faults,
                &mut det_i,
                &FaultSimOptions::new(),
            )
            .newly_detected;
        assert_eq!((n_c, det_c), (n_i, det_i), "{n} tests");
    }
}
