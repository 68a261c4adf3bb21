//! Differential tests: the packed-parallel PPSFP engine must be
//! bit-identical to the serial oracle on every circuit, every thread count
//! and every simulation mode. The engine runs the compiled kernel and the
//! oracle the gate-walking interpreter, and they also differ in chunk
//! driving and threading, so agreement here is the acceptance gate for
//! the parallel engine.

use fbt_fault::{
    all_transition_faults, collapse, BroadsideTest, FaultSimEngine, FaultSimOptions,
    PackedParallelSim, SerialSim, TestSet, TransitionFault, TwoPatternTest,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::CircuitSpec;
use fbt_netlist::{s27, synth, Netlist};

/// Thread counts exercised for the parallel engine. The host may have any
/// number of cores; forcing explicit counts (including more threads than
/// cores, and odd shard splits) exercises the sharding logic regardless.
const THREADS: [usize; 4] = [1, 2, 3, 4];

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

/// The circuit sweep: s27 plus a spread of generated circuits (varying
/// size, reconvergence and sequential depth from the seed).
fn circuits() -> Vec<Netlist> {
    let mut nets = vec![s27()];
    let mut rng = Rng::new(0xD1FF);
    for _ in 0..8 {
        let pi = 2 + (rng.next_u64() % 5) as usize;
        let po = 1 + (rng.next_u64() % 4) as usize;
        let ff = 2 + (rng.next_u64() % 8) as usize;
        let gates = 20 + (rng.next_u64() % 120) as usize;
        let mut spec = CircuitSpec::new("diff", pi, po, ff, gates);
        spec.seed = rng.next_u64();
        nets.push(synth::generate(&spec));
    }
    nets
}

fn faults_for(net: &Netlist) -> Vec<TransitionFault> {
    collapse(net, &all_transition_faults(net))
}

/// Plain fault-dropping runs agree across engines and thread counts, both
/// from clean flags and from partially pre-detected flags.
#[test]
fn plain_run_is_bit_identical() {
    let mut rng = Rng::new(1);
    for net in circuits() {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 150, &mut rng);

        let mut serial = SerialSim::new(&net);
        let mut det_ref = vec![false; faults.len()];
        let newly_ref = serial
            .simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut det_ref,
                &FaultSimOptions::new(),
            )
            .newly_detected;

        // Pre-set some flags to exercise dropping from a non-clean start.
        let preset: Vec<bool> = (0..faults.len()).map(|_| rng.chance(1, 4)).collect();
        let mut det_preset_ref = preset.clone();
        let newly_preset_ref = serial
            .simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut det_preset_ref,
                &FaultSimOptions::new(),
            )
            .newly_detected;

        for threads in THREADS {
            let opts = FaultSimOptions::new().threads(threads);
            let mut packed = PackedParallelSim::new(&net);

            let mut det = vec![false; faults.len()];
            let out = packed.simulate(TestSet::Broadside(&tests), &faults, &mut det, &opts);
            assert_eq!(det, det_ref, "{} threads={threads}", net.name());
            assert_eq!(
                out.newly_detected,
                newly_ref,
                "{} threads={threads}",
                net.name()
            );

            let mut det = preset.clone();
            let out = packed.simulate(TestSet::Broadside(&tests), &faults, &mut det, &opts);
            assert_eq!(
                det,
                det_preset_ref,
                "preset {} threads={threads}",
                net.name()
            );
            assert_eq!(out.newly_detected, newly_preset_ref);
        }
    }
}

/// Two-pattern simulation with explicit (held, possibly unreachable) second
/// states agrees across engines and thread counts.
#[test]
fn two_pattern_run_is_bit_identical() {
    let mut rng = Rng::new(2);
    for net in circuits() {
        let faults = faults_for(&net);
        let base = random_tests(&net, 100, &mut rng);
        let tests: Vec<TwoPatternTest> = base
            .iter()
            .map(|t| {
                let mut tp = TwoPatternTest::from_broadside(&net, t);
                // Flip a random flip-flop in the second state half the time
                // to exercise genuinely unreachable states.
                if rng.bit() {
                    let k = (rng.next_u64() as usize) % tp.s2.len();
                    let v = tp.s2.get(k);
                    tp.s2.set(k, !v);
                }
                tp
            })
            .collect();

        let mut serial = SerialSim::new(&net);
        let mut det_ref = vec![false; faults.len()];
        serial.simulate(
            TestSet::TwoPattern(&tests),
            &faults,
            &mut det_ref,
            &FaultSimOptions::new(),
        );

        for threads in THREADS {
            let opts = FaultSimOptions::new().threads(threads);
            let mut packed = PackedParallelSim::new(&net);
            let mut det = vec![false; faults.len()];
            packed.simulate(TestSet::TwoPattern(&tests), &faults, &mut det, &opts);
            assert_eq!(det, det_ref, "{} threads={threads}", net.name());
        }
    }
}

/// N-detect profiles agree exactly (counts, not just final flags) across
/// engines and thread counts, for several caps.
#[test]
fn n_detect_profiles_are_identical() {
    let mut rng = Rng::new(3);
    for net in circuits().into_iter().take(5) {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 200, &mut rng);
        for cap in [1usize, 2, 5, 16] {
            let mut serial = SerialSim::new(&net);
            let counts_ref = serial.n_detect_profile(&tests, &faults, cap);
            for threads in THREADS {
                let mut packed = PackedParallelSim::new(&net);
                let mut sat = vec![false; faults.len()];
                let counts = packed
                    .simulate(
                        TestSet::Broadside(&tests),
                        &faults,
                        &mut sat,
                        &FaultSimOptions::new().n_detect(cap.max(2)).threads(threads),
                    )
                    .counts
                    .expect("counts requested");
                let counts: Vec<usize> = counts.into_iter().map(|c| c.min(cap)).collect();
                assert_eq!(
                    counts,
                    counts_ref,
                    "{} cap={cap} threads={threads}",
                    net.name()
                );
            }
        }
    }
}

/// Detection matrices (no fault dropping) agree entry for entry.
#[test]
fn detection_matrices_are_identical() {
    let mut rng = Rng::new(4);
    for net in circuits().into_iter().take(5) {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 130, &mut rng);
        let mut serial = SerialSim::new(&net);
        let m_ref = serial.detection_matrix(&tests, &faults);
        for threads in THREADS {
            let mut packed = PackedParallelSim::new(&net);
            let mut det = vec![false; faults.len()];
            let m = packed
                .simulate(
                    TestSet::Broadside(&tests),
                    &faults,
                    &mut det,
                    &FaultSimOptions::new()
                        .detection_matrix(true)
                        .threads(threads),
                )
                .matrix
                .expect("matrix requested");
            assert_eq!(m, m_ref, "{} threads={threads}", net.name());
        }
    }
}

/// Repeated calls on one engine instance (reused worker state) stay
/// identical to fresh instances.
#[test]
fn warm_engine_state_does_not_leak_between_calls() {
    let net = s27();
    let faults = faults_for(&net);
    let mut rng = Rng::new(6);
    let mut warm = PackedParallelSim::new(&net);
    for round in 0..5 {
        let tests = random_tests(&net, 90, &mut rng);
        let mut fresh = PackedParallelSim::new(&net);
        let mut det_warm = vec![false; faults.len()];
        let mut det_fresh = vec![false; faults.len()];
        let opts = FaultSimOptions::new();
        warm.simulate(TestSet::Broadside(&tests), &faults, &mut det_warm, &opts);
        fresh.simulate(TestSet::Broadside(&tests), &faults, &mut det_fresh, &opts);
        assert_eq!(det_warm, det_fresh, "round {round}");
    }
}
