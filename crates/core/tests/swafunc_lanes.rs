//! `SWAfunc` on lanes against the scalar simulator.
//!
//! `driver::swafunc` runs the functional sequences as lanes of one
//! `LaneSeqSim` pass per 64 sequences. The peak it returns must equal, bit
//! for bit, the fold of the scalar `simulate_sequence(..).peak_swa()` over
//! the same sequences — for both driving blocks on small catalog circuits
//! and for the two largest Default-scale Chapter-4 targets.

use fbt_core::driver::{functional_sequences, swafunc, DrivingBlock};
use fbt_core::FunctionalBistConfig;
use fbt_netlist::{s27, synth, Netlist};
use fbt_sim::seq::simulate_sequence;
use fbt_sim::Bits;

fn scalar_swafunc(target: &Netlist, driver: &DrivingBlock, cfg: &FunctionalBistConfig) -> f64 {
    let zero = Bits::zeros(target.num_dffs());
    functional_sequences(target, driver, cfg)
        .iter()
        .map(|seq| simulate_sequence(target, &zero, seq).peak_swa())
        .fold(0.0f64, f64::max)
}

fn assert_same(target: &Netlist, driver: &DrivingBlock, cfg: &FunctionalBistConfig) {
    let lanes = swafunc(target, driver, cfg);
    let scalar = scalar_swafunc(target, driver, cfg);
    assert!(
        lanes > 0.0,
        "{} ({}): no activity",
        target.name(),
        driver.label()
    );
    assert_eq!(
        lanes.to_bits(),
        scalar.to_bits(),
        "{} ({}): lanes {lanes} vs scalar {scalar}",
        target.name(),
        driver.label()
    );
}

#[test]
fn swafunc_on_lanes_equals_scalar_fold_for_both_drivers() {
    let s298 = synth::generate(&synth::find("s298").unwrap());
    let cfg = FunctionalBistConfig::smoke();
    // s298's 6 POs drive s27's 4 PIs and its own 3.
    for target in [s27(), s298.clone()] {
        assert_same(&target, &DrivingBlock::Buffers, &cfg);
        assert_same(&target, &DrivingBlock::Circuit(s298.clone()), &cfg);
    }
    // More sequences than one 64-lane chunk.
    let many = FunctionalBistConfig {
        func_sequences: 70,
        func_len: 40,
        ..FunctionalBistConfig::smoke()
    };
    assert_same(&s298, &DrivingBlock::Buffers, &many);
}

#[test]
fn swafunc_on_lanes_equals_scalar_fold_on_large_targets() {
    let cfg = FunctionalBistConfig::scaled();
    for name in ["s35932", "s38584"] {
        let spec = synth::find(name).unwrap().scaled(8);
        assert_same(&synth::generate(&spec), &DrivingBlock::Buffers, &cfg);
    }
}
