//! Differential suite for the deterministic speculative-batch seed search.
//!
//! The reference implementations below are verbatim ports of the serial
//! Chapter-4 loops as they existed before speculation was introduced (one
//! seed drawn and evaluated per iteration, no batching); the constrained
//! loop takes its admissibility rule as an input. The suite asserts that
//! `generate_unconstrained` / `generate_constrained` /
//! `generate_constrained_from` (switching-activity rule) and
//! `generate_constrained_with_library` (signal-transition-pattern rule)
//! produce byte-identical outcomes for the same `master_seed` across
//! `threads ∈ {1, 2, 8}` and `batch ∈ {1, 4, 16}`, on s27 plus a synthesized
//! circuit — i.e. the speculative search is bit-identical to the serial loop
//! and independent of thread count. Every run also issues at most one
//! fault-simulation call per candidate group.

use fbt_bist::{cube, Tpg, TpgSpec};
use fbt_core::driver::{functional_sequences, DrivingBlock};
use fbt_core::engine::StateOverlay;
use fbt_core::extract::functional_tests;
use fbt_core::policy::AdmissibilityPolicy;
use fbt_core::stp::StpLibrary;
use fbt_core::{
    generate_constrained, generate_constrained_from, generate_constrained_with_library,
    generate_unconstrained, ConstrainedOutcome, FunctionalBistConfig, GenerationStats,
    SearchOptions,
};
use fbt_fault::{
    all_transition_faults, collapse, FaultSimEngine, FaultSimOptions, PackedParallelSim, TestSet,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::{s27, synth, Netlist};
use fbt_sim::seq::simulate_sequence;
use fbt_sim::Bits;

const BATCHES: [usize; 3] = [1, 4, 16];
const THREADS: [usize; 3] = [1, 2, 8];

fn circuits() -> Vec<Netlist> {
    vec![
        s27(),
        synth::generate(&synth::find("s386").unwrap().scaled(2)),
    ]
}

/// The pre-speculation serial unconstrained loop (paper §4.3 / \[73\]).
fn reference_unconstrained(
    net: &Netlist,
    cfg: &FunctionalBistConfig,
) -> (Vec<u64>, Vec<bool>, usize, f64) {
    let spec = TpgSpec {
        lfsr_width: cfg.lfsr_width,
        m: cfg.m,
        cube: cube::input_cube(net),
    };
    let faults = collapse(net, &all_transition_faults(net));
    let mut detected = vec![false; faults.len()];
    let mut fsim = PackedParallelSim::new(net);
    let mut rng = Rng::new(cfg.master_seed);
    let zero = Bits::zeros(net.num_dffs());

    let mut kept: Vec<u64> = Vec::new();
    let mut useless = 0usize;
    let mut tried = 0usize;
    while useless < cfg.useless_seed_limit && tried < cfg.max_seeds {
        tried += 1;
        let seed = rng.next_u64();
        let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
        let traj = simulate_sequence(net, &zero, &pis);
        let tests = functional_tests(&pis, &traj.states);
        let newly = fsim
            .simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut detected,
                &FaultSimOptions::new(),
            )
            .newly_detected;
        if newly > 0 {
            kept.push(seed);
            useless = 0;
        } else {
            useless += 1;
        }
    }

    let mut final_detected = vec![false; faults.len()];
    let mut final_seeds: Vec<u64> = Vec::new();
    let mut tests_applied = 0usize;
    let mut peak_swa = 0.0f64;
    for &seed in kept.iter().rev() {
        let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
        let traj = simulate_sequence(net, &zero, &pis);
        let tests = functional_tests(&pis, &traj.states);
        let newly = fsim
            .simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut final_detected,
                &FaultSimOptions::new(),
            )
            .newly_detected;
        if newly > 0 {
            final_seeds.push(seed);
            tests_applied += tests.len();
            peak_swa = peak_swa.max(traj.peak_swa());
        }
    }
    final_seeds.reverse();
    (final_seeds, final_detected, tests_applied, peak_swa)
}

/// The serial switching-activity admissibility rule (paper §4.4).
fn admissible_prefix(net: &Netlist, bound: f64, start: &Bits, pis: &[Bits]) -> usize {
    let traj = simulate_sequence(net, start, pis);
    match traj
        .swa
        .iter()
        .position(|s| s.is_some_and(|v| v > bound + 1e-12))
    {
        Some(v) => (v.saturating_sub(1)) & !1usize,
        None => pis.len() & !1usize,
    }
}

/// One reference segment: (seed, len). A sequence is a Vec of segments.
type RefSeqs = Vec<(Bits, Vec<(u64, usize)>)>;

/// The pre-speculation serial constrained loop (Fig. 4.9), truncating each
/// candidate with `admissible(start, pis)`.
fn reference_constrained(
    net: &Netlist,
    admissible: impl Fn(&Bits, &[Bits]) -> usize,
    cfg: &FunctionalBistConfig,
    initial_states: &[Bits],
) -> (RefSeqs, Vec<bool>, usize, f64) {
    let spec = TpgSpec {
        lfsr_width: cfg.lfsr_width,
        m: cfg.m,
        cube: cube::input_cube(net),
    };
    let faults = collapse(net, &all_transition_faults(net));
    let mut detected = vec![false; faults.len()];
    let mut fsim = PackedParallelSim::new(net);
    let mut rng = Rng::new(cfg.master_seed);

    let mut sequences: RefSeqs = Vec::new();
    let mut tests_applied = 0usize;
    let mut peak_swa = 0.0f64;
    let mut attempt_failures = 0usize;
    let mut seeds_tried = 0usize;
    let mut attempts = 0usize;

    while attempt_failures < cfg.attempt_failure_limit && seeds_tried < cfg.max_seeds {
        let init = &initial_states[attempts % initial_states.len()];
        attempts += 1;
        let mut cur_state = init.clone();
        let mut segments: Vec<(u64, usize)> = Vec::new();
        let mut seed_failures = 0usize;
        while seed_failures < cfg.segment_failure_limit && seeds_tried < cfg.max_seeds {
            seeds_tried += 1;
            let seed = rng.next_u64();
            let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
            let len = admissible(&cur_state, &pis);
            if len < 2 {
                seed_failures += 1;
                continue;
            }
            let prefix = &pis[..len];
            let traj = simulate_sequence(net, &cur_state, prefix);
            let tests = functional_tests(prefix, &traj.states);
            let newly = fsim
                .simulate(
                    TestSet::Broadside(&tests),
                    &faults,
                    &mut detected,
                    &FaultSimOptions::new(),
                )
                .newly_detected;
            if newly > 0 {
                tests_applied += tests.len();
                peak_swa = peak_swa.max(traj.peak_swa());
                cur_state = traj.states[len].clone();
                segments.push((seed, len));
                seed_failures = 0;
            } else {
                seed_failures += 1;
            }
        }
        if segments.is_empty() {
            attempt_failures += 1;
        } else {
            attempt_failures = 0;
            sequences.push((init.clone(), segments));
        }
    }
    (sequences, detected, tests_applied, peak_swa)
}

fn cfg_with(batch: usize, threads: usize) -> FunctionalBistConfig {
    FunctionalBistConfig {
        search: SearchOptions { batch, threads },
        ..FunctionalBistConfig::smoke()
    }
}

/// Every round submits its admissible candidates as one grouped call, so a
/// run never issues more fault-simulation calls than candidate groups.
fn assert_grouped(stats: &GenerationStats, label: &str) {
    assert!(
        stats.fsim_calls <= stats.candidate_groups,
        "{label}: {} fsim calls for {} candidate groups",
        stats.fsim_calls,
        stats.candidate_groups
    );
}

/// Compare a constrained outcome against the serial reference.
fn assert_matches_reference(
    out: &ConstrainedOutcome,
    reference: &(RefSeqs, Vec<bool>, usize, f64),
    label: &str,
) {
    let (seqs, detected, tests_applied, peak_swa) = reference;
    let got: RefSeqs = out
        .sequences
        .iter()
        .map(|s| {
            (
                s.initial_state.clone(),
                s.segments.iter().map(|g| (g.seed, g.len)).collect(),
            )
        })
        .collect();
    assert_eq!(&got, seqs, "{label}");
    assert_eq!(&out.detected, detected, "{label}");
    assert_eq!(out.tests_applied, *tests_applied, "{label}");
    assert_eq!(out.peak_swa, *peak_swa, "{label}");
    assert_grouped(&out.stats, label);
}

#[test]
fn unconstrained_is_bit_identical_to_the_serial_reference() {
    for net in circuits() {
        let (seeds, detected, tests_applied, peak_swa) =
            reference_unconstrained(&net, &FunctionalBistConfig::smoke());
        for batch in BATCHES {
            for threads in THREADS {
                let out = generate_unconstrained(&net, &cfg_with(batch, threads));
                let label = format!("{} batch={batch} threads={threads}", net.name());
                assert_eq!(out.seeds, seeds, "{label}");
                assert_eq!(out.detected, detected, "{label}");
                assert_eq!(out.tests_applied, tests_applied, "{label}");
                assert_eq!(out.peak_swa, peak_swa, "{label}");
                assert_grouped(&out.stats, &label);
            }
        }
    }
}

#[test]
fn constrained_is_bit_identical_to_the_serial_reference() {
    for net in circuits() {
        // A bound tight enough to force truncation and rejections.
        let bound = 0.45;
        let zero = Bits::zeros(net.num_dffs());
        let reference = reference_constrained(
            &net,
            |start, pis| admissible_prefix(&net, bound, start, pis),
            &FunctionalBistConfig::smoke(),
            std::slice::from_ref(&zero),
        );
        for batch in BATCHES {
            for threads in THREADS {
                let out = generate_constrained(&net, bound, &cfg_with(batch, threads));
                let label = format!("{} batch={batch} threads={threads}", net.name());
                assert_matches_reference(&out, &reference, &label);
            }
        }
    }
}

#[test]
fn constrained_from_is_bit_identical_to_the_serial_reference() {
    for net in circuits() {
        // Derive a second reachable state by simulating two cycles from 0.
        let mut rng = Rng::new(7);
        let pis: Vec<Bits> = (0..2)
            .map(|_| (0..net.num_inputs()).map(|_| rng.bit()).collect())
            .collect();
        let zero = Bits::zeros(net.num_dffs());
        let traj = simulate_sequence(&net, &zero, &pis);
        let inits = vec![zero, traj.states[2].clone()];
        let bound = 0.6;
        let reference = reference_constrained(
            &net,
            |start, pis| admissible_prefix(&net, bound, start, pis),
            &FunctionalBistConfig::smoke(),
            &inits,
        );
        for batch in BATCHES {
            for threads in THREADS {
                let out = generate_constrained_from(&net, bound, &cfg_with(batch, threads), &inits);
                let label = format!("{} batch={batch} threads={threads}", net.name());
                assert_matches_reference(&out, &reference, &label);
            }
        }
    }
}

#[test]
fn stp_constrained_is_bit_identical_to_the_serial_reference() {
    // The signal-transition-pattern rule needs node values, not just the
    // activity trace, so every lane is probed before the lane pass. The
    // library samples eight functional sequences of four times the smoke
    // length: rich enough that accepted segments chain (later probes start
    // from a non-reset state), sparse enough that the rule truncates.
    let smoke = FunctionalBistConfig::smoke();
    let lib_cfg = FunctionalBistConfig {
        func_sequences: 8,
        func_len: smoke.func_len * 4,
        ..smoke.clone()
    };
    for net in circuits() {
        let zero = Bits::zeros(net.num_dffs());
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &lib_cfg);
        let lib = StpLibrary::collect(&net, &zero, &seqs);
        let bound = lib.max_pattern_len() as f64 / net.num_nodes() as f64;
        let reference = reference_constrained(
            &net,
            |start, pis| lib.admissible_prefix(&net, start, pis, &StateOverlay::Identity),
            &smoke,
            std::slice::from_ref(&zero),
        );
        let segs = || reference.0.iter().map(|(_, segs)| segs);
        assert!(
            segs().flatten().any(|&(_, len)| len < smoke.seq_len & !1),
            "{}: the library truncated no kept segment",
            net.name()
        );
        assert!(
            segs().any(|s| s.len() >= 2),
            "{}: no sequence chained two segments",
            net.name()
        );
        for batch in BATCHES {
            for threads in THREADS {
                let cfg = cfg_with(batch, threads);
                let out = generate_constrained_with_library(&net, bound, &lib, &cfg);
                let label = format!("{} stp batch={batch} threads={threads}", net.name());
                assert_matches_reference(&out, &reference, &label);
            }
        }
    }
}

#[test]
fn speculative_outcomes_are_independent_of_thread_count() {
    // Fixing the batch, every thread count must give the same counters too
    // (wasted_evals depends only on the batch size and the commit pattern).
    for net in circuits() {
        for batch in BATCHES {
            let reference = generate_unconstrained(&net, &cfg_with(batch, 1));
            for threads in [2, 8] {
                let out = generate_unconstrained(&net, &cfg_with(batch, threads));
                assert_eq!(out.seeds, reference.seeds);
                assert_eq!(out.detected, reference.detected);
                assert_eq!(out.stats.evals, reference.stats.evals);
                assert_eq!(out.stats.wasted_evals, reference.stats.wasted_evals);
                assert_eq!(out.stats.seeds_tried, reference.stats.seeds_tried);
                assert_eq!(out.stats.fsim_calls, reference.stats.fsim_calls);
                assert_eq!(out.stats.candidate_groups, reference.stats.candidate_groups);
            }
        }
    }
}
