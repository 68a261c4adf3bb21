//! Static test-set compaction.
//!
//! The paper compacts its seed/test sets with "a procedure similar to
//! reverse order fault simulation called forward-looking fault simulation"
//! (\[89\], used in §4.3). Both classics are provided:
//!
//! * [`reverse_order`] — walk the test set backwards with a fresh fault
//!   list; keep a test only if it detects something still uncovered;
//! * [`forward_looking`] — walk forwards; keep a test only if it detects
//!   some fault that **no later test** detects (so dropping it would lose
//!   that fault). Order-preserving and typically slightly larger than
//!   reverse-order, but a single simulation pass in spirit.
//!
//! Both preserve fault coverage exactly.

use fbt_fault::{BroadsideTest, TransitionFault};
use fbt_fault::{FaultSimEngine, FaultSimOptions, PackedParallelSim, TestSet};
use fbt_netlist::Netlist;

/// Reverse-order compaction: indices (in increasing order) of the kept
/// tests.
pub fn reverse_order(
    net: &Netlist,
    tests: &[BroadsideTest],
    faults: &[TransitionFault],
) -> Vec<usize> {
    let mut fsim = PackedParallelSim::new(net);
    // One test per call: a second worker thread would only add spawns.
    let opts = FaultSimOptions::new().threads(1);
    let mut detected = vec![false; faults.len()];
    let mut kept = Vec::new();
    for i in (0..tests.len()).rev() {
        let newly = fsim
            .simulate(
                TestSet::Broadside(std::slice::from_ref(&tests[i])),
                faults,
                &mut detected,
                &opts,
            )
            .newly_detected;
        if newly > 0 {
            kept.push(i);
        }
    }
    kept.reverse();
    kept
}

/// Forward-looking compaction (\[89\]): a test is essential when some fault
/// it detects is detected by no later test.
pub fn forward_looking(
    net: &Netlist,
    tests: &[BroadsideTest],
    faults: &[TransitionFault],
) -> Vec<usize> {
    let mut fsim = PackedParallelSim::new(net);
    let matrix = fsim.detection_matrix(tests, faults);
    let words = matrix.words_per_row();
    // last_det[f] = index of the last test detecting fault f.
    let last_det: Vec<Option<usize>> = (0..faults.len())
        .map(|f| {
            let row = matrix.row(f);
            (0..words)
                .rev()
                .find(|&w| row[w] != 0)
                .map(|w| w * 64 + (63 - row[w].leading_zeros() as usize))
        })
        .collect();
    // Keep, in order, any test that is the last detector of a still-covered
    // fault — but once a test is kept, faults it detects are covered and no
    // longer force later keeps.
    let mut covered = vec![false; faults.len()];
    let mut kept = Vec::new();
    for (i, _) in tests.iter().enumerate() {
        let essential = (0..faults.len()).any(|f| !covered[f] && last_det[f] == Some(i));
        let detects_uncovered = (0..faults.len()).any(|f| !covered[f] && matrix.detects(f, i));
        if essential && detects_uncovered {
            kept.push(i);
            for (f, c) in covered.iter_mut().enumerate() {
                if matrix.detects(f, i) {
                    *c = true;
                }
            }
        }
    }
    // A second sweep catches faults whose last detector was skipped because
    // it looked non-essential at the time (cannot happen with the rule
    // above, but keep coverage airtight against future edits).
    for f in 0..faults.len() {
        if !covered[f] {
            if let Some(i) = last_det[f] {
                kept.push(i);
                for (g, c) in covered.iter_mut().enumerate() {
                    if matrix.detects(g, i) {
                        *c = true;
                    }
                }
            }
        }
    }
    kept.sort_unstable();
    kept.dedup();
    kept
}

/// Coverage of a test subset (by index) against a fault list.
pub fn subset_coverage(
    net: &Netlist,
    tests: &[BroadsideTest],
    subset: &[usize],
    faults: &[TransitionFault],
) -> usize {
    let mut fsim = PackedParallelSim::new(net);
    let mut detected = vec![false; faults.len()];
    let selected: Vec<BroadsideTest> = subset.iter().map(|&i| tests[i].clone()).collect();
    fsim.simulate(
        TestSet::Broadside(&selected),
        faults,
        &mut detected,
        &FaultSimOptions::new(),
    );
    detected.iter().filter(|&&d| d).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::all_transition_faults;
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;

    fn random_tests(n: usize, seed: u64) -> Vec<BroadsideTest> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                BroadsideTest::new(
                    (0..3).map(|_| rng.bit()).collect(),
                    (0..4).map(|_| rng.bit()).collect(),
                    (0..4).map(|_| rng.bit()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn both_methods_preserve_coverage() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(200, 3);
        let all: Vec<usize> = (0..tests.len()).collect();
        let full = subset_coverage(&net, &tests, &all, &faults);
        for kept in [
            reverse_order(&net, &tests, &faults),
            forward_looking(&net, &tests, &faults),
        ] {
            assert_eq!(subset_coverage(&net, &tests, &kept, &faults), full);
            assert!(kept.len() < tests.len(), "random sets are redundant");
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "sorted order");
        }
    }

    #[test]
    fn compaction_shrinks_substantially_on_redundant_sets() {
        let net = s27();
        let faults = all_transition_faults(&net);
        // Duplicate the same few tests many times.
        let base = random_tests(10, 9);
        let mut tests = Vec::new();
        for _ in 0..20 {
            tests.extend(base.clone());
        }
        let kept = reverse_order(&net, &tests, &faults);
        assert!(kept.len() <= base.len());
    }

    #[test]
    fn empty_inputs() {
        let net = s27();
        let faults = all_transition_faults(&net);
        assert!(reverse_order(&net, &[], &faults).is_empty());
        assert!(forward_looking(&net, &[], &faults).is_empty());
    }
}
