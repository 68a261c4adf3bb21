//! Patterns of signal-transitions — the §5.1 future-work deviation metric
//! (\[90\]).
//!
//! A *pattern of signal-transitions* of a state-transition is the set of
//! lines that switch, each tagged with its direction. Requiring every
//! state-transition during on-chip test generation to have a pattern that is
//! a **subset** of some pattern observed during functional operation is
//! strictly stronger than the switching-activity bound: it implies
//! `SWA ≤ SWAfunc` *and* forbids signal transitions that functional
//! operation never produces, addressing overtesting through slow
//! non-functional paths.

use std::collections::HashSet;

use fbt_netlist::Netlist;
use fbt_sim::{comb, Bits};

use crate::engine::StateOverlay;
use crate::policy::AdmissibilityPolicy;

/// A library of functional signal-transition patterns.
///
/// Each pattern is a sorted list of `(line, new_value)` pairs; patterns are
/// deduplicated on collection.
#[derive(Debug, Clone, Default)]
pub struct StpLibrary {
    patterns: Vec<Vec<(u32, bool)>>,
}

/// Compute the full node-value vector for one cycle.
fn cycle_values(net: &Netlist, state: &Bits, pi: &Bits, vals: &mut [bool]) {
    for (i, &id) in net.inputs().iter().enumerate() {
        vals[id.index()] = pi.get(i);
    }
    for (i, &id) in net.dffs().iter().enumerate() {
        vals[id.index()] = state.get(i);
    }
    comb::eval_scalar(net, vals);
}

/// The pattern of signal-transitions between two consecutive value vectors.
fn pattern_of(prev: &[bool], cur: &[bool]) -> Vec<(u32, bool)> {
    prev.iter()
        .zip(cur)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (_, &b))| (i as u32, b))
        .collect()
}

fn next_state(net: &Netlist, vals: &[bool]) -> Bits {
    net.dffs()
        .iter()
        .map(|&d| vals[net.node(d).fanins()[0].index()])
        .collect()
}

impl StpLibrary {
    /// Collect the library by simulating the functional input sequences from
    /// `initial` and recording every state-transition's pattern.
    pub fn collect(net: &Netlist, initial: &Bits, sequences: &[Vec<Bits>]) -> Self {
        let mut seen: HashSet<Vec<(u32, bool)>> = HashSet::new();
        let mut vals = vec![false; net.num_nodes()];
        let mut prev = vec![false; net.num_nodes()];
        for seq in sequences {
            let mut state = initial.clone();
            for (c, pi) in seq.iter().enumerate() {
                cycle_values(net, &state, pi, &mut vals);
                if c > 0 {
                    seen.insert(pattern_of(&prev, &vals));
                }
                state = next_state(net, &vals);
                std::mem::swap(&mut prev, &mut vals);
            }
        }
        let mut patterns: Vec<Vec<(u32, bool)>> = seen.into_iter().collect();
        // Longest first: a candidate can only be a subset of a pattern at
        // least as large, so lookups can stop early.
        patterns.sort_by_key(|p| std::cmp::Reverse(p.len()));
        StpLibrary { patterns }
    }

    /// Number of distinct functional patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Is `candidate` (sorted) a subset of some functional pattern?
    pub fn allows(&self, candidate: &[(u32, bool)]) -> bool {
        if candidate.is_empty() {
            return true;
        }
        for p in &self.patterns {
            if p.len() < candidate.len() {
                return false; // remaining patterns are even shorter
            }
            if is_subset(candidate, p) {
                return true;
            }
        }
        false
    }

    /// The largest functional pattern size — an upper bound on admissible
    /// switching activity (in lines).
    pub fn max_pattern_len(&self) -> usize {
        self.patterns.first().map_or(0, Vec::len)
    }
}

/// Merge-test: is sorted `a` a subset of sorted `b`?
fn is_subset(a: &[(u32, bool)], b: &[(u32, bool)]) -> bool {
    let mut bi = 0;
    'outer: for x in a {
        while bi < b.len() {
            match b[bi].cmp(x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl AdmissibilityPolicy for StpLibrary {
    fn admissible_prefix(
        &self,
        net: &Netlist,
        start: &Bits,
        pis: &[Bits],
        _overlay: &StateOverlay,
    ) -> usize {
        let mut vals = vec![false; net.num_nodes()];
        let mut prev = vec![false; net.num_nodes()];
        let mut state = start.clone();
        for (c, pi) in pis.iter().enumerate() {
            cycle_values(net, &state, pi, &mut vals);
            if c > 0 {
                let pat = pattern_of(&prev, &vals);
                if !self.allows(&pat) {
                    // Violation at cycle c: usable prefix is c-1 cycles,
                    // rounded down to even (same geometry as the SWA rule).
                    return (c - 1) & !1usize;
                }
            }
            state = next_state(net, &vals);
            std::mem::swap(&mut prev, &mut vals);
        }
        pis.len() & !1usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{functional_sequences, DrivingBlock};
    use crate::{generate_constrained_with_library, FunctionalBistConfig};
    use fbt_netlist::s27;

    #[test]
    fn subset_merge_test() {
        let b = [(1, true), (3, false), (7, true)];
        assert!(is_subset(&[(3, false)], &b));
        assert!(is_subset(&[(1, true), (7, true)], &b));
        assert!(is_subset(&[], &b));
        assert!(!is_subset(&[(3, true)], &b));
        assert!(!is_subset(&[(2, true)], &b));
        assert!(!is_subset(&[(1, true), (8, false)], &b));
    }

    #[test]
    fn functional_patterns_allow_themselves() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(3), &seqs);
        assert!(!lib.is_empty());
        // Re-simulate the first sequence and check every cycle is allowed.
        let prefix =
            lib.admissible_prefix(&net, &Bits::zeros(3), &seqs[0], &StateOverlay::Identity);
        assert_eq!(prefix, seqs[0].len() & !1usize);
    }

    #[test]
    fn empty_pattern_always_allowed() {
        let lib = StpLibrary::default();
        assert!(lib.allows(&[]));
        assert!(!lib.allows(&[(0, true)]));
    }

    #[test]
    fn stp_constrained_generation_runs() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(3), &seqs);
        let bound = lib.max_pattern_len() as f64 / net.num_nodes() as f64;
        let out = generate_constrained_with_library(&net, bound, &lib, &cfg);
        // STP is stricter than SWA: activity stays within the largest
        // functional pattern.
        assert!(out.peak_swa <= bound + 1e-12);
    }

    #[test]
    fn stp_is_no_looser_than_swa() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(3), &seqs);
        let swa_bound = lib.max_pattern_len() as f64 / net.num_nodes() as f64;
        let swa_rule = crate::policy::SwaRule { bound: swa_bound };
        // On any candidate segment, the STP prefix cannot exceed the SWA
        // prefix computed from the library's own activity ceiling.
        let mut tpg =
            fbt_bist::Tpg::new(fbt_bist::TpgSpec::standard(vec![fbt_sim::Trit::X; 4]), 42);
        let overlay = StateOverlay::Identity;
        for _ in 0..5 {
            let pis = tpg.sequence(40);
            let stp_len = lib.admissible_prefix(&net, &Bits::zeros(3), &pis, &overlay);
            let swa_len = swa_rule.admissible_prefix(&net, &Bits::zeros(3), &pis, &overlay);
            assert!(stp_len <= swa_len, "stp {stp_len} > swa {swa_len}");
        }
    }
}
