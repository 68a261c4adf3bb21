//! Admissibility policies for the unified [`crate::engine::GenerationEngine`].
//!
//! A policy decides how much of a candidate primary-input segment may be
//! applied: the constrained method truncates at the first clock cycle whose
//! switching activity would exceed `SWAfunc` (paper §4.4), the §5.1
//! signal-transition-pattern metric truncates at the first non-functional
//! pattern ([`crate::stp::StpLibrary`]), and the baseline unconstrained
//! method of \[73\] never truncates at all. All three are implementations of
//! one trait, so the engine's seed-search loop is written once.
//!
//! Truncation geometry is shared by every bounded policy (and was previously
//! duplicated between `constrained::SwaRule::admissible_prefix` and
//! `holding::admissible_prefix_holding`): a violation at cycle `v` (the
//! paper's `j+1`) leaves the usable prefix `p(0) … p(j-1)` of `v-1` cycles,
//! rounded down to even so the segment ends at the final state of its last
//! test; a clean trajectory keeps its full (even) length.

use fbt_netlist::Netlist;
use fbt_sim::Bits;

use crate::engine::StateOverlay;

/// The decision rule that truncates a candidate segment.
///
/// Implementations must be pure functions of their inputs: the engine
/// evaluates candidates speculatively in batches and commits results in
/// draw order, so a non-deterministic policy would break the
/// bit-identical-to-serial guarantee of [`crate::search`].
pub trait AdmissibilityPolicy: Sync {
    /// The longest even prefix of `pis`, applied from `start` under
    /// `overlay`, whose every measurable clock cycle is admissible.
    fn admissible_prefix(
        &self,
        net: &Netlist,
        start: &Bits,
        pis: &[Bits],
        overlay: &StateOverlay,
    ) -> usize;

    /// Logic-simulated cycles charged for the admissibility probe of one
    /// full-length candidate (the engine adds the accepted prefix's replay
    /// on top). Policies that simulate the whole candidate charge `seq_len`;
    /// [`Unbounded`] charges nothing because it never simulates.
    fn probe_cycles(&self, seq_len: usize) -> usize {
        seq_len
    }

    /// The admissible prefix as a pure function of a candidate's per-cycle
    /// switching-activity trace (`total` cycles), or `None` if this policy
    /// needs more than the trace (e.g. per-cycle node values).
    ///
    /// Every policy runs through the same candidate-packed round of
    /// [`crate::engine::GenerationEngine::construct`], which simulates a
    /// whole speculative batch in one multi-lane pass. The engine asks once
    /// per run which kind of policy it has. `Some` means "derive each lane's
    /// prefix from its trace", so the value returned here must equal
    /// `admissible_prefix` over the trajectory that produced `swa`. `None`
    /// means "probe this lane": the engine calls
    /// [`AdmissibilityPolicy::admissible_prefix`] on every candidate first
    /// and stops the lane pass at the longest probed prefix.
    fn admissible_prefix_from_trace(&self, swa: &[Option<f64>], total: usize) -> Option<usize> {
        let _ = (swa, total);
        None
    }
}

/// The shared truncation geometry: the longest even admissible prefix given
/// the per-cycle switching activities of a candidate trajectory of `total`
/// cycles.
///
/// This is the single implementation behind both the constrained method's
/// rule and the holding variant (which differs only in *how* the trajectory
/// is produced, via [`StateOverlay`]).
pub(crate) fn admissible_prefix_from_swa(swa: &[Option<f64>], total: usize, bound: f64) -> usize {
    match swa
        .iter()
        .position(|s| s.is_some_and(|v| v > bound + 1e-12))
    {
        // Violation at cycle v (paper's j+1): usable prefix is
        // p(0) … p(j-1), i.e. v-1 cycles, rounded down to even.
        Some(v) => (v.saturating_sub(1)) & !1usize,
        None => total & !1usize,
    }
}

/// Switching-activity bound (the paper's §4.4 rule): every measurable clock
/// cycle's switching activity must stay within `bound` (`SWAfunc`).
#[derive(Debug, Clone, Copy)]
pub struct SwaRule {
    /// The activity bound in force (`SWAfunc`).
    pub bound: f64,
}

impl AdmissibilityPolicy for SwaRule {
    fn admissible_prefix(
        &self,
        net: &Netlist,
        start: &Bits,
        pis: &[Bits],
        overlay: &StateOverlay,
    ) -> usize {
        let (_, swa) = overlay.simulate(net, start, pis);
        admissible_prefix_from_swa(&swa, pis.len(), self.bound)
    }

    fn admissible_prefix_from_trace(&self, swa: &[Option<f64>], total: usize) -> Option<usize> {
        Some(admissible_prefix_from_swa(swa, total, self.bound))
    }
}

/// No admissibility constraint — the unconstrained method of \[73\] (§4.3).
/// Every candidate keeps its full (even) length and no probe simulation is
/// performed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unbounded;

impl AdmissibilityPolicy for Unbounded {
    fn admissible_prefix(
        &self,
        _net: &Netlist,
        _start: &Bits,
        pis: &[Bits],
        _overlay: &StateOverlay,
    ) -> usize {
        pis.len() & !1usize
    }

    fn probe_cycles(&self, _seq_len: usize) -> usize {
        0
    }

    fn admissible_prefix_from_trace(&self, _swa: &[Option<f64>], total: usize) -> Option<usize> {
        Some(total & !1usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::s27;
    use fbt_sim::seq::{simulate_sequence, SeqSim};

    fn pis(n: usize) -> Vec<Bits> {
        (0..n)
            .map(|i| Bits::from_bools(&[i % 2 == 0, i % 3 == 0, i % 5 != 0, true]))
            .collect()
    }

    /// The pre-refactor `constrained::SwaRule::admissible_prefix`, verbatim.
    fn old_constrained_prefix(net: &Netlist, bound: f64, start: &Bits, pis: &[Bits]) -> usize {
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

    /// The pre-refactor `holding::admissible_prefix_holding`, verbatim.
    fn old_holding_prefix(
        net: &Netlist,
        bound: f64,
        start: &Bits,
        pis: &[Bits],
        mask: &Bits,
        h: u32,
    ) -> usize {
        let mut sim = SeqSim::new(net, start);
        let mut swa = Vec::with_capacity(pis.len());
        for (c, pi) in pis.iter().enumerate() {
            let hold = (c as u64 & ((1 << h) - 1) == 0).then_some(mask);
            swa.push(sim.step_holding(pi, hold).switching_activity);
        }
        match swa
            .iter()
            .position(|s| s.is_some_and(|v| v > bound + 1e-12))
        {
            Some(v) => (v.saturating_sub(1)) & !1usize,
            None => pis.len() & !1usize,
        }
    }

    #[test]
    fn swa_rule_pins_the_old_constrained_behavior() {
        // The deduplicated rule (SwaRule over the identity overlay) must
        // agree with the pre-refactor implementation on every bound, for
        // both truncated and full-length outcomes.
        let net = s27();
        let zero = Bits::zeros(3);
        let p = pis(31);
        for bound in [0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0] {
            let rule = SwaRule { bound };
            let new = rule.admissible_prefix(&net, &zero, &p, &StateOverlay::Identity);
            let old = old_constrained_prefix(&net, bound, &zero, &p);
            assert_eq!(new, old, "bound {bound}");
            assert_eq!(new % 2, 0);
            assert!(new <= p.len());
        }
    }

    #[test]
    fn swa_rule_pins_the_old_holding_behavior() {
        // The same rule over a Hold overlay must agree with the pre-refactor
        // `admissible_prefix_holding` — one geometry, two trajectories.
        let net = s27();
        let zero = Bits::zeros(3);
        let p = pis(24);
        let mut mask = Bits::zeros(3);
        mask.set(0, true);
        mask.set(2, true);
        for h in [1u32, 2] {
            let overlay = StateOverlay::Hold {
                mask: mask.clone(),
                h,
            };
            for bound in [0.0, 0.05, 0.1, 0.2, 0.35, 1.0] {
                let rule = SwaRule { bound };
                let new = rule.admissible_prefix(&net, &zero, &p, &overlay);
                let old = old_holding_prefix(&net, bound, &zero, &p, &mask, h);
                assert_eq!(new, old, "bound {bound} h {h}");
            }
        }
    }

    #[test]
    fn violation_geometry_is_even_and_excludes_the_violating_cycle() {
        // Synthetic activities: violation at cycle index 5 leaves the 4-cycle
        // prefix; at index 1 or 0 leaves nothing.
        let mk = |v: usize, n: usize| -> Vec<Option<f64>> {
            (0..n)
                .map(|i| Some(if i == v { 0.9 } else { 0.1 }))
                .collect()
        };
        assert_eq!(admissible_prefix_from_swa(&mk(5, 10), 10, 0.5), 4);
        assert_eq!(admissible_prefix_from_swa(&mk(4, 10), 10, 0.5), 2);
        assert_eq!(admissible_prefix_from_swa(&mk(1, 10), 10, 0.5), 0);
        assert_eq!(admissible_prefix_from_swa(&mk(0, 10), 10, 0.5), 0);
        // No violation: full length, rounded down to even.
        assert_eq!(admissible_prefix_from_swa(&mk(11, 10), 10, 0.5), 10);
        assert_eq!(admissible_prefix_from_swa(&mk(11, 9), 9, 0.5), 8);
        // Immeasurable cycles (None) never violate.
        let none = vec![None; 6];
        assert_eq!(admissible_prefix_from_swa(&none, 6, 0.0), 6);
    }

    #[test]
    fn trace_prefix_agrees_with_the_probe_for_every_trace_policy() {
        // The candidate-packed round derives prefixes from a lane's
        // switching-activity trace instead of probing; the two answers must
        // coincide for every policy that offers a trace rule.
        let net = s27();
        let zero = Bits::zeros(3);
        let p = pis(30);
        let traj = simulate_sequence(&net, &zero, &p);
        for bound in [0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0] {
            let rule = SwaRule { bound };
            assert_eq!(
                rule.admissible_prefix_from_trace(&traj.swa, p.len()),
                Some(rule.admissible_prefix(&net, &zero, &p, &StateOverlay::Identity)),
                "bound {bound}"
            );
        }
        assert_eq!(
            Unbounded.admissible_prefix_from_trace(&traj.swa, p.len()),
            Some(Unbounded.admissible_prefix(&net, &zero, &p, &StateOverlay::Identity))
        );
        assert_eq!(Unbounded.admissible_prefix_from_trace(&[], 13), Some(12));
    }

    #[test]
    fn unbounded_keeps_the_full_even_length_for_free() {
        let net = s27();
        let zero = Bits::zeros(3);
        assert_eq!(
            Unbounded.admissible_prefix(&net, &zero, &pis(12), &StateOverlay::Identity),
            12
        );
        assert_eq!(
            Unbounded.admissible_prefix(&net, &zero, &pis(13), &StateOverlay::Identity),
            12
        );
        assert_eq!(Unbounded.probe_cycles(60), 0);
        assert_eq!(SwaRule { bound: 0.5 }.probe_cycles(60), 60);
    }
}
