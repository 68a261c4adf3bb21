//! Multi-lane sequential simulation: up to 64 independent functional
//! trajectories evaluated in one levelized pass per cycle.
//!
//! This is the sequential counterpart of [`crate::comb::eval_packed`]: each
//! bit position (*lane*) of a `u64` word carries one candidate's trajectory.
//! All lanes start from a shared state (the speculative candidates of the
//! paper's Chapter 4 all expand from the same committed circuit state) and
//! then diverge under per-lane primary-input sequences.
//!
//! Per-lane switching activity is counted in bit-sliced vertical counters
//! fed by a Harley–Seal carry-save tree: sixteen toggle words reduce to
//! ones/twos/fours/eights accumulators plus one carry word, and only that
//! carry ripples into the higher counter planes. The cost per cycle is
//! `O(nodes / 64)` words of branch-free work for all lanes together, and
//! the per-lane values are bit-identical to the scalar
//! [`crate::seq::SeqSim`] (`toggles as f64 / num_nodes as f64`, undefined
//! on the first cycle after a state load).
//!
//! # Example
//!
//! ```
//! use fbt_netlist::s27;
//! use fbt_sim::{lanes::LaneSeqSim, Bits};
//!
//! let net = s27();
//! let mut sim = LaneSeqSim::new(&net, 2);
//! sim.broadcast_state(&Bits::zeros(3));
//! let pis = [Bits::from_str01("0000"), Bits::from_str01("1111")];
//! sim.step(&pis, None);
//! assert_eq!(sim.lane_state(0).to_string(), "001");
//! assert!(sim.swa().is_none(), "SWA(0) undefined");
//! ```

use std::sync::Arc;

use fbt_netlist::Netlist;

use crate::kernel::Kernel;
use crate::Bits;

/// Extract one lane of a packed word vector as a [`Bits`] value.
pub fn extract_lane(words: &[u64], lane: usize) -> Bits {
    assert!(lane < 64, "lane out of range");
    words.iter().map(|w| (w >> lane) & 1 == 1).collect()
}

/// A bit-parallel sequential simulator evaluating up to 64 independent
/// input sequences ("lanes") against the same netlist in lockstep.
///
/// Unlike [`crate::seq::SeqSim`] this simulator performs **no per-cycle
/// heap allocation**: the value buffers are double-buffered and the
/// switching-activity counters are reused, which is what makes speculative
/// candidate expansion cheaper than one scalar pass per candidate even
/// before fault simulation enters the picture.
#[derive(Debug, Clone)]
pub struct LaneSeqSim<'a> {
    net: &'a Netlist,
    kernel: Arc<Kernel>,
    lanes: usize,
    state: Vec<u64>,
    vals: Vec<u64>,
    prev_vals: Vec<u64>,
    have_prev: bool,
    /// Vertical counter planes: `counters[k]` holds bit `k` of every lane's
    /// toggle count for the current cycle (see [`count_toggles`]).
    counters: Vec<u64>,
    swa: Vec<f64>,
    swa_ready: bool,
    out_words: Vec<u64>,
    /// Node index of each flip-flop's D input, in `net.dffs()` order.
    d_inputs: Vec<u32>,
}

impl<'a> LaneSeqSim<'a> {
    /// Create a simulator for `lanes` concurrent trajectories (1..=64).
    /// The state is all-zero until [`LaneSeqSim::broadcast_state`] is
    /// called.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64.
    pub fn new(net: &'a Netlist, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        LaneSeqSim {
            net,
            kernel: Kernel::for_netlist(net),
            lanes,
            state: vec![0; net.num_dffs()],
            vals: vec![0; net.num_nodes()],
            prev_vals: vec![0; net.num_nodes()],
            have_prev: false,
            counters: vec![0; counter_planes(net.num_nodes())],
            swa: vec![0.0; lanes],
            swa_ready: false,
            out_words: vec![0; net.num_outputs()],
            d_inputs: net
                .dffs()
                .iter()
                .map(|&d| net.node(d).fanins()[0].index() as u32)
                .collect(),
        }
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Set every lane's state to `s` and clear the switching-activity
    /// history (like [`crate::seq::SeqSim::set_state`]).
    ///
    /// # Panics
    ///
    /// Panics if the width does not match.
    pub fn broadcast_state(&mut self, s: &Bits) {
        assert_eq!(s.len(), self.net.num_dffs(), "state width mismatch");
        let mask = lanes_mask(self.lanes);
        for (i, w) in self.state.iter_mut().enumerate() {
            *w = if s.get(i) { mask } else { 0 };
        }
        self.have_prev = false;
        self.swa_ready = false;
    }

    /// The packed present-state words, one per flip-flop; bit `l` is lane
    /// `l`'s state bit.
    pub fn state_words(&self) -> &[u64] {
        &self.state
    }

    /// Lane `l`'s present state.
    pub fn lane_state(&self, lane: usize) -> Bits {
        assert!(lane < self.lanes, "lane out of range");
        extract_lane(&self.state, lane)
    }

    /// The packed primary-output words of the most recent cycle.
    pub fn output_words(&self) -> &[u64] {
        &self.out_words
    }

    /// Per-lane switching activity of the most recent cycle, or `None` if
    /// it was the first cycle after construction or a state load.
    pub fn swa(&self) -> Option<&[f64]> {
        self.swa_ready.then_some(&self.swa[..])
    }

    /// Apply one clock cycle with lane `l` driven by `pis[l]`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or if `pis.len() != self.lanes()`.
    pub fn step(&mut self, pis: &[Bits], hold: Option<&Bits>) {
        assert_eq!(pis.len(), self.lanes, "one PI vector per lane");
        self.step_with(|l| &pis[l], hold);
    }

    /// Apply one clock cycle, fetching lane `l`'s input vector via
    /// `pi_of(l)`. Flip-flops whose bit is set in `hold` keep their present
    /// value in **every** lane (the state-holding schedule of the paper's
    /// Section 4.5 depends only on the cycle index, so it is shared).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn step_with<'b>(&mut self, pi_of: impl Fn(usize) -> &'b Bits, hold: Option<&Bits>) {
        let net = self.net;
        if let Some(h) = hold {
            assert_eq!(h.len(), net.num_dffs(), "hold mask width mismatch");
        }
        for &id in net.inputs() {
            self.vals[id.index()] = 0;
        }
        let inputs = net.inputs();
        for l in 0..self.lanes {
            let pi = pi_of(l);
            assert_eq!(pi.len(), net.num_inputs(), "PI width mismatch");
            let bit = 1u64 << l;
            // Walk only the set bits of each PI word instead of probing
            // every input through a bounds-checked `get`.
            for (wi, &w) in pi.words().iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let i = wi * 64 + bits.trailing_zeros() as usize;
                    self.vals[inputs[i].index()] |= bit;
                    bits &= bits - 1;
                }
            }
        }
        for (i, &id) in net.dffs().iter().enumerate() {
            self.vals[id.index()] = self.state[i];
        }
        self.kernel.eval2(&mut self.vals);

        if self.have_prev {
            count_toggles(&self.prev_vals, &self.vals, &mut self.counters);
            let nodes = net.num_nodes() as f64;
            for l in 0..self.lanes {
                let mut count = 0usize;
                for (k, &c) in self.counters.iter().enumerate() {
                    count |= (((c >> l) & 1) as usize) << k;
                }
                self.swa[l] = count as f64 / nodes;
            }
            self.swa_ready = true;
        } else {
            self.swa_ready = false;
        }

        for (w, &o) in self.out_words.iter_mut().zip(net.outputs()) {
            *w = self.vals[o.index()];
        }
        for (i, &d) in self.d_inputs.iter().enumerate() {
            if hold.is_some_and(|h| h.get(i)) {
                continue; // held flip-flop keeps its state word
            }
            self.state[i] = self.vals[d as usize];
        }
        std::mem::swap(&mut self.prev_vals, &mut self.vals);
        self.have_prev = true;
    }
}

/// Vertical counter planes needed to count up to `nodes` toggles per lane:
/// the bit width of `nodes`, and at least the four Harley–Seal
/// accumulators.
fn counter_planes(nodes: usize) -> usize {
    ((usize::BITS - nodes.leading_zeros()) as usize).max(4)
}

/// Carry-save adder: `(sum, carry)` with `a + b + c = sum + 2·carry` per
/// bit column.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Count, per lane, the words where `prev` and `cur` differ: afterwards
/// lane `l`'s count is `Σ_k ((counters[k] >> l) & 1) << k`.
///
/// A Harley–Seal tree folds each block of sixteen toggle words into the
/// ones/twos/fours/eights accumulators (`counters[0..4]`) and emits one
/// sixteens word, which ripples through the higher planes once per block
/// with no data-dependent exit. A ragged tail is padded with zero words.
/// Every column sum is preserved exactly, so a carry out of the top plane
/// means `counters` is too narrow for `prev.len()`; that is checked in
/// every build.
///
/// # Panics
///
/// Panics if the slices differ in length, if `counters` has fewer than
/// four planes, or if a lane's count does not fit in `counters` (never
/// with [`counter_planes`]`(prev.len())` planes).
fn count_toggles(prev: &[u64], cur: &[u64], counters: &mut [u64]) {
    assert_eq!(prev.len(), cur.len(), "toggle word count mismatch");
    assert!(counters.len() >= 4, "Harley–Seal needs four low planes");
    let (low, high) = counters.split_at_mut(4);
    high.fill(0);
    let [mut ones, mut twos, mut fours, mut eights] = [0u64; 4];
    let mut overflow = 0u64;
    let mut block = |t: [u64; 16]| {
        let (o, twos_a) = csa(ones, t[0], t[1]);
        let (o, twos_b) = csa(o, t[2], t[3]);
        let (tw, fours_a) = csa(twos, twos_a, twos_b);
        let (o, twos_a) = csa(o, t[4], t[5]);
        let (o, twos_b) = csa(o, t[6], t[7]);
        let (tw, fours_b) = csa(tw, twos_a, twos_b);
        let (f, eights_a) = csa(fours, fours_a, fours_b);
        let (o, twos_a) = csa(o, t[8], t[9]);
        let (o, twos_b) = csa(o, t[10], t[11]);
        let (tw, fours_a) = csa(tw, twos_a, twos_b);
        let (o, twos_a) = csa(o, t[12], t[13]);
        let (o, twos_b) = csa(o, t[14], t[15]);
        let (tw, fours_b) = csa(tw, twos_a, twos_b);
        let (f, eights_b) = csa(f, fours_a, fours_b);
        let (e, mut carry) = csa(eights, eights_a, eights_b);
        (ones, twos, fours, eights) = (o, tw, f, e);
        for c in high.iter_mut() {
            let next = *c & carry;
            *c ^= carry;
            carry = next;
        }
        overflow |= carry;
    };
    let mut p16 = prev.chunks_exact(16);
    let mut c16 = cur.chunks_exact(16);
    for (p, c) in p16.by_ref().zip(c16.by_ref()) {
        block(std::array::from_fn(|i| p[i] ^ c[i]));
    }
    let (p, c) = (p16.remainder(), c16.remainder());
    if !p.is_empty() {
        block(std::array::from_fn(|i| {
            if i < p.len() {
                p[i] ^ c[i]
            } else {
                0
            }
        }));
    }
    assert_eq!(overflow, 0, "toggle counter overflow");
    low.copy_from_slice(&[ones, twos, fours, eights]);
}

fn lanes_mask(lanes: usize) -> u64 {
    if lanes == 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqSim;
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;
    use fbt_netlist::synth::{self, CircuitSpec};

    fn random_bits(n: usize, rng: &mut Rng) -> Bits {
        (0..n).map(|_| rng.bit()).collect()
    }

    fn nets() -> Vec<Netlist> {
        let mut nets = vec![s27()];
        let mut rng = Rng::new(0x1A9E5);
        for _ in 0..3 {
            let pi = 2 + (rng.next_u64() % 5) as usize;
            let po = 1 + (rng.next_u64() % 3) as usize;
            let ff = 2 + (rng.next_u64() % 8) as usize;
            let gates = 15 + (rng.next_u64() % 90) as usize;
            let mut spec = CircuitSpec::new("lane", pi, po, ff, gates);
            spec.seed = rng.next_u64();
            nets.push(synth::generate(&spec));
        }
        nets
    }

    #[test]
    fn lanes_match_scalar_seqsim_bit_exactly() {
        let mut rng = Rng::new(7);
        for net in nets() {
            for lanes in [1usize, 7, 64] {
                let cycles = 12;
                let start = random_bits(net.num_dffs(), &mut rng);
                // Lane-major input sequences, plus a shared hold schedule.
                let pis: Vec<Vec<Bits>> = (0..lanes)
                    .map(|_| {
                        (0..cycles)
                            .map(|_| random_bits(net.num_inputs(), &mut rng))
                            .collect()
                    })
                    .collect();
                let holds: Vec<Option<Bits>> = (0..cycles)
                    .map(|c| (c % 3 == 1).then(|| random_bits(net.num_dffs(), &mut rng)))
                    .collect();

                let mut packed = LaneSeqSim::new(&net, lanes);
                packed.broadcast_state(&start);
                let mut scalars: Vec<SeqSim<'_>> =
                    (0..lanes).map(|_| SeqSim::new(&net, &start)).collect();

                for c in 0..cycles {
                    packed.step_with(|l| &pis[l][c], holds[c].as_ref());
                    let swa = packed.swa();
                    assert_eq!(swa.is_some(), c > 0, "SWA defined from cycle 1");
                    for (l, scalar) in scalars.iter_mut().enumerate() {
                        let r = scalar.step_holding(&pis[l][c], holds[c].as_ref());
                        assert_eq!(
                            packed.lane_state(l),
                            r.next_state,
                            "{} lanes={lanes} cycle={c} lane={l}",
                            net.name()
                        );
                        assert_eq!(
                            extract_lane(packed.output_words(), l),
                            r.outputs,
                            "{} outputs lane {l}",
                            net.name()
                        );
                        match (swa, r.switching_activity) {
                            (Some(s), Some(expect)) => assert_eq!(
                                s[l],
                                expect,
                                "{} swa lanes={lanes} cycle={c} lane={l}",
                                net.name()
                            ),
                            (None, None) => {}
                            (a, b) => panic!("swa definedness mismatch: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_lane_and_full_width_boundaries() {
        // Exactly 1 lane (degenerate word: only bit 0 live) and exactly 64
        // lanes (the `lanes_mask` all-ones special case) are the boundary
        // configurations; both must track the scalar simulator bit-exactly
        // and reject out-of-range lane queries.
        let mut rng = Rng::new(0x64_01);
        for net in nets() {
            for lanes in [1usize, 64] {
                let start = random_bits(net.num_dffs(), &mut rng);
                let mut packed = LaneSeqSim::new(&net, lanes);
                assert_eq!(packed.lanes(), lanes);
                packed.broadcast_state(&start);
                let mut scalars: Vec<SeqSim<'_>> =
                    (0..lanes).map(|_| SeqSim::new(&net, &start)).collect();
                for c in 0..6 {
                    let pis: Vec<Bits> = (0..lanes)
                        .map(|_| random_bits(net.num_inputs(), &mut rng))
                        .collect();
                    packed.step(&pis, None);
                    for (l, scalar) in scalars.iter_mut().enumerate() {
                        let r = scalar.step_holding(&pis[l], None);
                        assert_eq!(
                            packed.lane_state(l),
                            r.next_state,
                            "{} lanes={lanes} cycle={c} lane={l}",
                            net.name()
                        );
                        assert_eq!(extract_lane(packed.output_words(), l), r.outputs);
                        if let (Some(s), Some(e)) = (packed.swa(), r.switching_activity) {
                            assert_eq!(s[l], e);
                        }
                    }
                }
            }
        }
        // The lane bound asserts are inclusive at 64, exclusive above.
        let net = s27();
        let sim = LaneSeqSim::new(&net, 1);
        let result = std::panic::catch_unwind(|| sim.lane_state(1));
        assert!(result.is_err(), "lane 1 of a 1-lane sim must panic");
    }

    #[test]
    fn broadcast_state_resets_swa_history() {
        let net = s27();
        let mut sim = LaneSeqSim::new(&net, 3);
        sim.broadcast_state(&Bits::zeros(3));
        let pis = vec![Bits::from_str01("0101"); 3];
        sim.step(&pis, None);
        sim.step(&pis, None);
        assert!(sim.swa().is_some());
        sim.broadcast_state(&Bits::from_str01("111"));
        sim.step(&pis, None);
        assert!(sim.swa().is_none(), "history cleared by state load");
    }

    #[test]
    fn harley_seal_counter_matches_naive_popcount() {
        // Every tail length (`n mod 16`), the plane-width edges `2^k - 1`,
        // `2^k`, `2^k + 1`, and three word patterns: every lane toggling on
        // every node (the largest count a width must hold), random words,
        // and a sparse mix.
        let mut sizes: Vec<usize> = (1..=40).collect();
        for k in 1..=12 {
            sizes.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        let mut rng = Rng::new(0x4A11);
        for n in sizes {
            let planes = counter_planes(n);
            assert!(n < 1 << planes, "{planes} planes cannot hold {n}");
            for pattern in 0..3 {
                let prev: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                let cur: Vec<u64> = prev
                    .iter()
                    .map(|&p| match pattern {
                        0 => !p,
                        1 => rng.next_u64(),
                        _ => p ^ (rng.next_u64() & rng.next_u64() & rng.next_u64()),
                    })
                    .collect();
                let mut counters = vec![!0u64; planes];
                count_toggles(&prev, &cur, &mut counters);
                for lane in 0..64 {
                    let naive = prev
                        .iter()
                        .zip(&cur)
                        .filter(|(p, c)| ((*p ^ *c) >> lane) & 1 == 1)
                        .count();
                    let counted: usize = counters
                        .iter()
                        .enumerate()
                        .map(|(k, &c)| (((c >> lane) & 1) as usize) << k)
                        .sum();
                    assert_eq!(counted, naive, "n={n} pattern={pattern} lane={lane}");
                    if pattern == 0 {
                        assert_eq!(counted, n, "all-toggling n={n} lane={lane}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "toggle counter overflow")]
    fn harley_seal_counter_rejects_too_few_planes() {
        // 16 toggles per lane need five planes; four must trip the
        // overflow check in every build profile.
        let prev = vec![0u64; 16];
        let cur = vec![!0u64; 16];
        count_toggles(&prev, &cur, &mut [0u64; 4]);
    }

    #[test]
    fn toggle_counters_handle_full_flip() {
        // Force a cycle where every node toggles in one lane and none in the
        // other: counts must be exact at both extremes.
        let net = s27();
        let mut sim = LaneSeqSim::new(&net, 2);
        sim.broadcast_state(&Bits::zeros(3));
        // Hold the state through both cycles so lane 0 (constant inputs)
        // repeats the identical cycle exactly.
        let hold = Bits::from_bools(&[true, true, true]);
        let a = [Bits::from_str01("0000"), Bits::from_str01("0000")];
        sim.step(&a, Some(&hold));
        let b = [Bits::from_str01("0000"), Bits::from_str01("1111")];
        sim.step(&b, Some(&hold));
        let swa = sim.swa().unwrap();
        assert_eq!(swa[0], 0.0, "identical cycle has zero activity");
        assert!(swa[1] > 0.0);
    }
}
