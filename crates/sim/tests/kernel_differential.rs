//! Differential suite pinning the compiled kernels to the gate-walking
//! interpreters, bit for bit, on the ISCAS catalog circuits, on random
//! netlists and on hand-built netlists with every gate kind at fan-ins 1
//! to 8: packed two-valued values, three-valued (X-propagating) values,
//! single-fault propagation, and the per-lane switching activity of the
//! multi-lane sequential simulator.

use fbt_netlist::rng::Rng;
use fbt_netlist::synth::{self, CircuitSpec};
use fbt_netlist::{bench, s27, GateKind, Netlist};
use fbt_sim::kernel::{self, FaultProp, Kernel};
use fbt_sim::lanes::{extract_lane, LaneSeqSim};
use fbt_sim::seq::SeqSim;
use fbt_sim::{comb, tv, Bits, Trit};

/// All small ISCAS catalog circuits plus s27 — every circuit the CI kernel
/// step exercises end to end.
fn iscas_nets() -> Vec<Netlist> {
    let mut nets = vec![s27()];
    nets.extend(synth::iscas_small().iter().map(synth::generate));
    nets
}

fn random_nets(n: usize, seed: u64) -> Vec<Netlist> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let pi = 2 + rng.below(8);
            let po = 1 + rng.below(5);
            let ff = 1 + rng.below(12);
            let gates = 25 + rng.below(250);
            let mut spec = CircuitSpec::new("kdiff", pi, po, ff, gates);
            spec.seed = rng.next_u64();
            synth::generate(&spec)
        })
        .collect()
}

/// Hand-built netlists covering what synthesized circuits do not: all six
/// multi-input kinds at fan-in 1, 3, 4 and 5 to 8, over inputs, flip-flops
/// and NOT/BUF chains (so resolved operands carry inversions), in two
/// layers so wide gates also read wide gates.
fn wide_nets() -> Vec<Netlist> {
    const KINDS: [&str; 6] = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"];
    const FANINS: [usize; 7] = [1, 3, 4, 5, 6, 7, 8];
    let mut rng = Rng::new(0x71DE);
    let mut nets = Vec::new();
    for variant in 0..3 {
        let mut text = String::new();
        let mut sources: Vec<String> = Vec::new();
        for i in 0..6 {
            text += &format!("INPUT(i{i})\n");
            sources.push(format!("i{i}"));
        }
        for q in 0..2 {
            text += &format!("q{q} = DFF(g1_{q})\n");
            sources.push(format!("q{q}"));
        }
        // Chains: a single inverter, a double inverter, a buffer over an
        // inverter and a buffer over a flip-flop.
        text += "n0 = NOT(i0)\nn1 = NOT(n0)\nn2 = BUFF(n0)\nn3 = NOT(i3)\nn4 = BUFF(q1)\n";
        sources.extend((0..5).map(|k| format!("n{k}")));
        let mut layer0: Vec<String> = Vec::new();
        for layer in 0..2 {
            let mut made = Vec::new();
            for (k, kind) in KINDS.iter().enumerate() {
                for &fanin in &FANINS {
                    let name = format!("g{layer}_{}", made.len());
                    let pick: Vec<String> = (0..fanin)
                        .map(|j| {
                            // Layer 1 reads layer-0 gates and their chains.
                            if layer == 1 && (j + k + variant) % 2 == 0 {
                                layer0[rng.below(layer0.len())].clone()
                            } else {
                                sources[rng.below(sources.len())].clone()
                            }
                        })
                        .collect();
                    text += &format!("{name} = {kind}({})\n", pick.join(", "));
                    made.push(name);
                }
            }
            if layer == 0 {
                // Chains over wide gates, read back by layer 1.
                let gates = made.len();
                for c in (0..gates).step_by(5) {
                    text += &format!("c{c} = NOT({})\nd{c} = BUFF(c{c})\n", made[c]);
                    made.push(format!("d{c}"));
                }
                layer0 = made.clone();
            }
            for g in &made {
                text += &format!("OUTPUT({g})\n");
            }
        }
        nets.push(
            bench::parse(&text, &format!("wide{variant}")).expect("hand-built netlist parses"),
        );
    }
    nets
}

#[test]
fn wide_nets_cover_every_kind_and_fanin() {
    for net in wide_nets() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for fanin in [1usize, 3, 4, 5, 6, 7, 8] {
                assert!(
                    net.node_ids()
                        .any(|id| net.node(id).kind() == kind
                            && net.node(id).fanins().len() == fanin),
                    "{} lacks a {kind:?} gate with {fanin} fanins",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn compiled_kernels_match_interpreters_on_wide_and_odd_arities() {
    let mut rng = Rng::new(0x0DD);
    for net in wide_nets() {
        let kernel = Kernel::for_netlist(&net);
        let n = net.num_nodes();
        for round in 0..8 {
            let mut reference = vec![0u64; n];
            for &id in net.inputs().iter().chain(net.dffs()) {
                reference[id.index()] = rng.next_u64();
            }
            let mut compiled = reference.clone();
            comb::eval_packed(&net, &mut reference);
            kernel.eval2(&mut compiled);
            assert_eq!(compiled, reference, "{} eval2 round {round}", net.name());

            // Every non-source site, complemented in a random lane subset:
            // the faithful program's event-driven sweep against the
            // interpreter's full-cone re-evaluation.
            let mut prop = FaultProp::default();
            let mut scratch = reference.clone();
            for site in net.node_ids() {
                if net.node(site).kind().is_source() {
                    continue;
                }
                let patch = reference[site.index()] ^ rng.next_u64();
                let diff =
                    kernel.propagate(&mut prop, site.index(), patch, &mut scratch, &reference);
                assert_eq!(scratch, reference, "{} restore after {site:?}", net.name());
                let cone = net.fanout_cone(site);
                let mut faulty = reference.clone();
                faulty[site.index()] = patch;
                comb::eval_packed_cone(&net, &cone[1..], &mut faulty);
                let expect = cone
                    .iter()
                    .filter(|c| kernel.observable()[c.index()])
                    .fold(0u64, |d, c| d | (faulty[c.index()] ^ reference[c.index()]));
                assert_eq!(
                    diff,
                    expect,
                    "{} propagate from {}",
                    net.name(),
                    net.node_name(site)
                );
            }
        }

        let mut v1 = vec![0u64; n];
        let mut v0 = vec![0u64; n];
        let mut lane_sources: Vec<Vec<Trit>> = Vec::new();
        for lane in 0..64 {
            let sources: Vec<Trit> = net
                .inputs()
                .iter()
                .chain(net.dffs())
                .map(|&id| {
                    let t = match rng.below(3) {
                        0 => Trit::X,
                        1 => Trit::One,
                        _ => Trit::Zero,
                    };
                    kernel::load_trit(&mut v1, &mut v0, id.index(), lane, t);
                    t
                })
                .collect();
            lane_sources.push(sources);
        }
        kernel.eval3(&mut v1, &mut v0);
        for (lane, sources) in lane_sources.iter().enumerate() {
            let mut reference = vec![Trit::X; n];
            for (&t, &id) in sources.iter().zip(net.inputs().iter().chain(net.dffs())) {
                reference[id.index()] = t;
            }
            tv::eval_tv(&net, &mut reference);
            for id in net.node_ids() {
                assert_eq!(
                    kernel::read_trit(&v1, &v0, id.index(), lane),
                    reference[id.index()],
                    "{} eval3 node {} lane {lane}",
                    net.name(),
                    net.node_name(id)
                );
            }
        }
    }
}

fn random_bits(n: usize, rng: &mut Rng) -> Bits {
    (0..n).map(|_| rng.bit()).collect()
}

#[test]
fn compiled_values_match_interpreter_on_iscas_and_random_nets() {
    let mut rng = Rng::new(0xD1FF);
    for net in iscas_nets().into_iter().chain(random_nets(5, 0xD1FF)) {
        let kernel = Kernel::for_netlist(&net);
        for round in 0..4 {
            let mut reference = vec![0u64; net.num_nodes()];
            for &id in net.inputs().iter().chain(net.dffs()) {
                reference[id.index()] = rng.next_u64();
            }
            let mut compiled = reference.clone();
            comb::eval_packed(&net, &mut reference);
            kernel.eval2(&mut compiled);
            assert_eq!(compiled, reference, "{} round {round}", net.name());
        }
    }
}

#[test]
fn compiled_three_valued_matches_interpreter_with_x_sources() {
    let mut rng = Rng::new(0x3A1);
    for net in iscas_nets().into_iter().chain(random_nets(3, 0x3A1)) {
        let kernel = Kernel::for_netlist(&net);
        let n = net.num_nodes();
        let mut v1 = vec![0u64; n];
        let mut v0 = vec![0u64; n];
        let mut lane_sources: Vec<Vec<Trit>> = Vec::new();
        for lane in 0..64 {
            let mut sources = Vec::new();
            for &id in net.inputs().iter().chain(net.dffs()) {
                let t = match rng.next_u64() % 4 {
                    0 => Trit::X, // X-heavy mix: the interesting cases
                    1 => Trit::One,
                    _ => Trit::Zero,
                };
                kernel::load_trit(&mut v1, &mut v0, id.index(), lane, t);
                sources.push(t);
            }
            lane_sources.push(sources);
        }
        kernel.eval3(&mut v1, &mut v0);
        for (lane, sources) in lane_sources.iter().enumerate() {
            let mut reference = vec![Trit::X; n];
            for (&t, &id) in sources.iter().zip(net.inputs().iter().chain(net.dffs())) {
                reference[id.index()] = t;
            }
            tv::eval_tv(&net, &mut reference);
            for id in net.node_ids() {
                assert_eq!(
                    kernel::read_trit(&v1, &v0, id.index(), lane),
                    reference[id.index()],
                    "{} node {} lane {lane}",
                    net.name(),
                    net.node_name(id)
                );
            }
        }
    }
}

#[test]
fn lane_sim_on_kernel_matches_scalar_seqsim_values_and_swa() {
    let mut rng = Rng::new(0x5E);
    for net in iscas_nets().into_iter().take(6).chain(random_nets(2, 9)) {
        let lanes = 64.min(5 + rng.below(60));
        let cycles = 10;
        let start = random_bits(net.num_dffs(), &mut rng);
        let pis: Vec<Vec<Bits>> = (0..lanes)
            .map(|_| {
                (0..cycles)
                    .map(|_| random_bits(net.num_inputs(), &mut rng))
                    .collect()
            })
            .collect();

        let mut packed = LaneSeqSim::new(&net, lanes);
        packed.broadcast_state(&start);
        let mut scalars: Vec<SeqSim<'_>> = (0..lanes).map(|_| SeqSim::new(&net, &start)).collect();
        #[allow(clippy::needless_range_loop)] // `c` indexes lane-major `pis`
        for c in 0..cycles {
            packed.step_with(|l| &pis[l][c], None);
            let swa = packed.swa();
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let r = scalar.step_holding(&pis[l][c], None);
                assert_eq!(
                    packed.lane_state(l),
                    r.next_state,
                    "{} cycle {c} lane {l}",
                    net.name()
                );
                assert_eq!(
                    extract_lane(packed.output_words(), l),
                    r.outputs,
                    "{} outputs cycle {c} lane {l}",
                    net.name()
                );
                match (swa, r.switching_activity) {
                    (Some(s), Some(expect)) => {
                        assert_eq!(s[l], expect, "{} swa cycle {c} lane {l}", net.name())
                    }
                    (None, None) => {}
                    (a, b) => panic!("swa definedness mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
