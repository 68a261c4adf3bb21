//! `bist_large`: the paper's Chapter-4 flow on the two largest Default-scale
//! targets with the `Buffers` driver.
//!
//! Per target, one pass calls `driver::swafunc`, `generate_constrained`,
//! `improve_with_holding` (bounded by the base outcome's `SWAfunc`) and
//! `generate_unconstrained`, all under `SearchOptions::speculative(8)`.
//!
//! An untraced run times those library entry points, pass after pass, and
//! checks every pass's `summary_json()`, `counters_json()`, detection-flag
//! digests and `SWAfunc` bounds against the committed reference
//! (`reference/bist_large.jsonl`). A seed without a committed entry falls
//! back to the run's first pass as the reference, with a warning.
//!
//! The traced run rebuilds the same flow over `GenerationEngine`'s public
//! API with timing wrappers around the seed source and the admissibility
//! policy, runs it once untraced and once traced, and checks both against
//! the same reference.

use std::path::Path;
use std::time::Instant;

use fbt_bist::holding::HoldSet;
use fbt_core::driver::DrivingBlock;
use fbt_core::engine::{ConstructOptions, StateOverlay};
use fbt_core::outcome::OutcomeSummary;
use fbt_core::{
    generate_constrained, generate_unconstrained, improve_with_holding, swafunc,
    AdmissibilityPolicy, ConstrainedOutcome, FunctionalBistConfig, GenerationEngine,
    GenerationOutcome, GenerationStats, HoldingOutcome, SearchOptions, SeedSource, SwaRule,
    TpgSeedSource, Unbounded,
};
use fbt_fault::{FaultSimEngine, FaultSimOptions, PackedParallelSim, TestGroup, TestSet};
use fbt_netlist::json::{Json, ObjWriter};
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::lanes::{extract_lane, LaneSeqSim};
use fbt_sim::seq::simulate_sequence;
use fbt_sim::Bits;

use crate::metrics::{derive_seed, median, peak_rss_mb, quantile, repeat_setup, Report};
use crate::reference::{self, Record};
use crate::trace::Tracer;
use crate::Args;

/// The two largest Default-scale Chapter-4 targets.
const TARGETS: [&str; 2] = ["s35932", "s38584"];
/// Default-scale catalog divisor (`fbt-bench`'s `Scale::Default`).
const DIVISOR: usize = 8;
/// Lanes of the `LaneSeqSim` replay (the search's batch size).
const LANES: usize = 8;
/// Committed per-seed outputs of the library entry points.
const REFERENCE: &str = "perfbench/reference/bist_large.jsonl";

fn synthesize() -> Vec<Netlist> {
    TARGETS
        .iter()
        .map(|name| {
            let spec = fbt_netlist::synth::find(name).expect("catalog target");
            fbt_netlist::synth::generate(&spec.scaled(DIVISOR))
        })
        .collect()
}

fn config(seed: u64) -> FunctionalBistConfig {
    FunctionalBistConfig {
        // One thread: on the 2-vCPU reference host a second thread made the
        // grouped fault-simulation rounds slower (round p50 38-39 ms against
        // 29-31 ms on seeds 101-102) and tied their time to whether the
        // other vCPU was contended.
        search: SearchOptions {
            threads: 1,
            ..SearchOptions::speculative(8)
        },
        master_seed: derive_seed(seed, 0xC4),
        ..FunctionalBistConfig::scaled()
    }
}

/// One target's outputs and call times from one pass.
struct Flow {
    records: Vec<Record>,
    /// Wall time of each call, in `CALLS` order.
    call_s: [f64; 4],
    stats: [GenerationStats; 3],
    unconstrained: GenerationOutcome,
}

/// The calls of one target's flow, in order.
const CALLS: [&str; 4] = ["swafunc", "constrained", "holding", "unconstrained"];

impl Flow {
    fn new(
        net: &Netlist,
        bound: f64,
        call_s: [f64; 4],
        base: ConstrainedOutcome,
        held: HoldingOutcome,
        unc: GenerationOutcome,
    ) -> Self {
        let r = |call: &str, part: &str, v: String| (format!("{}/{call}/{part}", net.name()), v);
        Flow {
            records: vec![
                r("swafunc", "bound", format!("{bound}")),
                r("constrained", "summary", base.summary_json()),
                r("constrained", "counters", base.stats.counters_json()),
                r("constrained", "detected", reference::flags(&base.detected)),
                r("holding", "summary", held.summary_json()),
                r("holding", "counters", held.stats.counters_json()),
                r("holding", "detected", reference::flags(&held.detected)),
                r("unconstrained", "summary", unc.summary_json()),
                r("unconstrained", "counters", unc.stats.counters_json()),
                r("unconstrained", "detected", reference::flags(&unc.detected)),
            ],
            call_s,
            stats: [base.stats.clone(), held.stats.clone(), unc.stats.clone()],
            unconstrained: unc,
        }
    }

    /// Wall time per candidate-seed evaluation of each generation call, in
    /// ms; `swafunc`'s time is charged to the constrained call it bounds.
    fn ms_per_eval(&self) -> [f64; 3] {
        let ms = [
            self.call_s[0] + self.call_s[1],
            self.call_s[2],
            self.call_s[3],
        ];
        std::array::from_fn(|i| ms[i] * 1e3 / self.stats[i].evals.max(1) as f64)
    }

    /// `swafunc` + constrained + holding.
    fn program_s(&self) -> f64 {
        self.call_s[..3].iter().sum()
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The flow through the library's own entry points.
fn library_flow(net: &Netlist, cfg: &FunctionalBistConfig) -> Flow {
    let (bound, swafunc_s) = timed(|| swafunc(net, &DrivingBlock::Buffers, cfg));
    let (base, constrained_s) = timed(|| generate_constrained(net, bound, cfg));
    let (held, holding_s) = timed(|| improve_with_holding(net, base.swafunc, cfg, &base));
    let (unc, unconstrained_s) = timed(|| generate_unconstrained(net, cfg));
    let call_s = [swafunc_s, constrained_s, holding_s, unconstrained_s];
    Flow::new(net, bound, call_s, base, held, unc)
}

/// A pass over both targets.
fn library_pass(nets: &[Netlist], cfg: &FunctionalBistConfig) -> Vec<Flow> {
    nets.iter().map(|net| library_flow(net, cfg)).collect()
}

fn pass_records(flows: &[Flow]) -> Vec<Record> {
    flows.iter().flat_map(|f| f.records.clone()).collect()
}

/// The committed reference records of `seed`, or `None` when the file has
/// no entry for it.
fn load_reference(seed: u64) -> Result<Option<Vec<Record>>, String> {
    let text = std::fs::read_to_string(Path::new(REFERENCE))
        .map_err(|e| format!("reading {REFERENCE}: {e}"))?;
    let mut records = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).map_err(|e| format!("{REFERENCE}: {e}"))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{REFERENCE}: a line without {k:?}"))
        };
        if field("seed")?.as_u64() != Some(seed) {
            continue;
        }
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{REFERENCE}: {k:?} is not a string"))
        };
        records.push((text("key")?, text("value")?));
    }
    Ok((!records.is_empty()).then_some(records))
}

/// Replace `seed`'s entries in the committed reference with `records`,
/// keeping the file ordered by seed.
fn write_reference(seed: u64, records: &[Record]) -> Result<(), String> {
    let old = std::fs::read_to_string(REFERENCE).unwrap_or_default();
    let mut lines: Vec<(u64, String)> = Vec::new();
    for line in old.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).map_err(|e| format!("{REFERENCE}: {e}"))?;
        let s = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
        if s != seed {
            lines.push((s, line.to_string()));
        }
    }
    for (key, value) in records {
        let mut o = ObjWriter::new();
        o.num("seed", seed).str("key", key).str("value", value);
        lines.push((seed, o.finish()));
    }
    lines.sort_by_key(|(s, _)| *s);
    let text: String = lines.iter().map(|(_, l)| format!("{l}\n")).collect();
    std::fs::write(REFERENCE, text).map_err(|e| format!("writing {REFERENCE}: {e}"))
}

/// The reference for this run: the committed entry of `args.seed`, or, when
/// there is none, `fallback`'s records (the run's own first pass), with a
/// warning. `--corrupt-reference` damages it either way.
fn reference_for(
    args: &Args,
    committed: Option<Vec<Record>>,
    fallback: impl FnOnce() -> Vec<Record>,
) -> Vec<Record> {
    let mut reference = committed.unwrap_or_else(|| {
        eprintln!(
            "perfbench: warning: {REFERENCE} has no entry for seed {}; checking against \
             this run's first library pass instead",
            args.seed
        );
        fallback()
    });
    if args.corrupt_reference {
        reference::corrupt(&mut reference);
    }
    reference
}

fn host(args: &Args, cfg: &FunctionalBistConfig) -> String {
    crate::host::fingerprint(
        &args.workload,
        args.seed,
        &[(
            "search_threads",
            cfg.search.threads,
            cfg.search.resolved_threads(),
        )],
    )
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (nets, setup_s) = repeat_setup(|| Ok(synthesize()), |_| Ok(()))?;
    let cfg = config(args.seed);
    let mut report = Report {
        host: host(args, &cfg),
        ..Report::default()
    };
    if args.write_reference {
        let records = pass_records(&library_pass(&nets, &cfg));
        write_reference(args.seed, &records)?;
        println!("wrote seed {} to {REFERENCE}", args.seed);
    }
    let committed = load_reference(args.seed)?;
    if args.trace {
        traced_run(args, &nets, &cfg, setup_s, committed, &mut report)?;
        return Ok(report);
    }

    // Passes through the library entry points until the time is up; every
    // pass, the first included, is checked against the reference.
    let t_run = Instant::now();
    let mut passes: Vec<Vec<Flow>> = Vec::new();
    let mut reference = committed.map(|c| reference_for(args, Some(c), Vec::new));
    while passes.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let flows = library_pass(&nets, &cfg);
        let records = pass_records(&flows);
        let reference =
            reference.get_or_insert_with(|| reference_for(args, None, || records.clone()));
        report.attempted += (CALLS.len() * flows.len()) as u64;
        reference::check(
            &format!("pass {}", passes.len()),
            reference,
            &records,
            &mut report,
        );
        passes.push(flows);
    }

    let flows = || passes.iter().flatten();
    let busy_s: f64 = flows().flat_map(|f| f.call_s).sum();
    let evals: usize = flows().flat_map(|f| &f.stats).map(|s| s.evals).sum();
    let eval_ms: Vec<f64> = flows().flat_map(Flow::ms_per_eval).collect();
    let per_pass = |f: &dyn Fn(&Flow) -> f64| -> Vec<f64> {
        passes.iter().map(|p| p.iter().map(f).sum()).collect()
    };
    report.named("bist_program_s", median(&per_pass(&Flow::program_s)), "s");
    report.named("baseline_gen_s", median(&per_pass(&|f| f.call_s[3])), "s");
    report.named("passes", passes.len() as f64, "count");
    report.named("evals", evals as f64, "count");
    let e = &mut report.end_to_end;
    e.insert("setup_s", setup_s);
    e.insert("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
    e.insert("ops_per_s", evals as f64 / busy_s);
    e.insert("op_p50_ms", median(&eval_ms));
    e.insert("op_p75_ms", quantile(&eval_ms, 0.75));
    Ok(report)
}

// ---------------------------------------------------------------------------
// The flow over the engine's public API (traced run only)
// ---------------------------------------------------------------------------

/// Spans around the engine-API flow's calls in the traced run; without a
/// tracer the same flow runs untimed, as the base of the tracing overhead.
struct Probe<'t> {
    tracer: Option<&'t Tracer>,
}

impl Probe<'_> {
    fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        match self.tracer {
            Some(tr) => tr.span(name, request, f),
            None => f(),
        }
    }
}

/// `SeedSource` wrapper timing every TPG expansion.
struct ProbedSource<'p, 't> {
    inner: TpgSeedSource,
    probe: &'p Probe<'t>,
}

impl SeedSource for ProbedSource<'_, '_> {
    fn expand(&self, seed: u64, len: usize) -> Vec<Bits> {
        self.probe
            .span("bist.tpg_expand", 0, || self.inner.expand(seed, len))
    }
}

/// `AdmissibilityPolicy` wrapper timing every admissibility decision.
struct ProbedPolicy<'p, 't, P> {
    inner: P,
    probe: &'p Probe<'t>,
}

impl<P: AdmissibilityPolicy> AdmissibilityPolicy for ProbedPolicy<'_, '_, P> {
    fn admissible_prefix(
        &self,
        net: &Netlist,
        start: &Bits,
        pis: &[Bits],
        overlay: &StateOverlay,
    ) -> usize {
        self.probe.span("core.policy", 0, || {
            self.inner.admissible_prefix(net, start, pis, overlay)
        })
    }

    fn probe_cycles(&self, seq_len: usize) -> usize {
        self.inner.probe_cycles(seq_len)
    }

    fn admissible_prefix_from_trace(&self, swa: &[Option<f64>], total: usize) -> Option<usize> {
        self.probe.span("core.policy", 0, || {
            self.inner.admissible_prefix_from_trace(swa, total)
        })
    }
}

fn api_constrained(
    p: &Probe<'_>,
    net: &Netlist,
    bound: f64,
    cfg: &FunctionalBistConfig,
) -> ConstrainedOutcome {
    let mut engine = p.span("core.engine_new", 0, || GenerationEngine::new(net, cfg));
    let source = ProbedSource {
        inner: TpgSeedSource::for_circuit(net, cfg),
        probe: p,
    };
    let policy = ProbedPolicy {
        inner: SwaRule { bound },
        probe: p,
    };
    let mut rng = Rng::new(cfg.master_seed);
    let mut detected = vec![false; engine.num_faults()];
    let zero = Bits::zeros(net.num_dffs());
    let run = p.span("core.construct", 0, || {
        engine.construct(
            &source,
            &policy,
            &StateOverlay::Identity,
            std::slice::from_ref(&zero),
            &mut rng,
            &mut detected,
            &ConstructOptions {
                r_limit: cfg.segment_failure_limit,
                q_limit: cfg.attempt_failure_limit,
                single_sequence: false,
                chain_state: true,
                keep_tests: false,
            },
        )
    });
    ConstrainedOutcome {
        sequences: run.sequences,
        swafunc: bound,
        summary: OutcomeSummary {
            faults: engine.into_faults(),
            detected,
            tests_applied: run.tests_applied,
            peak_swa: run.peak_swa,
            stats: run.stats,
        },
    }
}

/// The §4.5.2 binary-tree hold-set selection, as `improve_with_holding`
/// runs it, over the engine's public API.
fn api_holding(
    p: &Probe<'_>,
    net: &Netlist,
    bound: f64,
    cfg: &FunctionalBistConfig,
    base: &ConstrainedOutcome,
) -> HoldingOutcome {
    let source = ProbedSource {
        inner: TpgSeedSource::for_circuit(net, cfg),
        probe: p,
    };
    let policy = ProbedPolicy {
        inner: SwaRule { bound },
        probe: p,
    };
    let mut engine = p.span("core.engine_new", 0, || {
        GenerationEngine::with_faults(net, cfg, base.faults.clone(), false)
    });
    let n_ff = net.num_dffs();
    let zero = Bits::zeros(n_ff);
    let mut construct = |mask: &Bits, r: usize, q: usize, detected: &mut [bool], rng: &mut Rng| {
        let overlay = StateOverlay::Hold {
            mask: mask.clone(),
            h: cfg.hold_period_log2,
        };
        p.span("core.construct", 0, || {
            engine.construct(
                &source,
                &policy,
                &overlay,
                std::slice::from_ref(&zero),
                rng,
                detected,
                &ConstructOptions {
                    r_limit: r,
                    q_limit: q,
                    single_sequence: false,
                    chain_state: true,
                    keep_tests: false,
                },
            )
        })
    };
    let mut stats = GenerationStats::default();
    let mut rng = Rng::new(cfg.master_seed ^ 0x401D);
    let height = cfg.hold_tree_height as usize;
    let n_nodes = (1usize << (height + 1)) - 1;
    let n_internal = (1usize << height) - 1;
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    sets[0] = (0..n_ff).collect();
    for i in 0..n_internal {
        if sets[i].len() < 2 {
            continue;
        }
        let mut shuffled = sets[i].clone();
        rng.shuffle(&mut shuffled);
        let (a, b) = shuffled.split_at(shuffled.len() / 2);
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        a.sort_unstable();
        b.sort_unstable();
        sets[2 * i + 1] = a;
        sets[2 * i + 2] = b;
    }
    let count = |d: &[bool]| d.iter().filter(|&&x| x).count();
    let mut det = vec![0usize; n_nodes];
    for i in 0..n_nodes {
        if sets[i].is_empty() {
            continue;
        }
        let mask = HoldSet::new(sets[i].clone()).mask(n_ff);
        let mut scratch = base.detected.clone();
        let mut probe_rng = Rng::new(cfg.master_seed ^ (0xD37 + i as u64));
        let before = count(&scratch);
        let probe = construct(&mask, 1, 1, &mut scratch, &mut probe_rng);
        stats.absorb(&probe.stats);
        det[i] = count(&scratch) - before;
    }
    let mut selected: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n_nodes];
    for i in (0..n_nodes).rev() {
        if i >= n_internal {
            if det[i] > 0 {
                selected[i] = vec![sets[i].clone()];
            }
        } else {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let dmax = det[l].max(det[r]);
            if det[i] <= dmax {
                let mut merged = selected[l].clone();
                merged.extend(selected[r].clone());
                selected[i] = merged;
                det[i] = dmax;
            } else if !sets[i].is_empty() {
                selected[i] = vec![sets[i].clone()];
            }
        }
    }
    let mut detected = base.detected.clone();
    let mut kept_sets = Vec::new();
    let mut sequences_per_set = Vec::new();
    let mut tests_applied = 0usize;
    let mut peak_swa = 0.0f64;
    for subset in std::mem::take(&mut selected[0]) {
        let mask = HoldSet::new(subset.clone()).mask(n_ff);
        let before = count(&detected);
        let mut commit_rng = rng.fork();
        let commit = construct(
            &mask,
            cfg.segment_failure_limit,
            cfg.attempt_failure_limit,
            &mut detected,
            &mut commit_rng,
        );
        stats.absorb(&commit.stats);
        if count(&detected) > before {
            kept_sets.push(HoldSet::new(subset));
            sequences_per_set.push(commit.sequences);
            tests_applied += commit.tests_applied;
            peak_swa = peak_swa.max(commit.peak_swa);
        }
    }
    HoldingOutcome {
        sets: kept_sets,
        sequences_per_set,
        base_coverage: base.fault_coverage(),
        swafunc: bound,
        summary: OutcomeSummary {
            faults: engine.into_faults(),
            detected,
            tests_applied,
            peak_swa,
            stats,
        },
    }
}

fn api_unconstrained(
    p: &Probe<'_>,
    net: &Netlist,
    cfg: &FunctionalBistConfig,
) -> GenerationOutcome {
    let mut engine = p.span("core.engine_new", 0, || GenerationEngine::new(net, cfg));
    let source = ProbedSource {
        inner: TpgSeedSource::for_circuit(net, cfg),
        probe: p,
    };
    let policy = ProbedPolicy {
        inner: Unbounded,
        probe: p,
    };
    let mut rng = Rng::new(cfg.master_seed);
    let zero = Bits::zeros(net.num_dffs());
    let mut detected = vec![false; engine.num_faults()];
    let run = p.span("core.construct", 0, || {
        engine.construct(
            &source,
            &policy,
            &StateOverlay::Identity,
            std::slice::from_ref(&zero),
            &mut rng,
            &mut detected,
            &ConstructOptions {
                r_limit: cfg.useless_seed_limit,
                q_limit: 1,
                single_sequence: true,
                chain_state: false,
                keep_tests: true,
            },
        )
    });
    let mut stats = run.stats;
    let compaction = p.span("core.compact", 0, || engine.compact(&run.kept, &mut stats));
    let seeds = compaction
        .kept_indices
        .iter()
        .map(|&i| run.kept[i].seed)
        .collect();
    GenerationOutcome {
        seeds,
        summary: OutcomeSummary {
            faults: engine.into_faults(),
            detected: compaction.detected,
            tests_applied: compaction.tests_applied,
            peak_swa: compaction.peak_swa,
            stats,
        },
    }
}

fn api_flow(p: &Probe<'_>, net: &Netlist, cfg: &FunctionalBistConfig, request: u64) -> Flow {
    p.span("bist.flow", request, || {
        let (bound, swafunc_s) = timed(|| {
            p.span("sim.swafunc", 0, || {
                swafunc(net, &DrivingBlock::Buffers, cfg)
            })
        });
        let (base, constrained_s) = timed(|| {
            p.span("core.constrained", 0, || {
                api_constrained(p, net, bound, cfg)
            })
        });
        let (held, holding_s) = timed(|| {
            p.span("core.holding", 0, || {
                api_holding(p, net, base.swafunc, cfg, &base)
            })
        });
        let (unc, unconstrained_s) =
            timed(|| p.span("core.unconstrained", 0, || api_unconstrained(p, net, cfg)));
        let call_s = [swafunc_s, constrained_s, holding_s, unconstrained_s];
        Flow::new(net, bound, call_s, base, held, unc)
    })
}

/// A pass over both targets through the engine's public API.
fn api_pass(p: &Probe<'_>, nets: &[Netlist], cfg: &FunctionalBistConfig) -> Vec<Flow> {
    nets.iter()
        .enumerate()
        .map(|(i, net)| api_flow(p, net, cfg, i as u64 + 1))
        .collect()
}

/// `LaneSeqSim` over the unconstrained outcome's selected seeds (each a
/// full-length segment from the reset state), `LANES` at a time. Every
/// lane's trajectory is checked against the scalar simulator. Returns
/// `(seconds, lane-cycles, mismatching lanes)`.
fn replay_lanes(net: &Netlist, cfg: &FunctionalBistConfig, seeds: &[u64]) -> (f64, u64, usize) {
    let source = TpgSeedSource::for_circuit(net, cfg);
    let zero = Bits::zeros(net.num_dffs());
    let len = cfg.seq_len;
    let (mut secs, mut lane_cycles, mut bad) = (0.0, 0u64, 0usize);
    for chunk in seeds.chunks(LANES) {
        let pis: Vec<Vec<Bits>> = chunk.iter().map(|&s| source.expand(s, len)).collect();
        let t = Instant::now();
        let mut sim = LaneSeqSim::new(net, chunk.len());
        sim.broadcast_state(&zero);
        let sw = sim.state_words().len();
        let mut words: Vec<u64> = Vec::with_capacity(len * sw);
        #[allow(clippy::needless_range_loop)]
        for c in 0..len {
            sim.step_with(|l| &pis[l][c], None);
            words.extend_from_slice(sim.state_words());
        }
        secs += t.elapsed().as_secs_f64();
        lane_cycles += (chunk.len() * len) as u64;
        for (l, lane_pis) in pis.iter().enumerate() {
            let scalar = simulate_sequence(net, &zero, lane_pis);
            let same = (0..len)
                .all(|c| extract_lane(&words[c * sw..(c + 1) * sw], l) == scalar.states[c + 1]);
            bad += usize::from(!same);
        }
    }
    (secs, lane_cycles, bad)
}

/// Grouped PPSFP over the unconstrained outcome's tests, one group per
/// selected seed, against an empty baseline, with the search's threads. The union of the groups'
/// detections must equal the outcome's detection flags. Returns
/// `(seconds, test-faults, matches)`.
fn replay_ppsfp(
    net: &Netlist,
    cfg: &FunctionalBistConfig,
    out: &GenerationOutcome,
) -> (f64, u64, bool) {
    let source = TpgSeedSource::for_circuit(net, cfg);
    let zero = Bits::zeros(net.num_dffs());
    let tests: Vec<Vec<fbt_fault::BroadsideTest>> = out
        .seeds
        .iter()
        .map(|&s| {
            let pis = source.expand(s, cfg.seq_len);
            let traj = simulate_sequence(net, &zero, &pis);
            fbt_core::extract::functional_tests(&pis, &traj.states)
        })
        .collect();
    let groups: Vec<TestGroup<'_>> = tests
        .iter()
        .map(|t| TestGroup::new(TestSet::Broadside(t)))
        .collect();
    let faults = &out.faults;
    let baseline = vec![false; faults.len()];
    let mut engine = PackedParallelSim::new(net);
    let t = Instant::now();
    let opts = FaultSimOptions::new().threads(cfg.search.threads);
    let outs = engine.simulate_groups(&groups, faults, &baseline, &opts);
    let secs = t.elapsed().as_secs_f64();
    let mut union = vec![false; faults.len()];
    for o in &outs {
        for &i in &o.newly {
            union[i] = true;
        }
    }
    let n_tests: usize = tests.iter().map(Vec::len).sum();
    (secs, (n_tests * faults.len()) as u64, union == out.detected)
}

fn traced_run(
    args: &Args,
    nets: &[Netlist],
    cfg: &FunctionalBistConfig,
    setup_s: f64,
    committed: Option<Vec<Record>>,
    report: &mut Report,
) -> Result<(), String> {
    let kernel_before = fbt_sim::kernel::cache_stats();
    // The engine-API flow untraced (the base of the overhead), then traced.
    let (untraced, untraced_s) = timed(|| api_pass(&Probe { tracer: None }, nets, cfg));
    let tr = Tracer::new();
    let (traced, traced_s) = timed(|| api_pass(&Probe { tracer: Some(&tr) }, nets, cfg));
    let kernel = fbt_sim::kernel::cache_stats().since(&kernel_before);
    let reference = reference_for(args, committed, || {
        report.attempted += (CALLS.len() * nets.len()) as u64;
        pass_records(&library_pass(nets, cfg))
    });
    report.attempted += (2 * CALLS.len() * nets.len()) as u64;
    reference::check(
        "untraced pass",
        &reference,
        &pass_records(&untraced),
        report,
    );
    reference::check("traced pass", &reference, &pass_records(&traced), report);

    // Layer replays, outside the traced pass.
    let (mut lane_s, mut lane_cycles, mut ppsfp_s, mut test_faults) = (0.0, 0u64, 0.0, 0u64);
    let (mut preflight_s, mut active_faults, mut skipped) = (0.0, 0u64, 0u64);
    for (net, flow) in nets.iter().zip(&traced) {
        let unc = &flow.unconstrained;
        let (s, c, bad) = replay_lanes(net, cfg, &unc.seeds);
        lane_s += s;
        lane_cycles += c;
        report.attempted += 1;
        if bad > 0 {
            report.mismatch(format!(
                "{}: {bad} LaneSeqSim lanes differ from SeqSim",
                net.name()
            ));
        }
        let (s, tf, same) = replay_ppsfp(net, cfg, unc);
        ppsfp_s += s;
        test_faults += tf;
        report.attempted += 1;
        if !same {
            report.mismatch(format!("{}: PPSFP replay coverage differs", net.name()));
        }
        let t = Instant::now();
        let evidence = tr.span("lint.preflight", 0, || {
            fbt_lint::PreflightEvidence::analyze(net)
        });
        preflight_s += t.elapsed().as_secs_f64();
        std::hint::black_box(evidence.untestable_lines());
        let st = &flow.stats[0];
        skipped += st.faults_skipped_lint as u64;
        active_faults += (unc.faults.len() - st.faults_skipped_lint) as u64;
    }

    let totals = tr.total_s();
    let selfs = tr.self_s();
    let counts = tr.counts();
    let total = |k: &str| totals.get(k).copied().unwrap_or(0.0);
    let mut sum = GenerationStats::default();
    for f in &traced {
        for s in &f.stats {
            sum.evals += s.evals;
            sum.wasted_evals += s.wasted_evals;
            sum.seeds_kept += s.seeds_kept;
            sum.fsim_calls += s.fsim_calls;
            sum.candidate_groups += s.candidate_groups;
            sum.sim_cycles += s.sim_cycles;
        }
    }
    let expand_calls = counts.get("bist.tpg_expand").copied().unwrap_or(0);
    let l = &mut report.layers;
    l.insert("netlist.synth_s", setup_s);
    l.insert("sim.kernel_builds", kernel.builds as f64);
    l.insert("sim.kernel_hits", kernel.hits as f64);
    l.insert("sim.kernel_build_s", kernel.build_wall.as_secs_f64());
    l.insert("sim.cycles", sum.sim_cycles as f64);
    l.insert("sim.swafunc_s", total("sim.swafunc"));
    l.insert(
        "sim.lanes_ns_per_lane_cycle",
        lane_s * 1e9 / lane_cycles.max(1) as f64,
    );
    l.insert("bist.tpg_expand_calls", expand_calls as f64);
    l.insert("bist.tpg_expand_s", total("bist.tpg_expand"));
    l.insert(
        "bist.tpg_ns_per_cycle",
        total("bist.tpg_expand") * 1e9 / (expand_calls.max(1) * cfg.seq_len as u64) as f64,
    );
    l.insert("fault.fsim_calls", sum.fsim_calls as f64);
    l.insert("fault.candidate_groups", sum.candidate_groups as f64);
    l.insert("fault.active_faults", active_faults as f64);
    l.insert(
        "fault.ppsfp_ns_per_test_fault",
        ppsfp_s * 1e9 / test_faults.max(1) as f64,
    );
    l.insert("core.engine_new_s", total("core.engine_new"));
    l.insert("core.construct_s", total("core.construct"));
    l.insert(
        "core.construct_self_s",
        selfs.get("core.construct").copied().unwrap_or(0.0),
    );
    l.insert("core.policy_s", total("core.policy"));
    l.insert("core.compact_s", total("core.compact"));
    l.insert("core.holding_s", total("core.holding"));
    l.insert("core.evals", sum.evals as f64);
    l.insert("core.wasted_evals", sum.wasted_evals as f64);
    l.insert("core.seeds_kept", sum.seeds_kept as f64);
    l.insert(
        "core.useful_ratio",
        sum.seeds_kept as f64 / sum.evals.max(1) as f64,
    );
    l.insert("lint.preflight_s", preflight_s);
    l.insert("lint.faults_skipped", skipped as f64);
    l.insert(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    report.named("untraced_pass_s", untraced_s, "s");
    report.named("traced_pass_s", traced_s, "s");

    tr.save(args, &report.host)?;
    Ok(())
}
