//! `sat_catalog`: `fbt_sat::solve_transition_fault`, one query per
//! transition fault, sequentially, over the undivided ISCAS89-profile
//! catalog circuits, with `bench_sat`'s Default conflict limit.
//!
//! Verdicts do not depend on the query order, so the workload seed only
//! shuffles the order. Every sweep's per-circuit verdict counts and summed
//! `SolverStats` must equal the committed reference
//! (`reference/sat_catalog.jsonl`), and every test the solver returns is
//! checked by fault simulation (`SerialSim`, which shares no code with the
//! solver) to detect its fault.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use fbt_fault::{all_transition_faults, FaultSimEngine, SerialSim, TransitionFault};
use fbt_netlist::json::Json;
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sat::{solve_transition_fault, BroadsideEncoding, DetectionVerdict, SolverStats};

use crate::metrics::{derive_seed, median, peak_rss_mb, quantile, repeat_setup, Report};
use crate::reference::{self, Record};
use crate::trace::Tracer;
use crate::Args;

/// The circuits of `ch2::small_circuits(Default)`, undivided. The full
/// `small_circuits(Paper)` list (s298 through s1494) takes about 39 s per
/// sweep; its seven largest circuits (s641, s713, s953, s1196, s1238,
/// s1488, s1494) took 31 s of that and are dropped, which leaves a sweep of
/// about 5 s.
pub const CIRCUITS: &[&str] = &[
    "s298", "s344", "s349", "s382", "s386", "s444", "s510", "s526", "s820", "s832",
];
/// `bench_sat`'s Default-scale conflict limit. Never lowered to save time.
const CONFLICT_LIMIT: u64 = 200_000;
const REFERENCE: &str = "perfbench/reference/sat_catalog.jsonl";

struct Subject {
    net: Netlist,
    faults: Vec<TransitionFault>,
}

fn synthesize() -> Vec<Subject> {
    CIRCUITS
        .iter()
        .map(|name| {
            let spec = fbt_netlist::synth::find(name).expect("catalog circuit");
            let net = fbt_netlist::synth::generate(&spec);
            let faults = all_transition_faults(&net);
            Subject { net, faults }
        })
        .collect()
}

/// Per-circuit totals of one sweep.
#[derive(Default, Clone)]
struct Tally {
    faults: usize,
    tests: usize,
    untestable: usize,
    unknown: usize,
    bad_tests: usize,
    solver: SolverStats,
    busy_s: f64,
}

impl Tally {
    fn record(&self, circuit: &str) -> Record {
        (
            circuit.to_string(),
            format!(
                "{{\"circuit\":\"{circuit}\",\"faults\":{},\"tests\":{},\"untestable\":{},\
                 \"unknown\":{},\"solver\":{}}}",
                self.faults,
                self.tests,
                self.untestable,
                self.unknown,
                self.solver.to_json()
            ),
        )
    }
}

/// One sweep's measurements.
struct Sweep {
    tallies: Vec<Tally>,
    query_ms: Vec<f64>,
    solve_s: f64,
    wall_s: f64,
}

fn sweep(subjects: &[Subject], order: &[(usize, usize)], tracer: Option<&Tracer>) -> Sweep {
    let mut tallies = vec![Tally::default(); subjects.len()];
    let mut sims: Vec<SerialSim<'_>> = subjects.iter().map(|s| SerialSim::new(&s.net)).collect();
    let mut query_ms = Vec::with_capacity(order.len());
    let mut solve_s = 0.0;
    let t_sweep = Instant::now();
    for (q, &(ci, fi)) in order.iter().enumerate() {
        let subject = &subjects[ci];
        let fault = &subject.faults[fi];
        // Untraced, the query is the library call itself; traced, the same
        // two steps with a span each.
        let ((verdict, stats), query_d, solve_d) = match tracer {
            None => {
                let t = Instant::now();
                let out = solve_transition_fault(&subject.net, fault, Some(CONFLICT_LIMIT));
                (out, t.elapsed(), Duration::ZERO)
            }
            Some(tr) => tr.span("sat.query", q as u64 + 1, || {
                let t0 = Instant::now();
                let enc = tr.span("sat.encode", 0, || {
                    let mut enc = BroadsideEncoding::new(&subject.net);
                    enc.require_detection(fault);
                    enc
                });
                let t1 = Instant::now();
                let out = tr.span("sat.solve", 0, || enc.solve(Some(CONFLICT_LIMIT)));
                (out, t0.elapsed(), t1.elapsed())
            }),
        };
        solve_s += solve_d.as_secs_f64();
        query_ms.push(query_d.as_secs_f64() * 1e3);
        let t = &mut tallies[ci];
        t.busy_s += query_d.as_secs_f64();
        t.faults += 1;
        t.solver.absorb(&stats);
        match verdict {
            DetectionVerdict::Test(test) => {
                t.tests += 1;
                if !sims[ci].detects(&test, fault) {
                    t.bad_tests += 1;
                }
            }
            DetectionVerdict::Untestable => t.untestable += 1,
            DetectionVerdict::Unknown => t.unknown += 1,
        }
    }
    Sweep {
        tallies,
        query_ms,
        solve_s,
        wall_s: t_sweep.elapsed().as_secs_f64(),
    }
}

fn load_reference(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading SAT reference {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line).map_err(|e| format!("SAT reference: {e}"))?;
            let circuit = v
                .get("circuit")
                .and_then(Json::as_str)
                .ok_or("SAT reference line without a circuit")?;
            Ok((circuit.to_string(), line.to_string()))
        })
        .collect()
}

/// Check a sweep against the reference and the simulation oracle.
fn check(label: &str, reference: &[Record], s: &Sweep, report: &mut Report) {
    let records: Vec<Record> = CIRCUITS
        .iter()
        .zip(&s.tallies)
        .map(|(c, t)| t.record(c))
        .collect();
    reference::check(label, reference, &records, report);
    for (c, t) in CIRCUITS.iter().zip(&s.tallies) {
        if t.bad_tests > 0 {
            report.mismatch(format!(
                "{label} {c}: {} SAT tests fail to detect their fault in simulation",
                t.bad_tests
            ));
        }
        if t.unknown > 0 {
            report.mismatch(format!("{label} {c}: {} queries undecided", t.unknown));
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (subjects, setup_s) = repeat_setup(|| Ok(synthesize()), |_| Ok(()))?;
    let mut order: Vec<(usize, usize)> = subjects
        .iter()
        .enumerate()
        .flat_map(|(ci, s)| (0..s.faults.len()).map(move |fi| (ci, fi)))
        .collect();
    Rng::new(derive_seed(args.seed, 0x5A7)).shuffle(&mut order);

    let mut report = Report {
        host: crate::host::fingerprint(&args.workload, args.seed, &[("query_threads", 1, 1)]),
        ..Report::default()
    };

    if args.write_reference {
        let s = sweep(&subjects, &order, None);
        let lines: Vec<String> = CIRCUITS
            .iter()
            .zip(&s.tallies)
            .map(|(c, t)| t.record(c).1 + "\n")
            .collect();
        for (c, t) in CIRCUITS.iter().zip(&s.tallies) {
            println!("{c}: {} queries in {:.3} s", t.faults, t.busy_s);
        }
        std::fs::write(REFERENCE, lines.concat())
            .map_err(|e| format!("writing {REFERENCE}: {e}"))?;
        println!("wrote {REFERENCE}");
    }
    let mut reference = load_reference(Path::new(REFERENCE))?;
    if args.corrupt_reference {
        reference::corrupt(&mut reference);
    }

    if args.trace {
        return traced_run(args, &subjects, &order, &reference, setup_s, report);
    }

    let t_run = Instant::now();
    let mut sweeps = Vec::new();
    while sweeps.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let s = sweep(&subjects, &order, None);
        report.attempted += order.len() as u64;
        check(
            &format!("sweep {}", sweeps.len()),
            &reference,
            &s,
            &mut report,
        );
        sweeps.push(s);
    }
    let query_ms: Vec<f64> = sweeps.iter().flat_map(|s| s.query_ms.clone()).collect();
    let busy_s: f64 = query_ms.iter().sum::<f64>() / 1e3;
    let rate = query_ms.len() as f64 / busy_s;
    let p50 = median(&query_ms);
    let p75 = quantile(&query_ms, 0.75);
    let p99 = quantile(&query_ms, 0.99);
    report.named("sat_faults_per_s", rate, "1/s");
    report.named("sat_query_p50_ms", p50, "ms");
    report.named("sat_query_p99_ms", p99, "ms");
    report.named("sat_query_samples", query_ms.len() as f64, "count");
    report.named("sweeps", sweeps.len() as f64, "count");
    let e = &mut report.end_to_end;
    e.insert("setup_s", setup_s);
    e.insert("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
    e.insert("ops_per_s", rate);
    e.insert("op_p50_ms", p50);
    e.insert("op_p75_ms", p75);
    Ok(report)
}

fn traced_run(
    args: &Args,
    subjects: &[Subject],
    order: &[(usize, usize)],
    reference: &[Record],
    setup_s: f64,
    mut report: Report,
) -> Result<Report, String> {
    let untraced = sweep(subjects, order, None);
    check("untraced sweep", reference, &untraced, &mut report);
    let tr = Tracer::new();
    let traced = sweep(subjects, order, Some(&tr));
    check("traced sweep", reference, &traced, &mut report);
    report.attempted += 2 * order.len() as u64;

    let mut solver = SolverStats::default();
    let mut unknown = 0;
    for t in &traced.tallies {
        solver.absorb(&t.solver);
        unknown += t.unknown;
    }
    let totals: BTreeMap<&str, f64> = tr.total_s();
    let l = &mut report.layers;
    l.insert("netlist.synth_s", setup_s);
    l.insert("sat.queries", order.len() as f64);
    l.insert("sat.unknown", unknown as f64);
    l.insert(
        "sat.encode_s",
        totals.get("sat.encode").copied().unwrap_or(0.0),
    );
    l.insert(
        "sat.solve_s",
        totals.get("sat.solve").copied().unwrap_or(0.0),
    );
    l.insert("sat.conflicts", solver.conflicts as f64);
    l.insert("sat.decisions", solver.decisions as f64);
    l.insert("sat.propagations", solver.propagations as f64);
    l.insert(
        "sat.props_per_us",
        solver.propagations as f64 / (traced.solve_s * 1e6).max(1e-9),
    );
    l.insert(
        "trace.overhead_pct",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0,
    );
    report.named("untraced_sweep_s", untraced.wall_s, "s");
    report.named("traced_sweep_s", traced.wall_s, "s");
    tr.save(args, &report.host)?;
    Ok(report)
}
