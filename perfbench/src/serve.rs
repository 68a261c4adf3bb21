//! `serve_mixed`: `fbt-serve` on loopback (`--workers 2`, catalog store)
//! under a closed loop of two keep-alive clients.
//!
//! Requests go round-robin over the 18 catalog circuits, rotating between
//! smoke-preset `unconstrained` and `constrained` generation and `lint`
//! jobs; every 8th request uploads a catalog circuit's `.bench` or Verilog
//! text instead. Generation jobs carry a request seed derived from the
//! workload seed and otherwise use the service's default search. After the
//! measuring window every completed job is re-executed in process through
//! `jobs::execute` on the same spec, and its artifact must equal the served
//! one except for the job id; every upload must report the digest of the
//! text it sent.

use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fbt_netlist::frontend::{self, Format};
use fbt_netlist::json::Json;
use fbt_serve::http::{send_request, Response};
use fbt_serve::jobs::{self, Job, JobSpec};
use fbt_serve::store::{digest_hex, CircuitEntry, ContentStore};

use crate::metrics::{derive_seed, median, peak_rss_mb, quantile, repeat_setup, Report};
use crate::trace::Tracer;
use crate::Args;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const UPLOAD_EVERY: usize = 8;
const KINDS: [&str; 3] = ["unconstrained", "constrained", "lint"];
const POLL_PAUSE: Duration = Duration::from_millis(2);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Warm keep-alive `GET /health` exchanges timed for `serve.rtt_ms`.
const RTT_SAMPLES: usize = 20;

/// A running server process; killed and reaped on drop if still alive.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &Path, port_file: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(port_file);
        let mut child = Command::new(bin)
            .args(["--workers", &WORKERS.to_string(), "--port-file"])
            .arg(port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let t0 = Instant::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if !text.is_empty() {
                    break text.trim().to_string();
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("fbt-serve exited early: {status}"));
            }
            if t0.elapsed() > READY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("fbt-serve did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let _ = std::fs::remove_file(port_file);
        let server = Server { child, addr };
        let mut client = Client::new(&server.addr);
        match client.request("GET", "/health", "") {
            Ok(r) if r.status == 200 => Ok(server),
            Ok(r) => Err(format!("/health answered {}", r.status)),
            Err(e) => Err(format!("/health: {e}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain and stop the server, waiting for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::new(&self.addr);
        let answered = client.request("POST", "/admin/shutdown", "").is_ok();
        drop(client);
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if answered && t0.elapsed() < READY_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("fbt-serve did not stop after /admin/shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A keep-alive client connection that reconnects once on failure.
struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        for attempt in 0..2 {
            if self.stream.is_none() {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                self.stream = Some(stream);
            }
            let stream = self.stream.as_mut().expect("connected above");
            match send_request(stream, method, path, body.as_bytes()) {
                Ok(resp) => return Ok(resp),
                Err(_) if attempt == 0 => self.stream = None,
                Err(e) => return Err(e),
            }
        }
        unreachable!("the second attempt returns")
    }
}

/// One planned request.
enum Plan<'a> {
    Job { kind: &'static str, body: String },
    Upload(&'a Upload),
}

/// A catalog circuit's text, uploaded under `<name>_upload` so the catalog
/// names keep resolving to the catalog circuits.
struct Upload {
    path: String,
    text: String,
    /// Digest of the text as parsed here; the server must report it.
    digest: u128,
}

/// Each catalog circuit's `.bench` text and then its Verilog text (module
/// renamed). Both parse to the same structure, so the second upload of a
/// pair is a dedup hit.
fn uploads(entries: &[Arc<CircuitEntry>]) -> Result<Vec<Upload>, String> {
    let mut out = Vec::with_capacity(2 * entries.len());
    for e in entries {
        let name = format!("{}_upload", e.name);
        let texts = [
            (Format::Bench, e.emitted_text(Format::Bench).to_string()),
            (
                Format::Verilog,
                e.emitted_text(Format::Verilog).replacen(
                    &format!("module {} ", e.name),
                    &format!("module {name} "),
                    1,
                ),
            ),
        ];
        for (format, text) in texts {
            let (_, net) = frontend::parse_auto(&text, &name, None)
                .map_err(|err| format!("{}: parsing its {format} text: {err}", e.name))?;
            out.push(Upload {
                path: format!("/circuits?name={name}&format={format}"),
                digest: fbt_sim::kernel::structural_digest(&net),
                text,
            });
        }
    }
    Ok(out)
}

/// The deterministic request sequence for a workload seed.
fn plan<'a>(i: usize, seed: u64, entries: &[Arc<CircuitEntry>], uploads: &'a [Upload]) -> Plan<'a> {
    if i % UPLOAD_EVERY == UPLOAD_EVERY - 1 {
        return Plan::Upload(&uploads[(i / UPLOAD_EVERY) % uploads.len()]);
    }
    let j = i - i / UPLOAD_EVERY;
    let circuit = &entries[j % entries.len()].name;
    let kind = KINDS[(j + j / entries.len()) % KINDS.len()];
    let body = match kind {
        "lint" => format!("{{\"circuit\":\"{circuit}\",\"kind\":\"lint\"}}"),
        method => format!(
            "{{\"circuit\":\"{circuit}\",\"method\":\"{method}\",\"preset\":\"smoke\",\"seed\":{}}}",
            derive_seed(seed, j as u64) >> 1
        ),
    };
    Plan::Job { kind, body }
}

/// What the client saw for one completed request.
struct Done {
    kind: &'static str,
    body: String,
    latency_ms: f64,
    artifact: String,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    result_ms: f64,
}

#[derive(Default)]
struct Outcomes {
    done: Vec<Done>,
    uploads: usize,
    failures: Vec<String>,
}

impl Outcomes {
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_ms).collect()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_job(
    client: &mut Client,
    body: &str,
    kind: &'static str,
    tr: Option<&Tracer>,
) -> Result<Done, String> {
    let t0 = Instant::now();
    let timed = |client: &mut Client, name: &'static str, method: &str, path: &str, body: &str| {
        let t = Instant::now();
        let r = match tr {
            Some(tr) => tr.span(name, 0, || client.request(method, path, body)),
            None => client.request(method, path, body),
        };
        (r, ms(t.elapsed()))
    };
    let (resp, submit_ms) = timed(client, "serve.submit", "POST", "/jobs", body);
    let resp = resp.map_err(|e| format!("submit: {e}"))?;
    if resp.status != 202 {
        return Err(format!(
            "submit: status {} {}",
            resp.status,
            resp.body_text()
        ));
    }
    let id = Json::parse(&resp.body_text())
        .ok()
        .and_then(|v| v.get("job").and_then(Json::as_u64))
        .ok_or("submit: no job id")?;
    let mut poll_ms = Vec::new();
    loop {
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id}: timed out"));
        }
        let (resp, d) = timed(client, "serve.poll", "GET", &format!("/jobs/{id}"), "");
        poll_ms.push(d);
        let resp = resp.map_err(|e| format!("poll: {e}"))?;
        let v = Json::parse(&resp.body_text()).map_err(|e| format!("poll body: {e}"))?;
        match v.get("status").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed" | "cancelled") => return Err(format!("job {id}: {}", resp.body_text())),
            _ => std::thread::sleep(POLL_PAUSE),
        }
    }
    let (resp, result_ms) = timed(
        client,
        "serve.result",
        "GET",
        &format!("/jobs/{id}/result"),
        "",
    );
    let resp = resp.map_err(|e| format!("result: {e}"))?;
    if resp.status != 200 {
        return Err(format!("result: status {}", resp.status));
    }
    Ok(Done {
        kind,
        body: body.to_string(),
        latency_ms: ms(t0.elapsed()),
        artifact: resp.body_text(),
        submit_ms,
        poll_ms,
        result_ms,
    })
}

fn run_upload(
    client: &mut Client,
    up: &Upload,
    tr: Option<&Tracer>,
    request: u64,
) -> Result<(), String> {
    let resp = match tr {
        Some(tr) => tr.span("serve.upload", request, || {
            client.request("POST", &up.path, &up.text)
        }),
        None => client.request("POST", &up.path, &up.text),
    }
    .map_err(|e| format!("upload: {e}"))?;
    if resp.status != 201 {
        return Err(format!(
            "upload: status {} {}",
            resp.status,
            resp.body_text()
        ));
    }
    let got = Json::parse(&resp.body_text())
        .ok()
        .and_then(|v| v.get("digest").and_then(Json::as_str).map(str::to_string));
    let want = digest_hex(up.digest);
    match got {
        Some(d) if d == want => Ok(()),
        other => Err(format!(
            "upload {}: digest {other:?}, expected {want}",
            up.path
        )),
    }
}

/// Drive the closed loop for `seconds`: `CLIENTS` threads, each sending its
/// next request only after the previous one completed.
fn closed_loop(
    addr: &str,
    seconds: f64,
    seed: u64,
    entries: &[Arc<CircuitEntry>],
    uploads: &[Upload],
    tr: Option<&Tracer>,
) -> (Outcomes, f64) {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let outcomes = Mutex::new(Outcomes::default());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                while !stop.load(Ordering::Relaxed) {
                    if t0.elapsed().as_secs_f64() >= seconds {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let request = i as u64 + 1;
                    let result = match plan(i, seed, entries, uploads) {
                        Plan::Job { kind, body } => {
                            let mut run = || run_job(&mut client, &body, kind, tr);
                            match tr {
                                Some(tr) => tr.span("serve.job", request, run),
                                None => run(),
                            }
                            .map(Some)
                        }
                        Plan::Upload(up) => run_upload(&mut client, up, tr, request).map(|()| None),
                    };
                    let mut o = outcomes.lock().expect("outcome list poisoned");
                    match result {
                        Ok(Some(done)) => o.done.push(done),
                        Ok(None) => o.uploads += 1,
                        Err(e) => o.failures.push(e),
                    }
                }
            });
        }
    });
    let window_s = t0.elapsed().as_secs_f64();
    (
        outcomes.into_inner().expect("outcome list poisoned"),
        window_s,
    )
}

/// The artifact without its leading `"job":<id>` member.
fn without_job_id(artifact: &str) -> String {
    match (artifact.strip_prefix("{\"job\":"), artifact.find(',')) {
        (Some(_), Some(comma)) => format!("{{{}", &artifact[comma + 1..]),
        _ => artifact.to_string(),
    }
}

/// Re-execute every completed job in process and compare artifacts.
/// Returns per-kind execution times in ms.
fn replay(
    outcomes: &Outcomes,
    store: &ContentStore,
    corrupt: bool,
    report: &mut Report,
) -> Vec<(&'static str, f64)> {
    let mut exec = Vec::with_capacity(outcomes.done.len());
    for (n, d) in outcomes.done.iter().enumerate() {
        let spec = Json::parse(&d.body)
            .map_err(|e| e.to_string())
            .and_then(|v| JobSpec::from_json(&v));
        let expected = spec.and_then(|spec| {
            let entry = store
                .get(&spec.circuit)
                .ok_or_else(|| format!("unknown circuit {}", spec.circuit))?;
            let job = Job::new(0, spec, entry);
            let t = Instant::now();
            let artifact = jobs::execute(&job, store)?;
            exec.push((d.kind, ms(t.elapsed())));
            Ok(artifact)
        });
        match expected {
            Ok(mut want) => {
                if corrupt && n == 0 {
                    want.push_str("#corrupted");
                }
                if without_job_id(&want) != without_job_id(&d.artifact) {
                    report.mismatch(format!(
                        "job {}: served artifact differs from jobs::execute",
                        d.body
                    ));
                }
            }
            Err(e) => report.mismatch(format!("job {}: replay failed: {e}", d.body)),
        }
    }
    exec
}

fn stats(client: &mut Client) -> Result<Json, String> {
    let r = client
        .request("GET", "/stats", "")
        .map_err(|e| format!("/stats: {e}"))?;
    Json::parse(&r.body_text()).map_err(|e| format!("/stats body: {e}"))
}

fn counter(v: &Json, obj: &str, key: &str) -> f64 {
    v.get(obj)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    // `run.py` builds `fbt-serve` next to this binary.
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let bin = exe.with_file_name("fbt-serve");
    let port_file = Path::new(crate::OUT_DIR).join(format!("serve-{}.port", std::process::id()));
    let (server, setup_s) = repeat_setup(|| Server::start(&bin, &port_file), Server::shutdown)?;

    // The benchmark's own copy of the catalog: upload texts, replay store.
    let store = ContentStore::with_catalog();
    let entries = store.list();
    let uploads = uploads(&entries)?;
    let mut report = Report {
        host: crate::host::fingerprint(
            &args.workload,
            args.seed,
            &[
                ("server_workers", WORKERS, WORKERS),
                ("clients", CLIENTS, CLIENTS),
            ],
        ),
        ..Report::default()
    };

    let mut control = Client::new(&server.addr);
    let before = stats(&mut control)?;
    let tr = args.trace.then(Tracer::new);
    let mut rtt_ms = Vec::new();
    if tr.is_some() {
        control
            .request("GET", "/health", "")
            .map_err(|e| format!("/health: {e}"))?;
        for _ in 0..RTT_SAMPLES {
            let t = Instant::now();
            control
                .request("GET", "/health", "")
                .map_err(|e| format!("/health: {e}"))?;
            rtt_ms.push(ms(t.elapsed()));
        }
    }
    // A traced run first measures an untraced window of the same length,
    // the base of the tracing overhead.
    let untraced = tr.as_ref().map(|_| {
        closed_loop(
            &server.addr,
            args.seconds,
            args.seed,
            &entries,
            &uploads,
            None,
        )
        .0
    });
    let (outcomes, window_s) = closed_loop(
        &server.addr,
        args.seconds,
        args.seed,
        &entries,
        &uploads,
        tr.as_ref(),
    );
    let after = stats(&mut control)?;
    let rss = peak_rss_mb(Some(server.pid())).unwrap_or(0.0);
    drop(control);
    server.shutdown()?;

    let mut exec = Vec::new();
    for o in untraced.iter().chain([&outcomes]) {
        report.attempted += (o.done.len() + o.uploads + o.failures.len()) as u64;
        for f in &o.failures {
            report.mismatch(f.clone());
        }
        exec.extend(replay(o, &store, args.corrupt_reference, &mut report));
    }

    let latency = outcomes.latencies();
    let p50 = median(&latency);
    let p75 = quantile(&latency, 0.75);
    let p90 = quantile(&latency, 0.9);
    let rate = latency.len() as f64 / window_s;
    report.named("job_p50_ms", p50, "ms");
    report.named("job_p90_ms", p90, "ms");
    report.named("jobs_per_s", rate, "1/s");
    report.named("jobs_completed", latency.len() as f64, "count");
    report.named("uploads", outcomes.uploads as f64, "count");

    if let Some(tr) = &tr {
        let delta = |obj: &str, key: &str| counter(&after, obj, key) - counter(&before, obj, key);
        let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        let exec_of = |kind: &str| {
            let v: Vec<f64> = exec
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, t)| *t)
                .collect();
            median(&v)
        };
        let all_exec: Vec<f64> = exec.iter().map(|(_, t)| *t).collect();
        let polls: Vec<f64> = outcomes
            .done
            .iter()
            .flat_map(|d| d.poll_ms.clone())
            .collect();
        let n = outcomes.done.len().max(1) as f64;
        let mut parse_ms = Vec::with_capacity(uploads.len());
        for up in &uploads {
            let t = Instant::now();
            let parsed = frontend::parse_auto(&up.text, "upload", None);
            parse_ms.push(ms(t.elapsed()));
            report.attempted += 1;
            match parsed {
                Ok((_, net)) if fbt_sim::kernel::structural_digest(&net) == up.digest => {}
                _ => report.mismatch(format!("{}: parse_auto replay differs", up.path)),
            }
        }
        let l = &mut report.layers;
        l.insert("netlist.parse_ms", median(&parse_ms));
        l.insert("sim.kernel_builds", delta("kernel_cache", "builds"));
        l.insert("sim.kernel_hits", delta("kernel_cache", "hits"));
        l.insert(
            "sim.kernel_build_s",
            delta("kernel_cache", "build_wall_ms") / 1e3,
        );
        l.insert(
            "lint.cache_hit_ratio",
            ratio(delta("store", "lint_hits"), delta("store", "lint_builds")),
        );
        l.insert("serve.rtt_ms", median(&rtt_ms));
        l.insert(
            "serve.submit_ms",
            median(
                &outcomes
                    .done
                    .iter()
                    .map(|d| d.submit_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        l.insert("serve.poll_ms", median(&polls));
        l.insert(
            "serve.result_ms",
            median(
                &outcomes
                    .done
                    .iter()
                    .map(|d| d.result_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        l.insert("serve.polls_per_job", polls.len() as f64 / n);
        l.insert(
            "serve.exchanges_per_job",
            (polls.len() as f64 + 2.0 * n) / n,
        );
        l.insert("serve.exec_ms.unconstrained", exec_of("unconstrained"));
        l.insert("serve.exec_ms.constrained", exec_of("constrained"));
        l.insert("serve.exec_ms.lint", exec_of("lint"));
        l.insert("serve.overhead_ms", p50 - median(&all_exec));
        l.insert("serve.steals", delta("pool", "steals"));
        l.insert("serve.local_pops", delta("pool", "local_pops"));
        l.insert(
            "serve.pin_hit_ratio",
            ratio(delta("pool", "pin_hits"), delta("pool", "pin_misses")),
        );
        l.insert(
            "serve.kernel_hit_ratio",
            ratio(
                delta("kernel_cache", "hits"),
                delta("kernel_cache", "builds"),
            ),
        );
        l.insert("serve.dedup_hits", delta("store", "dedup_hits"));
        l.insert("serve.double_commits", delta("pool", "double_commits"));
        let base = median(
            &untraced
                .as_ref()
                .expect("traced runs measure an untraced window")
                .latencies(),
        );
        l.insert("trace.overhead_pct", (p50 - base) / base * 100.0);
        tr.save(args, &report.host)?;
    } else {
        let e = &mut report.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("peak_rss_mb", rss);
        e.insert("ops_per_s", rate);
        e.insert("op_p50_ms", p50);
        e.insert("op_p75_ms", p75);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_is_stripped() {
        assert_eq!(
            without_job_id("{\"job\":17,\"kind\":\"lint\"}"),
            "{\"kind\":\"lint\"}"
        );
        assert_eq!(without_job_id("{\"kind\":\"lint\"}"), "{\"kind\":\"lint\"}");
    }

    #[test]
    fn plan_mixes_kinds_and_uploads() {
        let store = ContentStore::with_catalog();
        let entries = store.list();
        let ups = uploads(&entries).unwrap();
        assert_eq!(ups.len(), 36);
        // A circuit's .bench and Verilog texts parse to one structure.
        assert!(ups.chunks(2).all(|p| p[0].digest == p[1].digest));
        let mut kinds = std::collections::BTreeMap::new();
        let mut n_uploads = 0;
        for i in 0..144 {
            match plan(i, 1, &entries, &ups) {
                Plan::Job { kind, .. } => *kinds.entry(kind).or_insert(0) += 1,
                Plan::Upload(_) => n_uploads += 1,
            }
        }
        assert_eq!(n_uploads, 18);
        assert_eq!(kinds.len(), 3);
        assert!(kinds.values().all(|&n| n >= 40));
    }
}
