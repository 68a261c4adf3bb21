//! The work-stealing shard pool.
//!
//! Submitted jobs land in per-shard deques (round-robin placement); each
//! worker thread owns a home shard and pops from its *front*. A worker
//! whose home shard runs dry steals from the *back* of the other shards,
//! so load imbalance self-corrects without a central queue lock becoming a
//! bottleneck. Workers also keep a local pin cache of `Arc<Kernel>`
//! handles keyed by structural digest: a pinned handle keeps a hot
//! circuit's compiled kernel alive across global LRU evictions for as long
//! as the worker keeps seeing it.
//!
//! Determinism: the pool decides only *where and when* a job runs, never
//! *how* — each job executes through the same single-engine entry points
//! the CLI uses, with its own config and master seed, so results are
//! byte-identical however the jobs are interleaved or stolen.
//!
//! Retention: the job registry holds every queued and running job, plus
//! the [`RETAINED_JOBS`] most recently finished ones. A finished job stays
//! fetchable until that many later jobs have finished; then it leaves the
//! registry and [`Pool::get`] no longer finds it. This bounds the server's
//! memory however long it runs.
//!
//! Shutdown is a drain: submissions are rejected, workers finish every
//! queued and running job (cancelled-while-queued jobs are committed as
//! such, not dropped), and [`Pool::drain`] returns once
//! `submitted == completed + failed + cancelled` with every job committed
//! exactly once.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fbt_netlist::json::ObjWriter;
use fbt_sim::kernel::Kernel;

use crate::jobs::{execute, Job, JobKind, JobSpec};
use crate::store::ContentStore;

/// How many finished (`Done`, `Failed` or `Cancelled`) jobs the registry
/// keeps. Jobs leave it oldest-commit first; queued and running jobs are
/// never evicted. A client fetches its result right after its poll sees
/// the job finish, so the cap only has to outlast the jobs that finish in
/// between; 64 is twice `loadgen`'s 32 clients.
pub const RETAINED_JOBS: usize = 64;

/// Monotone pool activity counters (process lifetime).
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Jobs accepted into a shard deque.
    pub submitted: AtomicUsize,
    /// Jobs committed `Done`.
    pub completed: AtomicUsize,
    /// Jobs committed `Failed`.
    pub failed: AtomicUsize,
    /// Jobs committed `Cancelled` (cancelled while queued).
    pub cancelled: AtomicUsize,
    /// Pops from a worker's home shard.
    pub local_pops: AtomicUsize,
    /// Pops stolen from another shard's back.
    pub steals: AtomicUsize,
    /// Generate jobs whose kernel was already pinned by this worker.
    pub pin_hits: AtomicUsize,
    /// Generate jobs that had to fetch (or build) a kernel handle.
    pub pin_misses: AtomicUsize,
    /// Jobs observed taking a second terminal transition (always 0 when
    /// healthy; surfaced so tests and `/stats` can assert it).
    pub double_commits: AtomicUsize,
    /// Finished jobs dropped from the registry past [`RETAINED_JOBS`].
    pub evicted: AtomicUsize,
}

/// Every live job by id, and the finished ones in commit order.
#[derive(Default)]
struct Registry {
    jobs: HashMap<u64, Arc<Job>>,
    finished: VecDeque<u64>,
}

struct Shared {
    shards: Vec<Mutex<VecDeque<u64>>>,
    registry: Mutex<Registry>,
    store: Arc<ContentStore>,
    counters: PoolCounters,
    draining: AtomicBool,
    stopping: AtomicBool,
    inflight: AtomicUsize,
    next_id: AtomicU64,
    next_shard: AtomicUsize,
    work: Mutex<()>,
    work_cond: Condvar,
}

impl Shared {
    fn queues_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().expect("shard poisoned").is_empty())
    }

    fn registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().expect("job registry poisoned")
    }

    /// Record a job's commit, evicting the oldest finished jobs beyond
    /// [`RETAINED_JOBS`].
    fn retire(&self, id: u64) {
        let mut registry = self.registry();
        registry.finished.push_back(id);
        while registry.finished.len() > RETAINED_JOBS {
            let oldest = registry.finished.pop_front().expect("over the cap");
            registry.jobs.remove(&oldest);
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }
}

/// The work-stealing job pool.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    num_shards: usize,
    num_workers: usize,
}

impl Pool {
    /// Spawn a pool with `workers` threads over `shards` deques against the
    /// given store. Both counts are clamped to at least 1.
    pub fn new(store: Arc<ContentStore>, shards: usize, workers: usize) -> Pool {
        let num_shards = shards.max(1);
        let num_workers = workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..num_shards)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            registry: Mutex::new(Registry::default()),
            store,
            counters: PoolCounters::default(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            work: Mutex::new(()),
            work_cond: Condvar::new(),
        });
        let workers = (0..num_workers)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("fbt-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(workers),
            num_shards,
            num_workers,
        }
    }

    /// Validate and enqueue a job. Fails when the pool is draining or the
    /// subject circuit is not in the store.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, String> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err("server is draining; no new jobs accepted".into());
        }
        let entry = self
            .shared
            .store
            .get(&spec.circuit)
            .ok_or_else(|| format!("unknown circuit {:?}", spec.circuit))?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Arc::new(Job::new(id, spec, entry));
        self.shared.registry().jobs.insert(id, job.clone());
        let shard = self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.num_shards;
        self.shared.shards[shard]
            .lock()
            .expect("shard poisoned")
            .push_back(id);
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.work_cond.notify_all();
        Ok(job)
    }

    /// Look a job up by id. `None` for unknown ids and for finished jobs
    /// already evicted (see [`RETAINED_JOBS`]).
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.shared.registry().jobs.get(&id).cloned()
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ContentStore> {
        &self.shared.store
    }

    /// Whether [`Pool::drain`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Reject new submissions, run every queued and in-flight job to its
    /// commit, and join the workers. Idempotent; returns when the pool is
    /// fully quiescent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_cond.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Pool shape and counters as a JSON object (the `/stats` payload
    /// fragment).
    pub fn counters_json(&self) -> String {
        let c = &self.shared.counters;
        let mut o = ObjWriter::new();
        o.num("shards", self.num_shards)
            .num("workers", self.num_workers)
            .num("queued", self.shared.queued())
            .num("inflight", self.shared.inflight.load(Ordering::Relaxed))
            .num("submitted", c.submitted.load(Ordering::Relaxed))
            .num("completed", c.completed.load(Ordering::Relaxed))
            .num("failed", c.failed.load(Ordering::Relaxed))
            .num("cancelled", c.cancelled.load(Ordering::Relaxed))
            .num("local_pops", c.local_pops.load(Ordering::Relaxed))
            .num("steals", c.steals.load(Ordering::Relaxed))
            .num("pin_hits", c.pin_hits.load(Ordering::Relaxed))
            .num("pin_misses", c.pin_misses.load(Ordering::Relaxed))
            .num("double_commits", c.double_commits.load(Ordering::Relaxed))
            .num("retained", self.shared.registry().finished.len())
            .num("evicted", c.evicted.load(Ordering::Relaxed));
        o.finish()
    }

    /// Raw counter access for tests.
    pub fn counters(&self) -> &PoolCounters {
        &self.shared.counters
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.work_cond.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Pop work: home shard front first, then steal from the other shards'
/// backs.
fn pop_work(shared: &Shared, home: usize) -> Option<u64> {
    if let Some(id) = shared.shards[home]
        .lock()
        .expect("shard poisoned")
        .pop_front()
    {
        shared.counters.local_pops.fetch_add(1, Ordering::Relaxed);
        return Some(id);
    }
    let n = shared.shards.len();
    for offset in 1..n {
        let victim = (home + offset) % n;
        if let Some(id) = shared.shards[victim]
            .lock()
            .expect("shard poisoned")
            .pop_back()
        {
            shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            return Some(id);
        }
    }
    None
}

fn worker_loop(shared: &Shared, worker_idx: usize) {
    let home = worker_idx % shared.shards.len();
    // Worker-local kernel pins: digest → handle. Keeps hot kernels alive
    // across global LRU evictions without touching the hit/build counters.
    let mut pins: HashMap<u128, Arc<Kernel>> = HashMap::new();
    loop {
        match pop_work(shared, home) {
            Some(id) => {
                shared.inflight.fetch_add(1, Ordering::SeqCst);
                run_one(shared, id, &mut pins);
                shared.inflight.fetch_sub(1, Ordering::SeqCst);
                shared.work_cond.notify_all();
            }
            None => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if shared.draining.load(Ordering::SeqCst)
                    && shared.inflight.load(Ordering::SeqCst) == 0
                    && shared.queues_empty()
                {
                    shared.work_cond.notify_all();
                    return;
                }
                let guard = shared.work.lock().expect("work lock poisoned");
                let _ = shared
                    .work_cond
                    .wait_timeout(guard, Duration::from_millis(50))
                    .expect("work lock poisoned");
            }
        }
    }
}

fn run_one(shared: &Shared, id: u64, pins: &mut HashMap<u128, Arc<Kernel>>) {
    let Some(job) = shared.registry().jobs.get(&id).cloned() else {
        return;
    };
    if commit(shared, &job, pins) > 0 {
        shared
            .counters
            .double_commits
            .fetch_add(1, Ordering::Relaxed);
    }
    shared.retire(id);
}

/// Run a popped job, or skip it if it was cancelled while queued, and make
/// its terminal commit. Returns the commits it already had (0 when healthy).
fn commit(shared: &Shared, job: &Job, pins: &mut HashMap<u128, Arc<Kernel>>) -> usize {
    let counters = &shared.counters;
    if !job.claim() {
        // Cancelled while queued: the skip is the job's single commit.
        let prev = job.commit_cancelled();
        counters.cancelled.fetch_add(1, Ordering::Relaxed);
        return prev;
    }
    if job.spec.kind == JobKind::Generate {
        match pins.entry(job.circuit.digest) {
            std::collections::hash_map::Entry::Occupied(_) => {
                counters.pin_hits.fetch_add(1, Ordering::Relaxed);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                counters.pin_misses.fetch_add(1, Ordering::Relaxed);
                slot.insert(job.circuit.kernel());
            }
        }
    }
    match execute(job, &shared.store) {
        Ok(artifact) => {
            let prev = job.complete(artifact);
            counters.completed.fetch_add(1, Ordering::Relaxed);
            prev
        }
        Err(error) => {
            let prev = job.fail(error);
            counters.failed.fetch_add(1, Ordering::Relaxed);
            prev
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobStatus;
    use fbt_netlist::json::Json;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn jobs_complete_across_shards_and_workers() {
        let store = Arc::new(ContentStore::with_catalog());
        let pool = Pool::new(store, 4, 4);
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                pool.submit(spec(&format!(
                    "{{\"circuit\":\"s27\",\"kind\":\"lint\",\"seed\":{i}}}"
                )))
                .expect("submit")
            })
            .collect();
        pool.drain();
        for job in &jobs {
            assert_eq!(job.status(), JobStatus::Done, "job {}", job.id);
            assert_eq!(job.commit_count(), 1);
            assert!(job.result().is_some());
        }
        let c = pool.counters();
        assert_eq!(c.completed.load(Ordering::Relaxed), 8);
        assert_eq!(c.double_commits.load(Ordering::Relaxed), 0);
        assert_eq!(
            c.local_pops.load(Ordering::Relaxed) + c.steals.load(Ordering::Relaxed),
            8
        );
    }

    #[test]
    fn submissions_after_drain_are_rejected() {
        let store = Arc::new(ContentStore::with_catalog());
        let pool = Pool::new(store, 2, 2);
        pool.drain();
        assert!(pool.is_draining());
        assert!(pool
            .submit(spec("{\"circuit\":\"s27\",\"kind\":\"lint\"}"))
            .is_err());
    }

    #[test]
    fn unknown_circuits_are_rejected_at_submission() {
        let store = Arc::new(ContentStore::with_catalog());
        let pool = Pool::new(store, 1, 1);
        assert!(pool
            .submit(spec("{\"circuit\":\"nope\",\"kind\":\"lint\"}"))
            .is_err());
        pool.drain();
    }

    #[test]
    fn outcome_matches_direct_engine_regardless_of_pool_shape() {
        let store = Arc::new(ContentStore::with_catalog());
        let entry = store.get("s27").unwrap();
        let body = "{\"circuit\":\"s27\",\"method\":\"unconstrained\",\"batch\":4,\"threads\":1}";
        let direct = fbt_core::generate_unconstrained(&entry.net, &spec(body).config());
        for (shards, workers) in [(1, 1), (2, 3), (4, 2)] {
            let pool = Pool::new(store.clone(), shards, workers);
            let job = pool.submit(spec(body)).expect("submit");
            pool.drain();
            let artifact = job.result().expect("done").to_string();
            assert!(
                artifact.contains(&direct.summary_json()),
                "pool shape {shards}x{workers} changed the outcome"
            );
        }
    }
}
