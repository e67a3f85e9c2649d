//! The job server: worker threads draining a [`FairQueue`] of
//! [`JobSpec`] submissions under a shared thread budget,
//! with result caching by canonical config hash, in-flight
//! coalescing of identical submissions, live trace fan-out to
//! subscribers, a small cache of the geometries jobs repeat, and
//! checkpoint-replay recovery when a worker dies mid-job (DESIGN.md
//! §14).

use crate::cache::Lru;
use crate::queue::FairQueue;
use coupled::job::{JobId, JobMeta, JobSpec, JobStatus};
use coupled::world::Geometry;
use coupled::{EngineSession, RunConfig, RunReport};
use obs::{FanoutSink, Registry, TraceEvent, TraceSpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tuning knobs. The defaults suit tests and demos; scale
/// `workers`/`thread_budget` to the machine for real service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue — the maximum number of
    /// simulations in flight at once.
    pub workers: usize,
    /// Shared budget in threads. A job costs one thread per rank
    /// (`ranks`, clamped to the budget), and jobs only start while
    /// the sum of running costs fits.
    pub thread_budget: usize,
    /// Completed reports kept for cache service (LRU).
    pub cache_capacity: usize,
    /// Server-side metrics registry. Jobs that bring no registry of
    /// their own get this one scoped to `"job-<id>."`, so one
    /// snapshot shows every job's engine counters side by side.
    pub metrics: Option<Registry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            thread_budget: 8,
            cache_capacity: 32,
            metrics: None,
        }
    }
}

impl ServerConfig {
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    pub fn thread_budget(mut self, n: usize) -> Self {
        self.thread_budget = n.max(1);
        self
    }

    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    pub fn metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }
}

/// Why [`JobHandle::wait`] returned without a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError(pub String);

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for JobError {}

/// Counters of everything the server did so far (monotonic except
/// `queued`/`running`, which are gauges of the current state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub submitted: u64,
    /// Jobs that reached `Done` (leaders, followers and cache hits).
    pub completed: u64,
    pub failed: u64,
    /// Submissions served straight from the result cache.
    pub cache_hits: u64,
    /// Submissions coalesced onto an identical in-flight run.
    pub coalesced: u64,
    /// Engine attempts dispatched to workers (replays included).
    pub attempts: u64,
    /// First attempts whose `[domain]` no cached geometry matched: the
    /// worker built (or died building) the meshes itself.
    pub geometry_builds: u64,
    /// First attempts started on a geometry an earlier job built.
    /// `geometry_builds + geometry_hits` = first attempts that reached
    /// set-up.
    pub geometry_hits: u64,
    pub queued: usize,
    pub running: usize,
}

/// One tracked job.
struct Job {
    spec: JobSpec,
    status: JobStatus,
    /// Live trace fan-out: every engine attempt emits through this,
    /// so subscribers follow the job across checkpoint replays.
    fanout: FanoutSink,
    hash: u64,
    /// The engine lifecycle, detached from any worker: stashed here
    /// between attempts so checkpoints and one-shot fault state
    /// survive the death of the thread that ran them.
    session: Option<EngineSession>,
    attempts: usize,
    submitted: Instant,
    first_started: Option<Instant>,
    run_seconds: f64,
    result: Option<Arc<RunReport>>,
    error: Option<String>,
    /// Identical submissions coalesced behind this leader.
    followers: Vec<JobId>,
}

struct State {
    jobs: HashMap<u64, Job>,
    queue: FairQueue,
    cache: Lru<u64, Arc<RunReport>>,
    /// Canonical hash → leader job currently queued or running.
    in_flight: HashMap<u64, JobId>,
    budget_in_use: usize,
    next_id: u64,
    shutdown: bool,
    stats: ServerStats,
}

/// Geometries kept for the jobs that repeat a `[domain]` (LRU). This
/// and the one below are constants, not [`ServerConfig`] fields: one
/// value of each is in use.
const GEOMETRY_CAPACITY: usize = 8;

/// Engine attempts per job before it is failed: 1 clean try plus
/// checkpoint replays after worker deaths.
const MAX_ATTEMPTS: usize = 3;

type GeometryCache = Lru<[u64; 5], Arc<Geometry>>;

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// Built geometries by `NozzleSpec::key`, under a lock of
    /// their own that is held for a look-up or an insert only — never
    /// while a mesh is generated, refined or assembled, and never
    /// together with `state`. Lives and dies with the server.
    geometries: Mutex<GeometryCache>,
    thread_budget: usize,
    metrics: Option<Registry>,
}

/// Client-side handle to one submitted job: poll its status, stream
/// its trace, or block for the report. Handles are cheap clones; the
/// job keeps running if every handle is dropped.
#[derive(Clone)]
pub struct JobHandle {
    id: JobId,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.id
    }

    pub fn status(&self) -> JobStatus {
        let st = self.shared.state.lock().unwrap();
        st.jobs[&self.id.0].status.clone()
    }

    /// Subscribe to the job's live trace stream ([`TraceEvent`]s from
    /// every engine attempt; a `Meta` event marks each (re)start).
    /// The channel closes when the job reaches a terminal state.
    pub fn subscribe(&self) -> mpsc::Receiver<TraceEvent> {
        let st = self.shared.state.lock().unwrap();
        st.jobs[&self.id.0].fanout.subscribe()
    }

    /// Block until the job reaches a terminal state and return its
    /// stamped report (or failure).
    pub fn wait(&self) -> Result<Arc<RunReport>, JobError> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            let job = &st.jobs[&self.id.0];
            match &job.status {
                JobStatus::Done { .. } => {
                    return Ok(job.result.clone().expect("done job has report"))
                }
                JobStatus::Failed { error } => return Err(JobError(error.clone())),
                _ => st = self.shared.cv.wait(st).unwrap(),
            }
        }
    }
}

/// The simulation-as-a-service front end. See the module docs; build
/// with [`JobServer::start`], feed with [`JobServer::submit`].
pub struct JobServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl JobServer {
    /// Start `cfg.workers` worker threads over an empty queue.
    pub fn start(cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: HashMap::new(),
                queue: FairQueue::new(),
                cache: Lru::new(cfg.cache_capacity),
                in_flight: HashMap::new(),
                budget_in_use: 0,
                next_id: 0,
                shutdown: false,
                stats: ServerStats::default(),
            }),
            cv: Condvar::new(),
            geometries: Mutex::new(Lru::new(GEOMETRY_CAPACITY)),
            thread_budget: cfg.thread_budget.max(1),
            metrics: cfg.metrics,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        JobServer { shared, workers }
    }

    /// Submit a job. Returns immediately with a handle; the report is
    /// served from the cache (`Done{cache_hit: true}` at once),
    /// coalesced onto an identical in-flight run, or queued for a
    /// worker, in that order of preference.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let hash = spec.run.config_hash();
        let cost = spec.run.ranks.clamp(1, self.shared.thread_budget);
        // `RunConfig`'s fields are public: a config edited after its
        // builder checked it is checked again before any worker
        // builds a mesh from it.
        let invalid = spec.run.validate().err();
        let mut st = self.shared.state.lock().unwrap();
        let id = JobId(st.next_id);
        st.next_id += 1;
        st.stats.submitted += 1;
        let mut job = Job {
            spec,
            status: JobStatus::Queued,
            fanout: FanoutSink::new(),
            hash,
            session: None,
            attempts: 0,
            submitted: Instant::now(),
            first_started: None,
            run_seconds: 0.0,
            result: None,
            error: None,
            followers: Vec::new(),
        };
        let refusal = if st.shutdown {
            Some("server shut down".to_string())
        } else {
            invalid.map(|e| format!("invalid config: {e}"))
        };
        if let Some(error) = refusal {
            job.status = JobStatus::Failed { error };
            job.fanout.close();
            st.stats.failed += 1;
        } else if let Some(cached) = st.cache.get(&hash) {
            st.stats.cache_hits += 1;
            complete_job(&mut job, &mut st.stats, id, &cached, true, 0.0);
        } else if let Some(&leader) = st.in_flight.get(&hash) {
            st.stats.coalesced += 1;
            st.jobs
                .get_mut(&leader.0)
                .expect("in-flight leader is tracked")
                .followers
                .push(id);
        } else {
            st.in_flight.insert(hash, id);
            st.queue.push(id, &job.spec.tenant, cost);
        }
        st.jobs.insert(id.0, job);
        drop(st);
        self.shared.cv.notify_all();
        JobHandle {
            id,
            shared: self.shared.clone(),
        }
    }

    /// Handle to an earlier submission (any clone works the same).
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.contains_key(&id.0).then(|| JobHandle {
            id,
            shared: self.shared.clone(),
        })
    }

    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.get(&id.0).map(|j| j.status.clone())
    }

    /// Current counters (queue depth and running cost are snapshots).
    pub fn stats(&self) -> ServerStats {
        let mut s = {
            let st = self.shared.state.lock().unwrap();
            ServerStats {
                queued: st.queue.len(),
                running: st.budget_in_use,
                ..st.stats
            }
        };
        (s.geometry_hits, s.geometry_builds) = self.shared.geometries().stats();
        s
    }

    /// Result-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shared.state.lock().unwrap().cache.stats()
    }

    /// Stop accepting work, fail everything still queued, finish the
    /// attempts currently running, and join the workers. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            // Fail queued leaders (and their followers) so waiters wake.
            while let Some(entry) = st.queue.pop(usize::MAX) {
                fail_job(&mut st, entry.id, "server shut down".to_string());
            }
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Mark `id` failed with `error`, cascade to its followers, release
/// its in-flight slot and close its trace stream.
fn fail_job(st: &mut State, id: JobId, error: String) {
    let followers = {
        let job = st.jobs.get_mut(&id.0).expect("failing a tracked job");
        job.status = JobStatus::Failed {
            error: error.clone(),
        };
        job.error = Some(error.clone());
        job.fanout.close();
        std::mem::take(&mut job.followers)
    };
    st.stats.failed += 1;
    st.in_flight.remove(&st.jobs[&id.0].hash);
    for f in followers {
        let job = st.jobs.get_mut(&f.0).expect("follower is tracked");
        job.status = JobStatus::Failed {
            error: format!("coalesced leader {id} failed: {error}"),
        };
        job.fanout.close();
        st.stats.failed += 1;
    }
}

/// Mark `job` (tracked as `id`) done: serve it a clone of the stored
/// `report` stamped with its own provenance, close its trace stream
/// and count it. A job that never ran (cache hit, follower) has zero
/// `run_seconds` and `attempts` of its own.
fn complete_job(
    job: &mut Job,
    stats: &mut ServerStats,
    id: JobId,
    report: &Arc<RunReport>,
    cache_hit: bool,
    queue_seconds: f64,
) {
    let mut stamped = (**report).clone();
    stamped.job = Some(JobMeta {
        job_id: id.0,
        config_hash: job.hash,
        cache_hit,
        queue_seconds,
        run_seconds: job.run_seconds,
        attempts: job.attempts,
    });
    job.result = Some(Arc::new(stamped));
    job.status = JobStatus::Done { cache_hit };
    job.fanout.close();
    stats.completed += 1;
}

/// What a claimed job starts its attempt from.
enum Start {
    /// The session an earlier attempt stashed, checkpoints inside.
    Resume(EngineSession),
    /// First attempt: the run config wired for serving; the session
    /// (species, seed partition — and the geometry, when no earlier
    /// job left it) is built from it off the lock.
    Fresh(RunConfig),
}

impl Shared {
    fn geometries(&self) -> MutexGuard<'_, GeometryCache> {
        // no panic can happen under this lock (a Vec scan, a push)
        self.geometries.lock().expect("geometry cache lock")
    }

    /// The geometry of `run`'s nozzle: the cached one, or — on a miss
    /// — one built here, outside every lock, and left for later jobs.
    /// Two workers missing at once both build; the later insert
    /// replaces the earlier, which lives on until its own job ends.
    fn geometry_for(&self, run: &RunConfig) -> Arc<Geometry> {
        let key = run.sim.nozzle.key();
        let cached = self.geometries().get(&key);
        cached.unwrap_or_else(|| {
            let built = Arc::new(Geometry::build(&run.sim.nozzle));
            self.geometries().put(key, built.clone());
            built
        })
    }
}

/// One worker: claim the next job that fits the spare budget, set it
/// up and run one engine attempt outside the lock, then complete /
/// requeue / fail.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Claim work under the lock; of the set-up only the fan-out and
        // registry wiring happens here.
        let (id, start, cost) = {
            let mut st = shared.state.lock().unwrap();
            let entry = loop {
                if st.shutdown {
                    return;
                }
                let spare = shared.thread_budget.saturating_sub(st.budget_in_use);
                if let Some(e) = st.queue.pop(spare) {
                    break e;
                }
                st = shared.cv.wait(st).unwrap();
            };
            let id = entry.id;
            st.budget_in_use += entry.cost;
            st.stats.attempts += 1;
            let job = st.jobs.get_mut(&id.0).expect("queued job is tracked");
            job.status = JobStatus::Running;
            job.attempts += 1;
            job.first_started.get_or_insert_with(Instant::now);
            let resumed = job.session.take().map(|s| Ok(Start::Resume(s)));
            let start = resumed.unwrap_or_else(|| {
                // First attempt: rebuild the run config for execution —
                // the engine traces into the job's fan-out (teeing the
                // submitter's own sink) and, when the submitter brought
                // no registry, meters into the server registry scoped
                // by job id.
                let mut run = job.spec.run.clone();
                let user_trace = std::mem::replace(&mut run.obs.trace, TraceSpec::Off);
                if !user_trace.is_off() {
                    match user_trace.make_sink() {
                        Ok(sink) => job.fanout.tee_into(sink),
                        Err(e) => return Err(format!("trace sink creation failed: {e}")),
                    }
                }
                run.obs.trace = TraceSpec::Fanout(job.fanout.clone());
                if run.obs.metrics.is_none() {
                    if let Some(reg) = &shared.metrics {
                        run.obs.metrics = Some(reg.scoped(&id.to_string()));
                    }
                }
                Ok(Start::Fresh(run))
            });
            (id, start, entry.cost)
        };
        let start = match start {
            Ok(s) => s,
            Err(error) => {
                let mut guard = shared.state.lock().unwrap();
                guard.budget_in_use -= cost;
                fail_job(&mut guard, id, error);
                drop(guard);
                shared.cv.notify_all();
                continue;
            }
        };

        // Set up and run the attempt with the lock released so other
        // workers keep scheduling. A panic here — in set-up or mid-run
        // — is this worker dying on one job; the server stays whole.
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut session = match start {
                Start::Resume(session) => session,
                Start::Fresh(run) => EngineSession::on(shared.geometry_for(&run), &run),
            };
            let result = session.attempt();
            (session, result)
        }));
        let elapsed = t0.elapsed().as_secs_f64();

        let mut guard = shared.state.lock().unwrap();
        let st = &mut *guard;
        st.budget_in_use -= cost;
        let job = st.jobs.get_mut(&id.0).expect("running job is tracked");
        job.run_seconds += elapsed;
        match outcome {
            Ok((_, Ok(report))) => {
                let queue_seconds = job
                    .first_started
                    .map(|t| t.duration_since(job.submitted).as_secs_f64())
                    .unwrap_or(0.0);
                let followers = std::mem::take(&mut job.followers);
                // The cache stores the unstamped report; every served
                // copy is a stamped clone of it.
                debug_assert!(report.job.is_none(), "cache stores unstamped reports");
                let cached = Arc::new(report);
                st.cache.put(job.hash, cached.clone());
                st.in_flight.remove(&job.hash);
                complete_job(job, &mut st.stats, id, &cached, false, queue_seconds);
                for f in followers {
                    let fjob = st.jobs.get_mut(&f.0).expect("follower is tracked");
                    let waited = fjob.submitted.elapsed().as_secs_f64();
                    complete_job(fjob, &mut st.stats, f, &cached, true, waited);
                }
            }
            Ok((mut session, Err(e))) => {
                let retry =
                    session.can_retry_after(&e) && job.attempts < MAX_ATTEMPTS && !st.shutdown;
                if retry {
                    session.prepare_retry();
                    job.session = Some(session);
                    job.status = JobStatus::Queued;
                    st.queue.push(id, &job.spec.tenant, cost);
                } else {
                    fail_job(st, id, format!("engine attempt failed: {e}"));
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                fail_job(st, id, format!("worker died: {msg}"));
            }
        }
        drop(guard);
        shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coupled::prelude::*;

    fn tiny(seed: u64) -> RunConfig {
        RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(2)
            .seed(seed)
            .steps(2)
            .rebalance(None)
            .build()
            .unwrap()
    }

    #[test]
    fn second_identical_submission_is_served_without_a_second_run() {
        let srv = JobServer::start(ServerConfig::default().workers(1));
        let a = srv.submit(JobSpec::new(tiny(1)));
        let ra = a.wait().unwrap();
        // Now cached: the duplicate is Done before any worker touches it.
        let b = srv.submit(JobSpec::new(tiny(1)));
        assert_eq!(b.status(), JobStatus::Done { cache_hit: true });
        let rb = b.wait().unwrap();
        assert_eq!(ra.density_h, rb.density_h);
        assert_eq!(ra.population, rb.population);
        let (ma, mb) = (ra.job.as_ref().unwrap(), rb.job.as_ref().unwrap());
        assert!(!ma.cache_hit);
        assert!(mb.cache_hit);
        assert_eq!(ma.config_hash, mb.config_hash);
        assert_ne!(ma.job_id, mb.job_id);
        let stats = srv.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn different_configs_do_not_share_cache_entries() {
        let srv = JobServer::start(ServerConfig::default());
        let a = srv.submit(JobSpec::new(tiny(1))).wait().unwrap();
        let b = srv.submit(JobSpec::new(tiny(2))).wait().unwrap();
        assert_ne!(
            a.job.as_ref().unwrap().config_hash,
            b.job.as_ref().unwrap().config_hash
        );
        assert_ne!(a.density_h, b.density_h);
    }

    #[test]
    fn subscriber_streams_the_trace_to_completion() {
        // One worker: while it is busy with the first job, the second
        // is still queued, so subscribing to it before it starts is
        // race-free and the stream carries its complete trace.
        let srv = JobServer::start(ServerConfig::default().workers(1));
        let _first = srv.submit(JobSpec::new(tiny(3)));
        let h = srv.submit(JobSpec::new(tiny(30)));
        let rx = h.subscribe();
        let report = h.wait().unwrap();
        let events: Vec<TraceEvent> = rx.iter().collect(); // ends at close()
        let steps = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Step { .. }))
            .count();
        assert_eq!(steps, report.trace.len());
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Meta { .. })));
    }

    #[test]
    fn shutdown_fails_pending_jobs_instead_of_hanging_waiters() {
        let mut srv = JobServer::start(ServerConfig::default().workers(1));
        srv.shutdown(); // workers exit before any submission
        let h = srv.submit(JobSpec::new(tiny(4)));
        assert!(matches!(h.status(), JobStatus::Failed { .. }));
        assert!(h.wait().is_err());
        srv.shutdown(); // idempotent
        assert_eq!(srv.stats().failed, 1);
    }
}
