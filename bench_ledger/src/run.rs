//! One rep of each workload through its own public driver, and the
//! correctness checks on what it returns.

use crate::spans::{self, timed, Trace, Tracer};
use crate::workloads::{self, Driver, Workload};
use coupled::{
    Breakdown, ClusterSim, EngineSession, MachineProfile, Phase, RankEngine, RunConfig, RunReport,
};
use jobsrv::{JobServer, JobSpec, ServerConfig, ServerStats};
use obs::{MemorySink, Registry, TraceSpec};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a over the little-endian bytes of a float series — the digest
/// the repo's guard tests pin.
pub fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How a rep is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `ObsConfig::default()`: every end-to-end timing.
    Off,
    /// A `Registry` plus `TraceSpec::Memory`: what turning the
    /// program's own observability on costs.
    Recorder,
}

/// Per-job samples of one job-mix rep.
#[derive(Debug, Clone, Default)]
pub struct JobSamples {
    pub cold_latency_s: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub hit_latency_us: Vec<f64>,
    pub cold_wall_s: f64,
    pub cold_jobs: usize,
    pub stats: ServerStats,
}

/// What one rep produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    /// `RunReport.total_time` (mean over jobs for the job mix): the
    /// program's own account of its stepped time — modelled seconds on
    /// the modelled driver, measured seconds elsewhere.
    pub reported_s: f64,
    pub steps: usize,
    pub population: usize,
    pub result_hash: u64,
    pub mean_density: f64,
    pub breakdown: Breakdown,
    pub transactions: u64,
    pub bytes: u64,
    pub rebalances: usize,
    /// Program-reported time of each step (empty for the job mix).
    pub step_s: Vec<f64>,
    /// Σ over steps of the population, where the driver exposes it.
    pub particle_steps: Option<u64>,
    pub jobs: Option<JobSamples>,
    /// Peak resident set while the rep ran; the caller fills it in.
    pub peak_rss_mb: f64,
    /// Operations attempted and failed inside the rep (jobs for the
    /// job mix, the run itself otherwise).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

fn observe(run: &mut RunConfig, how: Observe) {
    if how == Observe::Recorder {
        run.obs.metrics = Some(Registry::new());
        run.obs.trace = TraceSpec::Memory(MemorySink::new());
    }
}

fn fill_from_report(rep: &mut Rep, report: &RunReport) {
    rep.reported_s = report.total_time;
    rep.population = report.population;
    rep.result_hash = fnv1a(&report.density_h);
    rep.mean_density = mean(&report.density_h);
    rep.breakdown = report.breakdown;
    rep.transactions = report.transactions;
    rep.bytes = report.bytes;
    rep.rebalances = report.rebalances;
    rep.step_s = report.trace.iter().map(|t| t.step_time).collect();
    let trace_tx: u64 = report.trace.iter().map(|t| t.transactions).sum();
    if trace_tx != report.transactions {
        rep.errors.push(format!(
            "transactions {} != sum of step traces {trace_tx}",
            report.transactions
        ));
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// A simulation workload's world, built and ready for its first step.
enum World {
    /// `run_serial` builds its own world, so the set-up is timed on an
    /// identical construction of its parts, which is then dropped.
    Serial(Box<RunConfig>),
    Threaded(Box<EngineSession>),
    Modelled(usize, Box<ClusterSim>),
}

/// Set-up of a simulation workload: parse the generated scenario and
/// construct the world (mesh, Poisson assembly, decomposition).
fn build_world(w: &Workload, text: &str, how: Observe) -> Result<World, String> {
    let mut run = w.lower(text).map_err(|e| e.to_string())?;
    observe(&mut run, how);
    Ok(match w.driver {
        Driver::Serial => {
            black_box(RankEngine::new(run.sim.clone()));
            World::Serial(Box::new(run))
        }
        Driver::Threaded => World::Threaded(Box::new(EngineSession::new(&run))),
        Driver::Modelled => {
            let sim = ClusterSim::new(&run, MachineProfile::tianhe2());
            World::Modelled(run.steps, Box::new(sim))
        }
        Driver::JobMix => unreachable!("the job mix has its own set-up"),
    })
}

/// One rep of a simulation workload. `text` is the generated scenario.
fn sim_rep(w: &Workload, text: &str, how: Observe, tr: &mut Trace<'_>) -> Rep {
    let mut rep = Rep {
        attempted: 1,
        ..Rep::default()
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let (world, setup_s) = timed(tr, "coupled.setup", || build_world(w, text, how));
        rep.setup_s = setup_s;
        match world? {
            World::Serial(run) => {
                rep.steps = run.steps;
                let (report, run_s) = timed(tr, "coupled.run_serial", || coupled::run_serial(&run));
                rep.run_s = run_s;
                fill_from_report(&mut rep, &report);
            }
            World::Threaded(mut session) => {
                rep.steps = session.config().steps;
                let (report, run_s) = timed(tr, "coupled.attempt", || session.attempt());
                rep.run_s = run_s;
                fill_from_report(&mut rep, &report.map_err(|e| e.to_string())?);
            }
            // only `run()` honours the ObsConfig; `step()` is the
            // unobserved path every timed rep uses
            World::Modelled(steps, mut sim) if how == Observe::Recorder => {
                rep.steps = steps;
                let (report, run_s) = timed(tr, "coupled.cluster_run", || sim.run(steps));
                rep.run_s = run_s;
                fill_from_report(&mut rep, &report);
            }
            World::Modelled(steps, mut sim) => {
                rep.steps = steps;
                let t0 = Instant::now();
                let mut particle_steps = 0u64;
                for _ in 0..steps {
                    let span = spans::begin(tr, "coupled.step");
                    let (trace, bd) = sim.step();
                    if let (Some(t), Some(id), true) = (tr.as_deref_mut(), span, trace.rebalanced) {
                        t.rename(id, "coupled.step.rebalance");
                    }
                    spans::end(tr, span);
                    for p in Phase::ALL {
                        rep.breakdown[p] += bd[p];
                    }
                    rep.reported_s += trace.step_time;
                    rep.step_s.push(trace.step_time);
                    rep.transactions += trace.transactions;
                    rep.bytes += trace.bytes;
                    rep.rebalances += usize::from(trace.rebalanced);
                    particle_steps += sim.state.particles.len() as u64;
                }
                rep.run_s = t0.elapsed().as_secs_f64();
                rep.particle_steps = Some(particle_steps);
                rep.population = sim.state.particles.len();
                let (neutral, _) = sim.state.counts_per_cell();
                let counts: Vec<f64> = neutral.iter().map(|&c| c as f64).collect();
                let density = coupled::diag::number_density(
                    &counts,
                    &sim.state.nm.coarse.volumes,
                    sim.state.species.get(sim.state.h_id).weight,
                );
                rep.result_hash = fnv1a(&density);
                rep.mean_density = mean(&density);
            }
        }
        Ok(())
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => rep.errors.push(e),
        Err(p) => rep.errors.push(format!("panic: {}", panic_text(p))),
    }
    if rep.errors.is_empty() && rep.population == 0 {
        rep.errors.push("zero population".to_string());
    }
    rep.failed = u64::from(!rep.errors.is_empty());
    rep
}

/// What a client saw of one job.
struct JobRow {
    /// Position of the job in the generated mix.
    index: usize,
    submit_us: f64,
    /// Submit until `wait()` returned, seconds.
    latency_s: f64,
    /// When `wait()` returned.
    done: Instant,
    result: Result<Arc<RunReport>, String>,
}

/// A closed-loop client: submit, wait, next.
fn client(
    server: &JobServer,
    specs: &[(usize, JobSpec)],
    mut tracer: Option<Tracer>,
) -> (Vec<JobRow>, Option<Tracer>) {
    let mut out = Vec::with_capacity(specs.len());
    for (index, spec) in specs {
        let mut tr = tracer.as_mut();
        let t0 = Instant::now();
        let (handle, submit_s) = timed(&mut tr, "jobsrv.submit", || server.submit(spec.clone()));
        let (result, _) = timed(&mut tr, "jobsrv.wait", || handle.wait());
        out.push(JobRow {
            index: *index,
            submit_us: submit_s * 1e6,
            latency_s: t0.elapsed().as_secs_f64(),
            done: Instant::now(),
            result: result.map_err(|e| e.to_string()),
        });
    }
    (out, tracer)
}

/// Run `specs` through two closed-loop clients (even and odd indices,
/// one tenant each). Returns the per-job rows in index order and the
/// wall seconds of the phase.
fn two_clients(
    server: &JobServer,
    specs: Vec<(usize, JobSpec)>,
    tr: &mut Trace<'_>,
    phase: &str,
) -> (Vec<JobRow>, f64) {
    let span = spans::begin(tr, phase);
    let mut lanes: [Vec<(usize, JobSpec)>; 2] = [Vec::new(), Vec::new()];
    for (k, (index, spec)) in specs.into_iter().enumerate() {
        let tenant = if k % 2 == 0 { "even" } else { "odd" };
        lanes[k % 2].push((index, spec.tenant(tenant)));
    }
    let forks: Vec<Option<Tracer>> = lanes
        .iter()
        .map(|_| match (tr.as_deref(), span) {
            (Some(t), Some(id)) => Some(t.fork(id)),
            _ => None,
        })
        .collect();
    let t0 = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .zip(forks)
            .map(|(lane, fork)| scope.spawn(move || client(server, lane, fork)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut rows = Vec::new();
    for (lane_rows, fork) in results {
        rows.extend(lane_rows);
        if let (Some(t), Some(f)) = (tr.as_deref_mut(), fork) {
            t.absorb(f);
        }
    }
    spans::end(tr, span);
    rows.sort_by_key(|r| r.index);
    (rows, wall)
}

/// Set-up of the job mix: lower every generated scenario into a job
/// and start a fresh 2-worker server.
fn build_server(texts: &[String], how: Observe) -> Result<(Vec<JobSpec>, JobServer), String> {
    let specs: Result<Vec<JobSpec>, _> = texts
        .iter()
        .map(|t| coupled::scenario::parse(t).map(|sc| JobSpec::new(sc.run)))
        .collect();
    let mut cfg = ServerConfig::default()
        .workers(2)
        .thread_budget(2)
        .cache_capacity(workloads::CACHE_CAPACITY);
    if how == Observe::Recorder {
        cfg = cfg.metrics(Registry::new());
    }
    Ok((specs.map_err(|e| e.to_string())?, JobServer::start(cfg)))
}

/// One rep of the job mix: cold, warm (hits then evicted misses) and
/// coalesce phases against a fresh server. `texts` holds `n + 1`
/// generated scenarios; the last is the coalesce config.
fn job_rep(texts: &[String], how: Observe, tr: &mut Trace<'_>) -> Rep {
    let n = texts.len() - 1;
    let warm_hits = workloads::WARM_HITS.min(n);
    let warm_misses = workloads::WARM_MISSES.min(n.saturating_sub(workloads::CACHE_CAPACITY));
    let mut rep = Rep::default();
    let mut samples = JobSamples::default();

    // --- set-up: lower every job, start the server -------------------
    let (built, setup_s) = timed(tr, "jobsrv.setup", || build_server(texts, how));
    rep.setup_s = setup_s;
    let (specs, mut server) = match built {
        Ok(b) => b,
        Err(e) => {
            rep.attempted = 1;
            rep.failed = 1;
            rep.errors.push(e);
            return rep;
        }
    };
    rep.steps = specs[0].run.steps;
    let served = Instant::now();
    let indexed = |indices: &[usize]| -> Vec<(usize, JobSpec)> {
        indices.iter().map(|&i| (i, specs[i].clone())).collect()
    };
    let mut job_failures = 0u64;

    // --- cold: n unique configs, every one an engine attempt ---------
    let all: Vec<usize> = (0..n).collect();
    let (cold, cold_wall) = two_clients(&server, indexed(&all), tr, "jobsrv.cold");
    // The two clients drift apart, so which configs the LRU still holds
    // follows completion order, not submission order: the most recently
    // completed are in, the earliest completed were evicted long ago.
    let mut by_completion: Vec<(Instant, usize)> = cold.iter().map(|r| (r.done, r.index)).collect();
    by_completion.sort_unstable();
    let order: Vec<usize> = by_completion.into_iter().map(|(_, i)| i).collect();
    let (oldest, newest) = (&order[..warm_misses], &order[n - warm_hits..]);
    samples.cold_wall_s = cold_wall;
    samples.cold_jobs = n;
    let mut cold_reports: Vec<Option<Arc<RunReport>>> = vec![None; n];
    let mut densities = Vec::new();
    for JobRow {
        index: i,
        submit_us,
        latency_s,
        result,
        ..
    } in cold
    {
        samples.submit_us.push(submit_us);
        samples.cold_latency_s.push(latency_s);
        match result {
            Ok(report) => {
                let meta = report.job.as_ref().expect("served reports carry JobMeta");
                samples.queue_s.push(meta.queue_seconds);
                samples.run_s.push(meta.run_seconds);
                if meta.cache_hit {
                    rep.errors.push(format!("cold job {i} was a cache hit"));
                }
                for p in Phase::ALL {
                    rep.breakdown[p] += report.breakdown[p];
                }
                rep.reported_s += report.total_time / n as f64;
                rep.population += report.population;
                densities.extend_from_slice(&report.density_h);
                cold_reports[i] = Some(report);
            }
            Err(e) => {
                job_failures += 1;
                rep.errors.push(format!("cold job {i}: {e}"));
            }
        }
    }
    rep.result_hash = fnv1a(&densities);
    rep.mean_density = mean(&densities);
    let after_cold = server.stats();
    if after_cold.attempts != n as u64 || after_cold.cache_hits != 0 {
        rep.errors.push(format!(
            "cold phase: {} attempts and {} hits for {n} unique jobs",
            after_cold.attempts, after_cold.cache_hits
        ));
    }

    // --- warm: the newest configs hit the LRU, the oldest miss -------
    let (hits, _) = two_clients(&server, indexed(newest), tr, "jobsrv.warm_hit");
    for row in hits {
        let i = row.index;
        match (row.result, &cold_reports[i]) {
            (Ok(warm), Some(cold)) => {
                samples.hit_latency_us.push(row.latency_s * 1e6);
                let hit = warm.job.as_ref().is_some_and(|m| m.cache_hit);
                let same = warm.population == cold.population
                    && warm.density_h.len() == cold.density_h.len()
                    && warm
                        .density_h
                        .iter()
                        .zip(&cold.density_h)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !hit || !same {
                    rep.errors
                        .push(format!("warm job {i}: hit={hit} bitwise_equal={same}"));
                }
            }
            (Err(e), _) => {
                job_failures += 1;
                rep.errors.push(format!("warm job {i}: {e}"));
            }
            (Ok(_), None) => {}
        }
    }
    let after_hits = server.stats();
    let (misses, _) = two_clients(&server, indexed(oldest), tr, "jobsrv.warm_miss");
    for JobRow {
        index: i, result, ..
    } in misses
    {
        match result {
            Ok(r) if r.job.as_ref().is_some_and(|m| m.cache_hit) => {
                rep.errors.push(format!("evicted job {i} hit the cache"));
            }
            Ok(_) => {}
            Err(e) => {
                job_failures += 1;
                rep.errors.push(format!("evicted job {i}: {e}"));
            }
        }
    }
    let after_misses = server.stats();
    let hit_delta = after_hits.cache_hits - after_cold.cache_hits;
    let miss_attempts = after_misses.attempts - after_hits.attempts;
    if hit_delta != warm_hits as u64 || miss_attempts != warm_misses as u64 {
        rep.errors.push(format!(
            "warm phase: {hit_delta} hits (want {warm_hits}), {miss_attempts} re-runs (want {warm_misses})"
        ));
    }

    // --- coalesce: identical copies at once share one attempt --------
    let span = spans::begin(tr, "jobsrv.coalesce");
    let handles: Vec<_> = (0..workloads::COALESCE_COPIES)
        .map(|_| server.submit(specs[n].clone()))
        .collect();
    for h in handles {
        if let Err(e) = h.wait() {
            job_failures += 1;
            rep.errors.push(format!("coalesced copy: {e}"));
        }
    }
    spans::end(tr, span);
    rep.run_s = served.elapsed().as_secs_f64();
    let end = server.stats();
    let shared =
        (end.coalesced - after_misses.coalesced) + (end.cache_hits - after_misses.cache_hits);
    if end.attempts - after_misses.attempts != 1 || shared != workloads::COALESCE_COPIES as u64 - 1
    {
        rep.errors.push(format!(
            "coalesce phase: {} attempts, {shared} followers for {} copies",
            end.attempts - after_misses.attempts,
            workloads::COALESCE_COPIES
        ));
    }
    server.shutdown();

    samples.stats = end;
    rep.attempted = end.submitted;
    rep.failed = (end.failed + job_failures).max(u64::from(!rep.errors.is_empty()));
    rep.jobs = Some(samples);
    rep
}

/// The generated inputs of a workload for one seed — one scenario
/// text, or the job texts — made once so every rep of a run sees
/// identical bytes.
pub fn inputs(w: &Workload, seed: u64, steps: usize, cold_jobs: usize) -> Vec<String> {
    match w.driver {
        Driver::JobMix => workloads::job_mix(seed, cold_jobs),
        _ => vec![w.scenario_text(seed, steps)],
    }
}

/// Seconds of one more set-up of `w` (world built, then dropped): the
/// extra samples that steady the `setup_s` median.
pub fn setup_sample(w: &Workload, inputs: &[String]) -> Result<f64, String> {
    let t0 = Instant::now();
    match w.driver {
        Driver::JobMix => drop(build_server(inputs, Observe::Off)?),
        _ => drop(build_world(w, &inputs[0], Observe::Off)?),
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// One rep of `w` on generated inputs.
pub fn rep(w: &Workload, inputs: &[String], how: Observe, mut tr: Trace<'_>) -> Rep {
    match w.driver {
        Driver::JobMix => job_rep(inputs, how, &mut tr),
        _ => sim_rep(w, &inputs[0], how, &mut tr),
    }
}
