//! Regression guard for the job server (DESIGN.md §14).
//!
//! Four properties are pinned:
//!
//! 1. Serving a run as a job — concurrently with other jobs, through
//!    the fair-share queue, with trace fan-out attached — is bitwise
//!    identical to running the engine solo (the solo run of the same
//!    config, `common::threaded_baseline`), and an identical second
//!    submission is served from ONE engine run with the cache hit
//!    observable in the job metadata.
//! 2. A job whose rank dies mid-run (fault-plan kill) completes via
//!    checkpoint replay inside its one dispatch and still matches the
//!    solo run (`chaos_guard`'s recovery invariant), with as many
//!    replays as the same run gets when run directly.
//! 3. A config no mesh can be built from fails its own job at
//!    submission and leaves the server — its geometry cache included
//!    — serving everyone else.
//! 4. A job started on a geometry an earlier job built (or on one
//!    rebuilt after eviction) is bitwise the solo run, and
//!    `ServerStats` says which of the two happened.
//!
//! The physics itself is pinned in `engine_guard` and
//! `scenario_guard`, never here.

mod common;

use common::{assert_same_physics, guard_builder, guard_config, threaded_baseline};
use jobsrv::prelude::*;
use obs::fnv1a_f64;

#[test]
fn served_jobs_are_bitwise_identical_to_solo_runs_and_cache_deduplicates() {
    let srv = JobServer::start(ServerConfig::default().workers(2).thread_budget(16));

    // Two tenants submit the identical config; a third job differs.
    let a = srv.submit(JobSpec::new(guard_config()).tenant("team-a"));
    let b = srv.submit(JobSpec::new(guard_config()).tenant("team-b"));
    let c = srv.submit(
        JobSpec::new(
            guard_builder()
                .seed(77)
                .build()
                .expect("valid variant config"),
        )
        .tenant("team-a"),
    );

    let ra = a.wait().expect("leader job completes");
    let rb = b.wait().expect("duplicate job completes");
    let rc = c.wait().expect("variant job completes");

    // The served report is bitwise the solo engine result.
    assert_same_physics(&ra, threaded_baseline(), "served report");

    // The duplicate was served without a second engine run: bitwise
    // equal (density AND trace), cache hit visible in the metadata.
    assert_eq!(ra.density_h, rb.density_h);
    assert_eq!(ra.trace, rb.trace);
    assert_eq!(ra.population, rb.population);
    let (ma, mb) = (
        ra.job.as_ref().expect("leader is stamped"),
        rb.job.as_ref().expect("duplicate is stamped"),
    );
    assert!(!ma.cache_hit, "the leader ran the engine");
    assert!(mb.cache_hit, "the duplicate must not run the engine");
    assert_eq!(ma.config_hash, mb.config_hash);
    assert_eq!(ma.config_hash, guard_config().config_hash());
    assert_ne!(ma.job_id, mb.job_id, "each submission keeps its own id");

    // The variant config really ran separately.
    assert_ne!(fnv1a_f64(&rc.density_h), fnv1a_f64(&ra.density_h));
    assert_ne!(
        rc.job.as_ref().unwrap().config_hash,
        ma.config_hash,
        "different seed must produce a different canonical hash"
    );

    // Exactly two engine attempts total: one per distinct config.
    let stats = srv.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(
        stats.attempts, 2,
        "identical submissions must share one run"
    );
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);

    // Post-completion resubmission is an immediate cache hit, still
    // bitwise identical.
    let d = srv.submit(JobSpec::new(guard_config()).tenant("team-c"));
    assert_eq!(d.status(), JobStatus::Done { cache_hit: true });
    let rd = d.wait().expect("cached job serves instantly");
    assert_eq!(ra.density_h, rd.density_h);
    assert_eq!(ra.trace, rd.trace);
    assert!(rd.job.as_ref().unwrap().cache_hit);
    assert_eq!(srv.stats().attempts, 2, "cache service runs no engine");
}

#[test]
fn killed_worker_job_recovers_from_checkpoint_with_the_pinned_hash() {
    // Rank 2 dies at step 6; checkpoints every 4 steps. The first
    // engine attempt fails, and the job's session replays it in the
    // same dispatch from step 4 — completing with the exact solo-run
    // density.
    let run = guard_builder()
        .checkpoint_every(4)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(FaultPlan::default().kill(2, 6)))
        .build()
        .expect("valid recovery config");

    let srv = JobServer::start(ServerConfig::default().workers(1));
    let h = srv.submit(JobSpec::new(run).tenant("chaos").label("kill mid-run"));
    let rx = h.subscribe();
    let report = h.wait().expect("job must recover and complete");

    assert_eq!(report.recoveries, 1, "exactly one replay after the kill");
    assert_same_physics(&report, threaded_baseline(), "recovered served report");
    // The trace holds only the replayed tail: resume at 4, run to 12.
    assert_eq!(report.trace.len(), 8, "replay must resume from step 4");
    let meta = report.job.as_ref().expect("served report is stamped");
    assert_eq!(meta.attempts, 2, "one failed dispatch plus one replay");
    assert!(!meta.cache_hit);

    // Subscribers followed the job across the rank death: a Meta
    // event per attempt and every replayed step.
    let events: Vec<TraceEvent> = rx.iter().collect();
    let metas = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Meta { .. }))
        .count();
    let steps = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Step { .. }))
        .count();
    assert!(
        metas >= 2,
        "each engine attempt re-announces itself: {metas}"
    );
    assert!(steps >= 8, "the full replayed tail is streamed: {steps}");

    // The replay ran in the same dispatch: one set-up, not two.
    let stats = srv.stats();
    assert_eq!((stats.attempts, stats.geometry_builds), (2, 1));
    assert_eq!(stats.geometry_hits, 0);
}

/// Three rank deaths on three ranks (steps 3, 6 and 9, checkpoints
/// every 2 steps): the run recovers three times whether it is run
/// directly or served, because the session is the only place that
/// decides a replay. A job is one dispatch: the served run makes its
/// four attempts inside it.
#[test]
fn three_kills_recover_the_same_run_directly_and_served() {
    let plan = FaultPlan::default().kill(0, 3).kill(1, 6).kill(2, 9);
    let run = guard_builder()
        .checkpoint_every(2)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(plan))
        .build()
        .expect("valid recovery config");

    let direct = run_threaded_result(&run).expect("the direct run recovers");
    assert_eq!(direct.recoveries, 3, "one replay per kill");
    assert_same_physics(&direct, threaded_baseline(), "directly recovered run");

    let srv = JobServer::start(ServerConfig::default().workers(1));
    let served = srv
        .submit(JobSpec::new(run).tenant("chaos").label("three kills"))
        .wait()
        .expect("the served job recovers like the direct run");
    assert_eq!(served.recoveries, 3, "one replay per kill");
    assert_same_physics(&served, threaded_baseline(), "served recovered run");
    let meta = served.job.as_ref().expect("served report is stamped");
    assert_eq!(meta.attempts, 4, "one clean attempt plus three replays");
    let stats = srv.stats();
    assert_eq!((stats.attempts, stats.completed, stats.failed), (4, 1, 0));
    assert_eq!(stats.geometry_builds, 1, "one dispatch, one set-up");
}

/// `RunConfig`'s fields are public, so a config can be edited into
/// nonsense after its builder checked it. `nd = 1` used to panic in
/// mesh generation while the worker held the server's state lock,
/// poisoning `status()` and `stats()` for every tenant; now the job is
/// refused at submission and the server carries on.
#[test]
fn a_config_that_cannot_build_a_mesh_fails_one_job_not_the_server() {
    let srv = JobServer::start(ServerConfig::default().workers(1));
    let mut bad = guard_config();
    bad.sim.nozzle.nd = 1;
    let h = srv.submit(JobSpec::new(bad).tenant("careless"));
    match h.status() {
        JobStatus::Failed { error } => {
            assert!(error.starts_with("invalid config: "), "{error}")
        }
        other => panic!("the job must fail at submission, got {other:?}"),
    }
    assert!(h.wait().is_err());

    let good = srv.submit(JobSpec::new(guard_config()).tenant("careful"));
    good.wait().expect("the next valid job is served");
    assert_eq!(good.status(), JobStatus::Done { cache_hit: false });
    let stats = srv.stats();
    assert_eq!((stats.submitted, stats.failed, stats.completed), (2, 1, 1));
    assert_eq!(stats.attempts, 1, "the refused job never reached a worker");
    assert_eq!((stats.geometry_builds, stats.geometry_hits), (1, 0));

    // ... and poisoned nothing: the next job on the good `[domain]`
    // starts on the geometry the first one left.
    let again = srv.submit(JobSpec::new(guard_builder().seed(1).build().unwrap()));
    again
        .wait()
        .expect("a job on the cached geometry is served");
    assert_eq!(
        srv.status(again.id()),
        Some(JobStatus::Done { cache_hit: false })
    );
    let stats = srv.stats();
    assert_eq!((stats.submitted, stats.failed, stats.completed), (3, 1, 2));
    assert_eq!((stats.geometry_builds, stats.geometry_hits), (1, 1));
}

/// A short 2-rank run on the guard nozzle stretched by `extra_nz`
/// lattice cells: one `[domain]` per `extra_nz`.
fn domain_config(extra_nz: usize, seed: u64) -> RunConfig {
    let mut run = guard_builder()
        .ranks(2)
        .seed(seed)
        .steps(3)
        .build()
        .expect("valid domain config");
    run.sim.nozzle.nz += extra_nz;
    run
}

/// What of a report its config fixes and these tests compare: final
/// density bits, population, the strategies used and the per-step
/// population shares (not the measured wall times, which do not
/// repeat).
fn deterministic(r: &RunReport) -> impl PartialEq + std::fmt::Debug {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let shares: Vec<_> = r.trace.iter().map(|t| bits(&t.share)).collect();
    let density = (fnv1a_f64(&r.density_h), bits(&r.density_h));
    (density, r.population, r.strategy_uses, shares)
}

fn solo(run: &RunConfig) -> RunReport {
    EngineSession::new(run).attempt().expect("solo run")
}

#[test]
fn jobs_on_a_shared_geometry_are_bitwise_the_solo_runs() {
    let srv = JobServer::start(ServerConfig::default().workers(2).thread_budget(4));
    // 2 `[domain]`s, 4 seeds each, interleaved so both workers meet both
    let runs: Vec<RunConfig> = (0..8)
        .map(|k| domain_config(k % 2, 100 + k as u64))
        .collect();
    let handles: Vec<_> = runs
        .iter()
        .map(|run| srv.submit(JobSpec::new(run.clone())))
        .collect();
    for (k, (run, h)) in runs.iter().zip(handles).enumerate() {
        let served = h.wait().expect("job completes");
        assert!(!served.job.as_ref().unwrap().cache_hit, "job {k} ran");
        assert_eq!(deterministic(&served), deterministic(&solo(run)), "job {k}");
    }
    // One build per `[domain]`, plus at most one more per `[domain]`
    // when both workers missed it at once.
    let stats = srv.stats();
    assert_eq!(stats.attempts, 8);
    assert_eq!(stats.geometry_builds + stats.geometry_hits, 8);
    assert!(
        (2..=4).contains(&stats.geometry_builds),
        "{} builds for 2 domains on 2 workers",
        stats.geometry_builds
    );
}

#[test]
fn an_evicted_geometry_is_rebuilt_and_still_bitwise_the_solo_run() {
    let srv = JobServer::start(ServerConfig::default().workers(1));
    // 9 `[domain]`s through a cache of 8: the first is evicted
    for d in 0..9 {
        srv.submit(JobSpec::new(domain_config(d, 1)))
            .wait()
            .expect("job completes");
    }
    let stats = srv.stats();
    assert_eq!((stats.geometry_builds, stats.geometry_hits), (9, 0));
    // the second `[domain]` is still held, the first is built again
    for (d, builds, hits) in [(1, 9, 1), (0, 10, 1)] {
        let run = domain_config(d, 2);
        let served = srv.submit(JobSpec::new(run.clone())).wait().unwrap();
        assert_eq!(
            deterministic(&served),
            deterministic(&solo(&run)),
            "domain {d}"
        );
        let stats = srv.stats();
        assert_eq!((stats.geometry_builds, stats.geometry_hits), (builds, hits));
    }
}

/// Submitting by scenario name goes through the same canonical-hash
/// cache as hand-built configs: the second submission of the same
/// name never runs the engine, and the served report is bitwise the
/// solo run of the lowered jet scenario.
#[test]
fn scenario_name_submissions_share_one_engine_run() {
    let srv = JobServer::start(ServerConfig::default().workers(2));

    let spec = |tenant: &str| {
        JobSpec::from_scenario("jet")
            .expect("canned scenario lowers")
            .tenant(tenant)
    };
    assert_eq!(spec("team-a").label, "scenario:jet");
    let a = srv.submit(spec("team-a"));
    let b = srv.submit(spec("team-b"));
    let ra = a.wait().expect("leader scenario job completes");
    let rb = b.wait().expect("duplicate scenario job completes");

    let jet = coupled::scenario::canned("jet").unwrap().run;
    assert_same_physics(&ra, &solo(&jet), "served jet report");
    assert_eq!(ra.density_h, rb.density_h);
    assert!(!ra.job.as_ref().unwrap().cache_hit, "the leader ran");
    assert!(
        rb.job.as_ref().unwrap().cache_hit,
        "same scenario name must be served from the leader's run"
    );
    assert_eq!(
        ra.job.as_ref().unwrap().config_hash,
        jet.config_hash(),
        "the cache key is the lowered config's canonical hash"
    );
    assert_eq!(srv.stats().attempts, 1, "one engine run for both jobs");

    // an unknown name is a typed error, not a panic
    assert!(JobSpec::from_scenario("warp-core").is_err());
}
