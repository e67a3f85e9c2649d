//! Submit simulations to the in-process job server and tail a job's
//! live trace: two tenants share the worker pool, an identical
//! duplicate submission is served from one engine run, and the job
//! metadata on each report shows who queued how long and who hit the
//! cache (DESIGN.md §14).
//!
//! ```bash
//! cargo run --release --example job_server
//! ```

use jobsrv::prelude::*;

fn main() {
    let srv = JobServer::start(ServerConfig::default().workers(2).thread_budget(8));

    let base = RunConfig::builder()
        .paper(Dataset::D1, 0.03)
        .ranks(2)
        .steps(10)
        .rebalance(None);

    // Tenant A floods three seeds; tenant B submits one job plus an
    // exact duplicate of A's first — the duplicate never runs.
    let mut handles = Vec::new();
    for seed in [1u64, 2, 3] {
        let run = base.clone().seed(seed).build().expect("valid config");
        handles.push(
            srv.submit(
                JobSpec::new(run)
                    .tenant("team-a")
                    .label(format!("sweep seed {seed}")),
            ),
        );
    }
    let b_run = base.clone().seed(9).build().expect("valid config");
    let b_job = srv.submit(JobSpec::new(b_run).tenant("team-b").label("tenant-b run"));
    let dup_run = base.clone().seed(1).build().expect("valid config");
    let dup = srv.submit(
        JobSpec::new(dup_run)
            .tenant("team-b")
            .label("duplicate of seed 1"),
    );

    // Tail tenant B's trace live while everything else runs.
    let tail = b_job.subscribe();
    let mut streamed_steps = 0usize;
    for ev in tail {
        if matches!(ev, TraceEvent::Step { .. }) {
            streamed_steps += 1;
        }
    }
    println!(
        "tailed {streamed_steps} live step events from {}\n",
        b_job.id()
    );

    handles.push(b_job);
    handles.push(dup);

    println!("  job    | tenant  |  cache | queue s |  run s | attempts | population");
    for h in &handles {
        let report = h.wait().expect("job completes");
        let meta = report.job.as_ref().expect("served reports are stamped");
        println!(
            "  {:6} | {:7} | {:>6} | {:>7.3} | {:>6.3} | {:>8} | {:>10}",
            format!("job-{}", meta.job_id),
            if meta.job_id < 3 { "team-a" } else { "team-b" },
            if meta.cache_hit { "HIT" } else { "run" },
            meta.queue_seconds,
            meta.run_seconds,
            meta.attempts,
            report.population,
        );
    }

    let stats = srv.stats();
    println!(
        "\nserver: {} submitted, {} engine attempts, {} completed, {} coalesced/cached",
        stats.submitted,
        stats.attempts,
        stats.completed,
        stats.coalesced + stats.cache_hits,
    );
    let (cache_hits, cache_misses) = srv.cache_stats();
    println!("result cache: {cache_hits} hits, {cache_misses} misses");
    println!(
        "geometry cache: {} built, {} reused (one mesh per [domain], not per job)",
        stats.geometry_builds, stats.geometry_hits
    );
    let leader_hash = handles[0].wait().unwrap().job.as_ref().unwrap().config_hash;
    println!(
        "the duplicate of seed 1 reused its leader's engine run — identical canonical\n\
         config hash ({leader_hash:016x}), bitwise-identical report, zero extra kernel time."
    );
}
