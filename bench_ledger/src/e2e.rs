//! The end-to-end pass (`--trace 0`): timed reps with tracing off,
//! their correctness checks, and the seven end-to-end rows.

use crate::ledger::{twin_pass, Twin};
use crate::run::{self, Observe, Rep};
use crate::workloads::{self, Driver, Workload};
use crate::{hash_text, host, stats, Opts, RunResult};
use std::time::Instant;

/// The first `--seed 1` result on the reference host: the population
/// and density every later run is checked against, and the first
/// point of the trajectory.
const REFERENCE: &str = include_str!("../reference/2026-09-26-2cpu.json");

pub fn sizes(w: &Workload, o: &Opts) -> (usize, usize) {
    if o.smoke {
        (workloads::SMOKE_STEPS, workloads::SMOKE_COLD_JOBS)
    } else {
        (w.steps, workloads::COLD_JOBS)
    }
}

/// The serial twins of a workload, as (config, steps): its own
/// `SimConfig`, or one per canned shape for the job mix (the first
/// three jobs, which keep their canned step counts).
pub fn twin_sims(
    w: &Workload,
    inputs: &[String],
) -> Result<Vec<(coupled::SimConfig, usize)>, String> {
    let shapes = if w.driver == Driver::JobMix { 3 } else { 1 };
    inputs
        .iter()
        .take(shapes)
        .map(|text| {
            let run = w.lower(text).map_err(|e| e.to_string())?;
            Ok((run.sim, run.steps))
        })
        .collect()
}

/// Timed reps: at least `min`, then until `seconds` have passed. Each
/// rep also records the peak resident set it reached (the high-water
/// mark is restarted before it, where the kernel allows).
pub fn timed_reps(w: &Workload, inputs: &[String], seconds: f64, min: usize) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || t0.elapsed().as_secs_f64() < seconds {
        host::reset_peak_rss();
        let mut rep = run::rep(w, inputs, Observe::Off, None);
        rep.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        reps.push(rep);
    }
    reps
}

/// Exact particle-steps of one rep: from the driver where it exposes
/// per-step populations, else from the serial twin of the same config
/// (per canned shape for the job mix).
fn particle_steps(w: &Workload, rep: &Rep, twins: &[Twin]) -> f64 {
    match (w.driver, rep.particle_steps, &rep.jobs) {
        (_, Some(exact), _) => exact as f64,
        (Driver::JobMix, _, Some(jobs)) => (0..jobs.cold_jobs)
            .map(|i| twins[i % twins.len()].particle_steps as f64)
            .sum(),
        _ => twins[0].particle_steps as f64,
    }
}

/// Statistical tolerance of a population of `n` particles: 1 %, or
/// eight standard deviations of a Poisson count if that is wider.
fn tolerance(n: f64) -> f64 {
    (8.0 / n.max(1.0).sqrt()).max(0.01)
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs()
}

struct Reference {
    seed: u64,
    steps: usize,
    population: f64,
    mean_density: f64,
    result_hash: String,
}

fn reference_for(workload: &str) -> Option<Reference> {
    let doc = obs::json::parse(REFERENCE).ok()?;
    let seed = doc.get("seed")?.as_u64()?;
    let row = crate::suite::named_row(&doc, "workloads", workload)?;
    Some(Reference {
        seed,
        steps: row.get("steps")?.as_u64()? as usize,
        population: row.get("population")?.as_f64()?,
        mean_density: row.get("mean_density")?.as_f64()?,
        result_hash: row.get("result_hash")?.as_str()?.to_string(),
    })
}

/// Correctness of a set of reps: each rep's own errors, rep-to-rep
/// agreement, agreement with the serial twin, and distance from the
/// recorded reference. Fills the identity fields of `out`.
pub fn check(w: &Workload, o: &Opts, reps: &[Rep], twins: &[Twin], out: &mut RunResult) {
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors
            .extend(r.errors.iter().map(|e| format!("rep {i}: {e}")));
        if r.errors.is_empty()
            && (r.population != first.population || r.result_hash != first.result_hash)
        {
            out.failed += 1;
            out.errors.push(format!(
                "rep {i} disagrees with rep 0: population {} vs {}, hash {} vs {}",
                r.population,
                first.population,
                hash_text(r.result_hash),
                hash_text(first.result_hash)
            ));
        }
    }
    out.steps = first.steps;
    out.population = first.population;
    out.mean_density = first.mean_density;
    out.result_hash = first.result_hash;
    if !first.errors.is_empty() {
        return;
    }

    let twin = &twins[0];
    let twin_hash = run::fnv1a(&twin.density);
    let twin_error = match w.driver {
        // one engine, one seed, two drivers: bitwise the same answer
        Driver::Serial | Driver::Modelled => {
            (twin.population != first.population || twin_hash != first.result_hash).then(|| {
                format!(
                    "driver and dsmc_step() twin disagree: population {} vs {}, hash {} vs {}",
                    first.population,
                    twin.population,
                    hash_text(first.result_hash),
                    hash_text(twin_hash)
                )
            })
        }
        // decomposition reorders RNG draws: statistical agreement only
        Driver::Threaded => {
            let tol = tolerance(twin.population as f64);
            (!close(first.population as f64, twin.population as f64, tol)).then(|| {
                format!(
                    "threaded population {} is not within {:.1}% of the serial twin's {}",
                    first.population,
                    tol * 100.0,
                    twin.population
                )
            })
        }
        Driver::JobMix => None,
    };
    if let Some(e) = twin_error {
        out.failed += 1;
        out.errors.push(e);
    }

    // the reference is a seed-1 run at full size; other seeds must
    // land within the statistical tolerance of it
    if let Some(r) = reference_for(w.name).filter(|r| r.steps == first.steps && !o.smoke) {
        let tol = tolerance(r.population);
        out.matches_reference = o.seed == r.seed && hash_text(first.result_hash) == r.result_hash;
        if !close(first.population as f64, r.population, tol)
            || !close(first.mean_density, r.mean_density, tol)
        {
            out.failed += 1;
            out.errors.push(format!(
                "population {} / mean density {:e} off the seed-{} reference {} / {:e} by more than {:.1}%",
                first.population,
                first.mean_density,
                r.seed,
                r.population,
                r.mean_density,
                tol * 100.0
            ));
        }
    }
}

/// Set-up samples per run, counting the one each rep performs: at
/// least `MIN`, then more while they fit in the budget (the job mix's
/// 2 ms set-up gets all `MAX`, a 30 ms mesh build about twenty).
const MIN_SETUP_SAMPLES: usize = 15;
const MAX_SETUP_SAMPLES: usize = 80;
const SETUP_BUDGET_S: f64 = 0.5;

/// `--trace 0`: the end-to-end rows, tracing off.
pub fn measure(w: &Workload, o: &Opts) -> Result<RunResult, String> {
    let (steps, cold_jobs) = sizes(w, o);
    let inputs = run::inputs(w, o.seed, steps, cold_jobs);
    // warm-up: the serial twin(s), which also yield the exact
    // particle-step count and the answer the reps are checked against
    let twins: Vec<Twin> = twin_sims(w, &inputs)?
        .iter()
        .map(|(sim, steps)| twin_pass(sim, *steps, None))
        .collect();
    let reps = timed_reps(w, &inputs, o.seconds, if o.smoke { 1 } else { 3 });

    let mut out = RunResult::default();
    check(w, o, &reps, &twins, &mut out);
    let good: Vec<&Rep> = reps.iter().filter(|r| r.errors.is_empty()).collect();
    if good.is_empty() {
        return Err(format!("no rep succeeded: {}", out.errors.join("; ")));
    }
    let series = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { good.iter().map(|r| f(r)).collect() };
    // Interference on a shared host only ever adds time, in bursts that
    // can cover half the reps of a run, so the fastest rep is the steady
    // estimate of what the program itself costs: over ten seeds the
    // median rep spread 41 % on jet_modelled384 where the fastest spread
    // 10 %. Each row is the best rep (lowest time, highest rate); the
    // medians and quartiles are printed beside it. Memory is not
    // interference-driven and stays a median.
    let fastest = |f: &dyn Fn(&Rep) -> f64| stats::summarize(&series(f)).min;
    let highest = |f: &dyn Fn(&Rep) -> f64| stats::summarize(&series(f)).max;
    let median_of = |f: &dyn Fn(&Rep) -> f64| stats::median(&series(f));

    // set-up is short next to a run, so it gets more samples than there
    // are reps
    let mut setups = series(&|r| r.setup_s);
    let t0 = Instant::now();
    while !o.smoke
        && setups.len() < MAX_SETUP_SAMPLES
        && (setups.len() < MIN_SETUP_SAMPLES || t0.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        setups.push(run::setup_sample(w, &inputs)?);
    }

    let v = &mut out.values;
    v.put("setup_s", stats::summarize(&setups).min);
    v.put("run_s", fastest(&|r| r.run_s));
    // the job mix counts its cold jobs, so it divides by the cold phase
    let stepped_s = |r: &Rep| r.jobs.as_ref().map_or(r.run_s, |j| j.cold_wall_s);
    v.put(
        "particle_steps_per_s",
        highest(&|r| particle_steps(w, r, &twins) / stepped_s(r)),
    );
    v.put("peak_rss_mb", median_of(&|r| r.peak_rss_mb));
    v.put(
        "modelled_step_ms",
        fastest(&|r| r.reported_s / r.steps as f64 * 1e3),
    );
    // a simulation run is one job: set-up plus run
    let job_wall = |r: &Rep| r.setup_s + r.run_s;
    match w.driver {
        Driver::JobMix => {
            fn jobs(r: &Rep) -> &run::JobSamples {
                r.jobs.as_ref().expect("job reps carry samples")
            }
            v.put(
                "jobs_per_s",
                highest(&|r| jobs(r).cold_jobs as f64 / jobs(r).cold_wall_s),
            );
            v.put(
                "job_latency_p50_s",
                fastest(&|r| stats::median(&jobs(r).cold_latency_s)),
            );
        }
        _ => {
            v.put("jobs_per_s", highest(&|r| 1.0 / job_wall(r)));
            v.put("job_latency_p50_s", fastest(&job_wall));
        }
    }
    println!(
        "# {} timed reps of {} steps after 1 warm-up pass; rows are the best rep",
        reps.len(),
        out.steps
    );
    if w.driver == Driver::Threaded {
        // the open question of the README: identical answers, yet the
        // message count of a rep is not always the same
        let tx: std::collections::BTreeSet<u64> = good.iter().map(|r| r.transactions).collect();
        println!("# transactions seen over reps: {tx:?}");
    }
    for (name, values) in [
        ("setup_s", setups),
        ("run_s", series(&|r| r.run_s)),
        ("job_wall_s", series(&job_wall)),
        ("peak_rss_mb", series(&|r| r.peak_rss_mb)),
    ] {
        let s = stats::summarize(&values);
        println!(
            "# {name} over samples: median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_every_workload() {
        for w in &workloads::WORKLOADS {
            let r = reference_for(w.name).unwrap_or_else(|| panic!("{} has a reference", w.name));
            assert_eq!((r.seed, r.steps), (1, w.steps), "{}", w.name);
            assert!(r.population > 0.0 && r.mean_density > 0.0);
            assert!(r.result_hash.starts_with("0x"));
        }
    }

    #[test]
    fn tolerance_widens_for_small_populations() {
        assert_eq!(tolerance(1e6), 0.01);
        assert!((tolerance(400.0) - 0.4).abs() < 1e-12);
        assert!(close(101.0, 100.0, 0.01) && !close(102.0, 100.0, 0.01));
    }
}
