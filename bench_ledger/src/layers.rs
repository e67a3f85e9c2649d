//! The traced pass (`--trace 1`): the workload's driver under harness
//! spans, its serial twin under the kernel probes, and the layer
//! probes — assembled into the per-layer ledger.

use crate::e2e::{check, sizes, timed_reps, twin_sims};
use crate::ledger::{twin_pass, Kernel, LEDGER_PHASES};
use crate::run::{self, Observe, Rep};
use crate::spans::Tracer;
use crate::workloads::{Driver, Workload};
use crate::{hash_text, out_dir, probes, stats, Opts, RunResult};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: the per-layer ledger from a separate traced pass.
pub fn trace(w: &Workload, o: &Opts) -> Result<RunResult, String> {
    let (steps, cold_jobs) = sizes(w, o);
    let inputs = run::inputs(w, o.seed, steps, cold_jobs);
    let sims = twin_sims(w, &inputs)?;
    // the kernel ledger of the job mix runs on the jet-shaped job
    let (twin_sim, twin_steps) = sims.last().expect("a workload has a twin").clone();
    let twin_text = inputs[sims.len() - 1].clone();
    let mut tr = Tracer::new();
    let mut out = RunResult::default();

    // a. untraced baseline through the workload's own driver
    let base = timed_reps(w, &inputs, o.seconds * 0.3, 1);
    let good: Vec<&Rep> = base.iter().filter(|r| r.errors.is_empty()).collect();
    let Some(&base0) = good.first() else {
        return Err(format!("baseline failed: {}", base[0].errors.join("; ")));
    };
    let base_run_s = stats::median(&good.iter().map(|r| r.run_s).collect::<Vec<_>>());

    // b. the traced pass: the workload's driver under harness spans.
    // Serial workloads are stepped as RankEngine + dsmc_step(), which
    // is also their kernel ledger; the others get a serial twin after.
    let root = tr.begin(w.name);
    let (traced_run_s, traced_hash, step_wall, twin, twin_reported);
    if w.driver == Driver::Serial {
        let t = twin_pass(&twin_sim, twin_steps, Some(&mut tr));
        traced_run_s = t.setup_s + t.step_s.iter().sum::<f64>();
        traced_hash = run::fnv1a(&t.density);
        step_wall = t.step_s.clone();
        twin_reported = base0.breakdown;
        twin = t;
    } else {
        let r = run::rep(w, &inputs, Observe::Off, Some(&mut tr));
        if !r.errors.is_empty() {
            return Err(format!("traced rep failed: {}", r.errors.join("; ")));
        }
        traced_run_s = r.run_s;
        traced_hash = r.result_hash;
        let mut walls = tr.durations("coupled.step");
        walls.extend(tr.durations("coupled.step.rebalance"));
        let span = tr.begin("twin");
        let t = twin_pass(&twin_sim, twin_steps, Some(&mut tr));
        let twin_run = w.lower(&twin_text).map_err(|e| e.to_string())?;
        let (report, _) = tr.time("twin.run_serial", || coupled::run_serial(&twin_run));
        tr.end(span);
        // wall per step where the driver is stepped from outside, the
        // program's own step times on the threaded driver, the twin's
        // for the job mix
        step_wall = match w.driver {
            Driver::Modelled => walls,
            Driver::Threaded => r.step_s.clone(),
            _ => t.step_s.clone(),
        };
        twin_reported = report.breakdown;
        twin = t;
    }
    if traced_hash != base0.result_hash {
        out.failed += 1;
        out.errors.push(format!(
            "traced result_hash {} differs from untraced {}",
            hash_text(traced_hash),
            hash_text(base0.result_hash)
        ));
    }

    // c. what the program's own observability costs on this driver
    let obs_rep = run::rep(w, &inputs, Observe::Recorder, None);
    if !obs_rep.errors.is_empty() {
        out.failed += 1;
        out.errors
            .push(format!("observed rep: {}", obs_rep.errors.join("; ")));
    }

    // d. probes that need no stepping engine
    let rounds = if o.smoke { 20 } else { 300 };
    let exchange = probes::exchange_probe(&mut tr, rounds);
    let decomp = probes::decomposition_probe(&twin, &mut tr, if o.smoke { 1 } else { 5 });
    const PARSES: usize = 50;
    let (_, parse_s) = tr.time("coupled.scenario_parse", || {
        for _ in 0..PARSES {
            std::hint::black_box(coupled::scenario::parse(&inputs[0]).is_ok());
        }
    });
    tr.end(root);

    check(w, o, &base, std::slice::from_ref(&twin), &mut out);
    let led = twin.ledger.as_ref().expect("a traced twin has a ledger");
    let v = &mut out.values;
    v.put("mesh.build_s", led.mesh_build_s);
    v.put("mesh.coarse_cells", twin.coarse_cells as f64);
    v.put("mesh.fine_nodes", twin.fine_nodes as f64);
    v.put("particles.sort_ns_per_particle", led.sort_ns_per_particle);
    v.put("particles.pack_ns_per_particle", led.pack_ns_per_particle);
    v.put(
        "particles.bytes_per_particle",
        particles::PACKED_SIZE as f64,
    );
    v.put(
        "dsmc.inject_ns_per_particle",
        led.ns_per_unit(Kernel::Inject),
    );
    v.put("dsmc.move_ns_per_particle", led.ns_per_unit(Kernel::MoveH));
    v.put(
        "dsmc.collide_ns_per_candidate",
        led.ns_per_unit(Kernel::Collide),
    );
    v.put("dsmc.collide_accept_ratio", led.accept_ratio());
    v.put(
        "pic.deposit_ns_per_particle",
        led.ns_per_unit(Kernel::Deposit),
    );
    v.put("pic.push_ns_per_particle", led.ns_per_unit(Kernel::Push));
    v.put(
        "pic.ion_move_ns_per_particle",
        led.ns_per_unit(Kernel::IonMove),
    );
    v.put("pic.efield_ns_per_node", led.ns_per_unit(Kernel::Efield));
    v.put("pic.poisson_assemble_s", led.poisson_assemble_s);
    v.put("sparse.cg_iters_per_solve", led.cg_iters_per_solve());
    v.put("sparse.cg_ns_per_iter_node", led.ns_per_unit(Kernel::Cg));
    v.put("sparse.spmv_ns_per_nnz", led.spmv_ns_per_nnz);
    v.put("sparse.cg_unconverged", led.cg_unconverged as f64);
    v.put("kernels.pool2_move_speedup", led.pool2_move_speedup);
    v.put("kernels.dispatch_us", led.dispatch_us);
    for case in &exchange {
        let name = format!("vmpi.exchange_us.{}", case.key);
        if case.oversubscribed {
            out.oversubscribed.push(name.clone());
        }
        v.put(&name, case.us_per_exchange);
        if case.key.ends_with(".r4") {
            v.put(
                &format!("vmpi.exchange_tx.{}", case.key),
                case.transactions as f64,
            );
            v.put(
                &format!("vmpi.exchange_bytes.{}", case.key),
                case.bytes as f64,
            );
        }
    }
    // a disagreement is a finding about the system under test, kept as
    // a count: the run itself moved every byte correctly
    let mismatches: Vec<&String> = exchange
        .iter()
        .filter_map(|c| c.mismatch.as_ref())
        .collect();
    v.put("vmpi.traffic_mismatch", mismatches.len() as f64);
    for m in mismatches {
        println!("# wire differs from the vmpi::traffic closed form: {m}");
    }
    v.put("partition.kway384_s", decomp.kway_s);
    v.put("partition.kway384_edge_cut", decomp.kway_edge_cut as f64);
    v.put("partition.kway384_imbalance", decomp.kway_imbalance);
    v.put("partition.hungarian384_s", decomp.hungarian_s);
    v.put("balance.rebalance_s_p50", decomp.rebalance_s_p50);
    v.put("balance.rebalances", base0.rebalances as f64);
    v.put("balance.lii_before", decomp.lii_before);
    v.put("balance.lii_after", decomp.lii_after);
    v.put("balance.migrated_fraction", decomp.migrated_fraction);

    // program-reported phases of the workload's own driver
    for p in coupled::Phase::ALL {
        v.put(&format!("coupled.phase_s.{}", p.name()), base0.breakdown[p]);
    }
    // the job mix runs its cold jobs on two workers at once
    let lanes = base0
        .jobs
        .as_ref()
        .map_or(base0.run_s, |j| 2.0 * j.cold_wall_s);
    v.put(
        "coupled.phase_residual_ratio",
        1.0 - ratio(base0.breakdown.total(), lanes),
    );
    // the ledger: kernel ns/unit × exact units against the phase time
    // run_serial reports for the twin's config
    let (mut predicted, mut reported) = (0.0, 0.0);
    let mut per_phase = Vec::new();
    for p in LEDGER_PHASES {
        predicted += led.predicted_s(p);
        reported += twin_reported[p];
        per_phase.push((p, 1.0 - ratio(led.predicted_s(p), twin_reported[p])));
    }
    v.put(
        "coupled.kernel_ledger_residual_ratio",
        1.0 - ratio(predicted, reported),
    );
    for (p, r) in per_phase {
        v.put(
            &format!("coupled.kernel_ledger_residual_ratio.{}", p.name()),
            r,
        );
    }
    v.put("coupled.step_s_p50", stats::median(&step_wall));
    v.put("coupled.step_s_p90", stats::percentile(&step_wall, 90.0));
    let serial_wall: f64 = twin.step_s.iter().sum();
    v.put(
        "coupled.model_overhead_ratio",
        if w.driver == Driver::Modelled {
            ratio(base_run_s, serial_wall)
        } else {
            0.0
        },
    );
    v.put("coupled.tx", base0.transactions as f64);
    v.put("coupled.bytes", base0.bytes as f64);
    v.put("coupled.scenario_parse_us", parse_s * 1e6 / PARSES as f64);
    v.put("coupled.checkpoint_s", led.checkpoint_s);
    v.put("coupled.restore_s", led.restore_s);
    v.put("coupled.checkpoint_mb", led.checkpoint_mb);
    v.put(
        "obs.recorder_overhead_ratio",
        ratio(obs_rep.run_s, base_run_s),
    );

    // the serving path; zero on workloads that never enter it
    let jobs = base0.jobs.clone().unwrap_or_default();
    let p50 = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::median(xs)
        }
    };
    v.put("jobsrv.submit_us_p50", p50(&jobs.submit_us));
    v.put("jobsrv.queue_s_p50", p50(&jobs.queue_s));
    v.put("jobsrv.run_s_p50", p50(&jobs.run_s));
    // pooled over the baseline reps so the p95 has its 200 samples
    let latencies: Vec<f64> = good
        .iter()
        .filter_map(|r| r.jobs.as_ref())
        .flat_map(|j| j.cold_latency_s.iter().copied())
        .collect();
    let top = stats::top_percentile(latencies.len());
    v.put(
        "jobsrv.latency_p95_s",
        if latencies.is_empty() {
            0.0
        } else {
            stats::percentile(&latencies, top.min(95.0))
        },
    );
    if !latencies.is_empty() && top < 95.0 {
        println!(
            "# jobsrv.latency_p95_s: only {} samples, reporting p{top} instead",
            latencies.len()
        );
    }
    v.put("jobsrv.cache_hit_us_p50", p50(&jobs.hit_latency_us));
    v.put("jobsrv.cache_hits", jobs.stats.cache_hits as f64);
    v.put("jobsrv.attempts", jobs.stats.attempts as f64);
    v.put("jobsrv.coalesced", jobs.stats.coalesced as f64);
    v.put("jobsrv.failed", jobs.stats.failed as f64);
    v.put(
        "harness.trace_overhead_ratio",
        ratio(traced_run_s, base_run_s),
    );

    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    tr.write_jsonl(&path, w.name)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", tr.spans().len(), path.display());
    Ok(out)
}
