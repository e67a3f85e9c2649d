//! Figure 8: H number-density contours after the run, produced by the
//! serial reference and by the real (threaded) parallel solver.
//!
//! Paper result: the contours agree up to random-seed noise. We
//! render both as ASCII r–z contours and report the field-level
//! agreement.

use coupled::diag::{ascii_contour, mean_relative_error, rz_slice};
use coupled::prelude::*;

pub fn run() {
    let scale = crate::scale().min(0.15); // threaded runs are real work
    let run = RunConfig::builder()
        .paper(Dataset::D1, scale)
        .ranks(4)
        .steps(crate::steps())
        .rebalance(None)
        .build()
        .expect("valid fig08 config");

    println!("running serial reference ({} steps)...", run.steps);
    let ser = run_serial(&run);
    println!("running 4-rank threaded solver...");
    // the threaded run is the designated trace target: pass
    // `--trace-out <path>` (or set REPRO_TRACE) for a JSONL trace,
    // and its report + metrics land next to the CSV.
    let metrics = Registry::new();
    let mut par_run = run.clone();
    par_run.obs.trace = crate::trace_spec();
    par_run.obs.metrics = Some(metrics.clone());
    let par = run_threaded(&par_run);
    crate::write_report_json(
        "fig08_parallel_report.json",
        &par,
        Some(&metrics.snapshot()),
    );

    let spec = run.sim.nozzle;
    let mesh = spec.generate();
    // coarse bins: at our scaled population each bin still holds
    // enough particles for the comparison to be statistical, not noise
    let (nr, nz) = (4usize, 12usize);
    let s_slice = rz_slice(&mesh, &ser.density_h, spec.radius, spec.length, nr, nz);
    let p_slice = rz_slice(&mesh, &par.density_h, spec.radius, spec.length, nr, nz);

    println!("\n(a) serial H density contour (rows = radius, cols = z, 0-9 scale):");
    println!("{}", ascii_contour(&s_slice));
    println!("(b) parallel (4 ranks) H density contour:");
    println!("{}", ascii_contour(&p_slice));

    // field-level agreement on the flattened slices
    let a: Vec<(f64, f64)> = s_slice
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, &v)| (i as f64, v))
        .collect();
    let b: Vec<(f64, f64)> = p_slice
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, &v)| (i as f64, v))
        .collect();
    let err = mean_relative_error(&a, &b);
    println!(
        "mean relative contour difference: {:.1}% (paper: 'minor differences ... due to random seeds')",
        err * 100.0
    );
    println!(
        "populations: serial {} vs parallel {}",
        ser.population, par.population
    );

    let rows: Vec<Vec<String>> = a
        .iter()
        .zip(&b)
        .map(|((i, s), (_, p))| vec![i.to_string(), format!("{s:.4e}"), format!("{p:.4e}")])
        .collect();
    crate::write_csv("fig08_contours.csv", &["bin", "serial", "parallel"], &rows);
}
