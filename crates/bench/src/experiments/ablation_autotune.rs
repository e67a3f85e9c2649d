//! Ablation: the auto-tuning procedure the paper uses to pick T and
//! Threshold (§V-A / §VII-B "parameters were automatically chosen
//! during our pilot study ... using a sampling script").
//!
//! Sweeps the (T, Threshold) grid with short pilot runs on Dataset 1
//! (a *different* dataset than the performance runs use, exactly like
//! the paper) and reports the chosen parameters.

use coupled::report::table;
use coupled::{tune_balancer, Dataset, MachineProfile, RunConfig};

pub fn run() {
    let run = RunConfig::builder()
        .paper(Dataset::D1, crate::scale().min(0.15))
        .ranks(48)
        .build()
        .expect("valid autotune config");
    let pilot_steps = crate::steps().min(30);
    let report = tune_balancer(
        &run,
        MachineProfile::tianhe2(),
        pilot_steps,
        &coupled::tune::DEFAULT_T_GRID,
        &coupled::tune::DEFAULT_THRESHOLD_GRID,
    );

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.t_interval.to_string(),
                format!("{}", p.threshold),
                format!("{:.2}", p.total_time),
                p.rebalances.to_string(),
            ]
        })
        .collect();
    println!("auto-tuning pilot runs ({pilot_steps} steps, 48 ranks, Dataset 1):");
    let headers = ["T", "Threshold", "pilot_total_s", "rebalances"];
    println!("{}", table(&headers, &rows));
    crate::write_csv("ablation_autotune.csv", &headers, &rows);
    println!(
        "chosen: T = {}, Threshold = {} (paper's sampled defaults: T = 20, Threshold = 2.0)",
        report.best.t_interval, report.best.threshold
    );
}
