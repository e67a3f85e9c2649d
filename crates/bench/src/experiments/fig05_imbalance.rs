//! Figure 5: percentage of particles per rank over 200 PIC timesteps
//! with 4 MPI processes and NO load balancing.
//!
//! Paper result: rank 0 holds ~100% of the particles for the first 50
//! PIC steps and still ~90% at step 200 — the motivating observation
//! for the dynamic load balancer.

use crate::{steps, write_csv, Experiment};
use coupled::report::table;

pub fn run() {
    let exp = Experiment {
        ranks: 4,
        rebalance: None,
        ..Experiment::default()
    };
    // the paper plots 200 PIC steps = 100 DSMC steps; honour
    // REPRO_STEPS but interpret the x-axis in PIC steps
    let rep = exp.run();

    let mut rows = Vec::new();
    for (i, tr) in rep.trace.iter().enumerate() {
        let pic_step = (i + 1) * 2;
        let mut row = vec![pic_step.to_string()];
        for share in &tr.share {
            row.push(format!("{:.1}", share * 100.0));
        }
        rows.push(row);
    }
    println!("Figure 5 — particle distribution (%) per rank, 4 ranks, no LB");
    println!("(paper: rank with the inlet keeps ~90%+ of all particles)");
    let headers = ["pic_step", "rank0_%", "rank1_%", "rank2_%", "rank3_%"];
    // print every 5th row to keep the console readable
    let sparse: Vec<Vec<String>> = rows.iter().step_by(5).cloned().collect();
    println!("{}", table(&headers, &sparse));
    write_csv("fig05_imbalance.csv", &headers, &rows);

    let max_at = |i: usize| {
        rep.trace[i.min(rep.trace.len() - 1)]
            .share
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            * 100.0
    };
    println!(
        "max rank share: {:.1}% at PIC step 50, {:.1}% at the end (paper: ~100% early, ~90% at step 200)",
        max_at(24),
        max_at(rep.trace.len() - 1)
    );
    println!(
        "(our scaled domain fills in ~{} DSMC steps, so the concentration decays faster than the paper's)",
        steps()
    );
}
