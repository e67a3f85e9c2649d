//! Table IV: per-procedure breakdown of the DC+LB implementation on
//! Tianhe-2, Dataset 2.
//!
//! Paper shapes: DSMC_Move / Inject / Reindex scale near-linearly;
//! exchange costs are small and shrink; Poisson_Solve does NOT scale
//! (slowly grows with rank count) and becomes the bottleneck.

use crate::{write_csv, Experiment, RANK_LADDER};
use coupled::report::table;
use coupled::Phase;

pub fn run() {
    let phases = [
        Phase::DsmcMove,
        Phase::DsmcExchange,
        Phase::Inject,
        Phase::PicMove,
        Phase::PicExchange,
        Phase::PoissonSolve,
        Phase::Reindex,
    ];
    let mut per_rank_reports = Vec::new();
    for &ranks in &RANK_LADDER {
        let rep = Experiment {
            ranks,
            ..Experiment::default()
        }
        .run();
        eprintln!("  {ranks} ranks: total={:.1}s", rep.total_time);
        per_rank_reports.push(rep);
    }

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for p in phases {
        let mut row = vec![p.name().to_string()];
        for (rep, &ranks) in per_rank_reports.iter().zip(&RANK_LADDER) {
            row.push(format!("{:.1}", rep.breakdown[p]));
            csv_rows.push(vec![
                p.name().to_string(),
                ranks.to_string(),
                format!("{:.3}", rep.breakdown[p]),
            ]);
        }
        rows.push(row);
    }
    println!("\nTable IV — breakdown (s), DC+LB, Dataset 2, Tianhe-2");
    let headers = ["procedure", "24", "48", "96", "192", "384", "768", "1536"];
    println!("{}", table(&headers, &rows));
    write_csv(
        "tab04_breakdown.csv",
        &["procedure", "ranks", "time_s"],
        &csv_rows,
    );

    // headline checks
    let poi = |i: usize| per_rank_reports[i].breakdown[Phase::PoissonSolve];
    println!(
        "Poisson_Solve 24 ranks: {:.1}s vs 1536 ranks: {:.1}s — must NOT scale (paper: 95 -> 126)",
        poi(0),
        poi(6)
    );
    let mv = |i: usize| per_rank_reports[i].breakdown[Phase::DsmcMove];
    println!(
        "DSMC_Move speedup 24 -> 1536: {:.1}x (paper: ~43x)",
        mv(0) / mv(6).max(1e-12)
    );
}
