//! Table II + Figure 10: strong scaling of the four implementation
//! variants (DC/CC × ±LB) on the Tianhe-2 profile, Dataset 2.
//!
//! Paper shapes to reproduce:
//! * all variants speed up from 24 → 1536 ranks;
//! * DC beats CC at every rank count on Tianhe-2 (large particle
//!   counts), with a growing margin;
//! * LB improves both strategies, most strongly at small rank counts
//!   (~40% at 48 ranks);
//! * total time flattens (or regresses slightly) at 1536 ranks.

use crate::{strat_name, write_csv, Experiment, RANK_LADDER};
use coupled::report::{secs, table};
use vmpi::Strategy;

pub fn run() {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let variants = [
        (Strategy::Distributed, true, "DC+LB"),
        (Strategy::Distributed, false, "DC-Only"),
        (Strategy::Centralized, true, "CC+LB"),
        (Strategy::Centralized, false, "CC-Only"),
    ];
    for (strategy, lb, name) in variants {
        let mut row = vec![name.to_string()];
        for &ranks in &RANK_LADDER {
            let rep = Experiment {
                ranks,
                strategy,
                load_balance: lb,
                ..Experiment::default()
            }
            .run();
            row.push(secs(rep.total_time));
            csv_rows.push(vec![
                strat_name(strategy).to_string(),
                lb.to_string(),
                ranks.to_string(),
                format!("{:.3}", rep.total_time),
            ]);
            eprintln!("  {name} @ {ranks} ranks: {:.1}s", rep.total_time);
        }
        rows.push(row);
    }

    println!("\nTable II — total modelled execution time (s), Dataset 2, Tianhe-2");
    let headers = ["variant", "24", "48", "96", "192", "384", "768", "1536"];
    println!("{}", table(&headers, &rows));
    write_csv(
        "tab02_strong_scaling.csv",
        &["strategy", "lb", "ranks", "total_s"],
        &csv_rows,
    );

    // headline checks, printed for EXPERIMENTS.md
    let get = |r: usize, c: usize| rows[r][c + 1].parse::<f64>().unwrap();
    let speedup_dc = get(1, 0) / get(1, 6);
    println!("DC-Only speedup 24→1536: {speedup_dc:.1}x (paper: ~14x)");
    let lb_gain_48 = (get(1, 1) - get(0, 1)) / get(1, 1) * 100.0;
    println!("LB gain for DC at 48 ranks: {lb_gain_48:.0}% (paper: ~40%)");
    let dc_vs_cc_1536 = (get(2, 6) - get(0, 6)) / get(0, 6) * 100.0;
    println!("DC advantage over CC at 1536 ranks: {dc_vs_cc_1536:.0}% (paper: >60%)");
}
