//! Figure 15: hardware portability — both strategies with LB on the
//! x86 Tianhe-2 profile and the ARMv8 Tianhe-3 prototype profile, on
//! Datasets 2, 4 (medium grids) and 5, 6 (large grids).
//!
//! Paper shapes: similar strong-scaling curves on both architectures;
//! on the large-grid datasets (5, 6) the CC/DC gap is smaller than on
//! the medium-grid datasets (2, 4).

use crate::{strat_name, write_csv, Experiment};
use coupled::report::table;
use coupled::{Dataset, MachineProfile};
use vmpi::Strategy;

type ProfileCtor = fn() -> MachineProfile;

pub fn run() {
    let ranks_ladder = [24usize, 96, 384, 1536];
    let machines: [(ProfileCtor, &str); 2] = [
        (MachineProfile::tianhe2, "Tianhe-2"),
        (MachineProfile::tianhe3, "Tianhe-3"),
    ];
    let datasets = [Dataset::D2, Dataset::D4, Dataset::D5, Dataset::D6];
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut gaps: Vec<(Dataset, f64)> = Vec::new();

    for dataset in datasets {
        for (profile, mname) in machines {
            for strategy in [Strategy::Distributed, Strategy::Centralized] {
                let mut row = vec![format!("{dataset:?} {mname} {}", strat_name(strategy))];
                let mut last = 0.0;
                for &ranks in &ranks_ladder {
                    let rep = Experiment {
                        dataset,
                        ranks,
                        strategy,
                        profile,
                        ..Experiment::default()
                    }
                    .run();
                    last = rep.total_time;
                    row.push(format!("{:.1}", rep.total_time));
                    csv_rows.push(vec![
                        format!("{dataset:?}"),
                        mname.to_string(),
                        strat_name(strategy).to_string(),
                        ranks.to_string(),
                        format!("{:.3}", rep.total_time),
                    ]);
                    eprintln!(
                        "  {dataset:?} {mname} {} @ {ranks}: {:.1}s",
                        strat_name(strategy),
                        rep.total_time
                    );
                }
                if mname == "Tianhe-2" {
                    gaps.push((dataset, last));
                }
                rows.push(row);
            }
        }
    }

    println!("\nFigure 15 — portability: total time (s) across machines/datasets, LB on");
    let headers = ["config", "24", "96", "384", "1536"];
    println!("{}", table(&headers, &rows));
    write_csv(
        "fig15_portability.csv",
        &["dataset", "machine", "strategy", "ranks", "total_s"],
        &csv_rows,
    );

    // CC/DC gap per dataset at 1536 ranks on Tianhe-2 (pairs: DC, CC)
    for pair in gaps.chunks(2) {
        if let [(d, dc), (_, cc)] = pair {
            println!(
                "{d:?}: CC/DC at 1536 ranks = {:.2} (paper: smaller on large-grid datasets 5/6)",
                cc / dc
            );
        }
    }
}
