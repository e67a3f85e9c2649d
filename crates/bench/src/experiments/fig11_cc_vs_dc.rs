//! Figure 11: exchange-strategy comparison on the BSCC profile with
//! Dataset 3 (10× fewer particles than Dataset 2), extended from the
//! paper's DC-vs-CC pair to the three-way sweep plus Auto.
//!
//! Paper shapes: with few particles the DC and CC total times are
//! close at ≤384 ranks; at 768 ranks the distributed strategy's
//! communication cost blows up (more than 2× the centralized cost)
//! making the whole CC solver ~25% faster than DC. The Sparse
//! strategy only pays for pairs that actually migrate particles, and
//! Auto re-picks per exchange, so it should track the lower envelope
//! of the fixed strategies.

use crate::{strat_name, write_csv, Experiment};
use coupled::report::table;
use coupled::{Dataset, MachineProfile, Phase};
use vmpi::Strategy;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Distributed,
    Strategy::Centralized,
    Strategy::Sparse,
    Strategy::Auto,
];

pub fn run() {
    let ranks_ladder = [96usize, 192, 384, 768];
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &ranks in &ranks_ladder {
        let mut row = vec![ranks.to_string()];
        let mut totals = [0.0f64; STRATEGIES.len()];
        for (i, strategy) in STRATEGIES.into_iter().enumerate() {
            let rep = Experiment {
                dataset: Dataset::D3,
                ranks,
                strategy,
                profile: MachineProfile::bscc,
                ..Experiment::default()
            }
            .run();
            let exchange = rep.breakdown[Phase::DsmcExchange] + rep.breakdown[Phase::PicExchange];
            totals[i] = rep.total_time;
            row.push(format!("{:.1}", rep.total_time));
            row.push(format!("{exchange:.2}"));
            csv_rows.push(vec![
                strat_name(strategy).to_string(),
                ranks.to_string(),
                format!("{:.3}", rep.total_time),
                format!("{exchange:.4}"),
                rep.strategy_uses.map(|u| u.to_string()).join("|"),
            ]);
            let [cc, dc, sp, hier] = rep.strategy_uses;
            eprintln!(
                "  {} @ {ranks}: total={:.1}s exchange={exchange:.2}s uses(CC/DC/Sparse/Hier)={cc}/{dc}/{sp}/{hier}",
                strat_name(strategy),
                rep.total_time
            );
        }
        row.push(format!("{:.2}", totals[0] / totals[1]));
        rows.push(row);
    }

    println!("\nFigure 11 — exchange strategies on BSCC, Dataset 3 (fewer particles)");
    let headers = [
        "ranks",
        "DC_total",
        "DC_exch",
        "CC_total",
        "CC_exch",
        "Sparse_total",
        "Sparse_exch",
        "Auto_total",
        "Auto_exch",
        "DC/CC",
    ];
    println!("{}", table(&headers, &rows));
    write_csv(
        "fig11_cc_vs_dc.csv",
        &[
            "strategy",
            "ranks",
            "total_s",
            "exchange_s",
            "uses_cc_dc_sparse_hier",
        ],
        &csv_rows,
    );
    println!("paper: DC/CC ≈ 1 below 384 ranks, ≈ 1.25 at 768 ranks");
    println!("extension: Auto tracks the lower envelope of the fixed strategies");
}
