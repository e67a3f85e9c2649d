//! Table III: total execution times of DSMC_Move + PIC_Move with and
//! without dynamic load balancing (DC strategy, Dataset 2, Tianhe-2).
//!
//! Paper shape: with LB the combined move time drops to less than a
//! third of the unbalanced implementation at small rank counts.

use crate::{ladder_sweep, Experiment, RANK_LADDER};
use balance::RebalanceConfig;
use coupled::Phase;

pub fn run() {
    let variant = |load_balance: bool| {
        let name = if load_balance { "LB" } else { "No-LB" };
        let experiment = Experiment {
            rebalance: load_balance.then(RebalanceConfig::default),
            ..Experiment::default()
        };
        (name.to_string(), vec![name.to_string()], experiment)
    };
    let rows = ladder_sweep(
        "Table III — DSMC_Move + PIC_Move time (s), DC, Dataset 2, Tianhe-2",
        &RANK_LADDER,
        ("tab03_move_times.csv", &["variant", "ranks", "move_s"]),
        vec![variant(true), variant(false)],
        |rep| {
            let t = rep.breakdown[Phase::DsmcMove] + rep.breakdown[Phase::PicMove];
            (
                format!("{t:.1}"),
                vec![format!("{t:.3}")],
                format!("move={t:.1}s"),
            )
        },
    );

    let with_lb: f64 = rows[0][1].parse().unwrap();
    let without: f64 = rows[1][1].parse().unwrap();
    println!(
        "no-LB / LB move-time ratio at 24 ranks: {:.1}x (paper: >3x)",
        without / with_lb
    );
}
