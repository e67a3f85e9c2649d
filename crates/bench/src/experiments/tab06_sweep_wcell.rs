//! Table VI: total execution times under different `W_cell` values of
//! the weighted load model (DC strategy, Dataset 2, Tianhe-2).
//!
//! Paper shapes: moderate `W_cell` (100–1000) is mildly better than 1;
//! an extreme value (10000) hurts at small rank counts because cell
//! weight swamps particle weight and the partitioner stops balancing
//! particles; effects fade at large rank counts (≤10%).

use crate::{ladder_sweep, total_time_point, Experiment, RANK_LADDER};
use balance::{RebalanceConfig, WlmParams};

pub fn run() {
    let variant = |w_cell: i64| {
        let experiment = Experiment {
            rebalance: Some(RebalanceConfig {
                wlm: WlmParams {
                    w_cell,
                    ..WlmParams::default()
                },
                ..RebalanceConfig::default()
            }),
            ..Experiment::default()
        };
        (
            format!("W_cell={w_cell}"),
            vec![w_cell.to_string()],
            experiment,
        )
    };
    let rows = ladder_sweep(
        "Table VI — total time (s) vs W_cell, DC+LB, Dataset 2, Tianhe-2",
        &RANK_LADDER,
        ("tab06_sweep_wcell.csv", &["w_cell", "ranks", "total_s"]),
        [1, 10, 100, 1000, 10000].map(variant).into(),
        total_time_point,
    );

    let w1: f64 = rows[0][1].parse().unwrap();
    let w10000: f64 = rows[4][1].parse().unwrap();
    println!(
        "W_cell=10000 vs W_cell=1 at 24 ranks: {:+.0}% (paper: ~+16%)",
        (w10000 - w1) / w1 * 100.0
    );
}
