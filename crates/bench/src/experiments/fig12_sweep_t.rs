//! Figure 12: impact of the rebalance interval `T` (DC strategy,
//! Dataset 2, Tianhe-2).
//!
//! Paper shape: T = 20 slightly beats 10 and 30 up to ~96 ranks;
//! with more ranks T = 10 pulls slightly ahead; differences are
//! small (minutes-level totals separated by a few percent).

use crate::{ladder_sweep, total_time_point, Experiment, RANK_LADDER};
use balance::RebalanceConfig;

pub fn run() {
    let variant = |t_interval: usize| {
        let experiment = Experiment {
            rebalance: Some(RebalanceConfig {
                t_interval,
                ..RebalanceConfig::default()
            }),
            ..Experiment::default()
        };
        (
            format!("T={t_interval}"),
            vec![t_interval.to_string()],
            experiment,
        )
    };
    ladder_sweep(
        "Figure 12 — total time (s) vs rebalance interval T, DC+LB",
        &RANK_LADDER,
        ("fig12_sweep_t.csv", &["T", "ranks", "total_s"]),
        [10, 20, 30].map(variant).into(),
        total_time_point,
    );
}
