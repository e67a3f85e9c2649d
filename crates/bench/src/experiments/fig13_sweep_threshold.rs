//! Figure 13: impact of the imbalance `Threshold` (DC strategy,
//! Dataset 2, Tianhe-2).
//!
//! Paper shape: a smaller threshold is slightly better at ≤96 ranks
//! (imbalance is severe there, rebalancing early pays off); with more
//! ranks the threshold has little effect.

use crate::{ladder_sweep, total_time_point, Experiment, RANK_LADDER};
use balance::RebalanceConfig;

pub fn run() {
    let variant = |threshold: f64| {
        let experiment = Experiment {
            rebalance: Some(RebalanceConfig {
                threshold,
                ..RebalanceConfig::default()
            }),
            ..Experiment::default()
        };
        (
            format!("Thr={threshold}"),
            vec![threshold.to_string()],
            experiment,
        )
    };
    ladder_sweep(
        "Figure 13 — total time (s) vs Threshold, DC+LB, Dataset 2",
        &RANK_LADDER,
        (
            "fig13_sweep_threshold.csv",
            &["threshold", "ranks", "total_s"],
        ),
        [1.5, 2.0, 3.0].map(variant).into(),
        total_time_point,
    );
}
