//! Balance-mode comparison (DESIGN.md §13): lii trajectories of the
//! balancing pipeline on the high-imbalance injection jet
//! (the inlet rank starts with nearly all particles, fig. 5).
//!
//! Two modes over the same run, both weighing cells with the paper's
//! weighted load model (eq. 7):
//! * `paper_wlm` — `W_cell = 1`, the paper's configuration;
//! * `paper_wlm_wcell0` — `W_cell = 0`, so the balancer weighs
//!   particle work only (a point on Table VI's `W_cell` axis).

use crate::{lii_trajectory, steady_state_lii, steps, write_csv, Experiment};
use balance::{RebalanceConfig, WlmParams};
use coupled::report::table;

pub fn run() {
    let modes: [(&str, i64); 2] = [("paper_wlm", 1), ("paper_wlm_wcell0", 0)];

    // the steady-state comparison is only meaningful once the jet has
    // filled the domain, so floor the horizon regardless of the
    // (usually shorter) global REPRO_STEPS knob
    let horizon = steps().max(80);

    let mut csv_rows = Vec::new();
    let mut trajectories: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, w_cell) in modes {
        let rep = Experiment {
            ranks: 8,
            rebalance: Some(RebalanceConfig {
                t_interval: 10,
                threshold: 1.5,
                wlm: WlmParams {
                    w_cell,
                    ..WlmParams::default()
                },
                ..RebalanceConfig::default()
            }),
            steps: Some(horizon),
            ..Experiment::default()
        }
        .run();
        let lii = lii_trajectory(name, &rep, &mut csv_rows);
        eprintln!(
            "  {name}: steady-state lii {:.3}, {} rebalances, total {:.1}s",
            steady_state_lii(&lii),
            rep.rebalances,
            rep.total_time
        );
        trajectories.push((name, lii));
    }

    println!("\nBalance modes — lii trajectories, 8 ranks, injection jet");
    let rows: Vec<Vec<String>> = trajectories
        .iter()
        .map(|(name, lii)| {
            vec![
                name.to_string(),
                format!("{:.3}", lii.iter().copied().fold(0.0f64, f64::max)),
                format!("{:.3}", steady_state_lii(lii)),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["mode", "peak_lii", "steady_state_lii"], &rows)
    );
    write_csv(
        "fig_balance_modes.csv",
        &["mode", "step", "lii", "rebalanced"],
        &csv_rows,
    );
}
