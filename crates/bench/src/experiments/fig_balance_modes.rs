//! Balance-mode comparison (DESIGN.md §13): lii trajectories of the
//! pluggable balancing pipeline on the high-imbalance injection jet
//! (the inlet rank starts with nearly all particles, fig. 5).
//!
//! Three modes over the same run:
//! * `paper_wlm` — analytic weighted load model (eq. 7), the paper's
//!   configuration;
//! * `timer_augmented` — EWMA-smoothed measured per-phase costs feed
//!   the partition weights instead of the analytic model;
//! * `paper_wlm_wcell0` — paper WLM with `W_cell = 0`, so the balancer
//!   weighs particle work only (a point on Table VI's `W_cell` axis).
//!
//! Expectation: the timer-augmented source tracks the true collision
//! cost (quadratic in cell occupancy) and settles at a steady-state
//! lii no worse than the analytic model's.

use crate::{lii_trajectory, steady_state_lii, steps, write_csv, Experiment};
use balance::CostSourceKind;
use coupled::report::table;

pub fn run() {
    let modes: [(&str, CostSourceKind, i64); 3] = [
        ("paper_wlm", CostSourceKind::PaperWlm, 1),
        ("timer_augmented", CostSourceKind::TimerAugmented, 1),
        ("paper_wlm_wcell0", CostSourceKind::PaperWlm, 0),
    ];

    // the steady-state comparison is only meaningful once the jet has
    // filled the domain, so floor the horizon regardless of the
    // (usually shorter) global REPRO_STEPS knob
    let horizon = steps().max(80);

    let mut csv_rows = Vec::new();
    let mut trajectories: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, cost_source, w_cell) in modes {
        let rep = Experiment {
            ranks: 8,
            t_interval: 10,
            threshold: 1.5,
            cost_source,
            w_cell,
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

    let paper = steady_state_lii(&trajectories[0].1);
    let timer = steady_state_lii(&trajectories[1].1);
    // small tolerance: both modes rebalance the same jet, the claim is
    // "no worse", not "strictly better on every seed"
    assert!(
        timer <= paper * 1.05 + 1e-9,
        "timer-augmented steady-state lii {timer:.3} regressed past paper WLM {paper:.3}"
    );
    println!(
        "timer-augmented steady-state lii {timer:.3} vs paper WLM {paper:.3} (\u{2264} required)"
    );
}
