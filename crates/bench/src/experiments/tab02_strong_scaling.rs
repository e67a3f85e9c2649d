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

use crate::{ladder_sweep, strat_name, total_time_point, Experiment, RANK_LADDER};
use balance::RebalanceConfig;
use vmpi::Strategy;

pub fn run() {
    let variant = |strategy: Strategy, load_balance: bool, name: &str| {
        let experiment = Experiment {
            strategy,
            rebalance: load_balance.then(RebalanceConfig::default),
            ..Experiment::default()
        };
        let key = vec![strat_name(strategy).to_string(), load_balance.to_string()];
        (name.to_string(), key, experiment)
    };
    let rows = ladder_sweep(
        "Table II — total modelled execution time (s), Dataset 2, Tianhe-2",
        &RANK_LADDER,
        (
            "tab02_strong_scaling.csv",
            &["strategy", "lb", "ranks", "total_s"],
        ),
        vec![
            variant(Strategy::Distributed, true, "DC+LB"),
            variant(Strategy::Distributed, false, "DC-Only"),
            variant(Strategy::Centralized, true, "CC+LB"),
            variant(Strategy::Centralized, false, "CC-Only"),
        ],
        total_time_point,
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
