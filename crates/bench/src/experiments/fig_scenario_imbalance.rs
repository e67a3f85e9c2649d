//! Scenario imbalance comparison (DESIGN.md §15): lii trajectories of
//! the three canned scenarios on the modelled cluster driver, with
//! the balancer (eq. 7 weights) active.
//!
//! The scenarios span the imbalance spectrum by construction:
//! * `freestream` — near-uniform inflow across the whole duct, the
//!   balancer's easy case;
//! * `thermal_box` — quiescent fill with a weak pump and subcycled
//!   DSMC, mild drift toward the inlet;
//! * `jet` — a narrow dense plume from a small orifice, the stress
//!   case: the inlet rank holds the bulk of the particles until the
//!   balancer intervenes.
//!
//! Expectation: the jet starts far more imbalanced than the others
//! and is pulled back toward parity by rebalances; the freestream
//! trajectory stays near 1 throughout.

use crate::{lii_trajectory, steady_state_lii, steps, write_csv};
use balance::RebalanceConfig;
use coupled::report::table;
use coupled::{ClusterSim, MachineProfile};

pub fn run() {
    // scenarios carry a short guard-sized horizon; stretch it so the
    // flows develop and the balancer gets to act
    let horizon = steps().max(40);

    let mut csv_rows = Vec::new();
    let mut summary: Vec<Vec<String>> = Vec::new();
    for name in coupled::scenario::names() {
        let mut run = coupled::scenario::canned(name)
            .expect("canned scenario lowers")
            .run;
        run.rebalance = Some(RebalanceConfig {
            t_interval: 5,
            threshold: 1.2,
            ..RebalanceConfig::default()
        });
        let rep = ClusterSim::new(&run, MachineProfile::tianhe2()).run(horizon);
        let lii = lii_trajectory(name, &rep, &mut csv_rows);
        let peak = lii.iter().copied().fold(f64::MIN, f64::max);
        summary.push(vec![
            name.to_string(),
            format!("{peak:.3}"),
            format!("{:.3}", steady_state_lii(&lii)),
            rep.rebalances.to_string(),
            rep.population.to_string(),
        ]);
    }

    println!("scenario imbalance, eq. 7 balancer, {horizon} modelled steps\n");
    println!(
        "{}",
        table(
            &[
                "scenario",
                "peak lii",
                "steady lii",
                "rebalances",
                "particles"
            ],
            &summary,
        )
    );
    write_csv(
        "fig_scenario_imbalance.csv",
        &["scenario", "step", "lii", "rebalanced"],
        &csv_rows,
    );
}
