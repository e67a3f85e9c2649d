//! Table V: overhead of dynamic load balancing with and without the
//! KM remapping, for both strategies (Dataset 2, Tianhe-2).
//!
//! Paper shapes: KM halves the rebalance overhead for CC at small
//! rank counts; overheads shrink as rank counts grow (fewer
//! rebalances fire); CC overheads are far larger than DC because the
//! migration traffic funnels through the root.

use crate::{ladder_sweep, Experiment, RANK_LADDER};
use balance::RebalanceConfig;
use coupled::Phase;
use vmpi::Strategy;

pub fn run() {
    let variant = |strategy: Strategy, use_km: bool, name: &str| {
        let experiment = Experiment {
            strategy,
            rebalance: Some(RebalanceConfig {
                use_km,
                ..RebalanceConfig::default()
            }),
            ..Experiment::default()
        };
        (name.to_string(), vec![name.to_string()], experiment)
    };
    let rows = ladder_sweep(
        "Table V — rebalance overhead (s), Dataset 2, Tianhe-2",
        &RANK_LADDER,
        (
            "tab05_km_overhead.csv",
            &["variant", "ranks", "overhead_s", "rebalances"],
        ),
        vec![
            variant(Strategy::Distributed, true, "DC with KM"),
            variant(Strategy::Distributed, false, "DC without KM"),
            variant(Strategy::Centralized, true, "CC with KM"),
            variant(Strategy::Centralized, false, "CC without KM"),
        ],
        |rep| {
            let (overhead, rebalances) = (rep.breakdown[Phase::Rebalance], rep.rebalances);
            (
                format!("{overhead:.2}"),
                vec![format!("{overhead:.4}"), rebalances.to_string()],
                format!("overhead={overhead:.2}s ({rebalances} rebalances)"),
            )
        },
    );

    // compare at 48 ranks (the balancer reliably fires there)
    let cc_km: f64 = rows[2][2].parse().unwrap();
    let cc_no: f64 = rows[3][2].parse().unwrap();
    println!(
        "CC overhead without/with KM at 48 ranks: {:.1}x (paper: ~2x)",
        cc_no / cc_km.max(1e-9)
    );
}
