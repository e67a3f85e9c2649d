//! Figure 14: impact of MPI rank placement (inner-frame / inner-rack
//! / inter-rack) for both strategies with LB on Tianhe-2, ≤96 ranks.
//!
//! Paper shape: inner-frame is best, but the spread is only ~1–2%,
//! demonstrating robustness to placement.

use crate::{ladder_sweep, strat_name, total_time_point, Experiment};
use coupled::Placement;
use vmpi::Strategy;

pub fn run() {
    let placements = [
        (Placement::InnerFrame, "inner-frame"),
        (Placement::InnerRack, "inner-rack"),
        (Placement::InterRack, "inter-rack"),
    ];
    let mut variants = Vec::new();
    for strategy in [Strategy::Centralized, Strategy::Distributed] {
        for (placement, pname) in placements {
            let experiment = Experiment {
                strategy,
                placement,
                ..Experiment::default()
            };
            variants.push((
                format!("{} {pname}", strat_name(strategy)),
                vec![strat_name(strategy).to_string(), pname.to_string()],
                experiment,
            ));
        }
    }
    let rows = ladder_sweep(
        "Figure 14 — total time (s) per MPI rank placement, LB on",
        &[24, 48, 96],
        (
            "fig14_placement.csv",
            &["strategy", "placement", "ranks", "total_s"],
        ),
        variants,
        total_time_point,
    );

    // spread check at 96 ranks, DC
    let dc: Vec<f64> = rows[3..6].iter().map(|r| r[3].parse().unwrap()).collect();
    let spread = (dc.iter().copied().fold(f64::MIN, f64::max)
        - dc.iter().copied().fold(f64::MAX, f64::min))
        / dc[0]
        * 100.0;
    println!("DC placement spread at 96 ranks: {spread:.1}% (paper: ~1-2%)");
}
