//! Auto-tuning of the load-balancer parameters (paper §V-A: "T and
//! Threshold can be selected according to specific simulation setups
//! ... using an auto-tuning technique").
//!
//! The tuner runs short pilot simulations of the modelled cluster for
//! every point of a small (T, Threshold) grid and picks the fastest —
//! the same "sampling script on a different dataset" methodology the
//! paper describes for choosing its defaults (T = 20, Threshold =
//! 2.0).

use crate::cluster::ClusterSim;
use crate::config::RunConfig;
use crate::machine::MachineProfile;
use balance::RebalanceConfig;

/// One evaluated tuning point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    pub t_interval: usize,
    pub threshold: f64,
    /// Modelled total time of the pilot run (s).
    pub total_time: f64,
    /// Rebalances the pilot performed.
    pub rebalances: usize,
}

/// Result of a tuning sweep: every point plus the winner.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub points: Vec<TunePoint>,
    pub best: TunePoint,
}

/// Default grids mirroring the paper's sensitivity study.
pub const DEFAULT_T_GRID: [usize; 3] = [10, 20, 30];
pub const DEFAULT_THRESHOLD_GRID: [f64; 3] = [1.5, 2.0, 3.0];

/// Sweep `(T, Threshold)` with pilot runs of `pilot_steps` DSMC
/// iterations each and return the full report. The run's own
/// rebalance settings (other than T/Threshold) are kept.
pub fn tune_balancer(
    run: &RunConfig,
    profile: MachineProfile,
    pilot_steps: usize,
    t_grid: &[usize],
    threshold_grid: &[f64],
) -> TuneReport {
    assert!(!t_grid.is_empty() && !threshold_grid.is_empty());
    let base_rb = run.rebalance.unwrap_or_default();
    let mut points = Vec::with_capacity(t_grid.len() * threshold_grid.len());
    for &t in t_grid {
        for &threshold in threshold_grid {
            let mut pilot = run.clone();
            pilot.rebalance = Some(RebalanceConfig {
                t_interval: t,
                threshold,
                ..base_rb
            });
            let mut sim = ClusterSim::new(&pilot, profile);
            let rep = sim.run(pilot_steps);
            points.push(TunePoint {
                t_interval: t,
                threshold,
                total_time: rep.total_time,
                rebalances: rep.rebalances,
            });
        }
    }
    let best = *points
        .iter()
        .min_by(|a, b| a.total_time.partial_cmp(&b.total_time).unwrap())
        .unwrap();
    TuneReport { points, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, RunConfig};

    #[test]
    fn tuner_covers_grid_and_picks_minimum() {
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(4)
            .seed(21)
            .build()
            .unwrap();
        let report = tune_balancer(&run, MachineProfile::tianhe2(), 8, &[4, 8], &[1.5, 3.0]);
        assert_eq!(report.points.len(), 4);
        for p in &report.points {
            assert!(p.total_time > 0.0);
            assert!(report.best.total_time <= p.total_time);
        }
        assert!(report.points.contains(&report.best));
    }

    #[test]
    fn tuner_is_deterministic() {
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(3)
            .seed(5)
            .build()
            .unwrap();
        let a = tune_balancer(&run, MachineProfile::tianhe2(), 5, &[5], &[2.0]);
        let b = tune_balancer(&run, MachineProfile::tianhe2(), 5, &[5], &[2.0]);
        assert_eq!(a.points, b.points);
    }
}
