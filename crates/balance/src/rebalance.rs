//! The dynamic load balancer (paper Algorithm 1).
//!
//! Every DSMC iteration the balancer is offered the measured `lii`;
//! once at least `T` iterations have elapsed since the last
//! re-decomposition *and* `lii > Threshold`, the coarse grid is
//! re-partitioned with the weighted load model and remapped to ranks
//! with (optionally) the KM algorithm.

use crate::remap::{remap_identity, remap_km};
use crate::wlm::{weighted_load_model, WlmParams};
use partition::{part_graph_kway, Graph, KwayOptions};

/// Balancer configuration (paper defaults: `Threshold = 2.0`,
/// `T = 20`, `R = 2`, `W_cell = 1`).
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Minimum DSMC iterations between checks (`T`).
    pub t_interval: usize,
    /// Imbalance threshold on `lii`.
    pub threshold: f64,
    /// Weighted-load-model parameters (`R`, `W_cell`).
    pub wlm: WlmParams,
    /// Whether to use KM remapping (Table V ablates this).
    pub use_km: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            t_interval: 20,
            threshold: 2.0,
            wlm: WlmParams::default(),
            use_km: true,
        }
    }
}

/// Outcome of a rebalance decision.
#[derive(Debug, Clone, PartialEq)]
pub enum RebalanceOutcome {
    /// Not yet: fewer than `T` iterations since the last rebalance.
    TooSoon,
    /// Checked, but imbalance below threshold.
    Balanced { lii: f64 },
    /// Rebalanced: new cell→rank ownership.
    Remapped {
        lii: f64,
        /// The granularity floor `max(1, k · max_c wlm_c / Σ_c wlm_c)`
        /// of the eq. 7 weights it partitioned: no partition's
        /// imbalance is below it.
        lii_floor: f64,
        new_owner: Vec<u32>,
        /// Particles that must migrate under the new mapping.
        migration_volume: u64,
    },
}

/// Stateful rebalancer implementing Algorithm 1.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    pub config: RebalanceConfig,
    iterations_since: usize,
    /// Number of re-decompositions performed.
    pub rebalance_count: usize,
}

impl Rebalancer {
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer {
            config,
            iterations_since: 0,
            rebalance_count: 0,
        }
    }

    /// Offer one DSMC iteration's measurements to the balancer.
    ///
    /// * `lii` — measured load-imbalance indicator
    /// * `xadj`/`adjncy` — coarse-grid cell adjacency (CSR)
    /// * `neutral`/`charged` — per-cell particle counts
    /// * `old_owner` — current cell→rank ownership
    /// * `k` — number of ranks
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's inputs
    pub fn step(
        &mut self,
        lii: f64,
        xadj: &[u32],
        adjncy: &[u32],
        neutral: &[u64],
        charged: &[u64],
        old_owner: &[u32],
        k: usize,
    ) -> RebalanceOutcome {
        if let Some(outcome) = self.hold(lii) {
            return outcome;
        }

        // Algorithm 1 lines 6-11: eq. 7 vertex weights -> k-way
        // partition -> KM remap.
        let wlm = weighted_load_model(neutral, charged, self.config.wlm);
        let lii_floor = lii_floor(&wlm, k);
        let graph = Graph::new(xadj.to_vec(), adjncy.to_vec(), wlm);
        let new_part = part_graph_kway(&graph, k, KwayOptions::default());

        // migration cost per cell = resident particles
        let load: Vec<u64> = neutral.iter().zip(charged).map(|(&n, &c)| n + c).collect();
        let new_owner = if self.config.use_km {
            remap_km(old_owner, &new_part, &load, k)
        } else {
            remap_identity(&new_part)
        };
        let migration_volume = crate::remap::migration_volume(old_owner, &new_owner, &load);

        self.iterations_since = 0;
        self.rebalance_count += 1;
        RebalanceOutcome::Remapped {
            lii,
            lii_floor,
            new_owner,
            migration_volume,
        }
    }

    /// Whether [`Rebalancer::step`] with this `lii` re-decomposes —
    /// the only outcome that reads the per-cell counts, so a
    /// decomposed backend gathers them only then. It is `step`'s own
    /// early returns, tried on a copy: a NaN `lii` is due once the
    /// cadence has passed (`NaN <= threshold` is false).
    pub fn due(&self, lii: f64) -> bool {
        self.clone().hold(lii).is_none()
    }

    /// Algorithm 1's early returns: count this iteration and return
    /// the outcome when no re-decomposition follows (fewer than `T`
    /// iterations since the last, or `lii` at most the threshold);
    /// `None` when one is due. An iteration on which
    /// [`Rebalancer::due`] is false is fully played by this call, so
    /// it needs no counts and no `step`.
    pub fn hold(&mut self, lii: f64) -> Option<RebalanceOutcome> {
        self.iterations_since += 1;
        if self.iterations_since < self.config.t_interval {
            return Some(RebalanceOutcome::TooSoon);
        }
        if lii <= self.config.threshold {
            return Some(RebalanceOutcome::Balanced { lii });
        }
        None
    }

    /// Iterations since the last re-decomposition.
    pub fn iterations_since(&self) -> usize {
        self.iterations_since
    }
}

/// The granularity floor `max(1, k · max_c w_c / Σ_c w_c)` of cell
/// weights `w` on `k` ranks: some rank holds the heaviest cell, so no
/// partition's imbalance (`partition::imbalance`, the same ratio of
/// the heaviest part) is below it.
fn lii_floor(w: &[i64], k: usize) -> f64 {
    let max = w.iter().copied().max().unwrap_or(0);
    let total = w.iter().sum::<i64>().max(1);
    (max as f64 * k as f64 / total as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partition::imbalance;
    use proptest::prelude::*;

    /// Line graph CSR of n cells.
    fn line(n: usize) -> (Vec<u32>, Vec<u32>) {
        let mut xadj = vec![0u32];
        let mut adj = Vec::new();
        for v in 0..n {
            if v > 0 {
                adj.push(v as u32 - 1);
            }
            if v + 1 < n {
                adj.push(v as u32 + 1);
            }
            xadj.push(adj.len() as u32);
        }
        (xadj, adj)
    }

    #[test]
    fn waits_for_t_iterations() {
        let mut rb = Rebalancer::new(RebalanceConfig {
            t_interval: 3,
            ..RebalanceConfig::default()
        });
        let (xadj, adj) = line(8);
        let n = vec![10u64; 8];
        let c = vec![0u64; 8];
        let owner = vec![0u32, 0, 0, 0, 1, 1, 1, 1];
        for _ in 0..2 {
            assert_eq!(
                rb.step(100.0, &xadj, &adj, &n, &c, &owner, 2),
                RebalanceOutcome::TooSoon
            );
        }
        assert!(matches!(
            rb.step(100.0, &xadj, &adj, &n, &c, &owner, 2),
            RebalanceOutcome::Remapped { .. }
        ));
    }

    #[test]
    fn below_threshold_does_nothing() {
        let mut rb = Rebalancer::new(RebalanceConfig {
            t_interval: 1,
            threshold: 2.0,
            ..RebalanceConfig::default()
        });
        let (xadj, adj) = line(4);
        let out = rb.step(1.5, &xadj, &adj, &[1; 4], &[0; 4], &[0, 0, 1, 1], 2);
        assert_eq!(out, RebalanceOutcome::Balanced { lii: 1.5 });
        assert_eq!(rb.rebalance_count, 0);
    }

    #[test]
    fn rebalance_improves_particle_balance() {
        // all particles on rank 0's cells
        let ncells = 16;
        let (xadj, adj) = line(ncells);
        let mut neutral = vec![0u64; ncells];
        for n in neutral.iter_mut().take(4) {
            *n = 100; // front cells crowded (like the plume inlet)
        }
        let charged = vec![0u64; ncells];
        let old_owner: Vec<u32> = (0..ncells).map(|c| (c / 8) as u32).collect();
        let mut rb = Rebalancer::new(RebalanceConfig {
            t_interval: 1,
            ..RebalanceConfig::default()
        });
        match rb.step(10.0, &xadj, &adj, &neutral, &charged, &old_owner, 2) {
            RebalanceOutcome::Remapped { new_owner, .. } => {
                let load = |owner: &[u32], r: u32| -> u64 {
                    (0..ncells)
                        .filter(|&c| owner[c] == r)
                        .map(|c| neutral[c])
                        .sum()
                };
                let before = load(&old_owner, 0).max(load(&old_owner, 1));
                let after = load(&new_owner, 0).max(load(&new_owner, 1));
                assert!(after < before, "after {after} !< before {before}");
            }
            o => panic!("expected remap, got {o:?}"),
        }
        assert_eq!(rb.rebalance_count, 1);
        assert_eq!(rb.iterations_since(), 0);
    }

    #[test]
    fn km_migrates_less_than_identity() {
        let ncells = 24;
        let (xadj, adj) = line(ncells);
        let neutral = vec![50u64; ncells];
        let charged = vec![0u64; ncells];
        let old_owner: Vec<u32> = (0..ncells).map(|c| (c * 3 / ncells) as u32).collect();
        let run = |use_km: bool| {
            let mut rb = Rebalancer::new(RebalanceConfig {
                t_interval: 1,
                use_km,
                ..RebalanceConfig::default()
            });
            match rb.step(10.0, &xadj, &adj, &neutral, &charged, &old_owner, 3) {
                RebalanceOutcome::Remapped {
                    migration_volume, ..
                } => migration_volume,
                o => panic!("{o:?}"),
            }
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn lii_floor_is_the_heaviest_cell_against_the_mean() {
        // 8 cells of total 40 on 4 ranks: the mean rank carries 10,
        // the cell of 16 alone puts 16 on one rank
        let w = [16, 2, 2, 4, 4, 4, 4, 4];
        assert_eq!(lii_floor(&w, 4), 1.6);
        // on 2 ranks the mean (20) already exceeds the heaviest cell
        assert_eq!(lii_floor(&w, 2), 1.0);
        assert_eq!(lii_floor(&[0, 0], 3), 1.0);
        // the same floor rides on the outcome: eq. 7 with R = 2 and
        // W_cell = 1 weighs these cells 1 + 2 + 1 = 4, 1, 1 and 2
        let (xadj, adj) = line(4);
        let mut rb = Rebalancer::new(RebalanceConfig {
            t_interval: 1,
            ..RebalanceConfig::default()
        });
        match rb.step(9.0, &xadj, &adj, &[1, 0, 0, 1], &[1, 0, 0, 0], &[0; 4], 2) {
            RebalanceOutcome::Remapped { lii_floor, .. } => assert_eq!(lii_floor, 1.0),
            o => panic!("{o:?}"),
        }
        match rb.step(9.0, &xadj, &adj, &[1, 0, 0, 1], &[1, 0, 0, 0], &[0; 4], 4) {
            RebalanceOutcome::Remapped { lii_floor, .. } => assert_eq!(lii_floor, 2.0),
            o => panic!("{o:?}"),
        }
    }

    proptest! {
        #[test]
        fn no_kway_partition_is_below_the_floor(
            n in 2usize..64,
            k in 1usize..9,
            flat in proptest::collection::vec(0i64..1000, 64usize..65),
            spike in 0i64..100_000,
            at in 0usize..64,
        ) {
            // a line of n cells with one spike somewhere: the floor
            // ranges from 1 to k
            let mut w: Vec<i64> = flat[..n].iter().map(|&x| x + 1).collect();
            w[at % n] += spike;
            let (xadj, adj) = line(n);
            let graph = Graph::new(xadj, adj, w);
            let floor = lii_floor(&graph.vwgt, k);
            let part = part_graph_kway(&graph, k, KwayOptions::default());
            let achieved = imbalance(&graph, &part, k);
            prop_assert!(achieved >= floor, "imbalance {} < floor {}", achieved, floor);
        }

        #[test]
        fn due_says_whether_step_remaps(
            t_interval in 0usize..6,
            threshold in 0.0f64..4.0,
            draws in proptest::collection::vec((0u8..4, 0.0f64..8.0), 1usize..40),
        ) {
            // every iteration offered twice: to a balancer that always
            // steps, and to one that steps only when due and otherwise
            // holds, as the decomposed backends do
            let (xadj, adj) = line(8);
            let owner = [0u32, 0, 0, 0, 1, 1, 1, 1];
            let (neutral, charged) = ([5u64, 40, 3, 9, 1, 1, 2, 7], [0u64; 8]);
            let config = RebalanceConfig { t_interval, threshold, ..RebalanceConfig::default() };
            let (mut always, mut gated) = (Rebalancer::new(config), Rebalancer::new(config));
            // Algorithm 1: at least T iterations since the last
            // re-decomposition and lii above the threshold (NaN counts
            // as above: it is not at most the threshold)
            let mut since = 0;
            for (code, x) in draws {
                let lii = match code {
                    0 => f64::NAN,
                    1 => threshold,
                    2 => x,
                    _ => threshold + x,
                };
                since += 1;
                let due = always.due(lii);
                prop_assert_eq!(due, since >= t_interval && (lii.is_nan() || lii > threshold));
                prop_assert_eq!(gated.due(lii), due);
                if due {
                    since = 0;
                }
                let out = always.step(lii, &xadj, &adj, &neutral, &charged, &owner, 2);
                prop_assert_eq!(due, matches!(out, RebalanceOutcome::Remapped { .. }));
                let held = if due {
                    gated.step(lii, &xadj, &adj, &neutral, &charged, &owner, 2)
                } else {
                    gated.hold(lii).expect("an iteration that is not due is held")
                };
                // NaN: Balanced { lii: NaN } is never == itself
                prop_assert_eq!(format!("{held:?}"), format!("{out:?}"));
                prop_assert_eq!(gated.iterations_since(), always.iterations_since());
                prop_assert_eq!(gated.rebalance_count, always.rebalance_count);
            }
        }
    }
}
