//! The dynamic load balancer (paper Algorithm 1).
//!
//! Every DSMC iteration the balancer is offered the measured `lii`;
//! once at least `T` iterations have elapsed since the last
//! re-decomposition *and* `lii > Threshold`, the coarse grid is
//! re-partitioned with the weighted load model and remapped to ranks
//! with (optionally) the KM algorithm.

use crate::cost::{CostSample, CostSource, CostSourceKind};
use crate::remap::{remap_identity, remap_km};
use crate::wlm::WlmParams;
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
    /// Which cost source supplies the partitioner vertex weights.
    pub cost_source: CostSourceKind,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            t_interval: 20,
            threshold: 2.0,
            wlm: WlmParams::default(),
            use_km: true,
            cost_source: CostSourceKind::default(),
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
    /// The cost source supplying partitioner vertex weights.
    cost: CostSource,
}

impl Rebalancer {
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer {
            config,
            iterations_since: 0,
            rebalance_count: 0,
            cost: CostSource::new(config.cost_source, config.wlm),
        }
    }

    /// Whether the active cost source consumes measured samples —
    /// drivers skip gathering timers (and keep the default path's
    /// wire traffic untouched) when this is false.
    pub fn wants_samples(&self) -> bool {
        self.cost.wants_samples()
    }

    /// Offer one step's globally-reduced measured costs to the
    /// active cost source.
    pub fn observe(&mut self, sample: &CostSample) {
        self.cost.observe(sample);
    }

    /// Stable name of the active cost source.
    pub fn cost_source_name(&self) -> &'static str {
        self.config.cost_source.name()
    }

    /// Smoothed per-unit cost rates of the active source (zeros for
    /// analytic sources).
    pub fn cost_rates(&self) -> [f64; 3] {
        self.cost.cost_rates()
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
        self.iterations_since += 1;
        if self.iterations_since < self.config.t_interval {
            return RebalanceOutcome::TooSoon;
        }
        if lii <= self.config.threshold {
            return RebalanceOutcome::Balanced { lii };
        }

        // Algorithm 1 lines 6-11: cost-source vertex weights -> k-way
        // partition -> KM remap.
        let wlm = self.cost.cell_weights(neutral, charged);
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
            new_owner,
            migration_volume,
        }
    }

    /// Iterations since the last re-decomposition.
    pub fn iterations_since(&self) -> usize {
        self.iterations_since
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn timer_source_narrows_partition_around_crowded_cells() {
        use crate::cost::{CostSample, CostSourceKind};
        // one very crowded cell: quadratic pair cost dominates
        let ncells = 12;
        let (xadj, adj) = line(ncells);
        let mut neutral = vec![4u64; ncells];
        neutral[0] = 100;
        let charged = vec![0u64; ncells];
        let pairs: u64 = neutral.iter().map(|&n| n * n.saturating_sub(1)).sum();
        let old_owner: Vec<u32> = (0..ncells).map(|c| (c / 6) as u32).collect();
        let owned = |owner: &[u32], r: u32| owner.iter().filter(|&&o| o == r).count();

        let run = |kind: CostSourceKind| {
            let mut rb = Rebalancer::new(RebalanceConfig {
                t_interval: 1,
                cost_source: kind,
                ..RebalanceConfig::default()
            });
            rb.observe(&CostSample {
                dsmc_move_seconds: 0.1,
                colli_react_seconds: 10.0,
                neutral_total: neutral.iter().sum(),
                pair_total: pairs,
                ..CostSample::default()
            });
            match rb.step(10.0, &xadj, &adj, &neutral, &charged, &old_owner, 2) {
                RebalanceOutcome::Remapped { new_owner, .. } => new_owner,
                o => panic!("{o:?}"),
            }
        };
        let timer_owner = run(CostSourceKind::TimerAugmented);
        let crowded = timer_owner[0];
        assert!(
            owned(&timer_owner, crowded) < ncells / 2,
            "measured quadratic cost should shrink the crowded rank's share: {timer_owner:?}"
        );
    }

    #[test]
    fn paper_source_ignores_samples_and_stays_analytic() {
        use crate::cost::CostSample;
        let (xadj, adj) = line(8);
        let neutral = vec![10u64; 8];
        let charged = vec![0u64; 8];
        let owner = vec![0u32, 0, 0, 0, 1, 1, 1, 1];
        let step = |observe: bool| {
            let mut rb = Rebalancer::new(RebalanceConfig {
                t_interval: 1,
                ..RebalanceConfig::default()
            });
            assert!(!rb.wants_samples());
            assert_eq!(rb.cost_source_name(), "paper_wlm");
            if observe {
                rb.observe(&CostSample {
                    dsmc_move_seconds: 99.0,
                    neutral_total: 80,
                    ..CostSample::default()
                });
            }
            rb.step(10.0, &xadj, &adj, &neutral, &charged, &owner, 2)
        };
        assert_eq!(step(false), step(true));
    }
}
