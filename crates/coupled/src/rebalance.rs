//! The balance hook: Algorithm 1 (measure `lii`, weigh cells, k-way,
//! KM remap) as both decomposed backends run it.
//!
//! A backend supplies what only it can know — the per-rank times and
//! the global per-cell counts, measured and allreduced
//! ([`crate::threaded`]) or modelled and whole-domain
//! ([`crate::cluster`]) — and carries or prices the migration the hook
//! decides on. Everything else about a rebalance lives here: the
//! [`Rebalancer`], the ownership map, what a cost sample is made of,
//! and the [`RebalanceEvent`] a remap is reported as.

use crate::config::RunConfig;
use crate::world::World;
use balance::{CostSample, RebalanceOutcome, Rebalancer};
use obs::RebalanceEvent;
use std::sync::Arc;

/// Decomposition state and rebalancing policy of one decomposed run
/// (per rank thread for the threaded backend — every rank runs the
/// deterministic algorithm on the same inputs, so all copies agree).
pub(crate) struct BalanceHook {
    world: Arc<World>,
    ranks: usize,
    /// `None` when the run does not rebalance.
    rebalancer: Option<Rebalancer>,
    /// Current coarse-cell ownership: cell → rank.
    owner: Vec<u32>,
}

impl BalanceHook {
    /// The hook of `run`, starting from ownership `owner` (the world's
    /// seed decomposition, or a checkpointed map).
    pub fn new(run: &RunConfig, world: Arc<World>, owner: Vec<u32>) -> Self {
        BalanceHook {
            world,
            ranks: run.ranks,
            rebalancer: run.rebalance.map(Rebalancer::new),
            owner,
        }
    }

    /// Current coarse-cell ownership: cell → rank.
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Whether the run rebalances at all (backends skip gathering the
    /// per-cell counts when it does not).
    pub fn armed(&self) -> bool {
        self.rebalancer.is_some()
    }

    /// Whether the cost source consumes per-kernel seconds (backends
    /// skip gathering them, and keep the default path's wire traffic
    /// untouched, when it does not).
    pub fn wants_samples(&self) -> bool {
        self.rebalancer
            .as_ref()
            .is_some_and(|rb| rb.wants_samples())
    }

    /// Whether a remap runs Kuhn–Munkres (the modelled machine prices
    /// it).
    pub fn use_km(&self) -> bool {
        self.rebalancer.as_ref().is_some_and(|rb| rb.config.use_km)
    }

    /// One step of Algorithm 1 (DSMC step `step`) on the world-wide
    /// measurements: `lii`, the seconds the DSMC_Move / Colli_React /
    /// PIC_Move kernels took summed over ranks (read only when
    /// [`Self::wants_samples`]) and the global neutral / charged counts
    /// per coarse cell. On a remap the hook switches to the new
    /// ownership and returns the event describing it with the map it
    /// replaced; carrying the migration — and timing it into the
    /// event's `remap_seconds` — is the backend's.
    pub fn step(
        &mut self,
        step: usize,
        lii: f64,
        kernel_seconds: [f64; 3],
        neutral: &[u64],
        charged: &[u64],
    ) -> Option<(RebalanceEvent, Vec<u32>)> {
        let rb = self.rebalancer.as_mut()?;
        if rb.wants_samples() {
            // a McDoniel–Bientinesi timer sample: kernel seconds and
            // the global work units they covered
            let [dsmc_move_seconds, colli_react_seconds, pic_move_seconds] = kernel_seconds;
            rb.observe(&CostSample {
                dsmc_move_seconds,
                colli_react_seconds,
                pic_move_seconds,
                neutral_total: neutral.iter().sum(),
                pair_total: neutral.iter().map(|&n| n * n.saturating_sub(1)).sum(),
                charged_total: charged.iter().sum(),
            });
        }
        let RebalanceOutcome::Remapped {
            new_owner,
            migration_volume,
            ..
        } = rb.step(
            lii,
            &self.world.geometry.graph.xadj,
            &self.world.geometry.graph.adjncy,
            neutral,
            charged,
            &self.owner,
            self.ranks,
        )
        else {
            return None;
        };
        let event = RebalanceEvent {
            step,
            lii,
            migrated: migration_volume,
            remap_seconds: 0.0,
            cost_source: rb.cost_source_name(),
            cost_rates: rb.cost_rates(),
        };
        Some((event, std::mem::replace(&mut self.owner, new_owner)))
    }
}
