//! The balance hook: Algorithm 1 (measure `lii`, weigh cells, k-way,
//! KM remap) as both decomposed backends run it.
//!
//! A backend supplies what only it can know — the per-rank times and
//! the global per-cell counts, measured and allreduced
//! ([`crate::threaded`]) or modelled and whole-domain
//! ([`crate::cluster`]) — and carries or prices the migration the hook
//! decides on. Everything else about a rebalance lives here: the
//! [`Rebalancer`], the ownership map and the [`RebalanceEvent`] a
//! remap is reported as.

use crate::config::RunConfig;
use crate::world::World;
use balance::{RebalanceOutcome, Rebalancer};
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

    /// Whether a remap runs Kuhn–Munkres (the modelled machine prices
    /// it).
    pub fn use_km(&self) -> bool {
        self.rebalancer.as_ref().is_some_and(|rb| rb.config.use_km)
    }

    /// One step of Algorithm 1 (DSMC step `step`) on the world-wide
    /// measurements: `lii` and the global neutral / charged counts per
    /// coarse cell. On a remap the hook switches to the new
    /// ownership and returns the event describing it with the map it
    /// replaced; carrying the migration — and timing it into the
    /// event's `remap_seconds` — is the backend's.
    pub fn step(
        &mut self,
        step: usize,
        lii: f64,
        neutral: &[u64],
        charged: &[u64],
    ) -> Option<(RebalanceEvent, Vec<u32>)> {
        let rb = self.rebalancer.as_mut()?;
        let RebalanceOutcome::Remapped {
            lii_floor,
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
            lii_floor,
            migrated: migration_volume,
            remap_seconds: 0.0,
        };
        Some((event, std::mem::replace(&mut self.owner, new_owner)))
    }
}
