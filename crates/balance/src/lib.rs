//! Dynamic load balancing for coupled DSMC/PIC (paper §V):
//! the load-imbalance indicator (eq. 6), the weighted load model
//! (eq. 7) that weighs every cell for the partitioner, KM-based grid
//! remapping (§V-C) and the rebalance driver (Algorithm 1).

pub mod lii;
pub mod rebalance;
pub mod remap;
pub mod wlm;

pub use lii::{load_imbalance_indicator, RankTimes};
pub use rebalance::{RebalanceConfig, RebalanceOutcome, Rebalancer};
pub use remap::{migration_volume, remap_identity, remap_km};
pub use wlm::{weighted_load_model, WlmParams};
