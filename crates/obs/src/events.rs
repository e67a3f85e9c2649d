//! The structured events the pipeline reports: one per step, one per
//! particle exchange, one per rebalance.

use crate::json::{obj, Json};
use crate::phase::Phase;

/// Names of the concrete exchange strategies, in the same order as
/// `vmpi::Strategy::CONCRETE` (and every `strategy_uses` array):
/// centralized, distributed, sparse, hierarchical.
pub const STRATEGY_NAMES: [&str; 4] = ["CC", "DC", "Sparse", "Hier"];

/// Per-step scalar history of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTrace {
    /// Wall time of this step — measured for the serial/threaded
    /// backends, modelled (max over ranks per phase) for the cluster.
    pub step_time: f64,
    /// Load-imbalance indicator measured this step.
    pub lii: f64,
    /// Particle share per rank (fraction of the population).
    pub share: Vec<f64>,
    /// Whether a rebalance happened this step.
    pub rebalanced: bool,
    /// Messages sent this step — world-wide wire messages for the
    /// threaded backend, protocol-predicted for the modelled one, 0
    /// for serial runs.
    pub transactions: u64,
    /// Bytes sent this step (same provenance as `transactions`).
    pub bytes: u64,
    /// Exchanges carried this step per concrete strategy, in
    /// [`STRATEGY_NAMES`] order.
    pub strategy_uses: [u64; 4],
    /// Poisson solves of this step that hit the iteration cap before
    /// reaching the residual tolerance.
    pub poisson_unconverged: u64,
    /// Largest final relative residual of this step's Poisson solves.
    pub poisson_rel_residual_max: f64,
    /// Diffuse wall reflections in this step's neutral move (DSMC_Move).
    /// Each lane flies its chunk's flights to the end, a flight's wall
    /// hits drawing from a stream keyed by the move and the particle,
    /// so a flight that hits a wall is flown once like any other.
    pub wall_hits: u64,
    /// Cell-face crossings in this step's neutral move.
    pub crossings: u64,
}

impl StepTrace {
    /// JSON object for the trace sinks (`index` = step number).
    pub fn to_json(&self, index: usize) -> Json {
        obj(vec![
            ("type", Json::Str("step".into())),
            ("step", Json::U64(index as u64)),
            ("time", Json::Num(self.step_time)),
            ("lii", Json::Num(self.lii)),
            (
                "share",
                Json::Arr(self.share.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("rebalanced", Json::Bool(self.rebalanced)),
            ("transactions", Json::U64(self.transactions)),
            ("bytes", Json::U64(self.bytes)),
            (
                "strategy_uses",
                Json::Arr(self.strategy_uses.iter().map(|&u| Json::U64(u)).collect()),
            ),
            ("poisson_unconverged", Json::U64(self.poisson_unconverged)),
            (
                "poisson_rel_residual_max",
                Json::Num(self.poisson_rel_residual_max),
            ),
            ("wall_hits", Json::U64(self.wall_hits)),
            ("crossings", Json::U64(self.crossings)),
        ])
    }
}

/// One particle exchange carried by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeEvent {
    /// DSMC step the exchange happened in.
    pub step: usize,
    /// [`Phase::DsmcExchange`] or [`Phase::PicExchange`].
    pub phase: Phase,
    /// PIC substep index (0 for the DSMC exchange).
    pub sub: usize,
    /// Concrete strategy that carried it ([`STRATEGY_NAMES`] index).
    pub strategy: usize,
    /// Messages attributed to this exchange. Exact (protocol
    /// prediction) for the modelled backend; for the threaded backend
    /// a world-counter delta observed around the exchange, which is
    /// approximate when other ranks are mid-flight — per-*step* totals
    /// are exact there, per-exchange attribution is best-effort.
    pub transactions: u64,
    /// Bytes attributed to this exchange (same provenance).
    pub bytes: u64,
    /// Worst per-rank message count (protocol prediction; 0 when
    /// unknown, i.e. on the threaded backend).
    pub max_rank_msgs: u64,
    /// Ordered node pairs carrying an aggregated trunk frame (Hier
    /// only; 0 for the flat strategies and the threaded backend).
    pub node_pairs: u64,
    /// Bytes of the aggregated leader-to-leader frames (same
    /// provenance as `node_pairs`).
    pub aggregated_bytes: u64,
}

impl ExchangeEvent {
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("type", Json::Str("exchange".into())),
            ("step", Json::U64(self.step as u64)),
            ("phase", Json::Str(self.phase.name().into())),
            ("sub", Json::U64(self.sub as u64)),
            (
                "strategy",
                Json::Str(STRATEGY_NAMES[self.strategy.min(STRATEGY_NAMES.len() - 1)].into()),
            ),
            ("transactions", Json::U64(self.transactions)),
            ("bytes", Json::U64(self.bytes)),
            ("max_rank_msgs", Json::U64(self.max_rank_msgs)),
            ("node_pairs", Json::U64(self.node_pairs)),
            ("aggregated_bytes", Json::U64(self.aggregated_bytes)),
        ])
    }
}

/// One re-decomposition performed by the dynamic load balancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceEvent {
    /// DSMC step the rebalance happened in.
    pub step: usize,
    /// The load-imbalance indicator that triggered it.
    pub lii: f64,
    /// The granularity floor of the eq. 7 weights it partitioned,
    /// `max(1, k · max_c wlm_c / Σ_c wlm_c)`: the heaviest cell alone
    /// keeps every partition's imbalance at or above it.
    pub lii_floor: f64,
    /// Particles migrated by the re-decomposition.
    pub migrated: u64,
    /// What the re-decomposition cost, in the currency of the backend
    /// that wrote it. The threaded backend writes wall seconds,
    /// measured on this rank from the start of the decision (WLM +
    /// partition + KM remap) to the end of the migration exchange.
    /// The modelled backend writes *modelled* seconds —
    /// `CostModel::rebalance_time`: the priced partition, KM remap,
    /// map broadcast and migration traffic on the profiled machine —
    /// not the wall time its own call to the balancer took.
    pub remap_seconds: f64,
}

impl RebalanceEvent {
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("type", Json::Str("rebalance".into())),
            ("step", Json::U64(self.step as u64)),
            ("lii", Json::Num(self.lii)),
            ("lii_floor", Json::Num(self.lii_floor)),
            ("migrated", Json::U64(self.migrated)),
            ("remap_seconds", Json::Num(self.remap_seconds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn step_trace_json_roundtrips() {
        let t = StepTrace {
            step_time: 0.25,
            lii: 1.5,
            share: vec![0.5, 0.5],
            rebalanced: true,
            transactions: 12,
            bytes: 3456,
            strategy_uses: [0, 10, 2, 0],
            poisson_unconverged: 1,
            poisson_rel_residual_max: 2.5e-7,
            wall_hits: 4,
            crossings: 90,
        };
        let v = parse(&t.to_json(7).to_string()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("step"));
        assert_eq!(v.get("step").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("transactions").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("bytes").unwrap().as_u64(), Some(3456));
        assert_eq!(v.get("poisson_unconverged").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("wall_hits").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("crossings").unwrap().as_u64(), Some(90));
        assert_eq!(
            v.get("poisson_rel_residual_max").unwrap().as_f64(),
            Some(2.5e-7)
        );
        assert_eq!(v.get("share").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rebalance_event_json_carries_its_fields() {
        let e = RebalanceEvent {
            step: 21,
            lii: 2.4,
            lii_floor: 1.25,
            migrated: 120,
            remap_seconds: 0.003,
        };
        let v = parse(&e.to_json().to_string()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("rebalance"));
        assert_eq!(v.get("step").unwrap().as_u64(), Some(21));
        assert_eq!(v.get("lii").unwrap().as_f64(), Some(2.4));
        assert_eq!(v.get("lii_floor").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("migrated").unwrap().as_u64(), Some(120));
        assert_eq!(v.get("remap_seconds").unwrap().as_f64(), Some(0.003));
    }

    #[test]
    fn exchange_event_names_strategy() {
        let e = ExchangeEvent {
            step: 1,
            phase: Phase::PicExchange,
            sub: 1,
            strategy: 2,
            transactions: 4,
            bytes: 64,
            max_rank_msgs: 2,
            node_pairs: 0,
            aggregated_bytes: 0,
        };
        let v = parse(&e.to_json().to_string()).unwrap();
        assert_eq!(v.get("strategy").unwrap().as_str(), Some("Sparse"));
        assert_eq!(v.get("phase").unwrap().as_str(), Some("PIC_Exchange"));
    }

    #[test]
    fn exchange_event_names_hier_and_carries_aggregation() {
        let e = ExchangeEvent {
            step: 2,
            phase: Phase::DsmcExchange,
            sub: 0,
            strategy: 3,
            transactions: 3,
            bytes: 600,
            max_rank_msgs: 2,
            node_pairs: 1,
            aggregated_bytes: 139,
        };
        let v = parse(&e.to_json().to_string()).unwrap();
        assert_eq!(v.get("strategy").unwrap().as_str(), Some("Hier"));
        assert_eq!(v.get("node_pairs").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("aggregated_bytes").unwrap().as_u64(), Some(139));
    }
}
