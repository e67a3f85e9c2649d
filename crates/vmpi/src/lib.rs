//! Virtual MPI: in-process message passing with the paper's two
//! particle-exchange strategies (§IV-B).
//!
//! Real MPI on a real cluster is replaced by (a) a threaded backend
//! where every rank is an OS thread ([`threaded`]) used for functional
//! parallel runs, and (b) traffic prediction ([`exchange::traffic`])
//! that feeds the analytic cluster model in the `coupled` crate for
//! experiments at paper scale (hundreds to thousands of ranks).
//!
//! The whole surface is fallible ([`CommError`]) and chaos-testable:
//! [`chaos`] injects deterministic faults (drop / duplicate /
//! delay-reorder / stall / kill) under any transport, and [`reliable`]
//! is the sequencing/dedup/retransmission sublayer that makes the
//! protocols above run bit-for-bit identically over the lossy wire.

#![deny(unsafe_code)]

pub mod chaos;
pub mod collectives;
pub mod comm;
pub mod error;
pub mod exchange;
pub mod reliable;
pub mod threaded;

pub use chaos::{ChaosComm, ChaosWorld, FaultAction, FaultPlan, KillEvent, StallEvent};
pub use comm::{Comm, CommStats};
pub use error::{CommError, CommResult};
pub use exchange::{
    exchange_into, exchange_on_nodes, traffic, traffic_all, Flows, NodeMap, Strategy,
    TrafficSummary,
};
pub use reliable::{ReliableComm, ReliableWorld};
pub use threaded::{run_world, ThreadComm};
