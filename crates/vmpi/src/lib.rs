//! Virtual MPI: in-process message passing with the paper's two
//! particle-exchange strategies (§IV-B).
//!
//! Real MPI on a real cluster is replaced by (a) a threaded world
//! where every rank is an OS thread ([`run_world`]) holding one
//! [`Comm`] endpoint, used for functional parallel runs, and (b)
//! traffic prediction ([`exchange::traffic`]) that feeds the analytic
//! cluster model in the `coupled` crate for experiments at paper scale
//! (hundreds to thousands of ranks).
//!
//! There is one transport and one endpoint type: [`Comm`] is concrete,
//! and the collectives and exchange strategies take `&Comm`. The
//! transport is MPI's: every message is delivered, once and in order
//! per (sender, receiver) pair. The whole surface is still fallible
//! ([`CommError`]): a rank can die, and its peers then fail promptly
//! instead of hanging (`coupled` recovers by checkpoint restart).

#![deny(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod error;
pub mod exchange;
pub mod threaded;

pub use comm::{Comm, CommStats};
pub use error::{CommError, CommResult};
pub use exchange::{
    exchange_into, exchange_on_nodes, traffic, traffic_all, Flows, NodeMap, Strategy,
    TrafficSummary,
};
pub use threaded::run_world;
