//! Multilevel k-way graph partitioning and Kuhn–Munkres assignment —
//! the workspace's replacement for METIS (`METIS_PartGraphKway`) and
//! the KM remapping algorithm of the paper (§IV-A, §V-B, §V-C).

pub mod coarsen;
pub mod graph;
pub mod hungarian;
pub mod initial;
pub mod kway;
pub mod metrics;
pub mod refine;

pub use graph::Graph;
pub use hungarian::{max_weight_assignment, max_weight_assignment_sparse, min_cost_assignment};
pub use kway::{part_graph_kway, KwayOptions};
pub use metrics::{edge_cut, imbalance, part_weights};
