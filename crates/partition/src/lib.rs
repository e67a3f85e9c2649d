//! Multilevel k-way graph partitioning, Kuhn–Munkres assignment and
//! decomposition modes — the workspace's replacement for METIS
//! (`METIS_PartGraphKway`) and the KM remapping algorithm of the
//! paper (§IV-A, §V-B, §V-C), plus the unified vs Eulerian/Lagrangian
//! mode selector of the split-decomposition extension.

pub mod coarsen;
pub mod decomp;
pub mod graph;
pub mod hungarian;
pub mod initial;
pub mod kway;
pub mod metrics;
pub mod refine;

pub use decomp::{block_owner, block_ranges, Decomposition};
pub use graph::Graph;
pub use hungarian::{max_weight_assignment, max_weight_assignment_sparse, min_cost_assignment};
pub use kway::{part_graph_kway, KwayOptions};
pub use metrics::{edge_cut, imbalance, part_weights};
