//! The immutable world of one run: everything a [`SimConfig`] and a
//! rank count fix before the first step, built exactly once and
//! shared (behind [`Arc`]s) by every engine, backend and attempt of
//! the run.

use crate::config::SimConfig;
use mesh::NestedMesh;
use particles::SpeciesTable;
use partition::{part_graph_kway, Graph, KwayOptions};
use std::sync::Arc;

/// Mesh hierarchy, species table, coarse cell graph and seed
/// decomposition of one run.
#[derive(Debug)]
pub struct World {
    pub nm: Arc<NestedMesh>,
    pub species: Arc<SpeciesTable>,
    /// Species id of atomic hydrogen (the neutral).
    pub h_id: u8,
    /// Species id of H⁺ (the charged species).
    pub hp_id: u8,
    /// Coarse-cell adjacency in CSR form — the graph every
    /// (re-)decomposition partitions.
    pub xadj: Vec<u32>,
    pub adjncy: Vec<u32>,
    /// Seed decomposition, cell → rank: unweighted k-way partitioning
    /// (paper §V-B: "we use METIS to decompose the grid ... solely
    /// according to the number of grid cells").
    pub owner0: Vec<u32>,
}

impl World {
    /// Build the world of `sim` decomposed over `ranks` ranks.
    pub fn build(sim: &SimConfig, ranks: usize) -> Self {
        let spec = sim.nozzle;
        let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
        let (species, h_id, hp_id) = SpeciesTable::hydrogen_plasma(sim.weight_h, sim.weight_hplus);
        let (xadj, adjncy) = nm.coarse.cell_graph();
        let graph = Graph::new(xadj, adjncy, vec![1; nm.num_coarse()]);
        let owner0 = part_graph_kway(&graph, ranks, KwayOptions::default());
        World {
            nm: Arc::new(nm),
            species: Arc::new(species),
            h_id,
            hp_id,
            xadj: graph.xadj,
            adjncy: graph.adjncy,
            owner0,
        }
    }
}
