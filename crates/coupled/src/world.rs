//! What a run is built on, in two layers: the [`Geometry`] a
//! [`NozzleSpec`] alone fixes — built once and shareable between runs
//! (the job server keeps the ones its jobs repeat) — and the [`World`]
//! one [`SimConfig`] and a rank count add to it, built once per run
//! and shared (behind [`Arc`]s) by every engine, backend and attempt
//! of the run.

use crate::config::SimConfig;
use mesh::{NestedMesh, NozzleSpec};
use particles::SpeciesTable;
use partition::{part_graph_kway, Graph, KwayOptions};
use pic::PoissonOperator;
use std::sync::{Arc, OnceLock};

/// Everything of a run its [`NozzleSpec`] fixes: the dual nested grid
/// (paper §IV-A; with the coarse mesh's face-plane table and the fine
/// mesh's lazily filled gradient table), the coarse cell graph and the
/// assembled Poisson operator. Immutable, so any number of runs — in
/// turn or at once — read one copy.
#[derive(Debug)]
pub struct Geometry {
    spec: NozzleSpec,
    pub nm: Arc<NestedMesh>,
    /// Coarse-cell adjacency in CSR form (`xadj` / `adjncy`), unit
    /// weights — the graph every (re-)decomposition partitions, and as
    /// it stands the one the seed decomposition does.
    pub graph: Graph,
    /// Assembled by the first engine that asks, not by
    /// [`Geometry::build`]: a decomposed run's set-up builds no engine,
    /// and its assembly belongs to the attempt.
    poisson: OnceLock<Arc<PoissonOperator>>,
}

impl Geometry {
    /// Generate the coarse mesh of `spec`, refine it 1:8 and read off
    /// the coarse cell graph.
    pub fn build(spec: &NozzleSpec) -> Self {
        let spec = *spec;
        let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
        let (xadj, adjncy) = nm.coarse.cell_graph();
        Geometry {
            spec,
            graph: Graph::new(xadj, adjncy, vec![1; nm.num_coarse()]),
            nm: Arc::new(nm),
            poisson: OnceLock::new(),
        }
    }

    /// The Poisson operator of the fine grid, assembled on the first
    /// call (concurrent first callers wait for the one assembling; an
    /// assembly that panics leaves the cell empty for the next caller).
    pub fn poisson(&self) -> Arc<PoissonOperator> {
        self.poisson
            .get_or_init(|| Arc::new(PoissonOperator::assemble(&self.nm.fine)))
            .clone()
    }
}

/// A [`Geometry`] plus what one run adds to it: the species table (from
/// the two particle weights) and the seed decomposition (from the rank
/// count).
#[derive(Debug)]
pub struct World {
    pub geometry: Arc<Geometry>,
    pub species: Arc<SpeciesTable>,
    /// Species id of atomic hydrogen (the neutral).
    pub h_id: u8,
    /// Species id of H⁺ (the charged species).
    pub hp_id: u8,
    /// Seed decomposition, cell → rank: unweighted k-way partitioning
    /// (paper §V-B: "we use METIS to decompose the grid ... solely
    /// according to the number of grid cells").
    pub owner0: Vec<u32>,
}

impl World {
    /// Build the world of `sim` decomposed over `ranks` ranks, on a
    /// geometry of its own.
    pub fn build(sim: &SimConfig, ranks: usize) -> Self {
        Self::on(Arc::new(Geometry::build(&sim.nozzle)), sim, ranks)
    }

    /// The world of `sim` decomposed over `ranks` ranks on `geometry`,
    /// which must be the geometry of `sim.nozzle`.
    pub fn on(geometry: Arc<Geometry>, sim: &SimConfig, ranks: usize) -> Self {
        assert_eq!(
            geometry.spec.key(),
            sim.nozzle.key(),
            "a world on another nozzle's geometry"
        );
        let (species, h_id, hp_id) = SpeciesTable::hydrogen_plasma(sim.weight_h, sim.weight_hplus);
        let owner0 = part_graph_kway(&geometry.graph, ranks, KwayOptions::default());
        World {
            geometry,
            species: Arc::new(species),
            h_id,
            hp_id,
            owner0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Dataset;
    use crate::engine::RankEngine;

    #[test]
    fn worlds_on_one_geometry_are_the_worlds_fresh_builds_give() {
        let mut light = Dataset::D1.config(0.02);
        light.seed = 7;
        let mut heavy = light.clone();
        heavy.weight_h *= 2.0;
        heavy.weight_hplus *= 3.0;
        let geometry = Arc::new(Geometry::build(&light.nozzle));
        for (sim, ranks) in [(&light, 2), (&heavy, 3)] {
            let shared = World::on(geometry.clone(), sim, ranks);
            let fresh = World::build(sim, ranks);
            assert!(Arc::ptr_eq(&shared.geometry, &geometry));
            assert_eq!(shared.owner0, fresh.owner0, "{ranks} ranks");
            assert_eq!(shared.geometry.graph, fresh.geometry.graph);
            // the second world steps on an operator the first assembled
            let mut on_shared = RankEngine::whole_domain(sim.clone(), &shared);
            let mut on_fresh = RankEngine::whole_domain(sim.clone(), &fresh);
            for step in 0..3 {
                let (a, b) = (on_shared.dsmc_step(), on_fresh.dsmc_step());
                assert!(a.population > 0);
                assert_eq!(a, b, "{ranks} ranks, step {step}");
            }
            assert_eq!(on_shared.poisson.phi(), on_fresh.poisson.phi());
        }
    }

    /// The partitioner counts a cell's assigned neighbours from the
    /// neighbours' side (`partition::Graph`), which equals a recount
    /// only if each `(v, u)` is in `u`'s list as often as in `v`'s.
    #[test]
    fn the_cell_graph_is_symmetric_entry_for_entry() {
        let jet = crate::scenario::canned("jet").expect("canned scenario lowers");
        for spec in [Dataset::D1.config(0.02).nozzle, jet.run.sim.nozzle] {
            let g = Geometry::build(&spec).graph;
            let times = |list: &[u32], x: usize| list.iter().filter(|&&y| y as usize == x).count();
            for v in 0..g.num_vertices() {
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    assert_ne!(u, v, "self loop");
                    assert_eq!(
                        times(g.neighbors(v), u),
                        times(g.neighbors(u), v),
                        "({v}, {u})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "another nozzle's geometry")]
    fn a_world_on_the_wrong_geometry_is_refused() {
        let sim = Dataset::D1.config(0.02);
        let mut other = sim.nozzle;
        other.nz += 1;
        World::on(Arc::new(Geometry::build(&other)), &sim, 1);
    }
}
