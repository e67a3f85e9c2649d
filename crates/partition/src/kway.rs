//! Multilevel k-way partitioning driver — the workspace's stand-in
//! for `METIS_PartGraphKway` (paper §IV-A, §V-B).
//!
//! Pipeline: coarsen by heavy-edge matching until the graph is small,
//! compute a greedy initial partition on the coarsest level and refine
//! its boundary there, project it straight back to the input graph,
//! refine again and finish with a balance fix-up. Refinement runs on
//! the coarsest and on the original graph only, not at the levels
//! between.

use crate::coarsen::{coarsen, CoarseLevel};
use crate::graph::Graph;
use crate::initial::greedy_growing;
use crate::refine::{force_balance, refine_boundary};

/// Options for [`part_graph_kway`].
#[derive(Debug, Clone, Copy)]
pub struct KwayOptions {
    /// Stop coarsening once the graph has at most `coarsen_to * k`
    /// vertices.
    pub coarsen_to: usize,
    /// Refinement sweeps per level.
    pub refine_passes: usize,
    /// RNG seed for the coarsening order (determinism).
    pub seed: u64,
}

impl Default for KwayOptions {
    fn default() -> Self {
        KwayOptions {
            coarsen_to: 30,
            refine_passes: 6,
            seed: 1,
        }
    }
}

/// Partition `g` into `k` parts with optional vertex weights already
/// stored in `g.vwgt`. Returns part id per vertex.
///
/// Mirrors the call signature of the paper's Algorithm 1 line 10:
/// `NewPartition ← METIS_PartGraphKway(cellnum, procsnum, wlm)`.
pub fn part_graph_kway(g: &Graph, k: usize, opts: KwayOptions) -> Vec<u32> {
    assert!(k >= 1);
    let n = g.num_vertices();
    if k == 1 {
        return vec![0; n];
    }
    if n <= k {
        // trivial: one vertex per part round-robin
        return (0..n).map(|v| (v % k) as u32).collect();
    }

    // Phase 1: coarsen; each level's input is the level before it.
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let stop = (opts.coarsen_to * k).max(2 * k);
    let coarsest = loop {
        let current = levels.last().map_or(g, |lvl| &lvl.graph);
        if current.num_vertices() <= stop || levels.len() > 64 {
            break current;
        }
        let lvl = coarsen(current, opts.seed.wrapping_add(levels.len() as u64));
        // Coarsening stalls when matching finds no pairs; bail out.
        if lvl.graph.num_vertices() as f64 > 0.95 * current.num_vertices() as f64 {
            break current;
        }
        levels.push(lvl);
    };

    // Phase 2: initial partition on the coarsest graph.
    let mut part = greedy_growing(coarsest, k);
    refine_boundary(coarsest, &mut part, k, opts.refine_passes);

    // Phase 3: project back through every level's fine→coarse map.
    for lvl in levels.iter().rev() {
        part = lvl.map.iter().map(|&c| part[c as usize]).collect();
    }
    debug_assert_eq!(part.len(), n);

    refine_boundary(g, &mut part, k, opts.refine_passes);
    force_balance(g, &mut part, k);
    refine_boundary(g, &mut part, k, 2);
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use crate::refine::BALANCE_TOL;

    fn grid3d(nx: u32, ny: u32, nz: u32) -> Graph {
        let idx = |i: u32, j: u32, k: u32| (k * ny + j) * nx + i;
        let mut edges = Vec::new();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let v = idx(i, j, k);
                    if i + 1 < nx {
                        edges.push((v, idx(i + 1, j, k)));
                    }
                    if j + 1 < ny {
                        edges.push((v, idx(i, j + 1, k)));
                    }
                    if k + 1 < nz {
                        edges.push((v, idx(i, j, k + 1)));
                    }
                }
            }
        }
        let n = (nx * ny * nz) as usize;
        Graph::from_edges(n, &edges, vec![1; n])
    }

    #[test]
    fn balanced_partitions_on_3d_grid() {
        let g = grid3d(8, 8, 8);
        for k in [2usize, 4, 8, 16] {
            let part = part_graph_kway(&g, k, KwayOptions::default());
            let imb = imbalance(&g, &part, k);
            assert!(imb <= BALANCE_TOL + 0.05, "k={k}: imbalance {imb}");
            for p in 0..k as u32 {
                assert!(part.contains(&p), "empty part {p} for k={k}");
            }
        }
    }

    #[test]
    fn cut_beats_random() {
        let g = grid3d(8, 8, 4);
        let n = g.num_vertices();
        let k = 4;
        let part = part_graph_kway(&g, k, KwayOptions::default());
        // pseudo-random partition for comparison
        let rand_part: Vec<u32> = (0..n).map(|v| ((v * 2654435761) % k) as u32).collect();
        assert!(edge_cut(&g, &part) * 2 < edge_cut(&g, &rand_part));
    }

    #[test]
    fn weighted_partition_balances_weight_not_count() {
        // line of 64, first 8 vertices carry almost all weight
        let mut edges = Vec::new();
        for v in 0..63u32 {
            edges.push((v, v + 1));
        }
        let mut vwgt = vec![1i64; 64];
        for w in vwgt.iter_mut().take(8) {
            *w = 100;
        }
        let g = Graph::from_edges(64, &edges, vwgt);
        let part = part_graph_kway(&g, 2, KwayOptions::default());
        let imb = imbalance(&g, &part, 2);
        assert!(imb < 1.2, "imbalance {imb}");
        // the heavy head must be split off from most of the tail
        assert_ne!(part[0], part[63]);
    }

    #[test]
    fn k_equals_one_and_tiny_graphs() {
        let g = grid3d(2, 2, 1);
        assert_eq!(part_graph_kway(&g, 1, KwayOptions::default()), vec![0; 4]);
        let tiny = Graph::from_edges(2, &[(0, 1)], vec![1, 1]);
        let p = part_graph_kway(&tiny, 4, KwayOptions::default());
        assert_eq!(p.len(), 2);
    }

    /// Recorded before `refine_boundary` and `greedy_growing` stopped
    /// looping over all `k` parts (and before `coarsen` lost its hash
    /// maps): the lattice has the jet's 2,304 cells, its weights the
    /// jet's shape — a heavy head, a long unit tail — so k = 384 takes
    /// the no-coarsening path and k ≤ 64 the multilevel one.
    #[test]
    fn skewed_lattice_partitions_are_pinned() {
        let mut g = grid3d(6, 6, 64);
        for (v, w) in g.vwgt.iter_mut().enumerate() {
            let z = v / 36;
            *w = 1 + (v as i64 * 7919 % 31) * if z < 8 { 40 } else { (z % 5 == 0) as i64 };
        }
        for (k, pinned) in [
            (2usize, 0xc16b_e73e_c292_3cd5u64),
            (4, 0xcd67_455d_ee37_b264),
            (16, 0x4312_4796_af28_c02e),
            (64, 0xa048_edcd_e16a_066c),
            (384, 0x5ebc_e57f_e6eb_0025),
        ] {
            let part = part_graph_kway(&g, k, KwayOptions::default());
            let hash = obs::fnv1a(part.iter().flat_map(|p| p.to_le_bytes()));
            assert_eq!(hash, pinned, "k = {k}: {hash:#018x}");
        }
    }

    #[test]
    fn deterministic() {
        let g = grid3d(6, 6, 3);
        let a = part_graph_kway(&g, 4, KwayOptions::default());
        let b = part_graph_kway(&g, 4, KwayOptions::default());
        assert_eq!(a, b);
    }
}
