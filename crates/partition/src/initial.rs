//! Greedy graph-growing initial partition (multilevel phase 2).
//!
//! On the coarsest graph we grow `k` regions one at a time: each
//! region starts from a vertex far from already-assigned vertices and
//! greedily absorbs the frontier vertex with the strongest connection
//! to the region until the region reaches its weight target.

use crate::graph::Graph;

/// Compute an initial `k`-way partition of `g`. Returns the part id
/// per vertex. Assumes `g` is connected-ish; stray unassigned
/// vertices are swept into the lightest part at the end.
///
/// Costs O(n) per seed plus the frontier scans of the growth itself:
/// nothing is recounted and nothing `n`-long is allocated per part.
pub fn greedy_growing(g: &Graph, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    assert!(k >= 1);
    let total = g.total_vwgt().max(1);
    let target = (total + k as i64 - 1) / k as i64;

    let mut grow = Growing {
        g,
        part: vec![u32::MAX; n],
        part_wgt: vec![0i64; k],
        assigned_nb: vec![0u32; n],
        gain: vec![0i64; n],
        in_frontier: vec![false; n],
        frontier: Vec::new(),
    };

    for p in 0..k {
        // Seed: unassigned vertex with the fewest assigned neighbours
        // (prefers fresh territory), ties broken by smallest id — so
        // the first one with none is it.
        let mut seed = None;
        let mut fewest = u32::MAX;
        for v in 0..n {
            if grow.part[v] == u32::MAX && grow.assigned_nb[v] < fewest {
                fewest = grow.assigned_nb[v];
                seed = Some(v);
                if fewest == 0 {
                    break;
                }
            }
        }
        let Some(seed) = seed else { break };

        // Grow a region from the seed.
        grow.absorb(seed, p);

        // Leave room for the remaining parts: stop at target even if
        // the frontier is rich.
        while grow.part_wgt[p] < target && p + 1 < k {
            // Pop the frontier vertex with max gain.
            let mut best: Option<(usize, i64)> = None;
            let mut best_idx = 0;
            for (idx, &v) in grow.frontier.iter().enumerate() {
                let v = v as usize;
                if best.is_none_or(|(_, bg)| grow.gain[v] > bg) {
                    best = Some((v, grow.gain[v]));
                    best_idx = idx;
                }
            }
            let Some((v, _)) = best else { break };
            grow.frontier.swap_remove(best_idx);
            grow.in_frontier[v] = false;
            grow.absorb(v, p);
        }

        // The next region starts from a clean slate: what is left in
        // the frontier are the only unassigned vertices this one
        // touched.
        for u in grow.frontier.drain(..) {
            grow.gain[u as usize] = 0;
            grow.in_frontier[u as usize] = false;
        }

        // Final part absorbs everything left.
        if p + 1 == k {
            for (v, pv) in grow.part.iter_mut().enumerate() {
                if *pv == u32::MAX {
                    *pv = p as u32;
                    grow.part_wgt[p] += g.vwgt[v];
                }
            }
        }
    }

    // Sweep stragglers (disconnected leftovers) into the lightest part.
    for (v, pv) in grow.part.iter_mut().enumerate() {
        if *pv == u32::MAX {
            let p = (0..k).min_by_key(|&p| grow.part_wgt[p]).unwrap();
            *pv = p as u32;
            grow.part_wgt[p] += g.vwgt[v];
        }
    }

    grow.part
}

/// The state [`greedy_growing`] keeps across regions, allocated once.
struct Growing<'a> {
    g: &'a Graph,
    part: Vec<u32>,
    part_wgt: Vec<i64>,
    /// Entries of `v`'s adjacency list whose vertex is assigned, kept
    /// by [`Growing::absorb`]. Equal to a recount over `v`'s own list
    /// because the CSR is symmetric (see [`Graph`]).
    assigned_nb: Vec<u32>,
    /// Total edge weight from an unassigned `v` into the region being
    /// grown; nonzero only while `v` is in the frontier.
    gain: Vec<i64>,
    in_frontier: Vec<bool>,
    /// Unassigned vertices adjacent to the region being grown.
    frontier: Vec<u32>,
}

impl Growing<'_> {
    /// Assign `v` to part `p` and put its unassigned neighbours on the
    /// frontier.
    fn absorb(&mut self, v: usize, p: usize) {
        self.part[v] = p as u32;
        self.part_wgt[p] += self.g.vwgt[v];
        for (u, w) in self.g.edges(v) {
            let u = u as usize;
            self.assigned_nb[u] += 1;
            if self.part[u] == u32::MAX {
                self.gain[u] += w;
                if !self.in_frontier[u] {
                    self.in_frontier[u] = true;
                    self.frontier.push(u as u32);
                }
            }
        }
    }
}

/// The kernel as it was before it kept `assigned_nb` and its scratch
/// across regions: every seed recounts every vertex's assigned
/// neighbours. The tests' reference for [`greedy_growing`].
#[cfg(test)]
pub(crate) mod oracle {
    use crate::graph::Graph;

    pub fn greedy_growing(g: &Graph, k: usize) -> Vec<u32> {
        let n = g.num_vertices();
        assert!(k >= 1);
        let total = g.total_vwgt().max(1);
        let target = (total + k as i64 - 1) / k as i64;

        let mut part = vec![u32::MAX; n];
        let mut part_wgt = vec![0i64; k];

        for p in 0..k {
            // Seed: unassigned vertex with the fewest assigned neighbours
            // (prefers fresh territory), ties broken by smallest id.
            let mut seed = None;
            let mut best_key = (u32::MAX, u32::MAX);
            for v in 0..n {
                if part[v] != u32::MAX {
                    continue;
                }
                let assigned_nb = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| part[u as usize] != u32::MAX)
                    .count() as u32;
                let key = (assigned_nb, v as u32);
                if key < best_key {
                    best_key = key;
                    seed = Some(v);
                }
            }
            let Some(seed) = seed else { break };

            // Grow a region from the seed.
            // gain[v] = total edge weight from v into the region.
            let mut gain = vec![0i64; n];
            let mut in_frontier = vec![false; n];
            let mut frontier: Vec<u32> = Vec::new();

            let absorb = |v: usize,
                          part: &mut Vec<u32>,
                          part_wgt: &mut Vec<i64>,
                          gain: &mut Vec<i64>,
                          in_frontier: &mut Vec<bool>,
                          frontier: &mut Vec<u32>| {
                part[v] = p as u32;
                part_wgt[p] += g.vwgt[v];
                for (u, w) in g.edges(v) {
                    let u = u as usize;
                    if part[u] == u32::MAX {
                        gain[u] += w;
                        if !in_frontier[u] {
                            in_frontier[u] = true;
                            frontier.push(u as u32);
                        }
                    }
                }
            };

            absorb(
                seed,
                &mut part,
                &mut part_wgt,
                &mut gain,
                &mut in_frontier,
                &mut frontier,
            );

            // Leave room for the remaining parts: stop at target even if
            // the frontier is rich.
            while part_wgt[p] < target && p + 1 < k {
                // Pop the frontier vertex with max gain.
                let mut best: Option<(usize, i64)> = None;
                let mut best_idx = 0;
                for (idx, &v) in frontier.iter().enumerate() {
                    let v = v as usize;
                    if part[v] != u32::MAX {
                        continue;
                    }
                    if best.is_none_or(|(_, bg)| gain[v] > bg) {
                        best = Some((v, gain[v]));
                        best_idx = idx;
                    }
                }
                let Some((v, _)) = best else { break };
                frontier.swap_remove(best_idx);
                in_frontier[v] = false;
                absorb(
                    v,
                    &mut part,
                    &mut part_wgt,
                    &mut gain,
                    &mut in_frontier,
                    &mut frontier,
                );
            }

            // Final part absorbs everything left.
            if p + 1 == k {
                for (v, pv) in part.iter_mut().enumerate() {
                    if *pv == u32::MAX {
                        *pv = p as u32;
                        part_wgt[p] += g.vwgt[v];
                    }
                }
            }
        }

        // Sweep stragglers (disconnected leftovers) into the lightest part.
        for (v, pv) in part.iter_mut().enumerate() {
            if *pv == u32::MAX {
                let p = (0..k).min_by_key(|&p| part_wgt[p]).unwrap();
                *pv = p as u32;
                part_wgt[p] += g.vwgt[v];
            }
        }

        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};

    fn grid(nx: u32, ny: u32) -> Graph {
        let mut edges = Vec::new();
        for i in 0..ny {
            for j in 0..nx {
                let v = i * nx + j;
                if j + 1 < nx {
                    edges.push((v, v + 1));
                }
                if i + 1 < ny {
                    edges.push((v, v + nx));
                }
            }
        }
        Graph::from_edges((nx * ny) as usize, &edges, vec![1; (nx * ny) as usize])
    }

    #[test]
    fn covers_all_vertices_with_valid_parts() {
        let g = grid(8, 8);
        for k in [1usize, 2, 3, 4, 7] {
            let part = greedy_growing(&g, k);
            assert_eq!(part.len(), 64);
            assert!(part.iter().all(|&p| (p as usize) < k));
            // every part non-empty for k <= n
            for p in 0..k as u32 {
                assert!(part.contains(&p), "part {p} empty for k={k}");
            }
        }
    }

    #[test]
    fn roughly_balanced_on_uniform_grid() {
        let g = grid(10, 10);
        let part = greedy_growing(&g, 4);
        let imb = imbalance(&g, &part, 4);
        assert!(imb < 1.35, "imbalance {imb}");
    }

    #[test]
    fn respects_vertex_weights() {
        // two cliques of equal total weight but different cardinality
        let mut g = grid(6, 1); // path of 6
        g.vwgt = vec![10, 10, 10, 1, 1, 28];
        let part = greedy_growing(&g, 2);
        let imb = imbalance(&g, &part, 2);
        assert!(imb < 1.4, "imbalance {imb}, parts {part:?}");
    }

    #[test]
    fn cut_is_reasonable_on_path() {
        // partitioning a path in 2 should cut ~1 edge
        let g = grid(16, 1);
        let part = greedy_growing(&g, 2);
        assert!(edge_cut(&g, &part) <= 2);
    }
}
