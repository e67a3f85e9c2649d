//! Heavy-edge-matching graph coarsening (multilevel phase 1).
//!
//! Pairs of vertices joined by heavy edges are merged into single
//! coarse vertices; vertex weights add, parallel coarse edges
//! aggregate their weights. This is the same scheme METIS uses.

use crate::graph::Graph;

/// One level of the multilevel hierarchy: the coarse graph plus the
/// fine→coarse vertex map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    pub graph: Graph,
    /// `map[v_fine] = v_coarse`.
    pub map: Vec<u32>,
}

/// Coarsen `g` one level using heavy-edge matching. Visits vertices
/// in a deterministic order derived from `seed` so partitions are
/// reproducible.
pub fn coarsen(g: &Graph, seed: u64) -> CoarseLevel {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Cheap deterministic shuffle (splitmix-style) to avoid
    // degenerate matchings on structured meshes.
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    for i in (1..n).rev() {
        s ^= s >> 30;
        s = s.wrapping_mul(0xBF58476D1CE4E5B9);
        s ^= s >> 27;
        let j = (s % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }

    // `members[c]` = the one or two fine vertices matched into `c`.
    let mut matched = vec![u32::MAX; n];
    let mut members: Vec<(u32, Option<u32>)> = Vec::new();
    for &v in &order {
        let v = v as usize;
        if matched[v] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mut best: Option<(u32, i64)> = None;
        for (u, w) in g.edges(v) {
            if matched[u as usize] == u32::MAX
                && u as usize != v
                && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((u, w));
            }
        }
        let c = members.len() as u32;
        let mate = best.map(|(u, _)| u);
        matched[v] = c;
        if let Some(u) = mate {
            matched[u as usize] = c;
        }
        members.push((v as u32, mate));
    }

    // Aggregate coarse vertex weights and edges: per coarse vertex, its
    // members' `(coarse neighbour, weight)` pairs, sorted, each run of
    // one neighbour summed into its first pair.
    let mut vwgt = vec![0i64; members.len()];
    for v in 0..n {
        vwgt[matched[v] as usize] += g.vwgt[v];
    }
    let mut xadj = vec![0u32];
    let mut adjncy = Vec::new();
    let mut ewgt = Vec::new();
    let mut pairs: Vec<(u32, i64)> = Vec::new();
    for (c, &(v, mate)) in members.iter().enumerate() {
        for v in std::iter::once(v).chain(mate) {
            let outside = g.edges(v as usize).map(|(u, w)| (matched[u as usize], w));
            pairs.extend(outside.filter(|&(cu, _)| cu as usize != c));
        }
        pairs.sort_unstable();
        pairs.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            kept.1 += if same { next.1 } else { 0 };
            same
        });
        adjncy.extend(pairs.iter().map(|&(cu, _)| cu));
        ewgt.extend(pairs.drain(..).map(|(_, w)| w));
        xadj.push(adjncy.len() as u32);
    }

    CoarseLevel {
        graph: Graph {
            xadj,
            adjncy,
            vwgt,
            ewgt,
        },
        map: matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarsening_shrinks_and_conserves_weight() {
        // 4x4 grid graph
        let mut edges = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                let v = i * 4 + j;
                if j + 1 < 4 {
                    edges.push((v, v + 1));
                }
                if i + 1 < 4 {
                    edges.push((v, v + 4));
                }
            }
        }
        let g = Graph::from_edges(16, &edges, vec![1; 16]);
        let lvl = coarsen(&g, 42);
        assert!(lvl.graph.num_vertices() < 16);
        assert!(lvl.graph.num_vertices() >= 8, "HEM merges at most pairs");
        assert_eq!(lvl.graph.total_vwgt(), g.total_vwgt());
        // map covers all coarse ids
        let max = *lvl.map.iter().max().unwrap() as usize;
        assert_eq!(max + 1, lvl.graph.num_vertices());
    }

    #[test]
    fn coarse_edges_are_symmetric() {
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
            vec![1; 6],
        );
        let lvl = coarsen(&g, 7);
        let cg = &lvl.graph;
        for v in 0..cg.num_vertices() {
            for (u, w) in cg.edges(v) {
                let back: Vec<_> = cg
                    .edges(u as usize)
                    .filter(|&(x, _)| x as usize == v)
                    .collect();
                assert_eq!(back.len(), 1);
                assert_eq!(back[0].1, w);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = Graph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (3, 4)],
            vec![1; 8],
        );
        let a = coarsen(&g, 5);
        let b = coarsen(&g, 5);
        assert_eq!(a.map, b.map);
        assert_eq!(a.graph, b.graph);
    }
}
