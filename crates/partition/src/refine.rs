//! Greedy boundary refinement (multilevel phase 3).
//!
//! After projecting a coarse partition back to a finer graph, boundary
//! vertices are greedily moved to the neighbouring part that most
//! reduces the edge cut, subject to a balance constraint. This is a
//! simplified Fiduccia–Mattheyses-style pass, run a fixed number of
//! rounds per level (the classic METIS recipe).

use crate::graph::Graph;

/// Maximum tolerated part weight as a multiple of the average.
pub const BALANCE_TOL: f64 = 1.05;

/// Refine `part` in place. `k` = number of parts, `passes` = number of
/// full sweeps. Returns the total cut-gain achieved.
///
/// A vertex costs its degree, not `k`: only the parts its edges reach
/// are candidates, and only their `conn` entries are ever written.
pub fn refine_boundary(g: &Graph, part: &mut [u32], k: usize, passes: usize) -> i64 {
    let n = g.num_vertices();
    let total = g.total_vwgt().max(1);
    let max_wgt = ((total as f64 / k as f64) * BALANCE_TOL).ceil() as i64;

    let mut part_wgt = vec![0i64; k];
    for v in 0..n {
        part_wgt[part[v] as usize] += g.vwgt[v];
    }

    let mut total_gain = 0i64;
    // Connectivity of the current vertex to each part; zero outside
    // `touched`, the parts its edges reach (`seen` flags them).
    let mut conn = vec![0i64; k];
    let mut seen = vec![false; k];
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let pv = part[v] as usize;
            let mut has_foreign = false;
            for (u, w) in g.edges(v) {
                let pu = part[u as usize] as usize;
                conn[pu] += w;
                if !seen[pu] {
                    seen[pu] = true;
                    touched.push(pu);
                }
                if pu != pv {
                    has_foreign = true;
                }
            }
            // Best destination of a boundary vertex by cut gain, the
            // candidates in ascending part order; require strict
            // improvement or a tie that improves balance.
            let mut best: Option<(usize, i64)> = None;
            if has_foreign {
                touched.sort_unstable();
                for &p in &touched {
                    if p == pv {
                        continue;
                    }
                    if conn[p] == 0 {
                        continue; // only move along edges
                    }
                    if part_wgt[p] + g.vwgt[v] > max_wgt {
                        continue;
                    }
                    let gain = conn[p] - conn[pv];
                    let better = match best {
                        None => gain > 0 || (gain == 0 && part_wgt[p] + g.vwgt[v] < part_wgt[pv]),
                        Some((bp, bg)) => gain > bg || (gain == bg && part_wgt[p] < part_wgt[bp]),
                    };
                    if better && (gain > 0 || (gain == 0 && part_wgt[p] + g.vwgt[v] < part_wgt[pv]))
                    {
                        best = Some((p, gain));
                    }
                }
            }
            for p in touched.drain(..) {
                conn[p] = 0;
                seen[p] = false;
            }
            if let Some((p, gain)) = best {
                part_wgt[pv] -= g.vwgt[v];
                part_wgt[p] += g.vwgt[v];
                part[v] = p as u32;
                total_gain += gain;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    total_gain
}

/// Rebalance an arbitrarily unbalanced partition by shedding load from
/// overweight parts along boundary edges. Used when the projected
/// partition violates the balance constraint badly (e.g. highly skewed
/// vertex weights from the load model).
pub fn force_balance(g: &Graph, part: &mut [u32], k: usize) {
    let n = g.num_vertices();
    let total = g.total_vwgt().max(1);
    let max_wgt = ((total as f64 / k as f64) * BALANCE_TOL).ceil() as i64;
    let mut part_wgt = vec![0i64; k];
    for v in 0..n {
        part_wgt[part[v] as usize] += g.vwgt[v];
    }
    // Repeatedly move the cheapest boundary vertex out of the heaviest
    // offending part.
    for _ in 0..4 * n {
        let Some(hp) = (0..k)
            .filter(|&p| part_wgt[p] > max_wgt)
            .max_by_key(|&p| part_wgt[p])
        else {
            break;
        };
        // boundary vertex of hp with a neighbour in the lightest
        // adjacent part; the move must strictly improve the pair
        // (dest + v lighter than hp is now), otherwise a single
        // over-cap vertex bounces between parts and can leave its
        // source part empty
        let mut best: Option<(usize, usize)> = None;
        for v in 0..n {
            if part[v] as usize != hp {
                continue;
            }
            for (u, _) in g.edges(v) {
                let pu = part[u as usize] as usize;
                if pu != hp && part_wgt[pu] + g.vwgt[v] < part_wgt[hp] {
                    let better = best.is_none_or(|(_, bp)| part_wgt[pu] < part_wgt[bp]);
                    if better {
                        best = Some((v, pu));
                    }
                }
            }
        }
        let Some((v, p)) = best else { break };
        part_wgt[hp] -= g.vwgt[v];
        part_wgt[p] += g.vwgt[v];
        part[v] = p as u32;
    }
}

/// The kernel as it was before it tracked the touched parts: every
/// boundary vertex zeroes all `k` connectivities and tries all `k`
/// parts. The tests' reference for [`refine_boundary`].
#[cfg(test)]
pub(crate) mod oracle {
    use super::BALANCE_TOL;
    use crate::graph::Graph;

    pub fn refine_boundary(g: &Graph, part: &mut [u32], k: usize, passes: usize) -> i64 {
        let n = g.num_vertices();
        let total = g.total_vwgt().max(1);
        let max_wgt = ((total as f64 / k as f64) * BALANCE_TOL).ceil() as i64;

        let mut part_wgt = vec![0i64; k];
        for v in 0..n {
            part_wgt[part[v] as usize] += g.vwgt[v];
        }

        let mut total_gain = 0i64;
        let mut conn = vec![0i64; k];
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..n {
                let pv = part[v] as usize;
                // Connectivity of v to each part.
                for c in conn.iter_mut() {
                    *c = 0;
                }
                let mut has_foreign = false;
                for (u, w) in g.edges(v) {
                    let pu = part[u as usize] as usize;
                    conn[pu] += w;
                    if pu != pv {
                        has_foreign = true;
                    }
                }
                if !has_foreign {
                    continue; // interior vertex
                }
                // Best destination by cut gain; require strict improvement
                // or a tie that improves balance.
                let mut best: Option<(usize, i64)> = None;
                for p in 0..k {
                    if p == pv {
                        continue;
                    }
                    if conn[p] == 0 {
                        continue; // only move along edges
                    }
                    if part_wgt[p] + g.vwgt[v] > max_wgt {
                        continue;
                    }
                    let gain = conn[p] - conn[pv];
                    let better = match best {
                        None => gain > 0 || (gain == 0 && part_wgt[p] + g.vwgt[v] < part_wgt[pv]),
                        Some((bp, bg)) => gain > bg || (gain == bg && part_wgt[p] < part_wgt[bp]),
                    };
                    if better && (gain > 0 || (gain == 0 && part_wgt[p] + g.vwgt[v] < part_wgt[pv]))
                    {
                        best = Some((p, gain));
                    }
                }
                if let Some((p, gain)) = best {
                    part_wgt[pv] -= g.vwgt[v];
                    part_wgt[p] += g.vwgt[v];
                    part[v] = p as u32;
                    total_gain += gain;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
        total_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::greedy_growing;
    use crate::metrics::{edge_cut, imbalance};
    use proptest::test_runner::TestRng;

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

    /// A connected random graph: a path backbone over 2–300 vertices
    /// plus random chords (never a self loop; a chord may repeat an
    /// edge), vertex weights unit, mildly or wildly skewed, edge
    /// weights unit or random in `0..4` — the same on both directions.
    fn random_graph(rng: &mut TestRng) -> Graph {
        let mut below = |m: u64| (rng.next_u64() % m) as u32;
        let n = 2 + below(299);
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        for _ in 0..below(2 * n as u64) {
            let (a, b) = (below(n as u64), below(n as u64));
            if a != b {
                edges.push((a, b));
            }
        }
        let skew = [1u64, 4, 10_000][below(3) as usize];
        let vwgt = (0..n).map(|_| 1 + below(skew) as i64).collect();
        let mut g = Graph::from_edges(n as usize, &edges, vwgt);
        if below(2) == 1 {
            // `from_edges` fills both directions of edge `i` in list
            // order, so walking the lists the same way finds them again
            let mut fill = g.xadj.clone();
            for &(a, b) in &edges {
                let w = below(4) as i64;
                for v in [a, b] {
                    g.ewgt[fill[v as usize] as usize] = w;
                    fill[v as usize] += 1;
                }
            }
        }
        g
    }

    /// The two kernels that stopped looping over all `k` parts decide
    /// what their oracles decide: the same seeds and regions, the same
    /// moves in the same order, the same gain — from the greedy start
    /// and from a round-robin one (nearly every vertex on a boundary).
    #[test]
    fn kernels_decide_what_their_oracles_decide() {
        let mut rng = TestRng::from_seed(24);
        for case in 0..320 {
            let g = random_graph(&mut rng);
            for k in [2usize, 3, 7, 16, 64, 200] {
                let grown = greedy_growing(&g, k);
                assert_eq!(
                    grown,
                    crate::initial::oracle::greedy_growing(&g, k),
                    "greedy_growing, case {case}, k = {k}"
                );
                let round_robin = (0..g.num_vertices()).map(|v| (v % k) as u32).collect();
                for start in [grown, round_robin] {
                    let (mut new, mut old) = (start.clone(), start);
                    let gain = refine_boundary(&g, &mut new, k, 6);
                    let oracle_gain = oracle::refine_boundary(&g, &mut old, k, 6);
                    assert_eq!(new, old, "refine_boundary, case {case}, k = {k}");
                    assert_eq!(gain, oracle_gain, "gain, case {case}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let g = grid(8, 8);
        // checkerboard partition: terrible cut
        let mut part: Vec<u32> = (0..64).map(|v| ((v % 8) + (v / 8)) as u32 % 2).collect();
        let before = edge_cut(&g, &part);
        let gain = refine_boundary(&g, &mut part, 2, 8);
        let after = edge_cut(&g, &part);
        assert!(after <= before);
        assert_eq!(before - after, gain);
        assert!(
            after < before / 2,
            "checkerboard should improve a lot: {before} -> {after}"
        );
    }

    #[test]
    fn refinement_respects_balance() {
        let g = grid(10, 10);
        let mut part: Vec<u32> = (0..100).map(|v| (v / 50) as u32).collect();
        refine_boundary(&g, &mut part, 2, 8);
        assert!(imbalance(&g, &part, 2) <= BALANCE_TOL + 1e-9);
    }

    #[test]
    fn force_balance_fixes_skew() {
        let g = grid(10, 10);
        // everything in part 0
        let mut part = vec![0u32; 100];
        // mark one vertex part 1 to give force_balance a boundary
        part[99] = 1;
        force_balance(&g, &mut part, 2);
        // max part weight is allowed up to ceil(50 * 1.05) = 53, i.e.
        // an imbalance of 1.06 on this integer-weighted graph.
        assert!(imbalance(&g, &part, 2) <= 1.06 + 1e-9);
    }

    #[test]
    fn force_balance_never_empties_a_part_on_giant_vertex() {
        // one vertex carries nearly all weight — heavier than the
        // balance cap. The old unconditional shed moved it out of its
        // part and stranded the partition with an empty part.
        let g = {
            let edges: Vec<(u32, u32)> = (0..11u32).map(|v| (v, v + 1)).collect();
            let mut vwgt = vec![2i64; 12];
            vwgt[0] = 1_000_000;
            Graph::from_edges(12, &edges, vwgt)
        };
        let mut part: Vec<u32> = (0..12).map(|v| (v / 6) as u32).collect();
        force_balance(&g, &mut part, 2);
        assert!(part.contains(&0), "part 0 emptied: {part:?}");
        assert!(part.contains(&1), "part 1 emptied: {part:?}");
    }
}
