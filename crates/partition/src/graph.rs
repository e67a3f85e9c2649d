//! CSR graph used by the partitioner.
//!
//! Mirrors the METIS input convention (`xadj` / `adjncy`) that the
//! paper feeds to `METIS_PartGraphKway`, with integer vertex weights
//! (the weighted load model of §V-B) and edge weights.

/// An undirected graph in CSR form. Every edge appears twice (once
/// per endpoint, with the same weight), exactly as METIS expects:
/// `u` occurs in `v`'s list as often as `v` in `u`'s. The partitioner
/// relies on it — [`greedy_growing`](crate::initial::greedy_growing)
/// counts a vertex's assigned neighbours from the neighbours' side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Offsets into `adjncy`; length `n + 1`.
    pub xadj: Vec<u32>,
    /// Concatenated adjacency lists.
    pub adjncy: Vec<u32>,
    /// Vertex weights (load per cell); length `n`.
    pub vwgt: Vec<i64>,
    /// Edge weights, parallel to `adjncy`.
    pub ewgt: Vec<i64>,
}

impl Graph {
    /// Build from CSR arrays with unit edge weights.
    pub fn new(xadj: Vec<u32>, adjncy: Vec<u32>, vwgt: Vec<i64>) -> Self {
        assert_eq!(xadj.len(), vwgt.len() + 1);
        assert_eq!(*xadj.last().unwrap() as usize, adjncy.len());
        let ewgt = vec![1; adjncy.len()];
        Graph {
            xadj,
            adjncy,
            vwgt,
            ewgt,
        }
    }

    /// Build from an explicit edge list (each undirected edge listed
    /// once). Handy in tests.
    pub fn from_edges(n: usize, edges: &[(u32, u32)], vwgt: Vec<i64>) -> Self {
        assert_eq!(vwgt.len(), n);
        let mut deg = vec![0u32; n];
        for &(a, b) in edges {
            assert_ne!(a, b, "self loops not allowed");
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut xadj = vec![0u32; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + deg[i];
        }
        let mut adjncy = vec![0u32; xadj[n] as usize];
        let mut fill = xadj.clone();
        for &(a, b) in edges {
            adjncy[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            adjncy[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        let ewgt = vec![1; adjncy.len()];
        Graph {
            xadj,
            adjncy,
            vwgt,
            ewgt,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Neighbour ids of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// `(neighbor, edge weight)` pairs of vertex `v`.
    #[inline]
    pub fn edges(&self, v: usize) -> impl Iterator<Item = (u32, i64)> + '_ {
        let r = self.xadj[v] as usize..self.xadj[v + 1] as usize;
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.ewgt[r].iter().copied())
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> i64 {
        self.vwgt.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_symmetric_csr() {
        // path 0-1-2 plus edge 0-2 (triangle)
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)], vec![1, 2, 3]);
        assert_eq!(g.num_vertices(), 3);
        let mut n0: Vec<u32> = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(g.total_vwgt(), 6);
        // symmetry: each neighbor relation appears both ways
        for v in 0..3 {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u as usize).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn edges_iterator_pairs_weights() {
        let mut g = Graph::from_edges(2, &[(0, 1)], vec![1, 1]);
        g.ewgt = vec![7, 7];
        let e: Vec<_> = g.edges(0).collect();
        assert_eq!(e, vec![(1, 7)]);
    }
}
